//! Model checkpointing: save and load network parameters.
//!
//! The attack's offline phase trains a classifier once; the online phase
//! reuses it on fresh traces (§4.1). This module persists parameters in a
//! small self-describing binary format (magic, version, per-tensor
//! lengths, little-endian f32 data) with no dependencies beyond `std`.
//!
//! All fallible paths return a typed [`CheckpointError`] — truncated,
//! corrupt, or shape-mismatched checkpoint files are reported, never
//! panicked on, so a damaged file degrades a run instead of aborting it.

use crate::network::CnnLstm;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"BFNNCKPT";
const VERSION: u32 = 1;
/// Most elements [`read_params`] reserves before the bytes that fill
/// them have arrived. The header's counts and lengths are untrusted:
/// one 24-byte header can declare a tensor of `u32::MAX` floats.
const RESERVE_AHEAD: usize = 1 << 16;

/// Why a parameter checkpoint could not be written or read.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying reader/writer error (including truncation, surfaced as
    /// `UnexpectedEof`).
    Io(io::Error),
    /// The payload is not a bf-nn checkpoint or is internally
    /// inconsistent.
    Format(String),
    /// The checkpoint is well-formed but does not fit the target
    /// network's architecture.
    ShapeMismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(msg) => write!(f, "malformed checkpoint: {msg}"),
            CheckpointError::ShapeMismatch(msg) => {
                write!(f, "checkpoint does not fit network: {msg}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Write a parameter snapshot (as produced by [`CnnLstm::save_params`])
/// to a writer.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_params<W: Write>(mut w: W, params: &[Vec<f32>]) -> Result<(), CheckpointError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for p in params {
        w.write_all(&(p.len() as u64).to_le_bytes())?;
    }
    for p in params {
        for v in p {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Read a parameter snapshot previously written by [`write_params`].
///
/// # Errors
///
/// [`CheckpointError::Format`] for wrong magic/version or implausible
/// headers, [`CheckpointError::Io`] for truncated payloads and reader
/// errors.
pub fn read_params<R: Read>(mut r: R) -> Result<Vec<Vec<f32>>, CheckpointError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::Format("not a bf-nn checkpoint".to_owned()));
    }
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let version = u32::from_le_bytes(buf4);
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    r.read_exact(&mut buf4)?;
    let n_tensors = u32::from_le_bytes(buf4) as usize;
    if n_tensors > 1_000_000 {
        return Err(CheckpointError::Format("implausible tensor count".to_owned()));
    }
    let mut lens = Vec::with_capacity(n_tensors.min(RESERVE_AHEAD));
    let mut buf8 = [0u8; 8];
    for _ in 0..n_tensors {
        r.read_exact(&mut buf8)?;
        let len = u64::from_le_bytes(buf8);
        if len > u64::from(u32::MAX) {
            return Err(CheckpointError::Format("implausible tensor size".to_owned()));
        }
        lens.push(len as usize);
    }
    let mut params = Vec::with_capacity(lens.len().min(RESERVE_AHEAD));
    for len in lens {
        // Grown as the payload arrives: a truncated file ends in
        // `UnexpectedEof` having reserved about what it held.
        let mut data = Vec::with_capacity(len.min(RESERVE_AHEAD));
        for _ in 0..len {
            r.read_exact(&mut buf4)?;
            data.push(f32::from_le_bytes(buf4));
        }
        params.push(data);
    }
    Ok(params)
}

/// Save a trained network's parameters to a file.
///
/// # Errors
///
/// Propagates file-creation and write errors.
pub fn save_network(net: &mut CnnLstm, path: &std::path::Path) -> Result<(), CheckpointError> {
    let file = std::fs::File::create(path)?;
    write_params(io::BufWriter::new(file), &net.save_params())
}

/// Load parameters from a file into a compatible network. The network is
/// untouched unless the whole load succeeds.
///
/// # Errors
///
/// I/O and format errors from [`read_params`], and
/// [`CheckpointError::ShapeMismatch`] when the checkpoint does not fit
/// the network's architecture.
pub fn load_network(net: &mut CnnLstm, path: &std::path::Path) -> Result<(), CheckpointError> {
    let file = std::fs::File::open(path)?;
    let params = read_params(io::BufReader::new(file))?;
    net.try_restore_params(&params)
        .map_err(CheckpointError::ShapeMismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CnnLstmConfig;
    use crate::tensor::Tensor;

    #[test]
    fn roundtrip_in_memory() {
        let params = vec![vec![1.0f32, -2.5, 3.25], vec![], vec![0.0; 7]];
        let mut buf = Vec::new();
        write_params(&mut buf, &params).unwrap();
        let back = read_params(&buf[..]).unwrap();
        assert_eq!(back, params);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_params(&b"NOTACKPT........."[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_payload() {
        let params = vec![vec![1.0f32; 10]];
        let mut buf = Vec::new();
        write_params(&mut buf, &params).unwrap();
        buf.truncate(buf.len() - 5);
        let err = read_params(&buf[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        write_params(&mut buf, &[vec![1.0]]).unwrap();
        buf[8] = 99; // clobber version
        assert!(matches!(
            read_params(&buf[..]),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn network_checkpoint_roundtrip() {
        let cfg = CnnLstmConfig::scaled(300, 4, 6);
        let mut a = CnnLstm::new(cfg, 1);
        let mut b = CnnLstm::new(cfg, 2); // different init
        let dir = std::env::temp_dir().join("bf_nn_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.ckpt");
        save_network(&mut a, &path).unwrap();
        load_network(&mut b, &path).unwrap();
        let x = Tensor::zeros(&[1, 1, 300]);
        assert_eq!(a.forward(&x, false).data(), b.forward(&x, false).data());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_architecture_is_typed_error_and_preserves_network() {
        let mut small = CnnLstm::new(CnnLstmConfig::scaled(300, 4, 6), 1);
        let mut big = CnnLstm::new(CnnLstmConfig::scaled(300, 4, 12), 1);
        let dir = std::env::temp_dir().join("bf_nn_ckpt_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.ckpt");
        save_network(&mut small, &path).unwrap();
        let before = big.save_params();
        let err = load_network(&mut big, &path).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch(_)), "{err}");
        // Failed loads must not partially overwrite the target network.
        assert_eq!(big.save_params(), before);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_render_for_operators() {
        let e = CheckpointError::Format("nope".to_owned());
        assert!(e.to_string().contains("nope"));
        let e = CheckpointError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "cut"));
        assert!(e.to_string().contains("cut"));
    }
}
