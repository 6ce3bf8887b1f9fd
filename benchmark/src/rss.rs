//! Peak resident set size of this process, from `getrusage(2)`.

/// `struct rusage` of 64-bit Linux: two `struct timeval`s, then
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// The most memory this process has held resident so far, in MB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out exactly as the
    // kernel's `struct rusage` on 64-bit Linux (the cfg above), which is
    // all `getrusage` writes to; RUSAGE_SELF needs no other argument.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    usage.ru_maxrss as f64 * 1024.0 / 1e6
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_covers_a_touched_block() {
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        let mb = super::peak_rss_mb();
        assert!((67.0..1e5).contains(&mb), "{mb} MB");
    }
}
