//! `bf-nn` — a from-scratch neural-network library implementing the
//! paper's classifier.
//!
//! §4.1, footnote 2: *"LSTM (32 units, sigmoid activation) with 2 pairs of
//! convolutional layers (256 filters, stride = 3, ReLU activation) and max
//! pooling layers (pool size = 4), a dropout layer (rate = 0.7), and a
//! fully connected classification layer (output size = 100, softmax
//! activation). We use the Adam optimizer with learning rate = 0.001."*
//!
//! The sanctioned offline crate set has no deep-learning framework, so
//! this crate implements the pieces directly: a contiguous f32 [`Tensor`],
//! the paper's layers with hand-derived backward passes ([`ConvPool1d`],
//! the conv stage: convolution, ReLU and max or average pooling in one
//! layer; [`Lstm`], [`Dropout`], [`Dense`]), softmax cross-entropy, the
//! [`Adam`] optimizer, and the assembled [`CnnLstm`], which holds one of
//! each layer in a named field and calls them in order. Every layer's
//! gradient is validated against finite differences in the test suite.
//!
//! # Example
//!
//! ```
//! use bf_nn::{CnnLstm, CnnLstmConfig, Tensor};
//!
//! let cfg = CnnLstmConfig::scaled(300, 5, 8); // trace len 300, 5 classes, 8 filters
//! let mut net = CnnLstm::new(cfg, 42);
//! let x = Tensor::zeros(&[2, 1, 300]); // batch of 2 traces
//! let logits = net.forward(&x, false);
//! assert_eq!(logits.shape(), &[2, 5]);
//! ```

mod conv;
pub mod dense;
pub mod dropout;
pub mod loss;
pub mod lstm;
pub mod network;
pub mod optim;
pub mod param;
pub mod serialize;
pub mod stage;
pub mod tensor;
pub mod workspace;

pub use dense::Dense;
pub use dropout::Dropout;
pub use loss::{softmax_cross_entropy, softmax_cross_entropy_soft};
pub use lstm::{Lstm, LstmActivation};
pub use network::{CnnLstm, CnnLstmConfig};
pub use optim::Adam;
pub use param::Param;
pub use serialize::{load_network, read_params, save_network, write_params, CheckpointError};
pub use stage::{ConvPool1d, PoolKind};
pub use tensor::Tensor;
pub use workspace::WorkspaceStats;
