//! A from-scratch neural-network substrate with binarization-aware training.
//!
//! The SupeRBNN paper trains binary neural networks (VGG-Small, ResNet-18,
//! an MNIST MLP) with a *randomized-aware* forward/backward pass that bakes
//! the AQFP gray-zone law into the activation binarizer. No Rust ML
//! framework in the allowed dependency set provides that, so this crate
//! implements the necessary substrate directly:
//!
//! * [`tensor`] — a dense row-major `f32` tensor with the operations the
//!   layers need (matmul, im2col convolution, reductions);
//! * [`layers`] — `Conv2d` / `Linear` (optionally weight-binarized with
//!   XNOR-Net α scaling), `BatchNorm`, `HardTanh`, `MaxPool2d`, `Flatten`,
//!   and the [`BinActivation`](layers::BinActivation) whose forward pass is
//!   the paper's Eq. 7 and whose backward pass is Eq. 10;
//! * [`binarize`] — deterministic sign/STE and randomized-erf binarizers;
//! * [`recu`] — the weight rectified clamp (Eq. 17, following ReCU);
//! * [`optim`] — SGD with momentum plus the cosine-annealing-with-warmup
//!   schedule of Section 6.1;
//! * [`loss`] — softmax cross-entropy;
//! * [`model`] — a sequential container and train/eval helpers.
//!
//! The crate is deliberately framework-shaped (layers cache what their
//! backward needs; an explicit trait instead of autograd) — the network
//! sizes of this reproduction do not justify a tape machine, and the manual
//! backward passes are each individually testable against finite
//! differences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binarize;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod recu;
pub mod tensor;

pub use binarize::Binarizer;
pub use model::Sequential;
pub use tensor::Tensor;

/// RNG used across training; seeded for reproducibility.
pub type NnRng = rand::rngs::StdRng;
pub use rand::SeedableRng;
