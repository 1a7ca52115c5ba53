//! Synthetic image-classification datasets standing in for MNIST/CIFAR-10.
//!
//! The paper evaluates on MNIST and CIFAR-10, which are not available in
//! this offline environment. Every SupeRBNN experiment measures *relative*
//! accuracy across hardware configurations, so the substitution requirement
//! ("Modelling substitutions" in `ARCHITECTURE.md`) is a multi-class image
//! task that (a) flows through the same conv/BN/binarize code paths, (b) is
//! learnable but not trivially so, and (c) is deterministic from a seed.
//! Two generators:
//!
//! * [`digits::generate_digits`] — **SynthDigits**, the MNIST stand-in:
//!   10 classes of 1×16×16 seven-segment-style digit glyphs with random
//!   shifts, stroke gain and pixel noise;
//! * [`objects::generate_objects`] — **SynthObjects**, the CIFAR-10
//!   stand-in: 10 classes of 3×16×16 low-frequency colour textures
//!   (per-class sinusoid mixtures) with shifts, gain and noise.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digits;
pub mod objects;

mod dataset;

pub use dataset::{BatchIter, Dataset, SynthConfig};
