//! SupeRBNN: randomized binary neural networks on Adiabatic
//! Quantum-Flux-Parametron devices — the paper's primary contribution.
//!
//! This crate wires the substrates together into the co-design framework:
//!
//! * [`config`] — the joint hardware configuration (crossbar size,
//!   gray-zone width, SC bit-stream length, clock);
//! * [`spec`] — network descriptions that build both the *software* model
//!   (randomized-aware training, Section 5.1) and its *hardware* deployment
//!   from one source of truth;
//! * [`bnmatch`] — batch-normalization matching (Eq. 16): folding BN into
//!   the AQFP neuron threshold with zero peripheral circuits;
//! * [`deploy`](mod@deploy) — the hardware-faithful inference engine: weight tiling
//!   onto crossbars, stochastic neuron read-out, SC-based inter-crossbar
//!   accumulation, digital OR-pooling, digital popcount classifier head;
//! * [`energy`] — the system-level energy/power/throughput estimator that
//!   produces the "Ours" rows of Tables 2–3;
//! * [`optimize`] — the AME-driven hardware-configuration co-optimization
//!   of Section 5.4;
//! * [`trainer`] — the training loop (SGD + cosine schedule + warmup +
//!   ReCU) of Section 6.1;
//! * [`experiments`] — drivers for every figure/table reproduction
//!   (Fig. 10, Fig. 11, Table 2, Table 3, ablations);
//! * [`robustness`] — Monte Carlo fault-robustness campaigns on the
//!   packed deploy engine: per-trial fault draws injected directly into
//!   the lowered bitplanes, fanned across threads, aggregated into
//!   per-rate accuracy distributions;
//! * [`equiv`] — the bounded equivalence checker over the four inference
//!   engines (exhaustive on small geometries, random at scale, under
//!   every structural fault class), returning typed counterexamples;
//! * [`screening`] — ATPG die screening: greedy set-cover probe-vector
//!   generation over the enumerated structural fault universe, with a
//!   serialized probe set for millisecond production screening.
//!
//! # Quickstart
//!
//! ```
//! use superbnn::config::HardwareConfig;
//! use superbnn::spec::NetSpec;
//! use superbnn::trainer::{TrainConfig, Trainer};
//! use superbnn::deploy::deploy;
//! use bnn_datasets::{digits::generate_digits, SynthConfig};
//!
//! // Tiny end-to-end pipeline (a real run uses more data and epochs).
//! let data = generate_digits(&SynthConfig { samples_per_class: 6, ..Default::default() });
//! let (train, test) = data.split(0.34);
//! let hw = HardwareConfig::default();
//! let spec = NetSpec::mlp(&[1, 16, 16], &[32], 10);
//! let mut net = spec.build_software(&hw, 7);
//! let trainer = Trainer::new(TrainConfig { epochs: 1, ..Default::default() });
//! trainer.train(&mut net, &train);
//! let deployed = deploy(&spec, &net, &hw).unwrap();
//! let acc = deployed.accuracy(&test, 1, None); // SC noise keyed on seed 1
//! assert!((0.0..=1.0).contains(&acc));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bnmatch;
pub mod config;
pub mod deploy;
pub mod energy;
pub mod equiv;
pub mod experiments;
pub mod optimize;
pub mod robustness;
pub mod screening;
pub mod spec;
pub mod trainer;

pub use config::HardwareConfig;
pub use deploy::{deploy, DeployError, DeployedModel};
pub use spec::NetSpec;

/// Crate-wide result alias: every fallible deployment API fails with
/// [`DeployError`].
pub type Result<T> = std::result::Result<T, DeployError>;
