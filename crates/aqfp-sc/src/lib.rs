//! Stochastic computing on AQFP (paper Sections 2.3, 4.3, 5.4.2).
//!
//! SupeRBNN's key architectural insight is that the *defect* of the AQFP
//! buffer — stochastic switching inside its gray-zone — is exactly the
//! random-bit source stochastic computing needs. Holding a crossbar input
//! for an observation window of `L` clock cycles turns each column's neuron
//! output into a stochastic number whose probability encodes the column's
//! analog value; approximate parallel counters (APCs) then add those numbers
//! across the crossbars that share one logical filter, and a comparator
//! re-binarizes the total (paper Fig. 6).
//!
//! Modules:
//!
//! * [`number`] — bit-streams with unipolar/bipolar encodings;
//! * [`apc`] — the approximate parallel counter, as a functional model
//!   validated bit-exactly against its gate-level netlist;
//! * [`accumulate`] — the SC-based accumulation module (Fig. 6b) with its
//!   hardware cost model;
//! * [`analysis`] — SC error analysis: the average mismatch error AME of
//!   Eq. 18 and the Bernoulli estimator variance governing the bit-stream
//!   length trade-off (Fig. 10);
//! * [`lfsr`] — the conventional LFSR stochastic-number generator and the
//!   stream-correlation metric quantifying the paper's "true randomness"
//!   advantage of AQFP thermal switching;
//! * [`bitplane`] — the shared bit-packing substrate: ±1 planes and
//!   matrices in `u64` words with XNOR–popcount dot and tile-range kernels,
//!   used by the packed streams here, the software BNN classifier head,
//!   and the batched deploy engine;
//! * [`counter`] — the keyed counter-mode RNG ([`CounterStream`]): every
//!   Bernoulli draw a pure function of (key, counter) coordinates, so
//!   observation windows generate independently, in any order, on any
//!   worker count — the one sampler of the scalar and packed stochastic
//!   inference engines;
//! * [`packed`] — bit-packed streams (64 bits/word) for simulating the
//!   long-stream *pure-SC* baseline at tolerable cost;
//! * [`mux`] — MUX-based scaled addition, the accumulator of pure-SC
//!   designs and the source of their long-stream requirement;
//! * [`fsm`] — the Brown–Card `Stanh` saturating-counter activation used
//!   by pure-SC DNN layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulate;
pub mod analysis;
pub mod apc;
pub mod bitplane;
pub mod counter;
pub mod fsm;
pub mod lfsr;
pub mod mux;
pub mod number;
pub mod packed;

pub use accumulate::{AccumulationModule, ScAccumError};
pub use apc::Apc;
pub use bitplane::{random_probe_plane, striped_probe_plane, BitPlane, PackedMatrix, Word, V256};
pub use counter::CounterStream;
pub use number::Bitstream;
pub use packed::PackedStream;

/// Crate-wide result alias: every fallible SC-accumulation API fails with
/// [`ScAccumError`].
pub type Result<T> = std::result::Result<T, ScAccumError>;
