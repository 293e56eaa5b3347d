//! # ft-bigint — arbitrary-precision signed integers, from scratch
//!
//! This crate is the arithmetic substrate for the fault-tolerant parallel
//! Toom-Cook reproduction. It holds the sequential multiply kernels that
//! the Toom-Cook algorithms of `ft-toom-core` are measured against and
//! recurse into:
//!
//! * schoolbook (`Θ(n²)`, the paper's naïve baseline) and its halved
//!   squaring;
//! * Karatsuba and Karatsuba squaring over a scratch arena ([`kernels`],
//!   [`workspace`]);
//! * the two-prime NTT for operands from 1 Mbit ([`ntt`]).
//!
//! [`BigInt::mul_auto`] picks among them by size. The crate also holds
//! division, gcd, modular and Montgomery arithmetic, and the text codecs
//! ([`fmt`]): the hex codec is the wire format of the HTTP front door.
//!
//! Representation: sign-magnitude, little-endian `u64` limbs, normalized
//! (no trailing zero limbs; the empty magnitude is zero).
//!
//! Every limb-level inner loop reports work to a thread-local counter
//! ([`metrics`]) so the distributed-machine simulator can account the
//! arithmetic cost `F` of each simulated processor (the paper's unit-cost
//! word model, §2.1).
//!
//! ```
//! use ft_bigint::BigInt;
//! let a: BigInt = "123456789012345678901234567890".parse().unwrap();
//! let b: BigInt = "-987654321098765432109876543210".parse().unwrap();
//! let c = &a * &b;
//! assert_eq!(c.to_string(),
//!     "-121932631137021795226185032733622923332237463801111263526900");
//! ```

pub mod digits;
pub mod fmt;
pub mod gcd;
pub mod kernels;
pub mod metrics;
pub mod modular;
pub mod montgomery;
pub mod ntt;
pub mod ops;
pub mod random;
pub mod workspace;

mod arith;
mod bigint;
mod convert;
mod division;
mod square;

pub use bigint::{BigInt, Sign};
pub use division::DivisionError;
pub use montgomery::MontgomeryCtx;

/// Number of bits in one limb.
pub const LIMB_BITS: u32 = 64;

/// One machine limb (the "word" of the paper's cost model).
pub type Limb = u64;

/// Double-width type used for carry/borrow propagation.
pub(crate) type DoubleLimb = u128;
