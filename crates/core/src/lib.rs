//! # ft-toom-core — fault-tolerant parallel Toom-Cook integer multiplication
//!
//! The paper's contribution, implemented end to end:
//!
//! | Module | Paper | Contents |
//! |---|---|---|
//! | [`points`] | §2.2, Rem. 2.2 | classic homogeneous evaluation point sets |
//! | [`bilinear`] | §2.2, Alg. 1 | ⟨U,V,W⟩ bilinear forms; exact interpolation |
//! | [`seq`] | §2.2 | sequential schoolbook / Karatsuba / Toom-Cook-k / (k₁,k₂) |
//! | [`lazy`] | §2.3, Alg. 2 | lazy-interpolation digit-vector kernels |
//! | [`toomgraph`] | Def. 2.3 | inversion-sequence search + Bodrato TC-3 sequence |
//! | [`parallel`] | §3 | BFS-DFS parallel Toom-Cook on the simulated machine |
//! | [`ft`] | §4, §5.2, §6 | linear-coded, polynomial-coded, and combined fault tolerance |
//! | [`baselines`] | §5.3 | replication and checkpoint/recompute baselines |
//! | [`soft`] | §7 | soft-fault detection via redundant evaluations |
//! | [`residue`] | §7 (spirit) | O(n) check of any product modulo two secret 61-bit primes |
//! | [`cost`] | §5 | closed-form cost formulas (Theorems 5.1–5.3) |
//! | [`rayon_engine`] | practice | shared-memory parallel Toom-Cook for wall-clock benches |
//!
//! ## Quick start
//!
//! ```
//! use ft_bigint::BigInt;
//! use ft_toom_core::seq;
//!
//! let a: BigInt = "123456789123456789123456789123456789".parse().unwrap();
//! let b: BigInt = "-987654321987654321987654321".parse().unwrap();
//! let product = seq::toom_k(&a, &b, 3); // Toom-Cook-3
//! assert_eq!(product, a.mul_schoolbook(&b));
//! ```

pub mod apps;
pub mod baselines;
pub mod bilinear;
pub mod cost;
pub mod ft;
pub mod lazy;
pub mod parallel;
pub mod points;
pub mod rayon_engine;
pub mod residue;
pub mod seq;
pub mod soft;
pub mod toomgraph;

pub use bilinear::ToomPlan;
