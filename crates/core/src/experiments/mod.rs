//! One module per table and figure of the paper's evaluation.
//!
//! Every experiment exposes a `run` function taking the mesh resolution
//! (coarser = faster, finer = closer to the converged numbers); Table 6
//! and Figure 9 expose `run_with`, which also takes the read workload.
//! Each returns a typed result that also implements
//! [`std::fmt::Display`], printing a table shaped like the paper's.
//! `pi3d tables` runs them all; EXPERIMENTS.md records paper-vs-measured
//! values.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`calibration`] | §2.2 read-vs-write 2D DDR3 calibration |
//! | [`fig4`] | Figure 4 R-Mesh vs golden validation |
//! | [`metal_usage`] | §3 PDN metal-usage scaling |
//! | [`mounting`] | §3.1 stand-alone vs mounted-on-logic |
//! | [`fig5`] | Figure 5 TSV count and alignment |
//! | [`table2`] | Table 2 TSV location and RDL options |
//! | [`table3`] | Table 3 dedicated TSVs and wire bonding |
//! | [`table4`] | Table 4 intra-pair overlapping under F2F |
//! | [`table5`] | Table 5 memory state and I/O activity |
//! | [`table6`] | Table 6 read-scheduling policies |
//! | [`table7`] | Table 7 design cases |
//! | [`fig9`] | Figure 9 runtime vs IR-drop constraint |
//! | [`table9`] | Table 9 cross-domain co-optimization |

pub mod ablation;
pub mod ac;
pub mod calibration;
pub mod cases;
pub mod convergence;
pub mod fig4;
pub mod fig5;
pub mod fig9;
pub mod metal_usage;
pub mod mounting;
pub mod policy_cross;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
pub mod table9;
