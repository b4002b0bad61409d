//! A simulated NVIDIA Jetson TK1 (Tegra K1) platform.
//!
//! The paper instantiates and validates its DVFS-aware energy model on a
//! physical Jetson TK1 development board measured with a PowerMon 2 inline
//! power meter.  Neither is available here, so this crate provides a
//! synthetic equivalent that exercises the same code paths:
//!
//! * [`dvfs`] — the board's DVFS operating points: 15 GPU core
//!   frequency/voltage pairs and 7 memory pairs (105 permutations), with
//!   the frequency→voltage coupling the paper describes ("changing the
//!   frequency automatically changes the voltage to a predetermined
//!   value").
//! * [`ops`] — the operation taxonomy of the model: single/double
//!   precision and integer instructions, and loads from shared memory, L1,
//!   L2 and DRAM.
//! * [`kernel`] — a kernel descriptor: operation counts plus an achieved
//!   utilization, which is all the timing/power models need.
//! * [`timing`] — a roofline-style execution-time model (per-class
//!   throughputs scaled by frequency, bound resource dominates).
//! * [`power`] — the **hidden ground truth** power model: dynamic power
//!   `ĉ0·V²·f`-shaped per-op energies, leakage `c1·V`, and constant
//!   `P_misc`, with a small activity nonlinearity and measurement noise so
//!   that model fitting faces an honest estimation problem.
//! * [`device`] — the executable device: set an operating point, execute a
//!   kernel, obtain an [`device::Execution`] whose instantaneous power a
//!   power meter can sample.
//!
//! The ground-truth constants are calibrated so that the *derived*
//! per-operation energies reproduce the paper's Table I; the fitting
//! pipeline in `dvfs-energy-model` never reads them — it only sees
//! (operation counts, execution time, sampled power), exactly the
//! observables the authors had.

pub mod catalog;
pub mod chaos;
pub mod device;
pub mod dvfs;
pub mod faults;
pub mod kernel;
pub mod ops;
pub mod power;
pub mod rng;
pub mod serial;
pub mod spec;
pub mod timing;

pub use chaos::{ChaosConfig, ChaosInjector, ChaosRates, StormKind, WorkerEvent};
pub use compat::hash::mix64;
pub use device::{Device, Execution};
pub use dvfs::{core_points, mem_points, DvfsPoint, OperatingPoint, Setting};
pub use faults::{FaultConfig, FaultInjector, FaultRates, LatchOutcome};
pub use kernel::KernelProfile;
pub use ops::{OpClass, OpVector, ALL_CLASSES, COMPUTE_CLASSES, MEMORY_CLASSES, NUM_OP_CLASSES};
pub use power::{EnergyComponents, TruthConstants};
pub use spec::DeviceSpec;
pub use timing::{MachineSpec, TimingModel};
