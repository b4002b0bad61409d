//! A simulated PowerMon 2 inline power meter.
//!
//! PowerMon 2 (Bedard et al., SoutheastCon 2010) sits between the power
//! supply and the device under test and samples direct current and voltage
//! at up to 1024 Hz.  The paper's entire measurement methodology flows
//! through this device, so the simulation reproduces its measurement
//! path:
//!
//! * per-channel current/voltage sensing with ADC quantization and
//!   calibrated gain/offset error ([`adc`]);
//! * fixed-rate sampling of the device's instantaneous power waveform
//!   ([`PowerMon::measure`]);
//! * trapezoidal integration of the sample stream into energy
//!   ([`trace::PowerTrace::energy_j`]).
//!
//! The measurement error this injects (quantization, sampling of the
//! supply ripple, white sensor noise) is what keeps the downstream model
//! validation honest: predicted-vs-"measured" errors in the reproduction
//! have the same provenance as the paper's.

pub mod adc;
pub mod monitor;
pub mod segment;
pub mod trace;

pub use adc::AdcModel;
pub use monitor::{MeasuredExecution, PowerMon};
pub use segment::{segment_trace, Segment, SegmentConfig};
pub use trace::PowerTrace;
