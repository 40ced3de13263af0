//! # preflight-ngst
//!
//! The NGST application benchmark of the paper's §2: a simulated
//! Next-Generation Space Telescope data-processing pipeline.
//!
//! The real system (Fig. 1 of the paper) is a 16-processor COTS cluster: a
//! master fragments every 1024×1024 detector readout stack into 128×128
//! tiles, slave nodes reject cosmic-ray artifacts from each tile's temporal
//! series, and the master reassembles and Rice-compresses the integrated
//! image for downlink. This crate reproduces each stage:
//!
//! - [`detector`] — non-destructive up-the-ramp readout simulation with
//!   read noise and the cosmic-ray hit model (the paper's baseline
//!   expectation: ~10 % of pixels hit per 1000-second exposure);
//! - [`crreject`] — two-point-difference jump detection plus slope
//!   estimation, the standard published approach for NGST cosmic-ray
//!   rejection (Fixsen et al. 2000, the paper's ref. \[12\]);
//! - [`pipeline`] — the master/slave tile pipeline over std `mpsc` channels,
//!   with optional bit-flip injection "in transit" and optional input
//!   preprocessing on the slave side — the integration point where the
//!   paper's contribution plugs into the host application. Runs can be
//!   *supervised* ([`pipeline::NgstPipeline::run_with`]): per-tile
//!   deadlines, bounded retries with backoff, and the graceful-degradation
//!   ladder keep a baseline flowing even when workers stall, crash or
//!   corrupt their messages (chaos injection via
//!   `preflight_faults::chaos`).
//!
//! # Example
//!
//! ```
//! use preflight_core::Image;
//! use preflight_faults::seeded_rng;
//! use preflight_ngst::detector::{DetectorConfig, UpTheRamp};
//! use preflight_ngst::pipeline::{NgstPipeline, PipelineConfig};
//!
//! let det = UpTheRamp::new(DetectorConfig { width: 32, height: 32, frames: 16, ..DetectorConfig::default() });
//! let flux = Image::filled(32, 32, 50.0f32); // e⁻/s everywhere
//! let stack = det.clean_stack(&flux, &mut seeded_rng(1));
//! let report = NgstPipeline::new(PipelineConfig { workers: 4, tile_size: 16, ..PipelineConfig::default() })
//!     .unwrap()
//!     .run(&stack)
//!     .unwrap();
//! assert_eq!(report.rate.width(), 32);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crreject;
pub mod detector;
pub mod pipeline;
pub mod schedule;

pub use crreject::{CrRejector, SeriesRejection};
pub use detector::{CosmicRayModel, CrHit, DetectorConfig, UpTheRamp};
pub use pipeline::{
    FitsIngestReport, NgstPipeline, PipelineConfig, PipelineError, PipelineReport,
    SupervisedReport, SupervisionOutcome, TileLevel, TransitFault, TILE_STAGE,
};
pub use schedule::{BaselineScheduler, ScheduleConfig, ScheduleReport};
