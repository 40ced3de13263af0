//! # preflight
//!
//! Input-data preprocessing for fault tolerance in space applications — a
//! full reproduction of *"Pre-Processing Input Data to Augment Fault
//! Tolerance in Space Applications"* (Nair, Koren, Koren & Krishna,
//! DSN 2003).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | contents |
//! |--------|----------|
//! | [`core`] | the preprocessing algorithms: `Algo_NGST`, `Algo_OTIS`, median/mean smoothing, bitwise majority voting, bit windows, sensitivity Λ, voter count Υ |
//! | [`faults`] | the uncorrelated (Γ₀) and correlated (Γ_ini run model) bit-flip injectors, fault maps, memory interleaving |
//! | [`datagen`] | NGST Gaussian-walk stacks, quasi-NGST σ sweeps, the OTIS Blob/Stripe/Spots scenes, Planck physics |
//! | [`metrics`] | the paper's Ψ relative-error metric, RMSE, bit-level confusion scoring |
//! | [`fits`] | FITS I/O plus the bit-flip-aware header sanity analysis (the Λ = 0 mode) |
//! | [`rice`] | the block-adaptive Rice compression codec used for downlink |
//! | [`ngst`] | the NGST application: up-the-ramp detector, cosmic-ray model and rejection, the 16-worker master/slave pipeline |
//! | [`otis`] | the OTIS application: temperature/emissivity retrieval, the ALFT primary/secondary scheme with output filter and logic grid |
//! | [`supervisor`] | the supervised runtime: per-stage deadlines, retries with backoff, the graceful-degradation ladder, recovery-event logging |
//! | [`obs`] | observability: the lock-free metrics registry (counters, gauges, latency histograms), RAII tracing spans, Prometheus text rendering |
//! | [`tune`] | the online Λ/Υ auto-tuning control plane: rolling Φ quantile sketches, per-stream calibrators with hysteresis, snapshot/restore |
//!
//! # Quickstart
//!
//! ```
//! use preflight::prelude::*;
//!
//! // 1. A pristine NGST temporal series (Gaussian-walk model, Eq. 1)…
//! let mut rng = seeded_rng(42);
//! let model = NgstModel::default();
//! let clean = model.series(&mut rng);
//!
//! // 2. …corrupted by 1 % uncorrelated bit-flips…
//! let mut observed = clean.clone();
//! Uncorrelated::new(0.01).unwrap().inject_words(&mut observed, &mut rng);
//! let corrupted = observed.clone();
//!
//! // 3. …and repaired by the paper's dynamic preprocessing algorithm.
//! let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
//! algo.preprocess(&mut observed);
//!
//! let report = PsiReport::measure(&clean, &corrupted, &observed);
//! assert!(report.after < report.no_preprocessing);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod tuning;

pub use preflight_core as core;
pub use preflight_datagen as datagen;
pub use preflight_faults as faults;
pub use preflight_fits as fits;
pub use preflight_metrics as metrics;
pub use preflight_ngst as ngst;
pub use preflight_obs as obs;
pub use preflight_otis as otis;
pub use preflight_rice as rice;
pub use preflight_serve as serve;
pub use preflight_supervisor as supervisor;
pub use preflight_tune as tune;

/// One-stop imports for the common workflow: generate → corrupt →
/// preprocess → score.
///
/// The execution entry point is [`Preprocessor`]
/// (`Preprocessor::new(algo).threads(n).observer(&obs).run(&mut stack)`),
/// the only stack driver.
///
/// [`Preprocessor`]: preflight_core::Preprocessor
pub mod prelude {
    pub use preflight_core::{
        available_threads, detected_tiers, dispatch_tier, AlgoNgst, AlgoOtis, BitVoter, Cube,
        DispatchTier, Image, ImageStack, Kernel, MeanSmoother, MedianSmoother, NgstConfig,
        OtisConfig, PhysicalBounds, PlanePreprocessor, Preprocessor, Sensitivity,
        SeriesPreprocessor, Upsilon,
    };
    pub use preflight_datagen::{
        emissivity_scene, ngst::sky_image, planck::DEFAULT_BANDS, radiance_cube, temperature_scene,
        NgstModel, OtisScene,
    };
    pub use preflight_faults::{
        seeded_rng, ChaosConfig, ChaosInjector, ChaosModel, ChaosOutcome, ChaosPlan, Correlated,
        FaultMap, Interleaver, Uncorrelated,
    };
    pub use preflight_fits::{
        add_checksums, analyze, read_stack, verify_checksums, write_stack, ChecksumStatus,
    };
    pub use preflight_metrics::{psi, BitConfusion, PsiReport};
    pub use preflight_ngst::{
        CosmicRayModel, CrRejector, DetectorConfig, NgstPipeline, PipelineConfig, PipelineError,
        SupervisedReport, TransitFault, UpTheRamp,
    };
    pub use preflight_obs::{Obs, Snapshot, Span, TimelineRecorder};
    pub use preflight_otis::{AlftError, AlftHarness, AlftOutcome, ProcessFault, Retrieval};
    pub use preflight_rice::RiceCodec;
    pub use preflight_serve::{ClientBuilder, ServerBuilder};
    pub use preflight_supervisor::{
        DegradationLadder, FtLevel, RecoveryEvent, RecoveryLog, RetryPolicy, Supervision,
    };
    pub use preflight_tune::{StreamCalibrator, TuneDecision, TuneParams, Tuner};
}
