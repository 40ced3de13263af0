//! Preprocessor traits shared by the dynamic algorithm and the baselines.

use crate::container::Image;
use crate::tuning::TuneDecision;
use crate::voter::VoterScratch;
use preflight_obs::Obs;

/// Selects the voter-correction kernel of [`crate::AlgoNgst`].
///
/// Both kernels produce bit-identical output; they differ only in how the
/// work is scheduled. The bit-sliced kernel is the default everywhere
/// ([`crate::Preprocessor`], the serving engine, the CLI); the scalar
/// gather remains as the reference implementation and identity-check
/// oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Kernel {
    /// The per-pixel reference gather ([`crate::VoterMatrix::correction`]).
    Scalar,
    /// The bit-sliced kernel (default): the series is transposed into
    /// per-bit-plane `u64` words (64 pixels per word) and cut-off
    /// estimation, pruning, accumulator combine and window repair all run
    /// in bit-plane space, with a runtime-dispatched SIMD tier (see
    /// [`crate::bitslice`]).
    #[default]
    Bitsliced,
}

impl core::fmt::Display for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Kernel::Scalar => "scalar",
            Kernel::Bitsliced => "bitsliced",
        })
    }
}

impl core::str::FromStr for Kernel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "scalar" => Ok(Kernel::Scalar),
            "bitsliced" => Ok(Kernel::Bitsliced),
            other => Err(format!(
                "unknown kernel '{other}' (expected 'scalar' or 'bitsliced')"
            )),
        }
    }
}

/// Memory layout of the batch buffer handed to
/// [`SeriesPreprocessor::preprocess_batch_exec`].
///
/// Drivers ask the algorithm which layout it wants for a given kernel via
/// [`SeriesPreprocessor::batch_layout`] and gather the tile accordingly, so
/// the algorithm never has to transpose what the driver already laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BatchLayout {
    /// `buf[k*frames..(k+1)*frames]` is series `k` — the layout
    /// [`crate::ImageStack::gather_tile_series`] produces. Natural for
    /// per-series kernels (each series is a contiguous slice).
    SeriesMajor,
    /// `buf[f*count..(f+1)*count]` holds sample `f` of every series — the
    /// layout [`crate::ImageStack::gather_tile_time_major`] produces.
    /// Natural for the bit-sliced group kernel (it packs 64 *series* per
    /// machine word at each time step) and cheaper to gather: both sides
    /// of the copy are contiguous rows.
    TimeMajor,
}

/// A preprocessing algorithm operating on the temporal series of one
/// coordinate (the NGST shape: `N` readouts of the same pixel).
///
/// Implementations repair suspected bit-flips *in place* and return the
/// number of samples they modified. A series shorter than the algorithm's
/// minimum window is left untouched (returning 0) rather than failing, so
/// stack drivers never abort mid-image; use the algorithm's own fallible
/// constructor/validator when strictness is wanted.
pub trait SeriesPreprocessor<T> {
    /// A short human-readable identifier (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Repairs `series` in place, returning the number of modified samples.
    fn preprocess(&self, series: &mut [T]) -> usize;

    /// [`SeriesPreprocessor::preprocess`] with caller-provided scratch
    /// buffers, for workers that loop over many series.
    ///
    /// Results must be identical to `preprocess`; the scratch is purely an
    /// allocation-recycling vehicle. The default implementation ignores the
    /// scratch (correct for stateless baselines that allocate nothing);
    /// algorithms with per-series buffers (e.g. [`crate::AlgoNgst`])
    /// override it.
    fn preprocess_with(&self, series: &mut [T], scratch: &mut VoterScratch<T>) -> usize {
        let _ = scratch;
        self.preprocess(series)
    }

    /// The full execution entry point: scratch recycling plus an explicit
    /// [`Kernel`] selection and an observability handle for per-stage
    /// spans. Results must be bit-identical for every kernel; the kernel is
    /// purely a scheduling choice. The default implementation ignores both
    /// extras (correct for the baselines, which have a single code path);
    /// [`crate::AlgoNgst`] overrides it to dispatch between the scalar
    /// gather and the bit-sliced kernel.
    fn preprocess_exec(
        &self,
        series: &mut [T],
        scratch: &mut VoterScratch<T>,
        kernel: Kernel,
        obs: &Obs,
    ) -> usize {
        let _ = (kernel, obs);
        self.preprocess_with(series, scratch)
    }

    /// The batch-buffer layout this algorithm wants for `kernel`. Drivers
    /// must gather tiles in this layout before calling
    /// [`preprocess_batch_exec`](Self::preprocess_batch_exec) and scatter
    /// them back the same way. The default ([`BatchLayout::SeriesMajor`])
    /// matches the default per-series batch loop.
    fn batch_layout(&self, kernel: Kernel) -> BatchLayout {
        let _ = kernel;
        BatchLayout::SeriesMajor
    }

    /// Repairs a batch of equal-length series stored contiguously in the
    /// layout [`batch_layout`](Self::batch_layout) reports for `kernel`,
    /// returning the total number of modified samples.
    ///
    /// Results must be bit-identical to calling
    /// [`preprocess_exec`](Self::preprocess_exec) on each series in turn —
    /// the batch entry exists so algorithms with cross-series instruction
    /// parallelism (the bit-sliced kernel votes on 64 series per word op)
    /// can exploit it; the default implementation is exactly that loop
    /// over a series-major buffer.
    fn preprocess_batch_exec(
        &self,
        buf: &mut [T],
        frames: usize,
        scratch: &mut VoterScratch<T>,
        kernel: Kernel,
        obs: &Obs,
    ) -> usize {
        if frames == 0 {
            return 0;
        }
        buf.chunks_exact_mut(frames)
            .map(|series| self.preprocess_exec(series, scratch, kernel, obs))
            .sum()
    }

    /// [`preprocess_batch_exec`](Self::preprocess_batch_exec) with an
    /// optional frozen calibration from an online [`Tuner`]. The default
    /// ignores the decision (baselines have no Λ/Υ/window knobs to
    /// retune); [`crate::AlgoNgst`] overrides it to substitute the chosen
    /// λ/Υ and freeze the decision's bit windows via `static_windows`.
    ///
    /// [`Tuner`]: crate::tuning::Tuner
    fn preprocess_batch_tuned(
        &self,
        buf: &mut [T],
        frames: usize,
        scratch: &mut VoterScratch<T>,
        kernel: Kernel,
        obs: &Obs,
        decision: Option<&TuneDecision>,
    ) -> usize {
        let _ = decision;
        self.preprocess_batch_exec(buf, frames, scratch, kernel, obs)
    }
}

/// A preprocessing algorithm operating on a single 2-D plane (the OTIS
/// shape: one wavelength band of the radiance cube).
pub trait PlanePreprocessor<T: Copy> {
    /// A short human-readable identifier (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Repairs `plane` in place, returning the number of modified pixels.
    fn preprocess_plane(&self, plane: &mut Image<T>) -> usize;
}

impl<T, P: SeriesPreprocessor<T> + ?Sized> SeriesPreprocessor<T> for &P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn preprocess(&self, series: &mut [T]) -> usize {
        (**self).preprocess(series)
    }
    fn preprocess_with(&self, series: &mut [T], scratch: &mut VoterScratch<T>) -> usize {
        (**self).preprocess_with(series, scratch)
    }
    fn preprocess_exec(
        &self,
        series: &mut [T],
        scratch: &mut VoterScratch<T>,
        kernel: Kernel,
        obs: &Obs,
    ) -> usize {
        (**self).preprocess_exec(series, scratch, kernel, obs)
    }
    fn batch_layout(&self, kernel: Kernel) -> BatchLayout {
        (**self).batch_layout(kernel)
    }
    fn preprocess_batch_exec(
        &self,
        buf: &mut [T],
        frames: usize,
        scratch: &mut VoterScratch<T>,
        kernel: Kernel,
        obs: &Obs,
    ) -> usize {
        (**self).preprocess_batch_exec(buf, frames, scratch, kernel, obs)
    }
    fn preprocess_batch_tuned(
        &self,
        buf: &mut [T],
        frames: usize,
        scratch: &mut VoterScratch<T>,
        kernel: Kernel,
        obs: &Obs,
        decision: Option<&TuneDecision>,
    ) -> usize {
        (**self).preprocess_batch_tuned(buf, frames, scratch, kernel, obs, decision)
    }
}

impl<T: Copy, P: PlanePreprocessor<T> + ?Sized> PlanePreprocessor<T> for &P {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn preprocess_plane(&self, plane: &mut Image<T>) -> usize {
        (**self).preprocess_plane(plane)
    }
}

#[cfg(test)]
mod tests {
    use super::Kernel;

    #[test]
    fn kernel_round_trips_through_strings() {
        for k in [Kernel::Scalar, Kernel::Bitsliced] {
            assert_eq!(k.to_string().parse::<Kernel>().unwrap(), k);
        }
        assert!("vector".parse::<Kernel>().is_err());
        assert!("sweep".parse::<Kernel>().is_err());
        assert_eq!(Kernel::default(), Kernel::Bitsliced);
    }
}
