//! Golden test for the span timeline: a sequential [`Preprocessor`] run
//! over a known geometry must close a deterministic sequence of spans,
//! and the JSON timeline must render one well-formed object per span.
//!
//! Durations obviously vary run to run; the *golden* part is the stage
//! sequence, the span count, and the JSON shape.

use preflight_core::{AlgoNgst, ImageStack, Kernel, Preprocessor, Sensitivity, Upsilon};
use preflight_obs::{Obs, TimelineRecorder};

fn noisy_stack(w: usize, h: usize, frames: usize) -> ImageStack<u16> {
    let mut st = ImageStack::new(w, h, frames);
    let mut state = 0x5EED_5EED_5EED_5EEDu64;
    for v in st.as_mut_slice() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        *v = 27_000 + (state >> 60) as u16;
        if state >> 32 & 0xFF < 4 {
            *v ^= 1 << (10 + (state >> 40 & 0x5) as u32);
        }
    }
    st
}

#[test]
fn sequential_run_closes_a_golden_span_sequence() {
    // 64×48 at the default 32-tile → a 2×2 grid: exactly 4 tile spans,
    // all closing before the enclosing "preprocess" span. The bit-sliced
    // kernel closes its two stage spans as a pair per unit of work (one
    // voter round each on this workload): the batched entry per 64-series
    // group (two 32×32 and two 32×16 tiles → 16 + 16 + 8 + 8 = 48 groups),
    // and the per-series entry of the naive driver per series (8·6 = 48).
    const TILED: &[&str] = &["tile", "tile", "tile", "tile", "preprocess"];
    const NAIVE: &[&str] = &["preprocess"];
    const BITSLICE: [&str; 2] = ["bitslice.transpose", "bitslice.combine"];
    let cases = [
        (Kernel::Bitsliced, false, (64, 48), TILED, BITSLICE, 48),
        (Kernel::Bitsliced, true, (8, 6), NAIVE, BITSLICE, 48),
    ];
    let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
    for (kernel, naive, (w, h), skeleton, pair, units) in cases {
        let obs = Obs::new();
        let recorder = TimelineRecorder::new();
        obs.set_subscriber(Some(recorder.clone()));
        let mut stack = noisy_stack(w, h, 16);
        Preprocessor::new(&algo)
            .kernel(kernel)
            .naive(naive)
            .observer(&obs)
            .run(&mut stack);

        let label = format!("{kernel} naive={naive}");
        let (stages, outer): (Vec<&str>, Vec<&str>) = recorder
            .records()
            .iter()
            .map(|r| r.stage)
            .partition(|s| pair.contains(s));
        assert_eq!(
            outer, skeleton,
            "{label}: span close order is part of the observability contract"
        );
        assert_eq!(stages.len(), 2 * units, "{label}: one pair per unit");
        for p in stages.chunks(2) {
            assert_eq!(p, pair, "{label}: stages close in order");
        }
    }
}

#[test]
fn timeline_records_are_ordered_and_render_as_json() {
    let obs = Obs::new();
    let recorder = TimelineRecorder::new();
    obs.set_subscriber(Some(recorder.clone()));

    let algo = AlgoNgst::new(Upsilon::FOUR, Sensitivity::new(80).unwrap());
    let mut stack = noisy_stack(32, 32, 16);
    Preprocessor::new(&algo).observer(&obs).run(&mut stack);

    let records = recorder.records();
    assert!(!records.is_empty());
    // Start offsets are measured from the registry epoch, so they are
    // monotone non-decreasing in close order on a single thread.
    for pair in records.windows(2) {
        assert!(
            pair[0].start_us <= pair[1].start_us + pair[1].dur_us,
            "span starts must stay within the run's envelope"
        );
    }
    // The outer "preprocess" span must cover every tile span.
    let outer = records.last().expect("outer span closes last");
    assert_eq!(outer.stage, "preprocess");
    for tile in &records[..records.len() - 1] {
        assert!(
            tile.start_us >= outer.start_us,
            "tile spans start inside the preprocess span"
        );
    }

    let json = recorder.to_json();
    assert_eq!(
        json.matches("\"stage\":").count(),
        records.len(),
        "one JSON object per span"
    );
    assert_eq!(json.matches("\"start_us\":").count(), records.len());
    assert_eq!(json.matches("\"dur_us\":").count(), records.len());
    assert_eq!(json.matches("\"thread\":").count(), records.len());
}
