//! Throughput of the three stack-preprocessing drivers — naive
//! gather/scatter, cache-aware series-major tiling, and the data-parallel
//! worker pool — on the 64×64×128 acceptance cube, for `u16` and `u32`
//! pixels, under both voter kernels (the per-pixel `scalar` oracle and the
//! default SIMD-dispatched bit-sliced `bitsliced`).
//! Thread counts beyond the machine's available
//! parallelism are skipped rather than silently capped. Reported in
//! samples/s (Criterion's element throughput); `repro perf` emits the
//! same sweep as `BENCH_preprocess.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use preflight_bench::perf::{
    kernel_label, perf_algo, perf_algo_passes, sample_u16, sample_u32, synthetic_stack,
};
use preflight_core::{available_threads, BitPixel, ImageStack, Kernel, Preprocessor, DEFAULT_TILE};
use std::hint::black_box;

const WIDTH: usize = 64;
const HEIGHT: usize = 64;
const FRAMES: usize = 128;
const THREADS: &[usize] = &[1, 2, 4, 8];
const KERNELS: &[Kernel] = &[Kernel::Scalar, Kernel::Bitsliced];

fn bench_pixel_width<T: BitPixel>(c: &mut Criterion, label: &str, sample: impl Fn(u64) -> T) {
    let algo = perf_algo();
    let input: ImageStack<T> = synthetic_stack(WIDTH, HEIGHT, FRAMES, 0xA5A5, sample);
    let mut group = c.benchmark_group(format!("preprocess_throughput/{label}"));
    group.throughput(Throughput::Elements((WIDTH * HEIGHT * FRAMES) as u64));
    group.sample_size(10);

    for &kernel in KERNELS {
        let k = kernel_label(kernel);
        let naive = Preprocessor::new(&algo).naive(true).kernel(kernel);
        group.bench_function(format!("naive/{k}").as_str(), |b| {
            b.iter(|| {
                let mut work = input.clone();
                black_box(naive.run(black_box(&mut work)));
            })
        });
        let tiled = Preprocessor::new(&algo).tile(DEFAULT_TILE).kernel(kernel);
        group.bench_function(format!("tiled/{k}").as_str(), |b| {
            b.iter(|| {
                let mut work = input.clone();
                black_box(tiled.run(black_box(&mut work)));
            })
        });
        for &threads in THREADS.iter().filter(|&&t| t <= available_threads()) {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel/{k}"), threads),
                &threads,
                |b, &threads| {
                    let parallel = Preprocessor::new(&algo).threads(threads).kernel(kernel);
                    b.iter(|| {
                        let mut work = input.clone();
                        black_box(parallel.run(black_box(&mut work)));
                    })
                },
            );
        }
        // The multi-pass regime, where the bit-sliced kernel's per-group
        // transpose amortizes across repeated cut-off rebuilds.
        let multi = perf_algo_passes(3);
        let multipass = Preprocessor::new(&multi).tile(DEFAULT_TILE).kernel(kernel);
        group.bench_function(format!("tiled-3pass/{k}").as_str(), |b| {
            b.iter(|| {
                let mut work = input.clone();
                black_box(multipass.run(black_box(&mut work)));
            })
        });
    }
    group.finish();
}

fn bench(c: &mut Criterion) {
    bench_pixel_width::<u16>(c, "u16", sample_u16);
    bench_pixel_width::<u32>(c, "u32", sample_u32);
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = bench
}
criterion_main!(benches);
