//! The adaptive batching scheduler.
//!
//! Admitted submissions land here, keyed by *(stream, geometry, dtype,
//! parameters)*. The batcher coalesces compatible submissions into one
//! temporal stack so the engine always preprocesses a deep, cache-friendly
//! cube instead of many shallow ones. A group flushes when any of:
//!
//! - its depth reaches the **effective target** — the configured
//!   `target_frames` scaled up under load (adaptive batching: a busy queue
//!   buys throughput with depth, an idle queue optimises latency),
//! - a submission carries the **end-of-stream** flag (the client needs its
//!   answer now; also what makes single-shot requests byte-identical to the
//!   in-process path),
//! - the group's **deadline** (`max_delay` since it opened) elapses,
//! - the server **drains**.
//!
//! The batcher holds each job's [`AdmissionPermit`] transitively, so frames
//! parked here still occupy bounded-queue capacity — backpressure covers
//! the whole pipeline, not just the wire.

use crate::queue::{AdmissionGate, AdmissionPermit};
use crate::reply::ReplySink;
use crate::wire::{Dtype, SubmitRequest};
use preflight_obs::Histogram;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Frames a group should reach before it flushes (scaled when
    /// adaptive). Clamped up to the request's Υ so a flushed stack always
    /// carries at least one full voting window.
    pub target_frames: usize,
    /// Hard per-batch depth cap, whatever the load: a group flushes before
    /// an append would push it past this. A *single* submission deeper than
    /// the cap still flushes alone (its depth is bounded upstream by the
    /// wire payload cap, not here).
    pub max_frames: usize,
    /// Deadline: a group never waits longer than this after opening.
    pub max_delay: Duration,
    /// Scale `target_frames` with queue utilisation.
    pub adaptive: bool,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            target_frames: 16,
            max_frames: 256,
            max_delay: Duration::from_millis(5),
            adaptive: true,
        }
    }
}

impl BatchConfig {
    /// The depth a group must reach to flush right now, given queue load.
    ///
    /// Under light load the base target applies (first-frame latency wins);
    /// past 50 % utilisation the target doubles and past 75 % it
    /// quadruples, so a saturated server amortises dispatch overhead over
    /// deeper stacks.
    pub fn effective_target(&self, gate: &AdmissionGate, upsilon: usize) -> usize {
        let base = self.target_frames.max(upsilon);
        if !self.adaptive {
            return base.min(self.max_frames.max(upsilon));
        }
        let scaled = match (gate.in_flight() * 4).checked_div(gate.capacity()) {
            Some(q) if q >= 3 => base * 4,
            Some(q) if q >= 2 => base * 2,
            _ => base,
        };
        scaled.min(self.max_frames.max(upsilon))
    }
}

/// What one admitted submission carries through the daemon.
pub struct SubmitJob {
    /// The parsed request.
    pub request: SubmitRequest,
    /// The bounded-queue slot this request occupies until its response is
    /// queued for writing.
    pub permit: AdmissionPermit,
    /// When the request won admission (queue-wait telemetry starts here).
    pub admitted_at: Instant,
    /// Routes this request's reply back to its owning connection.
    pub reply: ReplySink,
}

/// Commands the batcher thread accepts.
pub enum BatcherCmd {
    /// An admitted submission to coalesce.
    Submit(SubmitJob),
    /// Flush every open group now (drain path).
    FlushAll,
    /// Flush everything and exit the batcher thread.
    Stop,
}

/// The coalescing key: only frames that are temporally continuable into
/// one stack may share a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Logical stream.
    pub stream_id: u64,
    /// Pixel type.
    pub dtype: Dtype,
    /// Frame width.
    pub width: usize,
    /// Frame height.
    pub height: usize,
    /// Sensitivity Λ.
    pub lambda: u8,
    /// Voter count Υ.
    pub upsilon: u8,
}

impl GroupKey {
    /// The key a request batches under.
    pub fn of(req: &SubmitRequest) -> Self {
        GroupKey {
            stream_id: req.stream_id,
            dtype: req.payload.dtype(),
            width: req.payload.width(),
            height: req.payload.height(),
            lambda: req.lambda,
            upsilon: req.upsilon,
        }
    }
}

/// A flushed batch on its way to the engine.
pub struct BatchJob {
    /// The shared key of every job inside.
    pub key: GroupKey,
    /// The coalesced submissions, in arrival order (their frames
    /// concatenate in this order).
    pub jobs: Vec<SubmitJob>,
    /// Total temporal depth of the concatenated stack.
    pub total_frames: usize,
}

struct Group {
    jobs: Vec<SubmitJob>,
    frames: usize,
    opened_at: Instant,
}

/// Runs the batching loop until [`BatcherCmd::Stop`] or every sender is
/// gone. Never blocks longer than the nearest group deadline.
///
/// `batch_hist` receives each group's formation time (open to flush) —
/// the `batch` stage of the serve pipeline.
pub fn run_batcher(
    rx: mpsc::Receiver<BatcherCmd>,
    engine_tx: mpsc::Sender<BatchJob>,
    gate: AdmissionGate,
    config: BatchConfig,
    batch_hist: Histogram,
) {
    let mut groups: HashMap<GroupKey, Group> = HashMap::new();
    let idle_tick = Duration::from_millis(50);
    loop {
        let timeout = groups
            .values()
            .map(|g| (g.opened_at + config.max_delay).saturating_duration_since(Instant::now()))
            .min()
            .unwrap_or(idle_tick);
        match rx.recv_timeout(timeout) {
            Ok(BatcherCmd::Submit(job)) => {
                let key = GroupKey::of(&job.request);
                let eos = job.request.eos;
                let frames = job.request.payload.frames();
                // Never grow an open group past the hard cap by appending:
                // flush what is there first, then start fresh.
                if groups
                    .get(&key)
                    .is_some_and(|g| g.frames + frames > config.max_frames)
                {
                    flush(&mut groups, key, &engine_tx, &batch_hist);
                }
                let group = groups.entry(key).or_insert_with(|| Group {
                    jobs: Vec::new(),
                    frames: 0,
                    opened_at: Instant::now(),
                });
                group.jobs.push(job);
                group.frames += frames;
                let target = config.effective_target(&gate, key.upsilon as usize);
                if eos || group.frames >= target || group.frames >= config.max_frames {
                    flush(&mut groups, key, &engine_tx, &batch_hist);
                }
            }
            Ok(BatcherCmd::FlushAll) => flush_all(&mut groups, &engine_tx, &batch_hist),
            Ok(BatcherCmd::Stop) => {
                flush_all(&mut groups, &engine_tx, &batch_hist);
                return;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let due: Vec<GroupKey> = groups
                    .iter()
                    .filter(|(_, g)| g.opened_at.elapsed() >= config.max_delay)
                    .map(|(k, _)| *k)
                    .collect();
                for key in due {
                    flush(&mut groups, key, &engine_tx, &batch_hist);
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                flush_all(&mut groups, &engine_tx, &batch_hist);
                return;
            }
        }
    }
}

fn flush(
    groups: &mut HashMap<GroupKey, Group>,
    key: GroupKey,
    engine_tx: &mpsc::Sender<BatchJob>,
    batch_hist: &Histogram,
) {
    if let Some(group) = groups.remove(&key) {
        batch_hist.observe_us(group.opened_at.elapsed().as_micros() as u64);
        let batch = BatchJob {
            key,
            total_frames: group.frames,
            jobs: group.jobs,
        };
        // A dead engine (shutdown race) drops the jobs, releasing their
        // permits; the clients see the connection close.
        let _ = engine_tx.send(batch);
    }
}

fn flush_all(
    groups: &mut HashMap<GroupKey, Group>,
    engine_tx: &mpsc::Sender<BatchJob>,
    batch_hist: &Histogram,
) {
    let keys: Vec<GroupKey> = groups.keys().copied().collect();
    for key in keys {
        flush(groups, key, engine_tx, batch_hist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FramePayload;
    use preflight_core::ImageStack;

    fn submit(stream_id: u64, frames: usize, eos: bool) -> (SubmitRequest, usize) {
        let stack = ImageStack::<u16>::new(4, 4, frames);
        (
            SubmitRequest {
                request_id: 1,
                stream_id,
                lambda: 80,
                upsilon: 4,
                eos,
                payload: FramePayload::U16(stack),
            },
            frames,
        )
    }

    fn job(
        gate: &AdmissionGate,
        req: SubmitRequest,
    ) -> (SubmitJob, mpsc::Receiver<(u64, crate::wire::Message)>) {
        let (sink, rx) = ReplySink::detached();
        (
            SubmitJob {
                request: req,
                permit: gate.try_acquire().expect("capacity"),
                admitted_at: Instant::now(),
                reply: sink,
            },
            rx,
        )
    }

    fn spawn_batcher(
        gate: &AdmissionGate,
        config: BatchConfig,
    ) -> (
        mpsc::Sender<BatcherCmd>,
        mpsc::Receiver<BatchJob>,
        std::thread::JoinHandle<()>,
    ) {
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let (batch_tx, batch_rx) = mpsc::channel();
        let g = gate.clone();
        let hist = preflight_obs::Obs::disabled().histogram(preflight_obs::STAGE_SECONDS, None);
        let handle = std::thread::spawn(move || run_batcher(cmd_rx, batch_tx, g, config, hist));
        (cmd_tx, batch_rx, handle)
    }

    #[test]
    fn eos_flushes_immediately() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 1000,
            max_delay: Duration::from_secs(60),
            ..BatchConfig::default()
        };
        let (cmd_tx, batch_rx, handle) = spawn_batcher(&gate, config);
        let (req, _) = submit(7, 4, true);
        let (j, _reply_rx) = job(&gate, req);
        cmd_tx.send(BatcherCmd::Submit(j)).unwrap();
        let batch = batch_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("EOS must flush without waiting for depth or deadline");
        assert_eq!(batch.total_frames, 4);
        assert_eq!(batch.key.stream_id, 7);
        cmd_tx.send(BatcherCmd::Stop).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn depth_target_flushes_and_streams_stay_separate() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 8,
            max_delay: Duration::from_secs(60),
            adaptive: false,
            ..BatchConfig::default()
        };
        let (cmd_tx, batch_rx, handle) = spawn_batcher(&gate, config);
        // Stream 1 gets 4 + 4 frames (reaches the target), stream 2 only 4.
        for (stream, eos) in [(1, false), (2, false), (1, false)] {
            let (req, _) = submit(stream, 4, eos);
            let (j, _r) = job(&gate, req);
            cmd_tx.send(BatcherCmd::Submit(j)).unwrap();
        }
        let batch = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(batch.key.stream_id, 1);
        assert_eq!(batch.total_frames, 8);
        assert_eq!(batch.jobs.len(), 2);
        assert!(
            batch_rx.try_recv().is_err(),
            "stream 2 is below target and its deadline is far away"
        );
        cmd_tx.send(BatcherCmd::Stop).unwrap();
        let leftover = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(leftover.key.stream_id, 2);
        handle.join().unwrap();
    }

    #[test]
    fn deadline_flushes_a_shallow_group() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 1000,
            max_delay: Duration::from_millis(30),
            ..BatchConfig::default()
        };
        let (cmd_tx, batch_rx, handle) = spawn_batcher(&gate, config);
        let (req, _) = submit(3, 2, false);
        let (j, _r) = job(&gate, req);
        let before = Instant::now();
        cmd_tx.send(BatcherCmd::Submit(j)).unwrap();
        let batch = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(
            before.elapsed() >= Duration::from_millis(25),
            "flushed before the deadline"
        );
        assert_eq!(batch.total_frames, 2);
        cmd_tx.send(BatcherCmd::Stop).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn max_frames_cap_flushes_before_append() {
        let gate = AdmissionGate::new(8);
        let config = BatchConfig {
            target_frames: 1000,
            max_frames: 6,
            max_delay: Duration::from_secs(60),
            adaptive: false,
        };
        let (cmd_tx, batch_rx, handle) = spawn_batcher(&gate, config);
        // 4 + 4 frames: appending the second submission would cross the
        // 6-frame cap, so the open group must flush alone first instead of
        // shipping an 8-frame batch.
        for _ in 0..2 {
            let (req, _) = submit(5, 4, false);
            let (j, _r) = job(&gate, req);
            cmd_tx.send(BatcherCmd::Submit(j)).unwrap();
        }
        let first = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(first.total_frames, 4, "cap exceeded by appending");
        assert_eq!(first.jobs.len(), 1);
        cmd_tx.send(BatcherCmd::Stop).unwrap();
        let second = batch_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(second.total_frames, 4);
        handle.join().unwrap();
    }

    #[test]
    fn adaptive_target_deepens_under_load() {
        let gate = AdmissionGate::new(4);
        let config = BatchConfig {
            target_frames: 8,
            max_frames: 256,
            adaptive: true,
            ..BatchConfig::default()
        };
        assert_eq!(config.effective_target(&gate, 4), 8, "idle queue");
        let _p1 = gate.try_acquire().unwrap();
        let _p2 = gate.try_acquire().unwrap();
        assert_eq!(config.effective_target(&gate, 4), 16, "half full");
        let _p3 = gate.try_acquire().unwrap();
        assert_eq!(config.effective_target(&gate, 4), 32, "nearly full");
        // Υ always wins over a tiny target.
        let idle = AdmissionGate::new(4);
        let small = BatchConfig {
            target_frames: 2,
            ..config
        };
        assert_eq!(small.effective_target(&idle, 8), 8);
    }
}
