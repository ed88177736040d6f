//! The benchmark-owned tracing wrapper.
//!
//! Every stack enters the world inside a [`Traced`] wrapper. Untraced, the
//! wrapper is a plain delegate that only counts calls (the correctness gate
//! compares the `on_frame` count with `Stats.delivered`). Traced, it records
//! spans — boundary, frame kind, start, end, and the `run_until` span that
//! caused it — into preallocated memory, keeps per-boundary totals, and keeps
//! some of the frames it saw for the unit-cost replay. Nothing is written
//! out until the run has ended.
//!
//! Every call is counted, but only one call in [`TIMED_EVERY`] at each
//! boundary is timed: the swarm workloads make two million callbacks a
//! second, two clock reads cost 80 ns on the reference box, and timing every
//! call cost 25-30 % of the wall time it is there to explain. Boundary
//! totals scale the timed calls up by the exact call count. `run_until`
//! spans are few and are all timed.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer; spans inside the crates are ROADMAP item 1.

use dapes_netsim::prelude::*;
use std::any::Any;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Which boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Boundary {
    /// One `World::run_until` call made by the workload driver.
    RunUntil,
    /// `NetStack::on_start`.
    OnStart,
    /// `NetStack::on_frame`.
    OnFrame,
    /// `NetStack::on_timer`.
    OnTimer,
    /// `NetStack::on_tx_done`.
    OnTxDone,
    /// A call from the benchmark's relay stack into the `ndn` crate.
    Ndn,
}

impl Boundary {
    /// Every boundary, in index order.
    pub const ALL: [Boundary; 6] = [
        Boundary::RunUntil,
        Boundary::OnStart,
        Boundary::OnFrame,
        Boundary::OnTimer,
        Boundary::OnTxDone,
        Boundary::Ndn,
    ];

    fn label(self) -> &'static str {
        match self {
            Boundary::RunUntil => "run_until",
            Boundary::OnStart => "on_start",
            Boundary::OnFrame => "on_frame",
            Boundary::OnTimer => "on_timer",
            Boundary::OnTxDone => "on_tx_done",
            Boundary::Ndn => "ndn",
        }
    }
}

/// One call in this many is timed at each boundary but `RunUntil`.
pub const TIMED_EVERY: u64 = 16;

/// Upper bound on the frames kept for the unit-cost replay (every timed
/// frame is kept: one in sixteen of those the wrappers saw).
const FRAME_CAPACITY: usize = 65_536;

/// Frame kinds above this are folded into the last per-kind bucket; the
/// protocols use 1–8, 20–29 and 50–53.
const KIND_BUCKETS: usize = 64;

/// Stored spans are capped so the largest workload's trace stays a file one
/// can open; the totals always cover every timed call.
const SPAN_CAPACITY: usize = 1 << 18;

/// A recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Sequence number among the recorded spans.
    pub id: u32,
    /// The `run_until` span that caused this one (`None` for a `run_until`
    /// span itself; `on_start` runs inside the first).
    pub parent: Option<u32>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Where it was recorded.
    pub boundary: Boundary,
    /// `frame.kind` for `on_frame` spans, 0 otherwise.
    pub kind: u16,
}

/// Time and calls at one boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    /// Estimated host seconds: the timed calls' time scaled to all calls.
    pub secs: f64,
    /// Calls, counted exactly.
    pub calls: u64,
}

#[derive(Clone, Copy, Default)]
struct Timed {
    ns: u64,
    calls: u64,
}

impl Timed {
    fn add(&mut self, dur_ns: u64) {
        self.ns += dur_ns;
        self.calls += 1;
    }

    /// Seconds all `calls` took, going by the timed ones.
    fn scaled_secs(&self, calls: u64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / 1e9 * calls as f64 / self.calls as f64
        }
    }
}

struct State {
    spans: Vec<Span>,
    next_id: u32,
    current_run: Option<u32>,
    timed: [Timed; Boundary::ALL.len()],
    timed_frames_by_kind: [Timed; KIND_BUCKETS],
    frames: Vec<(FrameKind, Payload)>,
}

/// Shared by every [`Traced`] wrapper of one world.
pub struct Tracer {
    enabled: bool,
    frame_capacity: usize,
    epoch: Instant,
    /// Exact call counts; each also decides which calls are timed.
    calls: [AtomicU64; Boundary::ALL.len()],
    state: Mutex<State>,
}

impl Tracer {
    /// Creates a tracer; with `enabled == false` it only counts calls.
    /// `keep_frames` is for the workloads whose frames the unit-cost replay
    /// prices: a kept frame pins its buffer, which on the baselines (no
    /// replay, three million frames) cost 5 % of wall by itself.
    pub fn new(enabled: bool, keep_frames: bool) -> Arc<Self> {
        let spans = Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 });
        let frame_capacity = if enabled && keep_frames {
            FRAME_CAPACITY
        } else {
            0
        };
        let frames = Vec::with_capacity(frame_capacity);
        Arc::new(Tracer {
            enabled,
            frame_capacity,
            epoch: Instant::now(),
            calls: Default::default(),
            state: Mutex::new(State {
                spans,
                next_id: 0,
                current_run: None,
                timed: [Timed::default(); Boundary::ALL.len()],
                timed_frames_by_kind: [Timed::default(); KIND_BUCKETS],
                frames,
            }),
        })
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a callback panicked while holding the trace state")
    }

    /// Counts a call at `boundary`; returns its start time if this call is
    /// one of those timed.
    pub fn begin(&self, boundary: Boundary) -> Option<Instant> {
        // Relaxed: a statistic, read only after the run.
        let n = self.calls[boundary as usize].fetch_add(1, Ordering::Relaxed);
        if !self.enabled {
            return None;
        }
        if boundary == Boundary::RunUntil {
            // Reserve the id now: the callbacks this run causes are recorded
            // before it returns and name it as their parent.
            let mut st = self.state();
            st.current_run = Some(st.next_id);
            st.next_id = st.next_id.wrapping_add(1);
            return Some(Instant::now());
        }
        n.is_multiple_of(TIMED_EVERY).then(Instant::now)
    }

    /// Records the span a timed call opened with [`Tracer::begin`].
    pub fn end(&self, start: Option<Instant>, boundary: Boundary, kind: FrameKind) {
        if let Some(start) = start {
            self.record(start, boundary, kind, None);
        }
    }

    fn record(&self, start: Instant, boundary: Boundary, kind: FrameKind, keep: Option<&Payload>) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let mut st = self.state();
        st.timed[boundary as usize].add(dur_ns);
        if boundary == Boundary::OnFrame {
            st.timed_frames_by_kind[(kind.0 as usize).min(KIND_BUCKETS - 1)].add(dur_ns);
        }
        let (id, parent) = match (boundary, st.current_run) {
            (Boundary::RunUntil, Some(reserved)) => {
                st.current_run = None;
                (reserved, None)
            }
            (_, parent) => {
                let id = st.next_id;
                st.next_id = st.next_id.wrapping_add(1);
                (id, parent)
            }
        };
        if st.spans.len() < SPAN_CAPACITY {
            st.spans.push(Span {
                id,
                parent,
                start_ns,
                dur_ns,
                boundary,
                kind: kind.0,
            });
        }
        if let Some(payload) = keep {
            if st.frames.len() < self.frame_capacity {
                st.frames.push((kind, payload.clone()));
            }
        }
    }

    /// `on_frame` calls the wrappers delegated, traced or not.
    pub fn on_frame_calls(&self) -> u64 {
        self.calls[Boundary::OnFrame as usize].load(Ordering::Relaxed)
    }

    /// Calls and estimated time at `boundary`.
    pub fn total(&self, boundary: Boundary) -> Total {
        let calls = self.calls[boundary as usize].load(Ordering::Relaxed);
        Total {
            secs: self.state().timed[boundary as usize].scaled_secs(calls),
            calls,
        }
    }

    /// Estimated seconds of `on_frame` for the `delivered` frames of one
    /// kind (the simulator counts deliveries by kind exactly).
    pub fn frame_secs(&self, kind: FrameKind, delivered: u64) -> f64 {
        self.state().timed_frames_by_kind[(kind.0 as usize).min(KIND_BUCKETS - 1)]
            .scaled_secs(delivered)
    }

    /// Spans recorded, stored or not.
    pub fn span_count(&self) -> u64 {
        self.state().timed.iter().map(|t| t.calls).sum()
    }

    /// The frames kept for the unit-cost replay.
    pub fn frames(&self) -> Vec<(FrameKind, Payload)> {
        self.state().frames.clone()
    }

    /// Renders the stored spans in Chrome's trace-event format
    /// (`chrome://tracing`, Perfetto). Call after the run has ended.
    pub fn chrome_trace(&self, process_name: &str) -> String {
        let st = self.state();
        let mut out = String::with_capacity(st.spans.len() * 120 + 256);
        out.push_str("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{process_name}\"}}}}"
        );
        for s in &st.spans {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"kind\":{}}}}}",
                s.boundary.label(),
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent.map_or(-1, i64::from),
                s.kind
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A [`NetStack`] that delegates every callback to `S` and reports to a
/// shared [`Tracer`]. `as_any` forwards to the inner stack, so
/// `World::stack::<S>` keeps working through the wrapper.
pub struct Traced<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S: NetStack + 'static> Traced<S> {
    /// Wraps and boxes `inner`, ready for `World::add_node`.
    pub fn boxed(inner: S, tracer: &Arc<Tracer>) -> Box<dyn NetStack> {
        Box::new(Traced {
            inner,
            tracer: tracer.clone(),
        })
    }
}

impl<S: NetStack + 'static> NetStack for Traced<S> {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let span = self.tracer.begin(Boundary::OnStart);
        self.inner.on_start(ctx);
        self.tracer.end(span, Boundary::OnStart, FrameKind(0));
    }

    fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: &Frame) {
        let span = self.tracer.begin(Boundary::OnFrame);
        self.inner.on_frame(ctx, frame);
        if let Some(start) = span {
            self.tracer
                .record(start, Boundary::OnFrame, frame.kind, Some(&frame.payload));
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: u64) {
        let span = self.tracer.begin(Boundary::OnTimer);
        self.inner.on_timer(ctx, token);
        self.tracer.end(span, Boundary::OnTimer, FrameKind(0));
    }

    fn on_tx_done(&mut self, ctx: &mut NodeCtx<'_>, outcome: TxOutcome) {
        let span = self.tracer.begin(Boundary::OnTxDone);
        self.inner.on_tx_done(ctx, outcome);
        self.tracer.end(span, Boundary::OnTxDone, FrameKind(0));
    }

    fn live_state_bytes(&self) -> usize {
        self.inner.live_state_bytes()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
