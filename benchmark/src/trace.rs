//! Outside-in tracing state: what the `Traced<S>` adapter (in `adapter.rs`)
//! records around each call into a reclamation domain.
//!
//! Everything is per client thread and thread-local: every call is
//! *counted*; every [`OP_SAMPLE_EVERY`]-th operation is a *sampled* span.
//! Sampled operations alternate between two kinds:
//!
//! * a **whole** span times only the operation, with unfenced clock reads,
//!   so it reads what the operation costs in the pipelined, untimed run
//!   (operation latencies and `trace.coverage` come from these);
//! * a **detail** span also times the calls into the domain as child spans,
//!   with fenced clock reads, so each child reads that call's own latency
//!   (the per-call `smr.*` metrics and the self times come from these). The
//!   fences and the ≈ 55 ns a timed call costs distort the detail span
//!   itself, which is why the two kinds are kept apart.
//!
//! One deviation from "time every call of a sampled operation": `protect`
//! is timed once in [`PROTECT_SAMPLE_EVERY`] calls. A `list-read` operation
//! makes ≈ 500 `protect` calls of a few ns; timing each would make the
//! operation 95 % timer. Spans stay in memory until the trial ends.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

pub const OP_SAMPLE_EVERY: u64 = 64;
pub const PROTECT_SAMPLE_EVERY: u32 = 16;
/// Sampling stops (counting continues) once a thread holds this many spans.
const MAX_SPANS: usize = 1 << 20;

/// The calls the adapter sees, plus the operation span that parents them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    BeginOp,
    EndOp,
    Protect,
    BeginWrite,
    EndWrite,
    Retire,
    Flush,
    NoteAlloc,
    NoteDealloc,
    /// A data-structure read (`contains`).
    OpRead,
    /// A data-structure update (`insert` / `remove`).
    OpUpdate,
}

pub const KINDS: usize = Kind::OpUpdate as usize + 1;

impl Kind {
    pub fn name(self) -> &'static str {
        [
            "begin_op",
            "end_op",
            "protect",
            "begin_write",
            "end_write",
            "retire",
            "flush",
            "note_alloc",
            "note_dealloc",
            "op_read",
            "op_update",
        ][self as usize]
    }
}

/// `parent` of a span that is itself an operation.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    /// A `retire`/`flush` across which a reclamation pass ran.
    pub pass: bool,
    /// An operation span whose calls were timed (see the module docs).
    pub detail: bool,
    /// Index of the operation span this call belongs to.
    pub parent: u32,
    /// Clock ticks (see [`clock`]).
    pub start: u64,
    pub dur: u32,
    /// For an operation span: timer pairs taken inside it (its children).
    pub pairs: u32,
    /// For an operation span: `protect` calls made inside it, timed or not.
    pub protects: u32,
}

/// One reclamation pass, seen from outside as a `retire`/`flush` call across
/// which the caller's shard counters advanced. Every pass is logged, sampled
/// operation or not.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Clock ticks.
    pub dur: u64,
    pub freed: u64,
    /// Unreclaimed nodes in the domain right after the pass.
    pub garbage_after: u64,
    /// Signals sent plus membarrier calls made by this pass.
    pub pings: u64,
}

#[derive(Default)]
pub struct ThreadLog {
    pub spans: Vec<Span>,
    pub passes: Vec<Pass>,
    /// Durations, in ticks, of timed `retire` calls that were not passes.
    pub retire_push: Vec<u32>,
}

struct Hot {
    /// Calls per kind; `protect` is counted by `protect_tick` instead.
    calls: [Cell<u64>; KINDS],
    /// Index of the open sampled operation span, or `NO_PARENT`.
    open_op: Cell<u32>,
    /// Whether the open operation span is a detail span.
    detail: Cell<bool>,
    /// Every `protect` call on this thread; also picks the timed ones.
    protect_tick: Cell<u32>,
    /// `protect_tick` when the counts were last taken.
    protect_taken: Cell<u32>,
}

thread_local! {
    static HOT: Hot = const {
        Hot {
            calls: [const { Cell::new(0) }; KINDS],
            open_op: Cell::new(NO_PARENT),
            detail: Cell::new(false),
            protect_tick: Cell::new(0),
            protect_taken: Cell::new(0),
        }
    };
    static LOG: RefCell<ThreadLog> = RefCell::new(ThreadLog::default());
}

/// The span clock, in ticks ([`TimerCost::ns_per_tick`] converts).
///
/// On x86-64 it is the time-stamp counter between load fences. `Instant`
/// costs ≈ 45 ns a read here, and its ALU tail overlaps the call being
/// timed: HP's per-read `mfence` read 1 ns through it. The fenced counter
/// costs ≈ 25 ns a read and exposes the call's own latency.
#[cfg(target_arch = "x86_64")]
pub mod clock {
    use std::arch::x86_64::{_mm_lfence, _rdtsc};

    /// Opens a span: earlier work has retired, and the timed call cannot
    /// start before the counter is read.
    #[inline(always)]
    pub fn start() -> u64 {
        // SAFETY: `rdtsc` and `lfence` have no memory or register
        // preconditions; TSC and SSE2 are part of the x86-64 baseline.
        unsafe {
            _mm_lfence();
            let t = _rdtsc();
            _mm_lfence();
            t
        }
    }

    /// Closes a span: the timed call has retired before the counter is read.
    #[inline(always)]
    pub fn stop() -> u64 {
        // SAFETY: as in `start`.
        unsafe {
            _mm_lfence();
            _rdtsc()
        }
    }

    /// An unfenced read, for spans long enough (a reclamation pass) that a
    /// few dozen cycles of skew do not matter.
    #[inline(always)]
    pub fn coarse() -> u64 {
        // SAFETY: as in `start`.
        unsafe { _rdtsc() }
    }
}

/// Portable fallback: nanoseconds from `Instant`. Short calls read low
/// through it (see the x86-64 clock above).
#[cfg(not(target_arch = "x86_64"))]
pub mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    #[inline]
    pub fn start() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn stop() -> u64 {
        start()
    }

    #[inline]
    pub fn coarse() -> u64 {
        start()
    }
}

/// Counts one call of `kind` on this thread.
#[inline]
pub fn count(kind: Kind) {
    HOT.with(|h| {
        let c = &h.calls[kind as usize];
        c.set(c.get() + 1);
    });
}

/// Whether this thread is inside a detail span, i.e. calls are to be timed.
#[inline]
pub fn sampling() -> bool {
    HOT.with(|h| h.detail.get())
}

/// Counts one `protect` call and says whether it is one of the timed ones.
#[inline]
pub fn protect_due() -> bool {
    HOT.with(|h| {
        let t = h.protect_tick.get().wrapping_add(1);
        h.protect_tick.set(t);
        t % PROTECT_SAMPLE_EVERY == 0 && h.detail.get()
    })
}

/// Opens a sampled operation span, whole or detail; a detail span's timed
/// calls become its children until [`end_op_span`]. A thread at its span
/// limit opens nothing.
pub fn begin_op_span(kind: Kind, detail: bool) {
    LOG.with_borrow_mut(|log| {
        if log.spans.len() >= MAX_SPANS {
            return;
        }
        let tick = HOT.with(|h| {
            h.open_op.set(log.spans.len() as u32);
            h.detail.set(detail);
            h.protect_tick.get()
        });
        log.spans.push(Span {
            kind,
            pass: false,
            detail,
            parent: NO_PARENT,
            start: 0,
            dur: 0,
            pairs: 0,
            protects: tick, // the tick at entry; `end_op_span` takes the difference
        });
        // Read the clock last so the bookkeeping above is outside the span.
        let at = log.spans.len() - 1;
        log.spans[at].start = if detail {
            clock::start()
        } else {
            clock::coarse()
        };
    });
}

pub fn end_op_span() {
    let end = if sampling() {
        clock::stop()
    } else {
        clock::coarse()
    };
    let (at, tick) = HOT.with(|h| {
        h.detail.set(false);
        (h.open_op.replace(NO_PARENT), h.protect_tick.get())
    });
    if at != NO_PARENT {
        LOG.with_borrow_mut(|log| {
            let span = &mut log.spans[at as usize];
            span.dur = (end - span.start).min(u32::MAX as u64) as u32;
            span.protects = tick.wrapping_sub(span.protects);
        });
    }
}

/// Records a timed call as a child of the open operation span.
pub fn child_span(kind: Kind, start: u64, end: u64, pass: bool) {
    let parent = HOT.with(|h| h.open_op.get());
    if parent == NO_PARENT {
        return;
    }
    LOG.with_borrow_mut(|log| {
        log.spans[parent as usize].pairs += 1;
        log.spans.push(Span {
            kind,
            pass,
            detail: false,
            parent,
            start,
            dur: (end - start).min(u32::MAX as u64) as u32,
            pairs: 0,
            protects: 0,
        });
    });
}

pub fn log_pass(pass: Pass) {
    LOG.with_borrow_mut(|log| log.passes.push(pass));
}

pub fn log_retire_push(dur: u64) {
    LOG.with_borrow_mut(|log| log.retire_push.push(dur.min(u32::MAX as u64) as u32));
}

/// Reserves the span buffers up front so that growing them never lands
/// inside a measured slice.
pub fn reserve() {
    LOG.with_borrow_mut(|log| {
        log.spans.reserve(MAX_SPANS / 4);
        log.passes.reserve(1 << 14);
        log.retire_push.reserve(1 << 16);
    });
}

/// Takes this thread's call counts and log, leaving both empty.
pub fn take() -> ([u64; KINDS], ThreadLog) {
    let counts = HOT.with(|h| {
        let mut counts: [u64; KINDS] = std::array::from_fn(|k| h.calls[k].replace(0));
        let tick = h.protect_tick.get();
        counts[Kind::Protect as usize] = tick.wrapping_sub(h.protect_taken.replace(tick)) as u64;
        counts
    });
    (counts, LOG.take())
}

/// The clock's own cost, measured once per traced run.
#[derive(Clone, Copy, Debug)]
pub struct TimerCost {
    pub ns_per_tick: f64,
    /// What timing one call adds to the operation around it, in ns: the two
    /// clock reads and recording the span.
    pub pair_ns: f64,
    /// What one [`clock::coarse`] read costs in a pipelined loop, in ns (a
    /// whole span contains one).
    pub coarse_ns: f64,
}

impl TimerCost {
    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }
}

/// What an empty span reads on this thread right now, in ticks: the median
/// of a few thousand. It is taken off every timed call. Each client measures
/// it just before its slice, because it moves with the core's clock rate
/// (the counter ticks at a fixed rate, the core does not): one reading per
/// run was off by up to 8 ns from one run to the next.
pub fn empty_span_ticks() -> u32 {
    let mut spans: Vec<u32> = (0..2001)
        .map(|_| {
            let start = clock::start();
            (clock::stop() - start).min(u32::MAX as u64) as u32
        })
        .collect();
    spans.sort_unstable();
    spans[spans.len() / 2]
}

/// Measures the clock against `Instant` and against itself, on this thread,
/// using the same calls the adapter makes.
pub fn calibrate_timer() -> TimerCost {
    const N: usize = 50_000;
    let wall = Instant::now();
    let first = clock::coarse();
    while wall.elapsed() < Duration::from_millis(20) {
        std::hint::spin_loop();
    }
    let ns_per_tick = wall.elapsed().as_nanos() as f64 / (clock::coarse() - first) as f64;

    let per_iter = |batch: &mut dyn FnMut()| {
        (0..5)
            .map(|_| {
                let t = Instant::now();
                batch();
                t.elapsed().as_nanos() as f64 / N as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let pair_ns = per_iter(&mut || {
        let _ = take();
        reserve();
        begin_op_span(Kind::OpRead, true);
        for _ in 0..N {
            let start = clock::start();
            child_span(Kind::Protect, start, clock::stop(), false);
        }
        end_op_span();
    });
    let _ = take();
    let coarse_ns = per_iter(&mut || {
        for _ in 0..N {
            std::hint::black_box(clock::coarse());
        }
    });
    TimerCost {
        ns_per_tick,
        pair_ns,
        coarse_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_operation_and_counts_are_per_thread() {
        std::thread::spawn(|| {
            count(Kind::Retire);
            assert!(!sampling() && !protect_due());
            child_span(Kind::Protect, 1, 2, false); // no open op: dropped
            begin_op_span(Kind::OpUpdate, false);
            assert!(!sampling() && !protect_due(), "a whole span times no call");
            end_op_span();
            begin_op_span(Kind::OpRead, true);
            assert!(sampling());
            let hits = (0..2 * PROTECT_SAMPLE_EVERY)
                .filter(|_| protect_due())
                .count();
            assert_eq!(hits, 2);
            child_span(Kind::Protect, 10, 25, false);
            child_span(Kind::Retire, 30, 90, true);
            end_op_span();
            assert!(!sampling() && !protect_due());
            let (counts, log) = take();
            assert_eq!(counts[Kind::Retire as usize], 1);
            assert_eq!(
                counts[Kind::Protect as usize],
                2 * PROTECT_SAMPLE_EVERY as u64 + 3
            );
            assert_eq!(log.spans.len(), 4);
            assert_eq!(
                (log.spans[0].kind, log.spans[0].detail),
                (Kind::OpUpdate, false)
            );
            assert_eq!((log.spans[0].pairs, log.spans[0].protects), (0, 1));
            assert_eq!((log.spans[1].kind, log.spans[1].pairs), (Kind::OpRead, 2));
            assert!(log.spans[1].detail);
            assert_eq!(log.spans[1].protects, 2 * PROTECT_SAMPLE_EVERY);
            assert_eq!((log.spans[2].parent, log.spans[2].dur), (1, 15));
            assert!(log.spans[3].pass);
            assert_eq!(take().0, [0; KINDS], "take leaves the thread empty");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_timer_costs_something_and_not_much() {
        let t = std::thread::spawn(calibrate_timer).join().unwrap();
        assert!(t.ns_per_tick > 0.01 && t.ns_per_tick <= 1.0, "{t:?}");
        assert!(t.pair_ns > 1.0 && t.pair_ns < 10_000.0, "{t:?}");
        assert!(
            t.ns(empty_span_ticks() as u64) <= t.pair_ns && t.coarse_ns <= t.pair_ns,
            "{t:?}"
        );
    }
}
