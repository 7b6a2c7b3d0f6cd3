//! The structured event plane: typed events, a bounded ring-buffer
//! flight recorder, and thread-local installation.
//!
//! The simulator and the layers above it call [`record`] at a handful
//! of structural points (round close, scheduler mode switch, phase and
//! epoch boundaries, rewires, external wakes, repair-ball probes,
//! worker sections). When no recorder is installed on the current
//! thread — the default — every hook is one thread-local flag read and
//! a predicted-not-taken branch: no allocation, no clock read, no
//! formatting. Installing a recorder affects *observation only*; by
//! the same contract as the wall-clock `NetStats::timings` registry,
//! nothing recorded here may feed back into algorithm behaviour, and the
//! traced-vs-untraced bit-identity test in `tests/prop_plane.rs`
//! enforces it.
//!
//! Events are `Copy` and carry no heap data. Labels travel in a fixed
//! inline [`Name`]. Timestamps are nanoseconds since the recorder was
//! installed ([`now_ns`]), so a trace is self-contained and two traces
//! never share a clock base.
//!
//! The recorder is a *flight recorder*: a bounded ring that keeps the
//! most recent `capacity` events and counts what it dropped, so a
//! million-round run can fly with a 64k-event buffer and still land
//! with the tail of the story intact.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// Capacity of an inline [`Name`], in bytes.
pub const NAME_CAP: usize = 23;

/// Fixed-capacity inline string for event labels (phase names,
/// algorithm tags). Truncates at [`NAME_CAP`] bytes on a char
/// boundary; never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name {
    len: u8,
    buf: [u8; NAME_CAP],
}

impl Name {
    /// Build from a string slice, truncating to [`NAME_CAP`] bytes on
    /// a char boundary.
    pub fn new(s: &str) -> Self {
        let mut end = s.len().min(NAME_CAP);
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; NAME_CAP];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        Name {
            len: end as u8,
            buf,
        }
    }

    /// View as `&str`.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

/// What the adversary plane did to a message or node. Recorded inside
/// [`Event::Fault`]; the variants mirror the fault classes a
/// `simnet::adversary::FaultPlan` composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Bernoulli per-message drop.
    Drop,
    /// Drop because the edge's two-state Markov link was down.
    BurstDrop,
    /// Message parked for extra rounds (bounded delay, possibly
    /// combined with a stall or budget overflow).
    Delay,
    /// Message parked exactly one round by partial-delivery stalling.
    Stall,
    /// Crash-stop node fault.
    Crash,
    /// A crashed node rejoined the computation.
    Rejoin,
}

impl FaultKind {
    /// Stable lowercase tag used by the exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::BurstDrop => "burst_drop",
            FaultKind::Delay => "delay",
            FaultKind::Stall => "stall",
            FaultKind::Crash => "crash",
            FaultKind::Rejoin => "rejoin",
        }
    }
}

/// A structural event. All variants are `Copy`, heap-free, and
/// timestamped in nanoseconds since recorder installation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// One synchronous round, recorded at close: wall-clock span,
    /// nodes stepped, messages sent, which representation ran it, and
    /// how many parallel workers were spawned (0 = sequential).
    RoundSpan {
        /// Round number (1-based, as in `NetStats::rounds`).
        round: u64,
        /// Span start, ns since recorder install.
        t0_ns: u64,
        /// Span end, ns since recorder install.
        t1_ns: u64,
        /// Nodes stepped this round.
        stepped: u64,
        /// Messages sent this round.
        sent: u64,
        /// True when the dense flag-sweep representation ran it.
        dense: bool,
        /// Parallel workers spawned (0 when the round ran inline).
        workers: u32,
    },
    /// The hybrid judge switched representation.
    ModeSwitch {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Round at which the switch took effect.
        round: u64,
        /// New representation: true = dense sweep, false = wake list.
        to_dense: bool,
        /// Wake-list length that triggered the decision.
        wake_len: u64,
    },
    /// A `Session` phase boundary (one algorithm phase finished).
    Phase {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Phase index within the session.
        index: u32,
        /// Phase label (truncated to [`NAME_CAP`] bytes).
        label: Name,
        /// Cumulative rounds after this phase.
        rounds: u64,
        /// Matching size after this phase.
        matching: u64,
        /// True when an observer aborted the session at this phase.
        aborted: bool,
    },
    /// A churn epoch finished repairing.
    Epoch {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Epoch number.
        epoch: u64,
        /// Repair rounds spent in the epoch.
        rounds: u64,
        /// Matched edges destroyed by the churn batch.
        damage: u64,
        /// Nodes woken by the repair wave.
        woken: u64,
        /// Hop radius of the repair region around the damage.
        radius: u64,
    },
    /// A live topology rewire was applied.
    Rewire {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Round count at the rewire point.
        round: u64,
        /// Edges added.
        added: u64,
        /// Edges removed.
        removed: u64,
        /// Nodes marked dirty (woken) by the patch.
        dirty: u64,
    },
    /// An external wake (`Network::wake`) from outside the protocol.
    Wake {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Round count at the wake.
        round: u64,
        /// Woken node id.
        node: u64,
    },
    /// A repair-ball probe: the region a warm-start resume computed
    /// around damaged edges (the LCA-style locality measurement).
    RepairBall {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Damaged edges at the center.
        center_edges: u64,
        /// Probe radius in hops.
        radius: u64,
        /// Nodes inside the ball.
        ball: u64,
    },
    /// One worker's slice of a parallel round (recorded by the main
    /// thread after the join; workers never touch the recorder).
    WorkerSpan {
        /// Round number the section belongs to.
        round: u64,
        /// Worker index within the spawn.
        worker: u32,
        /// Span start, ns since recorder install.
        t0_ns: u64,
        /// Span end, ns since recorder install.
        t1_ns: u64,
        /// Nodes the worker stepped.
        nodes: u64,
    },
    /// The sequential merge tail after a parallel join.
    MergeSpan {
        /// Round number the merge belongs to.
        round: u64,
        /// Span start, ns since recorder install.
        t0_ns: u64,
        /// Span end, ns since recorder install.
        t1_ns: u64,
    },
    /// The adversary plane injected a fault (drop, delay, stall,
    /// crash, rejoin). For message faults `round` is the sending
    /// round and `port` the sender-side port; for node faults
    /// (`Crash`/`Rejoin`) `port` is 0.
    Fault {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Round the fault applies to.
        round: u64,
        /// Sender (message faults) or crashed node (node faults).
        node: u64,
        /// Sender-side port of the affected edge (0 for node faults).
        port: u32,
        /// Which fault class fired.
        kind: FaultKind,
    },
    /// A message exceeded the per-edge per-round CONGEST bit budget
    /// and degrade-mode enforcement deferred the overflow into later
    /// rounds (strict mode panics instead of recording).
    BudgetViolation {
        /// Timestamp, ns since recorder install.
        t_ns: u64,
        /// Sending round of the over-budget message.
        round: u64,
        /// Sender node id.
        node: u64,
        /// Sender-side port of the violating edge.
        port: u32,
        /// Size of the offending message, in bits.
        bits: u64,
        /// The budget it exceeded, in bits.
        budget: u64,
    },
}

/// Bounded ring buffer of [`Event`]s plus a drop counter: keeps the
/// most recent `capacity` events.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    buf: Vec<Event>,
    head: usize,
    recorded: u64,
    t0: Instant,
}

impl FlightRecorder {
    /// Recorder keeping the `capacity` most recent events
    /// (`capacity ≥ 1`; the buffer is allocated up front).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            buf: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            t0: Instant::now(),
        }
    }

    /// Nanoseconds since this recorder was created.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The `Instant` all event timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.t0
    }

    /// Push an event, evicting the oldest once full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        self.recorded += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Total events offered (kept + dropped).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.buf.len() as u64
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event was kept.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Iterate kept events oldest-first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

thread_local! {
    static RECORDER: RefCell<Option<FlightRecorder>> = const { RefCell::new(None) };
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// True when a recorder is installed on this thread. One thread-local
/// flag read — this is the entire disabled-path cost of every hook.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Nanoseconds since the installed recorder's epoch (0 when tracing is
/// disabled; callers gate on [`enabled`] first).
#[inline]
pub fn now_ns() -> u64 {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, FlightRecorder::elapsed_ns))
}

/// The installed recorder's epoch `Instant`, if tracing is enabled.
/// Lets the main thread hand workers a clock base they can stamp
/// scratch offsets against without touching thread-local state.
pub fn epoch() -> Option<Instant> {
    RECORDER.with(|r| r.borrow().as_ref().map(FlightRecorder::epoch))
}

/// Record an event into the installed recorder; no-op when disabled.
#[inline]
pub fn record(ev: Event) {
    if enabled() {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.push(ev);
            }
        });
    }
}

/// Install a recorder on this thread, returning any previous one.
pub fn install(rec: FlightRecorder) -> Option<FlightRecorder> {
    let prev = RECORDER.with(|r| r.borrow_mut().replace(rec));
    ENABLED.with(|e| e.set(true));
    prev
}

/// Remove and return this thread's recorder, disabling tracing.
pub fn uninstall() -> Option<FlightRecorder> {
    ENABLED.with(|e| e.set(false));
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Scoped tracing session: installs a fresh [`FlightRecorder`] on
/// construction, hands it back on [`finish`](TraceSession::finish).
/// Dropping without finishing uninstalls and discards (panic-safe for
/// tests).
#[derive(Debug)]
pub struct TraceSession {
    done: bool,
}

impl TraceSession {
    /// Install a fresh recorder with the given ring capacity.
    pub fn start(capacity: usize) -> Self {
        install(FlightRecorder::new(capacity));
        TraceSession { done: false }
    }

    /// Uninstall and return the recorder with everything captured.
    pub fn finish(mut self) -> FlightRecorder {
        self.done = true;
        uninstall().expect("trace session recorder was removed underneath us")
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if !self.done {
            uninstall();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: u64) -> Event {
        Event::RoundSpan {
            round,
            t0_ns: round * 10,
            t1_ns: round * 10 + 5,
            stepped: 1,
            sent: 0,
            dense: false,
            workers: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.push(ev(i));
        }
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let rounds: Vec<u64> = r
            .events()
            .map(|e| match e {
                Event::RoundSpan { round, .. } => *round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_by_default_and_scoped_install() {
        assert!(!enabled());
        record(ev(1)); // no-op, must not panic
        let session = TraceSession::start(16);
        assert!(enabled());
        record(ev(1));
        record(ev(2));
        let rec = session.finish();
        assert!(!enabled());
        assert_eq!(rec.recorded(), 2);
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn drop_without_finish_uninstalls() {
        {
            let _s = TraceSession::start(4);
            assert!(enabled());
        }
        assert!(!enabled());
    }

    #[test]
    fn name_truncates_on_char_boundary() {
        assert_eq!(Name::new("israeli-itai").as_str(), "israeli-itai");
        let long = "a".repeat(40);
        assert_eq!(Name::new(&long).as_str().len(), NAME_CAP);
        // Multibyte char straddling the cap is dropped whole.
        let tricky = format!("{}é", "x".repeat(NAME_CAP - 1));
        let n = Name::new(&tricky);
        assert_eq!(n.as_str(), &tricky[..NAME_CAP - 1]);
    }

    #[test]
    fn timestamps_are_monotone() {
        let r = FlightRecorder::new(1);
        let a = r.elapsed_ns();
        let b = r.elapsed_ns();
        assert!(b >= a);
    }
}
