//! The per-layer cost ledger: timing wrappers around each layer's public
//! seam, and the [`Mode`] switch that puts them in or leaves them out.
//!
//! A workload is written once, generic over [`Mode`]. [`Plain`] plugs the
//! library types in unchanged, so the untraced run is exactly what a user
//! of the library runs. [`Traced`] plugs in newtype wrappers whose only
//! addition is a pair of clock reads around the delegated call; every
//! span lands in one thread-local [`Ledger`]. The wrappers never touch a
//! state or a pair, so a traced run follows the untraced trajectory bit
//! for bit — the benchmark checks that on every traced run.
//!
//! Spans are kept in memory (the first [`SPAN_CAP`] of them, plus exact
//! per-layer totals for all) and written out when the run ends.

use std::cell::RefCell;
use std::time::Instant;

use silent_ranking::dynamic::DynRanking;
use silent_ranking::population::schedule::Pair;
use silent_ranking::population::{
    Checkpointer, CursorSource, FaultHook, FaultState, Frame, HookState, Packed, PairSource,
    Protocol, Schedule, ScheduleCursor, UnpackedHook, WordState,
};
use silent_ranking::ranking::stable::{PackedState, StableRanking, StableState};
use silent_ranking::ranking::Params;
use silent_ranking::scenarios::FaultPlan;
use silent_ranking::snapshot::SnapshotSink;

/// The packed block-kernel shape every workload runs.
pub type Kernel = Packed<StableRanking>;

/// The fault hook every soak runs: a structured-state plan adapted to
/// the packed words.
pub type PlanHook = UnpackedHook<FaultPlan<StableState>>;

/// Spans kept verbatim per run; totals stay exact past the cap.
pub const SPAN_CAP: usize = 1 << 15;

/// One timed layer seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `PairSource::sample_block` on `Schedule`.
    Sample,
    /// `Protocol::transition_block` on the packed kernel.
    Transition,
    /// An observer poll (`is_valid_ranking`, `Recovery::observe`,
    /// `DynamicPopulation::fraction_valid`).
    Poll,
    /// One `silence::is_silent` certificate.
    Silence,
    /// `FaultHook::fire` on the unpacked fault plan.
    Fire,
    /// `Checkpointer::save` on `SnapshotSink` (encode, CRC, durable write).
    Save,
    /// `DynamicPopulation::run` (sampler, lifecycle and the kernel calls
    /// nested inside it).
    DynRun,
}

/// Number of [`Layer`]s (the last variant's index + 1).
const LAYERS: usize = Layer::DynRun as usize + 1;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Sample => "schedule.sample_block",
            Layer::Transition => "transition.transition_block",
            Layer::Poll => "observe.poll",
            Layer::Silence => "observe.silence_cert",
            Layer::Fire => "fault.fire",
            Layer::Save => "snapshot.save",
            Layer::DynRun => "dynamic.run",
        }
    }
}

/// Busy time and work of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Nanoseconds inside the seam.
    pub busy_ns: u64,
    /// Calls through the seam.
    pub calls: u64,
    /// Items of work: pairs for the sampler and the kernel, bytes for
    /// saves, 1 per call elsewhere.
    pub items: u64,
    /// Busy time of spans opened while no other span was open.
    pub top_ns: u64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id (`dynamic.run` around its kernel calls).
    pub parent: Option<u64>,
    pub layer: Layer,
    /// Start, in nanoseconds since the ledger was reset.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Everything the traced run learns, read out after the run.
#[derive(Debug, Clone)]
pub struct Ledger {
    origin: Instant,
    acc: [Acc; LAYERS],
    next_id: u64,
    open: Option<u64>,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
    /// Kernel outcomes: changed pairs, dispatch-mix deltas
    /// `[reset, both-elect, one-elect, main]` and resets triggered.
    pub changed: u64,
    pub mix: [u64; 4],
    pub resets: u64,
}

impl Ledger {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            acc: [Acc::default(); LAYERS],
            next_id: 0,
            open: None,
            spans: Vec::new(),
            dropped_spans: 0,
            changed: 0,
            mix: [0; 4],
            resets: 0,
        }
    }

    pub fn acc(&self, layer: Layer) -> Acc {
        self.acc[layer as usize]
    }

    /// Σ busy time of outermost spans: the wall time the ledger explains.
    pub fn covered_ns(&self) -> u64 {
        self.acc.iter().map(|a| a.top_ns).sum()
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::new());
}

/// Start a fresh ledger (spans are timed from now).
pub fn reset() {
    LEDGER.with(|l| *l.borrow_mut() = Ledger::new());
}

/// Take the ledger out, leaving a fresh one.
pub fn take() -> Ledger {
    LEDGER.with(|l| std::mem::replace(&mut *l.borrow_mut(), Ledger::new()))
}

/// Run `f` inside a span of `layer` that did `items` units of work.
#[inline]
pub fn span<T>(layer: Layer, items: u64, f: impl FnOnce() -> T) -> T {
    // The span's own bookkeeping sits inside its interval, so the time
    // tracing adds is attributed to the layer it traces rather than
    // left unexplained; `trace.overhead` reports its total.
    let start = Instant::now();
    let (id, parent) = LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let id = l.next_id;
        l.next_id += 1;
        (id, l.open.replace(id))
    });
    let out = f();
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        let start_ns = (start - l.origin).as_nanos() as u64;
        l.open = parent;
        let a = &mut l.acc[layer as usize];
        a.calls += 1;
        a.items += items;
        let dur_ns = start.elapsed().as_nanos() as u64;
        a.busy_ns += dur_ns;
        if parent.is_none() {
            a.top_ns += dur_ns;
        }
        if l.spans.len() < SPAN_CAP {
            l.spans.push(Span {
                id,
                parent,
                layer,
                start_ns,
                dur_ns,
            });
        } else {
            l.dropped_spans += 1;
        }
    });
    out
}

/// Add `bytes` to the work count of the save that just ended.
fn add_items(layer: Layer, items: u64) {
    LEDGER.with(|l| l.borrow_mut().acc[layer as usize].items += items);
}

/// Switches a workload between the library's own types and their timed
/// wrappers. Workloads are generic over it, so both runs execute the
/// same workload code.
pub trait Mode {
    type Proto: DynRanking<State = PackedState>;
    type Source: CursorSource;
    type Hook: FaultHook<Self::Proto> + HookState;
    type Sink: Checkpointer;

    fn protocol(kernel: Kernel) -> Self::Proto;
    fn source(schedule: Schedule) -> Self::Source;
    fn hook(hook: PlanHook) -> Self::Hook;
    fn plan(hook: &Self::Hook) -> &FaultPlan<StableState>;
    fn sink(sink: SnapshotSink) -> Self::Sink;
    fn sink_ref(sink: &Self::Sink) -> &SnapshotSink;
    /// Time a call at a seam the benchmark calls directly (observer
    /// polls, certificates, the dynamic engine's `run`).
    fn time<T>(layer: Layer, items: u64, f: impl FnOnce() -> T) -> T;
}

/// The untraced run: library types, no clocks.
pub struct Plain;

impl Mode for Plain {
    type Proto = Kernel;
    type Source = Schedule;
    type Hook = PlanHook;
    type Sink = SnapshotSink;

    fn protocol(kernel: Kernel) -> Kernel {
        kernel
    }
    fn source(schedule: Schedule) -> Schedule {
        schedule
    }
    fn hook(hook: PlanHook) -> PlanHook {
        hook
    }
    fn plan(hook: &PlanHook) -> &FaultPlan<StableState> {
        hook.inner()
    }
    fn sink(sink: SnapshotSink) -> SnapshotSink {
        sink
    }
    fn sink_ref(sink: &SnapshotSink) -> &SnapshotSink {
        sink
    }
    #[inline(always)]
    fn time<T>(_layer: Layer, _items: u64, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// The traced run: every seam wrapped, every call a span.
pub struct Traced;

impl Mode for Traced {
    type Proto = TimedKernel;
    type Source = TimedSource<Schedule>;
    type Hook = TimedHook<PlanHook>;
    type Sink = TimedSink;

    fn protocol(kernel: Kernel) -> TimedKernel {
        TimedKernel(kernel)
    }
    fn source(schedule: Schedule) -> TimedSource<Schedule> {
        TimedSource(schedule)
    }
    fn hook(hook: PlanHook) -> TimedHook<PlanHook> {
        TimedHook(hook)
    }
    fn plan(hook: &TimedHook<PlanHook>) -> &FaultPlan<StableState> {
        hook.0.inner()
    }
    fn sink(sink: SnapshotSink) -> TimedSink {
        TimedSink(sink)
    }
    fn sink_ref(sink: &TimedSink) -> &SnapshotSink {
        &sink.0
    }
    fn time<T>(layer: Layer, items: u64, f: impl FnOnce() -> T) -> T {
        span(layer, items, f)
    }
}

/// `Protocol` + `WordState` + `DynRanking` wrapper timing every
/// `transition_block` and reading the kernel's public counters around it.
#[derive(Debug, Clone)]
pub struct TimedKernel(pub Kernel);

impl Protocol for TimedKernel {
    type State = PackedState;

    fn n(&self) -> usize {
        self.0.n()
    }

    fn transition(&self, u: &mut PackedState, v: &mut PackedState) -> bool {
        self.0.transition(u, v)
    }

    fn transition_block(&self, states: &mut [PackedState], pairs: &[Pair]) -> u64 {
        let inner = self.0.inner();
        span(Layer::Transition, pairs.len() as u64, || {
            let (mix0, resets0) = (inner.dispatch_mix(), inner.resets_triggered());
            let changed = Protocol::transition_block(&self.0, states, pairs);
            let (mix1, resets1) = (inner.dispatch_mix(), inner.resets_triggered());
            LEDGER.with(|l| {
                let mut l = l.borrow_mut();
                l.changed += changed;
                for c in 0..4 {
                    l.mix[c] += mix1[c] - mix0[c];
                }
                l.resets += resets1 - resets0;
            });
            changed
        })
    }
}

impl WordState for TimedKernel {
    fn state_to_word(&self, state: &PackedState) -> u64 {
        self.0.state_to_word(state)
    }

    fn state_from_word(&self, word: u64) -> Result<PackedState, String> {
        self.0.state_from_word(word)
    }
}

impl DynRanking for TimedKernel {
    fn with_params(params: Params) -> Self {
        TimedKernel(Kernel::with_params(params))
    }

    fn fresh(&self, coin: bool) -> PackedState {
        self.0.fresh(coin)
    }

    fn ranked(&self, rank: u64) -> PackedState {
        self.0.ranked(rank)
    }

    fn rank_of(&self, state: &PackedState) -> Option<u64> {
        self.0.rank_of(state)
    }
}

/// `PairSource` + `CursorSource` wrapper timing `sample_block`.
#[derive(Debug)]
pub struct TimedSource<S>(pub S);

impl<S: PairSource> PairSource for TimedSource<S> {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn next_pair(&mut self) -> (usize, usize) {
        self.0.next_pair()
    }

    fn sample_block(&mut self, max: usize) -> &[Pair] {
        span(Layer::Sample, max as u64, || self.0.sample_block(max))
    }
}

impl<S: CursorSource> CursorSource for TimedSource<S> {
    fn cursor(&self) -> ScheduleCursor {
        self.0.cursor()
    }

    fn from_cursor(cursor: ScheduleCursor) -> Self {
        TimedSource(S::from_cursor(cursor))
    }
}

/// `FaultHook` + `HookState` wrapper timing `fire`.
#[derive(Debug)]
pub struct TimedHook<H>(pub H);

impl<H: FaultHook<Kernel>> FaultHook<TimedKernel> for TimedHook<H> {
    fn next_fire(&mut self, now: u64) -> Option<u64> {
        self.0.next_fire(now)
    }

    fn fire(&mut self, protocol: &TimedKernel, t: u64, states: &mut [PackedState]) {
        span(Layer::Fire, 1, || self.0.fire(&protocol.0, t, states));
    }
}

impl<H: HookState> HookState for TimedHook<H> {
    fn export_state(&self) -> Option<FaultState> {
        self.0.export_state()
    }

    fn import_state(&mut self, state: &FaultState) -> Result<(), String> {
        self.0.import_state(state)
    }
}

/// `Checkpointer` wrapper timing `SnapshotSink::save`; its work count is
/// the bytes of the file each save leaves on disk.
#[derive(Debug)]
pub struct TimedSink(pub SnapshotSink);

impl Checkpointer for TimedSink {
    const ACTIVE: bool = SnapshotSink::ACTIVE;

    fn next_due(&mut self, now: u64) -> Option<u64> {
        self.0.next_due(now)
    }

    fn save(&mut self, frame: &Frame, fault: Option<&FaultState>) {
        span(Layer::Save, 0, || self.0.save(frame, fault));
        let path = self.0.rotation().path_for(frame.interactions);
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        add_items(Layer::Save, bytes);
    }
}
