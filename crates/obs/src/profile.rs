//! Continuous phase-level wall-clock profiling.
//!
//! Every thread keeps one frame stack that registry timers, the profiler
//! and request spans all read. Opening a phase (via
//! [`crate::Registry::phase`] or the [`phase`] bracket here)
//! **publishes** the live stack into a lock-free slot registry: one
//! `AtomicU64` per thread holding the interned id of the full collapsed
//! stack (`accept;evaluate;cache`).
//! Publication is one hash lookup plus one atomic store per phase
//! transition in the steady state (the (parent, leaf) → id mapping is
//! cached thread-locally after first use), and a single relaxed load when
//! profiling is off — cheap enough to leave compiled into every hot path.
//!
//! A dedicated **sampler** thread ([`start_sampler`]) walks the slot
//! array at a configurable rate (default [`DEFAULT_HZ`] = 99 Hz, chosen
//! prime so the sampler never phase-locks with millisecond-periodic
//! work), accumulating per-stack counts in a bounded fixed-capacity
//! table. When the table is full, samples landing on *new* stacks are
//! counted in `profile.dropped_samples` instead of silently vanishing.
//! The sampler also records its own scheduling error per tick into the
//! `profile.sampler_lag_ns` histogram, so a starved sampler (which would
//! bias the profile) is itself observable.
//!
//! ## Memory ordering
//!
//! A stack id is created under the interner mutex *before* it is ever
//! published, and published with `Release`; the sampler loads slots with
//! `Acquire` and resolves ids under the same interner mutex. Every
//! sampled id therefore refers to a fully-constructed interner node, and
//! — because each transition stores the *complete* stack id in a single
//! atomic — a sampled stack is always one that was genuinely live at
//! some instant: torn stacks cannot be observed by construction.
//!
//! ## Output
//!
//! [`ProfileSnapshot`] carries collapsed stacks with counts; snapshots
//! subtract ([`ProfileSnapshot::since`]) to implement sample-on-demand
//! windows (`GET /v1/admin/profile?seconds=N`), serialise to the folded
//! flamegraph format ([`ProfileSnapshot::to_folded`], one
//! `stack;frames;joined count` line each — `inferno` / `flamegraph.pl`
//! compatible), and split into per-frame self vs cumulative time
//! ([`frame_totals`]) for top-table rendering and `perfdiff --profile`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::span::{RequestScope, SpanRecorder, SpanToken};

/// Default sampling rate. 99 Hz is the profiler-folklore choice: fast
/// enough for ~1% attribution resolution over a 3-second window, prime
/// so it cannot phase-lock with 10 ms/100 ms periodic work.
pub const DEFAULT_HZ: u64 = 99;

/// Schema identifier for the JSON profile document served by
/// `GET /v1/admin/profile` and consumed by `bikron profile`.
pub const PROFILE_SCHEMA: &str = "bikron-profile/1";

/// Sampling rates above this are clamped (a 10 kHz sampler would spend
/// more time walking slots than the workload spends working).
pub const MAX_HZ: u64 = 1_000;

/// Number of publication slots — an upper bound on threads *concurrently*
/// publishing phases. Slots are recycled through a free list when
/// threads exit, so short-lived scoped threads (batch fan-out) do not
/// leak slots.
pub const MAX_SLOTS: usize = 512;

/// Bound on distinct stacks the sample table retains. Beyond it, samples
/// of new stacks increment `dropped_samples` instead of allocating.
pub const MAX_STACKS: usize = 4_096;

/// Slot encoding: unclaimed.
const SLOT_FREE: u64 = 0;
/// Slot encoding: claimed by a live thread with no open phase.
const SLOT_IDLE: u64 = 1;
/// Slot encoding: `node_id + NODE_BASE` = thread is inside that stack.
const NODE_BASE: u64 = 2;

/// Interner root sentinel (`parent` of depth-1 stacks).
const ROOT: u32 = u32::MAX;

/// Append-only interner of stack nodes. A node is `(parent, leaf)`;
/// the collapsed string is recovered by walking the parent chain.
#[derive(Default)]
struct Interner {
    /// `(parent, leaf) → id` for deduplication on the publish path.
    map: HashMap<(u32, String), u32>,
    /// `id → (parent, leaf)` for resolution on the sample path.
    nodes: Vec<(u32, String)>,
}

impl Interner {
    fn intern(&mut self, parent: u32, leaf: &str) -> u32 {
        if let Some(&id) = self.map.get(&(parent, leaf.to_string())) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push((parent, leaf.to_string()));
        self.map.insert((parent, leaf.to_string()), id);
        id
    }

    /// Collapsed `a;b;c` string for `id`, memoised into `memo`.
    fn resolve(&self, id: u32, memo: &mut HashMap<u32, String>) -> String {
        if let Some(s) = memo.get(&id) {
            return s.clone();
        }
        let (parent, leaf) = &self.nodes[id as usize];
        let s = if *parent == ROOT {
            leaf.clone()
        } else {
            let mut s = self.resolve(*parent, memo);
            s.push(';');
            s.push_str(leaf);
            s
        };
        memo.insert(id, s.clone());
        s
    }
}

/// The per-thread frame stack: open [`crate::Registry::phase`] names
/// (`outer/inner`), the profiler slot (returned at thread exit) and
/// published id stack, the `(parent, leaf) → id` cache that keeps
/// publication allocation-free, the installed request, the Chrome
/// trace thread id and the trace-id generator state.
pub(crate) struct Frames {
    pub(crate) names: Vec<String>,
    slot: Option<usize>,
    ids: Vec<u32>,
    cache: HashMap<u32, HashMap<String, u32>>,
    pub(crate) request: Request,
    pub(crate) tid: u64,
    pub(crate) rng: u64,
}

/// The request a thread works for ([`crate::span::begin_request`]): its
/// recorder when traced, its innermost open span and its cache outcome.
#[derive(Clone, Default)]
pub(crate) struct Request {
    pub(crate) recorder: Option<SpanRecorder>,
    pub(crate) parent: Option<SpanToken>,
    pub(crate) outcome: Option<bool>,
}

/// A span opened on the frame stack; its guard closes it.
pub(crate) struct OpenSpan {
    token: Option<SpanToken>,
    /// The innermost span before this one, restored at close.
    outer: Option<SpanToken>,
    /// Set when the span owns its cache outcome: the request's outcome
    /// from before it opened, restored at close.
    outer_outcome: Option<Option<bool>>,
}

impl Request {
    /// Begin a child of the innermost open span (`name` is rendered only
    /// when the request is traced). A span that does not own its cache
    /// outcome is only opened when the request is traced.
    pub(crate) fn open_span(
        &mut self,
        name: impl std::fmt::Display,
        own_outcome: bool,
    ) -> Option<OpenSpan> {
        if self.recorder.is_none() && !own_outcome {
            return None;
        }
        let token = self
            .recorder
            .as_ref()
            .and_then(|r| r.begin(&name.to_string(), self.parent));
        let outer = self.parent;
        self.parent = token.or(outer);
        let outer_outcome = own_outcome.then(|| self.outcome.take());
        Some(OpenSpan {
            token,
            outer,
            outer_outcome,
        })
    }

    fn close_span(&mut self, open: OpenSpan) {
        if let Some(rec) = &self.recorder {
            if open.outer_outcome.is_some() {
                rec.set_cache(open.token, self.outcome);
            }
            rec.end(open.token);
        }
        self.parent = open.outer;
        if let Some(outcome) = open.outer_outcome {
            self.outcome = outcome;
        }
    }
}

impl Drop for Frames {
    fn drop(&mut self) {
        if let Some(slot) = self.slot {
            let p = profiler();
            p.slots[slot].store(SLOT_FREE, Ordering::Release);
            // A poisoned free list only leaks this slot; never panic here.
            if let Ok(mut free) = p.free.lock() {
                free.push(slot);
            }
        }
    }
}

thread_local! {
    static FRAMES: RefCell<Frames> = RefCell::new(Frames {
        names: Vec::new(),
        slot: None,
        ids: Vec::new(),
        cache: HashMap::new(),
        request: Request::default(),
        tid: {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed)
        },
        rng: crate::span::seed_entropy(),
    });
}

/// Run `f` on the calling thread's frame stack (`None` only during
/// thread teardown).
pub(crate) fn with_frames<R>(f: impl FnOnce(&mut Frames) -> R) -> Option<R> {
    FRAMES.try_with(|cell| f(&mut cell.borrow_mut())).ok()
}

/// The process-wide profiler: slot registry, interner, and sample table.
pub struct Profiler {
    armed: AtomicBool,
    /// Sampler rate while one is running, 0 otherwise (read by the admin
    /// endpoint to report the window's resolution).
    hz: AtomicU64,
    slots: Box<[AtomicU64]>,
    free: Mutex<Vec<usize>>,
    /// Threads that found the free list empty; their phases go
    /// unpublished (publication is best-effort, never blocking).
    slot_exhausted: AtomicU64,
    interner: Mutex<Interner>,
    /// Bounded `stack id → sample count` table.
    table: Mutex<HashMap<u32, u64>>,
    samples: AtomicU64,
    dropped: AtomicU64,
    idle: AtomicU64,
    /// Hoisted global-registry handles the sampler bumps, so `/metrics`,
    /// Prometheus exposition, and `bikron monitor` see the counters with
    /// no extra plumbing.
    counters: OnceLock<(
        Arc<crate::Counter>,
        Arc<crate::Counter>,
        Arc<crate::Histogram>,
    )>,
}

impl Profiler {
    fn new() -> Self {
        Profiler {
            armed: AtomicBool::new(false),
            hz: AtomicU64::new(0),
            slots: (0..MAX_SLOTS).map(|_| AtomicU64::new(SLOT_FREE)).collect(),
            free: Mutex::new((0..MAX_SLOTS).rev().collect()),
            slot_exhausted: AtomicU64::new(0),
            interner: Mutex::new(Interner::default()),
            table: Mutex::new(HashMap::new()),
            samples: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            counters: OnceLock::new(),
        }
    }

    /// Enable stack publication. Phases opened while disarmed cost one
    /// relaxed load.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Disable stack publication (already-open phases still pop
    /// correctly on exit).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Whether publication is currently enabled.
    #[inline]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// The running sampler's rate in Hz, or 0 when no sampler runs.
    pub fn sampler_hz(&self) -> u64 {
        self.hz.load(Ordering::Relaxed)
    }

    /// Threads that wanted to publish but found every slot taken.
    pub fn slots_exhausted(&self) -> u64 {
        self.slot_exhausted.load(Ordering::Relaxed)
    }

    fn counters(
        &self,
    ) -> &(
        Arc<crate::Counter>,
        Arc<crate::Counter>,
        Arc<crate::Histogram>,
    ) {
        self.counters.get_or_init(|| {
            let obs = crate::global();
            (
                obs.counter("profile.samples"),
                obs.counter("profile.dropped_samples"),
                obs.histogram("profile.sampler_lag_ns"),
            )
        })
    }

    /// Push `leaf` onto `frames`' published stack. Returns whether a
    /// frame was pushed (the paired [`Profiler::pop`] runs only then);
    /// one relaxed load while disarmed.
    pub(crate) fn push(&self, frames: &mut Frames, leaf: &str) -> bool {
        self.push_id(frames, |f| {
            let parent = f.ids.last().copied().unwrap_or(ROOT);
            if let Some(&id) = f.cache.get(&parent).and_then(|m| m.get(leaf)) {
                return id;
            }
            let id = self
                .interner
                .lock()
                .expect("profiler interner")
                .intern(parent, leaf);
            f.cache
                .entry(parent)
                .or_default()
                .insert(leaf.to_string(), id);
            id
        })
    }

    /// Publish the interned id `id_of` yields on top of `frames`' stack,
    /// claiming the thread's slot on first use (best-effort: when every
    /// slot is taken nothing is published).
    fn push_id(&self, frames: &mut Frames, id_of: impl FnOnce(&mut Frames) -> u32) -> bool {
        if !self.is_armed() {
            return false;
        }
        let slot = match frames.slot {
            Some(slot) => slot,
            None => {
                let Some(slot) = self.free.lock().expect("profiler free list").pop() else {
                    self.slot_exhausted.fetch_add(1, Ordering::Relaxed);
                    return false;
                };
                *frames.slot.insert(slot)
            }
        };
        let id = id_of(frames);
        frames.ids.push(id);
        self.slots[slot].store(u64::from(id) + NODE_BASE, Ordering::Release);
        true
    }

    /// Pop `frames`' published stack (paired with a `true` return from
    /// [`Profiler::push`]).
    pub(crate) fn pop(&self, frames: &mut Frames) {
        frames.ids.pop();
        if let Some(slot) = frames.slot {
            let value = frames
                .ids
                .last()
                .map_or(SLOT_IDLE, |&id| u64::from(id) + NODE_BASE);
            self.slots[slot].store(value, Ordering::Release);
        }
    }

    /// One sampler sweep over the slot registry: count every published
    /// stack into the bounded table (new stacks beyond [`MAX_STACKS`]
    /// count as drops), and claimed-but-idle threads into the idle
    /// tally. The sampler thread calls this at its rate; exposed so
    /// tests can drive deterministic sweeps without timing.
    pub fn sample_once(&self) {
        let mut hit: Vec<u32> = Vec::new();
        let mut idle = 0u64;
        for slot in self.slots.iter() {
            match slot.load(Ordering::Acquire) {
                SLOT_FREE => {}
                SLOT_IDLE => idle += 1,
                v => hit.push((v - NODE_BASE) as u32),
            }
        }
        if idle > 0 {
            self.idle.fetch_add(idle, Ordering::Relaxed);
        }
        if hit.is_empty() {
            return;
        }
        let mut sampled = 0u64;
        let mut dropped = 0u64;
        {
            let mut table = self.table.lock().expect("profiler table");
            for id in hit {
                if let Some(count) = table.get_mut(&id) {
                    *count += 1;
                    sampled += 1;
                } else if table.len() < MAX_STACKS {
                    table.insert(id, 1);
                    sampled += 1;
                } else {
                    dropped += 1;
                }
            }
        }
        self.samples.fetch_add(sampled, Ordering::Relaxed);
        self.dropped.fetch_add(dropped, Ordering::Relaxed);
        let (samples, drops, _) = self.counters();
        samples.add(sampled);
        drops.add(dropped);
    }

    /// Snapshot the accumulated profile: collapsed stacks with counts
    /// plus the sample/drop/idle totals since process start.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let counts: Vec<(u32, u64)> = {
            let table = self.table.lock().expect("profiler table");
            table.iter().map(|(&id, &n)| (id, n)).collect()
        };
        let interner = self.interner.lock().expect("profiler interner");
        let mut memo = HashMap::new();
        let mut stacks = BTreeMap::new();
        for (id, n) in counts {
            *stacks
                .entry(interner.resolve(id, &mut memo))
                .or_insert(0u64) += n;
        }
        ProfileSnapshot {
            hz: self.sampler_hz(),
            samples: self.samples.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            idle: self.idle.load(Ordering::Relaxed),
            stacks,
        }
    }
}

/// The process-wide profiler fed by [`crate::Registry::phase`] guards
/// and [`phase`] guards.
pub fn profiler() -> &'static Profiler {
    static PROFILER: OnceLock<Profiler> = OnceLock::new();
    PROFILER.get_or_init(Profiler::new)
}

/// The one bracket for a request phase: publishes `leaf` to the
/// profiler and, while a traced request is installed
/// ([`crate::span::begin_request`]), records a span of the same name
/// under the innermost open span. One thread-local borrow when
/// profiling is off and the request untraced.
#[must_use = "dropping the guard immediately closes the profile frame"]
pub struct ProfileGuard {
    pushed: bool,
    span: Option<OpenSpan>,
}

/// Open a frame named `leaf`. See [`ProfileGuard`].
pub fn phase(leaf: &str) -> ProfileGuard {
    with_frames(|f| ProfileGuard {
        pushed: profiler().push(f, leaf),
        span: f.request.open_span(leaf, false),
    })
    .unwrap_or_else(|| ProfileGuard::span(None))
}

impl ProfileGuard {
    /// A span-only guard (no profile frame).
    pub(crate) fn span(span: Option<OpenSpan>) -> ProfileGuard {
        ProfileGuard {
            pushed: false,
            span,
        }
    }

    /// Record a cache outcome (`true` hit) on this frame's span and as
    /// the request's.
    pub fn cache(&self, hit: bool) {
        with_frames(|f| {
            f.request.outcome = Some(hit);
            if let (Some(rec), Some(open)) = (&f.request.recorder, &self.span) {
                rec.set_cache(open.token, Some(hit));
            }
        });
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        let span = self.span.take();
        if self.pushed || span.is_some() {
            with_frames(|f| {
                if let Some(open) = span {
                    f.request.close_span(open);
                }
                if self.pushed {
                    profiler().pop(f);
                }
            });
        }
    }
}

/// A thread's innermost frame and request, for helper threads.
#[derive(Default)]
pub struct Captured {
    node: Option<u32>,
    request: Request,
}

/// Capture the calling thread's context for [`Captured::adopt`].
pub fn capture() -> Captured {
    with_frames(|f| Captured {
        node: f.ids.last().copied(),
        request: Request {
            outcome: None,
            ..f.request.clone()
        },
    })
    .unwrap_or_default()
}

impl Captured {
    /// Until the guards drop, frames opened on this thread collapse under
    /// the captured frame and record spans into the captured request,
    /// which replaces this thread's own and keeps a cache outcome of its
    /// own (never the request's). For helper threads.
    pub fn adopt(&self) -> (ProfileGuard, RequestScope) {
        let pushed = with_frames(|f| {
            f.request = self.request.clone();
            self.node.is_some_and(|id| profiler().push_id(f, |_| id))
        });
        let frame = ProfileGuard {
            pushed: pushed == Some(true),
            span: None,
        };
        (frame, RequestScope(()))
    }
}

/// A point-in-time view of the sample table. Two snapshots subtract
/// ([`ProfileSnapshot::since`]) to scope a profile to a window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Sampler rate when the snapshot was taken (0 = no sampler).
    pub hz: u64,
    /// Stack samples accumulated into the table.
    pub samples: u64,
    /// Samples lost to table capacity ([`MAX_STACKS`]).
    pub dropped: u64,
    /// Sweeps that found a claimed slot with no open phase.
    pub idle: u64,
    /// Collapsed stack (`a;b;c`) → sample count.
    pub stacks: BTreeMap<String, u64>,
}

impl ProfileSnapshot {
    /// The window between `base` (earlier) and `self` (later): per-stack
    /// and counter-wise saturating subtraction, zero-count stacks
    /// elided.
    pub fn since(&self, base: &ProfileSnapshot) -> ProfileSnapshot {
        let stacks = self
            .stacks
            .iter()
            .filter_map(|(stack, &n)| {
                let before = base.stacks.get(stack).copied().unwrap_or(0);
                let delta = n.saturating_sub(before);
                (delta > 0).then(|| (stack.clone(), delta))
            })
            .collect();
        ProfileSnapshot {
            hz: self.hz,
            samples: self.samples.saturating_sub(base.samples),
            dropped: self.dropped.saturating_sub(base.dropped),
            idle: self.idle.saturating_sub(base.idle),
            stacks,
        }
    }

    /// Serialise to folded flamegraph format: one `stack count` line per
    /// collapsed stack, sorted, trailing newline. `inferno` and
    /// `flamegraph.pl` consume this directly.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&count.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse folded flamegraph text back into a snapshot (counters other
    /// than `samples` are zero — folded files carry only stacks). Blank
    /// lines are skipped; repeated stacks accumulate.
    pub fn parse_folded(text: &str) -> Result<ProfileSnapshot, String> {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        let mut samples = 0u64;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let Some((stack, count)) = line.rsplit_once(' ') else {
                return Err(format!(
                    "line {}: expected \"stack count\", got {line:?}",
                    lineno + 1
                ));
            };
            let count: u64 = count
                .parse()
                .map_err(|_| format!("line {}: bad count {count:?}", lineno + 1))?;
            if stack.is_empty() {
                return Err(format!("line {}: empty stack", lineno + 1));
            }
            *stacks.entry(stack.to_string()).or_insert(0) += count;
            samples += count;
        }
        Ok(ProfileSnapshot {
            hz: 0,
            samples,
            dropped: 0,
            idle: 0,
            stacks,
        })
    }
}

/// Per-frame self vs cumulative sample counts derived from collapsed
/// stacks. Keys are full frame *paths* (`a;b`), so a frame name reused
/// under different parents stays distinct. `self` is samples where the
/// path is the leaf; `total` is samples where it is a prefix.
pub fn frame_totals(stacks: &BTreeMap<String, u64>) -> BTreeMap<String, FrameStat> {
    let mut frames: BTreeMap<String, FrameStat> = BTreeMap::new();
    for (stack, &count) in stacks {
        let bytes = stack.as_bytes();
        for i in 0..=bytes.len() {
            if i == bytes.len() || bytes[i] == b';' {
                let entry = frames.entry(stack[..i].to_string()).or_default();
                entry.total += count;
                if i == bytes.len() {
                    entry.self_samples += count;
                }
            }
        }
    }
    frames
}

/// One frame path's self/cumulative sample counts (see [`frame_totals`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameStat {
    /// Samples where this path was the sampled leaf.
    pub self_samples: u64,
    /// Samples where this path was the sampled stack or a prefix of it.
    pub total: u64,
}

/// Handle to a running sampler thread; dropping (or [`stop`]ping) joins
/// it. At most one sampler runs per process — a second [`start_sampler`]
/// while one runs returns `None`.
///
/// [`stop`]: SamplerHandle::stop
pub struct SamplerHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl SamplerHandle {
    /// Stop and join the sampler thread. The table and counters are
    /// kept, so a final snapshot/folded export still sees everything.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        profiler().disarm();
        profiler().hz.store(0, Ordering::Relaxed);
        SAMPLER_RUNNING.store(false, Ordering::Release);
    }
}

impl Drop for SamplerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

static SAMPLER_RUNNING: AtomicBool = AtomicBool::new(false);

/// Arm the profiler and start the sampler thread at `hz` (clamped to
/// [`MAX_HZ`]). Returns `None` — without arming — when `hz` is 0
/// (profiling disabled) or a sampler is already running.
pub fn start_sampler(hz: u64) -> Option<SamplerHandle> {
    if hz == 0 {
        return None;
    }
    if SAMPLER_RUNNING.swap(true, Ordering::AcqRel) {
        return None;
    }
    let hz = hz.min(MAX_HZ);
    let p = profiler();
    p.arm();
    p.hz.store(hz, Ordering::Relaxed);
    // Resolve the registry handles on the caller's thread so the first
    // tick never touches the registry mutex from the sampler.
    let _ = p.counters();
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("bikron-profile-sampler".into())
        .spawn(move || sampler_loop(hz, &thread_stop))
        .expect("spawn sampler thread");
    Some(SamplerHandle {
        stop,
        join: Some(join),
    })
}

fn sampler_loop(hz: u64, stop: &AtomicBool) {
    let p = profiler();
    let lag_hist = Arc::clone(&p.counters().2);
    let period = Duration::from_nanos(1_000_000_000 / hz);
    let mut next = Instant::now() + period;
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if let Some(wait) = next.checked_duration_since(now) {
            std::thread::sleep(wait);
        }
        let woke = Instant::now();
        // Scheduling error for this tick: how late the sweep ran. A
        // consistently large lag means the sampler is starved and the
        // profile under-counts busy periods.
        let lag = woke.saturating_duration_since(next);
        lag_hist.record(lag.as_nanos().min(u128::from(u64::MAX)) as u64);
        p.sample_once();
        next += period;
        // If we fell behind by whole periods (debugger pause, CPU
        // starvation), resynchronise instead of burst-sampling.
        if next < woke {
            next = woke + period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests that arm/disarm the process-global profiler serialise here
    /// so the harness's parallel test threads never race the flag.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disarmed_phases_publish_nothing() {
        let _serial = test_lock();
        let p = profiler();
        p.disarm();
        let before = p.snapshot();
        {
            let _g = phase("pt_disarmed");
            p.sample_once();
        }
        let after = p.snapshot();
        assert!(!after.stacks.keys().any(|s| s.contains("pt_disarmed")));
        assert!(after.samples >= before.samples);
    }

    #[test]
    fn nested_phases_collapse_and_sample() {
        let _serial = test_lock();
        let p = profiler();
        p.arm();
        {
            let _a = phase("pt_outer");
            let _b = phase("pt_inner");
            p.sample_once();
        }
        p.disarm();
        let snap = p.snapshot();
        let count = snap.stacks.get("pt_outer;pt_inner").copied().unwrap_or(0);
        assert!(count >= 1, "stacks: {:?}", snap.stacks);
    }

    #[test]
    fn exit_restores_parent_then_idle() {
        let _serial = test_lock();
        let p = profiler();
        // A dedicated thread gives deterministic slot contents.
        std::thread::spawn(|| {
            let p = profiler();
            p.arm();
            let a = phase("pt_restore_a");
            {
                let _b = phase("pt_restore_b");
                p.sample_once();
            }
            p.sample_once();
            drop(a);
            p.sample_once();
            p.disarm();
        })
        .join()
        .unwrap();
        let snap = p.snapshot();
        assert!(snap.stacks.get("pt_restore_a;pt_restore_b").copied() >= Some(1));
        assert!(snap.stacks.get("pt_restore_a").copied() >= Some(1));
    }

    #[test]
    fn adopted_helper_frames_collapse_under_the_captured_frame() {
        let _serial = test_lock();
        let p = profiler();
        p.arm();
        let before = p.snapshot();
        let evaluate = phase("evaluate");
        let context = capture();
        std::thread::spawn(move || {
            let _adopted = context.adopt();
            let _cache = phase("cache");
            profiler().sample_once();
        })
        .join()
        .unwrap();
        drop(evaluate);
        p.disarm();
        let window = p.snapshot().since(&before);
        assert!(
            window.stacks.get("evaluate;cache").copied() >= Some(1),
            "{:?}",
            window.stacks
        );
        assert_eq!(
            window.stacks.get("cache"),
            None,
            "helper published a root stack"
        );
    }

    #[test]
    fn registry_phase_inside_a_frame_keeps_its_timer_name_and_trace() {
        let _serial = test_lock();
        let p = profiler();
        let registry = crate::Registry::new();
        let tracer = crate::trace::tracer();
        tracer.enable();
        p.arm();
        {
            let _outer = registry.phase("pt_reg_outer");
            let _mid = phase("pt_reg_mid");
            let _inner = registry.phase("pt_reg_inner");
            p.sample_once();
        }
        p.disarm();
        tracer.disable();
        let report = registry.snapshot();
        assert_eq!(report.timer("pt_reg_outer").map(|t| t.count), Some(1));
        assert_eq!(
            report.timer("pt_reg_outer/pt_reg_inner").map(|t| t.count),
            Some(1)
        );
        let spans: Vec<String> = tracer.spans().into_iter().map(|s| s.name).collect();
        assert!(
            spans.iter().any(|n| n == "pt_reg_outer/pt_reg_inner"),
            "{spans:?}"
        );
        let stacks = p.snapshot().stacks;
        assert!(stacks.contains_key("pt_reg_outer;pt_reg_mid;pt_reg_inner"));
    }

    #[test]
    fn snapshot_since_subtracts() {
        let base = ProfileSnapshot {
            hz: 99,
            samples: 10,
            dropped: 1,
            idle: 2,
            stacks: [("a".to_string(), 6), ("a;b".to_string(), 4)].into(),
        };
        let later = ProfileSnapshot {
            hz: 99,
            samples: 25,
            dropped: 1,
            idle: 5,
            stacks: [
                ("a".to_string(), 6),
                ("a;b".to_string(), 14),
                ("c".to_string(), 5),
            ]
            .into(),
        };
        let window = later.since(&base);
        assert_eq!(window.samples, 15);
        assert_eq!(window.dropped, 0);
        assert_eq!(window.idle, 3);
        assert_eq!(window.stacks.get("a"), None, "unchanged stacks elided");
        assert_eq!(window.stacks.get("a;b"), Some(&10));
        assert_eq!(window.stacks.get("c"), Some(&5));
    }

    #[test]
    fn folded_roundtrips() {
        let snap = ProfileSnapshot {
            hz: 99,
            samples: 7,
            dropped: 0,
            idle: 0,
            stacks: [
                ("accept".to_string(), 2),
                ("accept;evaluate".to_string(), 4),
                ("accept;evaluate;cache".to_string(), 1),
            ]
            .into(),
        };
        let folded = snap.to_folded();
        assert_eq!(
            folded,
            "accept 2\naccept;evaluate 4\naccept;evaluate;cache 1\n"
        );
        let back = ProfileSnapshot::parse_folded(&folded).unwrap();
        assert_eq!(back.stacks, snap.stacks);
        assert_eq!(back.samples, 7);
        assert!(ProfileSnapshot::parse_folded("no-count-here\n").is_err());
        assert!(ProfileSnapshot::parse_folded("stack notanumber\n").is_err());
        assert!(ProfileSnapshot::parse_folded(" 5\n").is_err());
    }

    #[test]
    fn frame_totals_split_self_and_cumulative() {
        let stacks: BTreeMap<String, u64> = [
            ("accept".to_string(), 2),
            ("accept;evaluate".to_string(), 4),
            ("accept;evaluate;cache".to_string(), 1),
            ("write".to_string(), 3),
        ]
        .into();
        let frames = frame_totals(&stacks);
        assert_eq!(
            frames.get("accept"),
            Some(&FrameStat {
                self_samples: 2,
                total: 7
            })
        );
        assert_eq!(
            frames.get("accept;evaluate"),
            Some(&FrameStat {
                self_samples: 4,
                total: 5
            })
        );
        assert_eq!(
            frames.get("accept;evaluate;cache"),
            Some(&FrameStat {
                self_samples: 1,
                total: 1
            })
        );
        assert_eq!(
            frames.get("write"),
            Some(&FrameStat {
                self_samples: 3,
                total: 3
            })
        );
    }

    #[test]
    fn sampler_thread_accumulates_and_stops() {
        let _serial = test_lock();
        let handle = start_sampler(500);
        // The global sampler may already be held by a concurrent test;
        // only assert when we actually own it.
        if let Some(handle) = handle {
            assert!(profiler().is_armed());
            assert_eq!(profiler().sampler_hz(), 500);
            let _g = phase("pt_sampler_live");
            std::thread::sleep(Duration::from_millis(40));
            handle.stop();
            assert_eq!(profiler().sampler_hz(), 0);
            let snap = profiler().snapshot();
            let seen: u64 = snap
                .stacks
                .iter()
                .filter(|(s, _)| s.contains("pt_sampler_live"))
                .map(|(_, &n)| n)
                .sum();
            assert!(seen >= 1, "sampler never saw the live phase");
            profiler().disarm();
        }
    }
}
