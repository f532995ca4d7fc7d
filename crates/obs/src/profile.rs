//! Continuous phase-level wall-clock profiling.
//!
//! Every thread that opens a phase (via [`crate::Registry::phase`] or the
//! lightweight [`phase`] guard here) **publishes** its live phase stack
//! into a lock-free slot registry: one `AtomicU64` per thread holding the
//! interned id of the full collapsed stack (`accept;evaluate;cache`).
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

/// Per-thread publication state: the claimed slot, the open-phase id
/// stack, and the `(parent, leaf) → id` cache that keeps steady-state
/// publication allocation-free (outer map keyed by parent id so the
/// inner lookup borrows the `&str` leaf directly).
struct ThreadState {
    slot: usize,
    stack: Vec<u32>,
    cache: HashMap<u32, HashMap<String, u32>>,
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        // Thread exit: return the slot to the free list so scoped
        // helper threads never exhaust the registry.
        let p = profiler();
        p.slots[self.slot].store(SLOT_FREE, Ordering::Release);
        p.free.lock().expect("profiler free list").push(self.slot);
    }
}

thread_local! {
    static THREAD: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
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

    /// Push `leaf` onto the calling thread's published stack. Returns
    /// whether a frame was actually pushed (the paired [`exit`] is only
    /// run then). `#[inline]` so the disarmed path folds into one load.
    #[inline]
    pub(crate) fn enter(&self, leaf: &str) -> bool {
        if !self.is_armed() {
            return false;
        }
        self.enter_slow(leaf)
    }

    fn enter_slow(&self, leaf: &str) -> bool {
        THREAD.with(|cell| {
            let mut borrow = cell.borrow_mut();
            let state = match borrow.as_mut() {
                Some(s) => s,
                None => {
                    let Some(slot) = self.free.lock().expect("profiler free list").pop() else {
                        self.slot_exhausted.fetch_add(1, Ordering::Relaxed);
                        return false;
                    };
                    self.slots[slot].store(SLOT_IDLE, Ordering::Release);
                    borrow.get_or_insert(ThreadState {
                        slot,
                        stack: Vec::with_capacity(8),
                        cache: HashMap::new(),
                    })
                }
            };
            let parent = state.stack.last().copied().unwrap_or(ROOT);
            let id = match state.cache.get(&parent).and_then(|m| m.get(leaf)) {
                Some(&id) => id,
                None => {
                    let id = self
                        .interner
                        .lock()
                        .expect("profiler interner")
                        .intern(parent, leaf);
                    state
                        .cache
                        .entry(parent)
                        .or_default()
                        .insert(leaf.to_string(), id);
                    id
                }
            };
            state.stack.push(id);
            self.slots[state.slot].store(u64::from(id) + NODE_BASE, Ordering::Release);
            true
        })
    }

    /// Pop the calling thread's published stack (paired with a `true`
    /// return from [`enter`]).
    pub(crate) fn exit(&self) {
        THREAD.with(|cell| {
            if let Some(state) = cell.borrow_mut().as_mut() {
                state.stack.pop();
                let value = state
                    .stack
                    .last()
                    .map_or(SLOT_IDLE, |&id| u64::from(id) + NODE_BASE);
                self.slots[state.slot].store(value, Ordering::Release);
            }
        });
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

/// RAII frame on the calling thread's published stack. The lightweight
/// entry point for hot paths that want profiler attribution *without* a
/// [`crate::Registry`] timer (no name-lookup mutex, no `format!`): one
/// relaxed load when profiling is off, one cached hash lookup plus one
/// atomic store when on.
#[must_use = "dropping the guard immediately closes the profile frame"]
pub struct ProfileGuard {
    pushed: bool,
}

/// Open a profile frame named `leaf` (collapsed under the thread's
/// current stack). See [`ProfileGuard`].
#[inline]
pub fn phase(leaf: &str) -> ProfileGuard {
    ProfileGuard {
        pushed: profiler().enter(leaf),
    }
}

impl Drop for ProfileGuard {
    fn drop(&mut self) {
        if self.pushed {
            profiler().exit();
        }
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
