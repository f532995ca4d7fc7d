//! [`Ring`]: the one bounded buffer behind [`crate::TraceCollector`] and
//! [`crate::SpanSink`]. Fixed slots, one atomic sequence, overwrite-oldest;
//! a push locks only its own slot. A slot never takes a value older than
//! the one it holds, so once pushes return exactly the newest `capacity`
//! values survive, however they interleaved. Slots are allocated on the
//! first push, so a ring that is never written (the process tracer of a
//! run without `--trace-out`) costs no memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One slot: the held value and its sequence number.
type Slot<T> = Mutex<Option<(u64, T)>>;

/// Fixed-capacity concurrent overwrite-oldest ring. See the module docs.
pub struct Ring<T> {
    seq: AtomicU64,
    capacity: usize,
    slots: OnceLock<Box<[Slot<T>]>>,
}

impl<T: Clone> Ring<T> {
    /// New ring with `capacity` slots (at least 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            seq: AtomicU64::new(0),
            capacity: capacity.max(1),
            slots: OnceLock::new(),
        }
    }

    /// Store `value`, overwriting the oldest entry once full. Returns the
    /// value's 0-based sequence number.
    pub fn push(&self, value: T) -> u64 {
        self.push_with(|_| value)
    }

    /// Store the value `make` builds from its 0-based sequence number
    /// (built outside the slot lock). Returns that sequence number.
    pub fn push_with(&self, make: impl FnOnce(u64) -> T) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let value = make(seq);
        let slots = self
            .slots
            .get_or_init(|| (0..self.capacity).map(|_| Mutex::new(None)).collect());
        let mut slot = slots[(seq % self.capacity as u64) as usize]
            .lock()
            .expect("ring slot poisoned");
        if slot.as_ref().is_none_or(|(held, _)| *held < seq) {
            *slot = Some((seq, value));
        }
        seq
    }

    /// Values pushed since creation or the last [`Ring::reset`],
    /// overwritten ones included.
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Values lost to overwriting.
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity as u64)
    }

    /// The retained values, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        let mut out: Vec<(u64, T)> = self
            .slots
            .get()
            .into_iter()
            .flatten()
            .filter_map(|s| s.lock().expect("ring slot poisoned").clone())
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, value)| value).collect()
    }

    /// Empty every slot and restart the sequence at 0.
    pub fn reset(&self) {
        for s in self.slots.get().into_iter().flatten() {
            *s.lock().expect("ring slot poisoned") = None;
        }
        self.seq.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_pushes_keep_exactly_the_newest() {
        const THREADS: u64 = 8;
        const PUSHES: u64 = 500;
        let ring: Ring<u64> = Ring::new(64);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PUSHES {
                        ring.push_with(|seq| seq);
                    }
                });
            }
        });
        let total = THREADS * PUSHES;
        assert_eq!(ring.recorded(), total);
        assert_eq!(ring.dropped(), total - 64);
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 64);
        assert_eq!(kept, (total - 64..total).collect::<Vec<u64>>());
    }

    #[test]
    fn reset_empties_and_restarts_the_sequence() {
        let ring = Ring::new(2);
        assert!(ring.slots.get().is_none(), "slots wait for the first push");
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.push("a"), 0);
        ring.push("b");
        ring.push("c");
        assert_eq!(ring.snapshot(), vec!["b", "c"]);
        ring.reset();
        assert_eq!(ring.recorded(), 0);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.push("d"), 0);
    }
}
