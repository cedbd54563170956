//! Bounded MPMC queue: lock-free ring core with a parked-waiter slow
//! path, plus waiting/blocked time accounting.
//!
//! # Ring core
//!
//! The hot path is a bounded MPMC ring with in-order frontier
//! counters (the `rte_ring` family): producers CAS a claim head,
//! write values, and advance a published-frontier tail; consumers
//! mirror it with a claim head and a freed-frontier tail. No
//! operation that finds space/items takes a lock, and no per-item
//! atomic work exists at all — a bulk burst is **one CAS, one
//! frontier store, and at most two `memcpy` segments per side** — so
//! the amortization the mutex core achieved with "one lock per burst"
//! survives, without the lock and without per-slot metadata.
//!
//! The mutex + condvars still exist, but only as the slow path: a
//! thread that must *block* (full-queue push, empty-queue pop, timed
//! waits) registers as a sleeper and parks on a condvar. Fast-path
//! operations pay one `SeqCst` load to check for sleepers; with none
//! registered they never touch the lock. The memory-ordering argument
//! for why no waiter can miss its wake-up is spelled out on `Ring`
//! and in ARCHITECTURE.md.

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use smr_metrics::{Counter, Gauge, ThreadHandle, ThreadState, Watermark};

use crate::registry::QueueProbe;

/// Error returned by non-blocking/timed pushes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

/// Error returned by pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// The queue was empty (non-blocking/timed variants only).
    Empty,
    /// The queue was closed and drained.
    Closed,
}

impl fmt::Display for PopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PopError::Empty => f.write_str("queue is empty"),
            PopError::Closed => f.write_str("queue is closed"),
        }
    }
}

impl std::error::Error for PopError {}

/// The one wake-up per batch the bulk ops pay: nothing for an empty
/// batch, a single waiter for a single item, everyone for more.
pub(crate) fn notify_batch(cv: &Condvar, n: usize) {
    match n {
        0 => {}
        1 => {
            cv.notify_one();
        }
        _ => {
            cv.notify_all();
        }
    }
}

/// Cumulative statistics of one queue.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Items pushed over the queue's lifetime.
    pub pushed: u64,
    /// Items popped over the queue's lifetime.
    pub popped: u64,
    /// Number of push calls that had to wait for space (a bulk push that
    /// waits several times counts each wait episode; a non-blocking push
    /// rejected with `Full` also counts).
    pub push_waits: u64,
    /// Number of pop calls that had to wait for an item.
    pub pop_waits: u64,
    /// Configured capacity.
    pub capacity: usize,
    /// Number of items queued right now.
    pub depth: usize,
    /// Highest depth ever reached. Observed from the committed ring
    /// length immediately after each push's CAS, so it is exact in
    /// single-threaded use and can never exceed `capacity` even under
    /// concurrent push/pop races.
    pub high_watermark: usize,
}

/// Aligns to a cache line so the producer and consumer counters never
/// false-share (x86-64 line = 64 B; adjacent-line prefetch makes 128 B
/// the conservative choice, but 64 matches what `crossbeam` uses on
/// this target and keeps the struct compact).
#[repr(align(64))]
struct CachePadded<T>(T);

/// The top bit of `enqueue_head`: set once by [`Ring::close`]; every
/// position read from `enqueue_head` is masked with [`POS_MASK`].
const CLOSED: u64 = 1 << 63;

/// The position part of `enqueue_head`.
const POS_MASK: u64 = CLOSED - 1;

/// Outcome of [`Ring::claim_push`].
enum Claim {
    /// `(first position, count)` of a claimed run.
    Got(u64, usize),
    /// No free slot right now.
    Full,
    /// The ring is closed; no claim will ever succeed again.
    Closed,
}

/// The lock-free bounded MPMC ring: four cache-line-padded position
/// counters around a bare value array, in the in-order-frontier style
/// of DPDK's `rte_ring` (rather than the per-slot-sequence Vyukov
/// style). Positions are absolute `u64`s that never wrap within any
/// realistic lifetime; a position's buffer index is `pos % cap`.
///
/// Producers CAS `enqueue_head` to claim a run of slots, write the
/// values, then advance the *published frontier* `enqueue_tail` — in
/// claim order, each claimant first waiting for earlier claimants
/// ([`Ring::advance_frontier`]) — so everything below `enqueue_tail`
/// is always fully written. Consumers mirror this exactly: they CAS
/// `dequeue_head` up to `enqueue_tail` to claim published items, move
/// the values out, then advance the *freed frontier* `dequeue_tail`
/// that producers measure free space against.
///
/// Invariant: `dequeue_tail ≤ dequeue_head ≤ enqueue_tail ≤
/// enqueue_head`, and `enqueue_head − dequeue_tail ≤ cap` (positions
/// taken without the [`CLOSED`] bit).
///
/// # Close
///
/// The closed flag is the top bit of `enqueue_head` itself, set by
/// [`Ring::close`] with one `fetch_or`. A producer's claim is a CAS
/// from a head value it read *without* the bit, so a claim racing the
/// close either lands first (its run is then below the frozen head and
/// is drained like any other) or fails and re-reads the bit. Close and
/// claim are therefore one total order on one word: after the bit is
/// set no claim succeeds and the position part of the head never moves
/// again. A consumer that observes the bit and then finds
/// `dequeue_head` equal to that frozen head has drained every accepted
/// item, which is the only condition under which it reports `Closed`.
/// (With a separate flag, a producer could check "open", a consumer
/// could see "closed and empty" and return `Closed`, and the producer
/// could then claim, publish and report `Ok` for items nobody pops.)
///
/// The payoff over per-slot sequence numbers is that *nothing
/// per-item* remains on the hot path: a burst costs one CAS and one
/// frontier store on each side, and the values move as at most two
/// contiguous `memcpy` segments ([`Ring::copy_in`] /
/// [`Ring::copy_out`]). The cost is the in-order frontier: a claimant
/// preempted between its claim and its frontier advance briefly
/// stalls later claimants on its side. That wait is bounded by a
/// scheduling delay — no thread ever parks between claim and advance.
///
/// # Memory ordering
///
/// - The `enqueue_tail` store is `SeqCst` (≥ Release): it publishes
///   the value writes that precede it, and the consumer's Acquire
///   load in [`Ring::await_published`] synchronizes-with it, so
///   claimed values are never torn or stale. `dequeue_tail` is its
///   exact dual for slot reuse.
/// - Heads are CAS'd `SeqCst` so committed lengths derived from
///   `enqueue_head`/`dequeue_head` are totally ordered: a length
///   computed as `(claimed end) - (other counter read after the CAS)`
///   can only *under*-estimate, never exceed `capacity`.
/// - Sleeper handshakes (see `Inner::wake_*` / `BoundedQueue::park_*`)
///   are Dekker-style store-buffering cases, resolved without fences
///   because every participating access — the frontier store or head
///   CAS, the sleeper-counter RMW, and both sides' re-check loads —
///   is `SeqCst`: the single total order of `SeqCst` operations rules
///   out the both-sides-miss interleaving. Either the sleeper's
///   re-check sees the published state and it does not sleep, or the
///   publisher sees the registration and takes the lock to notify —
///   and the lock serializes "about to wait" with "about to notify".
struct Ring<T> {
    /// Producer claim frontier: slots below are claimed for writing.
    /// Its top bit is the closed flag ([`CLOSED`]).
    enqueue_head: CachePadded<AtomicU64>,
    /// Published frontier: every position below is fully written.
    enqueue_tail: CachePadded<AtomicU64>,
    /// Consumer claim frontier: items below are claimed for reading.
    dequeue_head: CachePadded<AtomicU64>,
    /// Freed frontier: every slot below may be overwritten.
    dequeue_tail: CachePadded<AtomicU64>,
    data: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cap: u64,
}

// The UnsafeCell hands values across threads, exactly once each, with
// publication ordered by the frontier counters (SeqCst store /
// SeqCst load). `T: Send` is therefore sufficient, as for any channel.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Creates a ring of `capacity` slots whose absolute positions start
    /// at `start` (non-zero starts exercise index wraparound in tests).
    fn new(capacity: usize, start: u64) -> Self {
        assert!(
            start & CLOSED == 0,
            "start index must leave the closed bit clear"
        );
        let data: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Ring {
            enqueue_head: CachePadded(AtomicU64::new(start)),
            enqueue_tail: CachePadded(AtomicU64::new(start)),
            dequeue_head: CachePadded(AtomicU64::new(start)),
            dequeue_tail: CachePadded(AtomicU64::new(start)),
            data,
            cap: capacity as u64,
        }
    }

    /// Claims up to `want` contiguous slots starting at the current
    /// tail: one load of the freed frontier and one CAS, no per-slot
    /// work. Returns the claimed run, [`Claim::Full`] when no free
    /// space exists (queue full, or the freeing consumer has claimed
    /// items but not yet advanced `dequeue_tail`), or [`Claim::Closed`]
    /// once [`Ring::close`] has set the closed bit.
    ///
    /// Reading `enqueue_head` *before* `dequeue_tail` means the free
    /// space can only be under-estimated by a racing release — and a
    /// stale head is caught by the CAS — so a successful claim never
    /// covers a slot that still holds an unconsumed value. The CAS
    /// expects a head without the closed bit, so it fails on a close
    /// that landed after the load.
    fn claim_push(&self, want: usize) -> Claim {
        let want = want.min(self.cap as usize) as u64;
        loop {
            // A stale load (missing a close or another claim) is caught
            // by the CAS below, which expects exactly this value.
            let e = self.enqueue_head.0.load(Ordering::Relaxed);
            if e & CLOSED != 0 {
                return Claim::Closed;
            }
            let freed = self.dequeue_tail.0.load(Ordering::SeqCst);
            // `freed` was loaded second, so it can exceed a stale `e`;
            // the saturation makes that harmless (the CAS fails on a
            // stale `e` anyway).
            let run = self.cap.saturating_sub(e.saturating_sub(freed)).min(want);
            if run == 0 {
                // Full from this view — unless the view was stale
                // because another producer advanced the head already.
                if self.enqueue_head.0.load(Ordering::Relaxed) != e {
                    continue;
                }
                return Claim::Full;
            }
            if self
                .enqueue_head
                .0
                .compare_exchange_weak(e, e + run, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Claim::Got(e, run as usize);
            }
        }
    }

    /// Sets the closed bit. Every claim ordered after this RMW fails;
    /// every claim ordered before it is below the frozen head.
    fn close(&self) {
        self.enqueue_head.0.fetch_or(CLOSED, Ordering::SeqCst);
    }

    /// Whether [`Ring::close`] has run.
    fn is_closed(&self) -> bool {
        self.enqueue_head.0.load(Ordering::SeqCst) & CLOSED != 0
    }

    /// The producer claim frontier as a position (closed bit masked).
    fn claimed_upto(&self) -> u64 {
        self.enqueue_head.0.load(Ordering::SeqCst) & POS_MASK
    }

    /// Claims up to `max` *committed* items from the head — everything
    /// a producer has claimed through `enqueue_head`, published or not.
    /// One load and one CAS, no per-slot work. Returns `(first
    /// position, count)`, or `None` when nothing is committed.
    ///
    /// Claiming the committed range rather than the published range
    /// (`enqueue_tail`) is a regime stabilizer, not an optimization: a
    /// consumer that wakes mid-burst claims the producer's in-flight
    /// run and waits out its publication ([`Ring::await_published`]),
    /// instead of grabbing the published sliver, emptying the queue,
    /// and parking again — which under producer/consumer lockstep
    /// degrades to one park/notify round-trip per burst. The caller
    /// must be prepared to wait; producers never park between claim
    /// and publish, so the wait is bounded by a scheduling delay.
    fn claim_pop_committed(&self, max: usize) -> Option<(u64, usize)> {
        let max = max.min(self.cap as usize) as u64;
        loop {
            let d = self.dequeue_head.0.load(Ordering::Relaxed);
            // Loaded after `d`: a lower bound on the claims-committed
            // frontier at CAS time, so `d..d + run` only covers items
            // some producer owns and will publish.
            let committed = self.claimed_upto();
            let run = committed.saturating_sub(d).min(max);
            if run == 0 {
                if self.dequeue_head.0.load(Ordering::Relaxed) != d {
                    continue;
                }
                return None;
            }
            if self
                .dequeue_head
                .0
                .compare_exchange_weak(d, d + run, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some((d, run as usize));
            }
        }
    }

    /// Waits until the published frontier covers the claimed run
    /// `first..first + n`: one spinning counter wait per run, not per
    /// slot. In the common case the single Acquire load already sees
    /// the frontier past the run's end and the loop body never runs.
    fn await_published(&self, first: u64, n: usize) {
        let end = first + n as u64;
        let mut spins = 0u32;
        while self.enqueue_tail.0.load(Ordering::Acquire) < end {
            spins += 1;
            if spins > 256 {
                // The publisher has been preempted mid-publish; on an
                // oversubscribed host a herd of yielders can starve it
                // of a quantum for a long time. Sleeping hands the core
                // over outright.
                std::thread::sleep(Duration::from_micros(50));
            } else if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// In-order frontier advance, shared by publish (producer side,
    /// `enqueue_tail`) and release (consumer side, `dequeue_tail`):
    /// waits until `tail` reaches `first` — i.e. every earlier claimant
    /// on this side has advanced past its run — then stores
    /// `first + n`.
    ///
    /// The wait is a spin (then yield) rather than a park: the thread
    /// being waited on is between its own claim and advance, a window
    /// with no parking in it, so the stall is bounded by a scheduling
    /// delay. The store is `SeqCst`: as a Release it publishes this
    /// claimant's value writes (or value moves-out); as a `SeqCst` op
    /// it anchors the fence-free sleeper handshake (see [`Ring`]).
    fn advance_frontier(tail: &AtomicU64, first: u64, n: usize) {
        let mut spins = 0u32;
        while tail.load(Ordering::Acquire) != first {
            spins += 1;
            if spins > 256 {
                // Same escalation as `await_published`: the earlier
                // claimant holding the frontier is preempted, so burn no
                // more quanta yelling at it.
                std::thread::sleep(Duration::from_micros(50));
            } else if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        tail.store(first + n as u64, Ordering::SeqCst);
    }

    /// Publishes the claimed run `first..first + n` after its values
    /// were written ([`Ring::write`] / [`Ring::copy_in`]), making it
    /// claimable by consumers.
    fn publish(&self, first: u64, n: usize) {
        Self::advance_frontier(&self.enqueue_tail.0, first, n);
    }

    /// Releases the claimed run `first..first + n` after its values
    /// were moved out ([`Ring::read`] / [`Ring::copy_out`]), making the
    /// slots reusable by producers.
    fn release(&self, first: u64, n: usize) {
        Self::advance_frontier(&self.dequeue_tail.0, first, n);
    }

    /// Buffer index of absolute position `pos` (one hardware `u64`
    /// division — `cap` is not required to be a power of two; the bulk
    /// paths pay it once per run, not per item).
    #[inline]
    fn index_of(&self, pos: u64) -> usize {
        (pos % self.cap) as usize
    }

    /// Writes `value` into claimed position `pos` without publishing
    /// it — pair with [`Ring::publish`].
    ///
    /// # Safety
    ///
    /// `pos` must have been claimed by a successful `claim_push` and
    /// not yet written.
    unsafe fn write(&self, pos: u64, value: T) {
        unsafe { (*self.data[self.index_of(pos)].get()).write(value) };
    }

    /// Moves the value out of claimed position `pos` without releasing
    /// the slot — pair with [`Ring::release`].
    ///
    /// # Safety
    ///
    /// `pos` must have been claimed by a successful [`Ring::claim_pop_committed`]
    /// and not yet read.
    unsafe fn read(&self, pos: u64) -> T {
        unsafe { (*self.data[self.index_of(pos)].get()).assume_init_read() }
    }

    /// Copies `n` values from `src` into the claimed run
    /// `first..first + n` as at most two contiguous `memcpy` segments
    /// (the run wraps the buffer edge at most once). Does *not*
    /// publish — pair with [`Ring::publish`]. The source values are
    /// bitwise-moved: the caller must forget them (e.g. via
    /// `Vec::set_len`) without dropping.
    ///
    /// # Safety
    ///
    /// The run must have been claimed by a successful `claim_push` and
    /// not yet written; `src` must be valid for `n` reads.
    unsafe fn copy_in(&self, first: u64, n: usize, src: *const T) {
        let idx = self.index_of(first);
        let head = n.min(self.data.len() - idx);
        // UnsafeCell<MaybeUninit<T>> is layout-identical to T, so the
        // array region is writable as a contiguous run of T values.
        let base = UnsafeCell::raw_get(self.data.as_ptr()) as *mut T;
        unsafe {
            std::ptr::copy_nonoverlapping(src, base.add(idx), head);
            std::ptr::copy_nonoverlapping(src.add(head), base, n - head);
        }
    }

    /// Moves the values of the claimed run `first..first + n` out of
    /// the ring into `dst` as at most two contiguous `memcpy` segments.
    /// Does *not* release the slots — pair with [`Ring::release`].
    ///
    /// # Safety
    ///
    /// The run must have been claimed by a successful
    /// [`Ring::claim_pop_committed`] and none of it read yet. `dst` must be valid
    /// for `n` writes.
    unsafe fn copy_out(&self, first: u64, n: usize, dst: *mut T) {
        let idx = self.index_of(first);
        let head = n.min(self.data.len() - idx);
        let base = self.data.as_ptr() as *const T;
        unsafe {
            std::ptr::copy_nonoverlapping(base.add(idx), dst, head);
            std::ptr::copy_nonoverlapping(base, dst.add(head), n - head);
        }
    }

    /// Committed queue length: claimed pushes minus claimed pops — the
    /// count a consumer is entitled to wait for (a claimed-but-not-yet-
    /// published run counts; its producer is about to publish it).
    /// Reads the enqueue side first, so the difference never exceeds
    /// `cap` (the dequeue head can only have advanced further by the
    /// time it is read).
    fn len(&self) -> usize {
        let e = self.claimed_upto();
        let d = self.dequeue_head.0.load(Ordering::SeqCst);
        e.saturating_sub(d).min(self.cap) as usize
    }

    /// Whether committed items exist (the park re-check: pops claim
    /// the committed range, so `enqueue_head != dequeue_head` means a
    /// claim would succeed and the consumer must not sleep).
    fn pop_ready(&self) -> bool {
        let e = self.claimed_upto();
        let d = self.dequeue_head.0.load(Ordering::SeqCst);
        e != d
    }

    /// Whether free space exists (the park re-check dual of
    /// [`Ring::pop_ready`]). Loads the freed frontier *after* the
    /// enqueue head: a racing release only makes this report ready
    /// more often, and a spurious ready just loops back to a failing
    /// claim.
    fn push_ready(&self) -> bool {
        let e = self.claimed_upto();
        let freed = self.dequeue_tail.0.load(Ordering::SeqCst);
        e.saturating_sub(freed) < self.cap
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Initialized-and-owned = published but not claimed by any
        // pop. (A run claimed for pop was moved out by its consumer; a
        // claimed-but-unpublished push run is treated as unwritten.
        // Either can leak values only if a thread panicked between its
        // claim and its frontier advance.)
        let d = *self.dequeue_head.0.get_mut();
        let p = *self.enqueue_tail.0.get_mut();
        for pos in d..p {
            let idx = (pos % self.cap) as usize;
            unsafe { self.data[idx].get_mut().assume_init_drop() };
        }
    }
}

/// Precise waiter counts, maintained strictly under the slow-path lock.
/// `pop_waiting` counts consumers *inside* a condvar wait (unlike the
/// lock-free `pop_sleepers`, which also covers the registration window),
/// so a wake-token holder can tell whether its `notify_one` will
/// actually land.
#[derive(Default)]
struct Waiters {
    pop_waiting: usize,
}

struct Inner<T> {
    ring: Ring<T>,
    /// Slow-path lock: guards the sleeper registrations, the condvar
    /// waits, and the precise under-lock waiter counts. The fast path
    /// never touches it.
    waiters: Mutex<Waiters>,
    not_empty: Condvar,
    not_full: Condvar,
    /// Consumers currently parked (or registering to park) on
    /// `not_empty`. Modified only while holding `waiters`; read
    /// lock-free by producers deciding whether to notify.
    pop_sleepers: AtomicUsize,
    /// Wake-token dedup: true while a `not_empty` notify has been issued
    /// and its target consumer has not yet left its park. Producers
    /// that find it set skip the slow-path lock entirely — without
    /// this, a consumer sleeping through several bursts costs one lock
    /// + notify round-trip per burst instead of one per sleep episode.
    ///
    /// Invariant: `true` implies a consumer was actually woken and
    /// will clear the flag on park exit (a notify that wakes nobody
    /// clears it immediately), so a set flag can never strand a
    /// sleeper.
    pop_wake_pending: AtomicBool,
    /// Producers parked on `not_full`; the dual of `pop_sleepers`.
    push_sleepers: AtomicUsize,
    capacity: usize,
    name: String,
    pushed: Counter,
    popped: Counter,
    push_waits: Counter,
    pop_waits: Counter,
    // Updated from the committed ring length right after each
    // operation's CAS; reads are lock-free (registry/sampler).
    depth: Gauge,
    high_watermark: Watermark,
}

impl<T> Inner<T> {
    /// Accounts a committed push of `n` items first claimed at `first`:
    /// counters, depth gauge, and the high-watermark, all computed from
    /// the post-CAS committed length. Reading the head *after* the CAS
    /// means the length can only under-estimate the instantaneous depth,
    /// so the watermark can never exceed capacity.
    fn note_push(&self, first: u64, n: usize) {
        self.pushed.add(n as u64);
        let d = self.ring.dequeue_head.0.load(Ordering::SeqCst);
        let len = (first + n as u64)
            .saturating_sub(d)
            .min(self.capacity as u64);
        self.high_watermark.observe(len);
        self.depth.set(len as i64);
    }

    /// Accounts a committed pop of `n` items first claimed at `first`;
    /// the dual of [`Inner::note_push`] (no watermark: pops only shrink
    /// the queue).
    fn note_pop(&self, first: u64, n: usize) {
        self.popped.add(n as u64);
        let e = self.ring.claimed_upto();
        let len = e.saturating_sub(first + n as u64).min(self.capacity as u64);
        self.depth.set(len as i64);
    }

    /// Publisher half of the sleeper handshake: after committing items,
    /// wake a parked consumer. One load when nobody sleeps; the lock is
    /// taken only to serialize with a consumer between its registration
    /// and its wait. No fence is needed before the sleeper load: the
    /// caller's commit (the `SeqCst` `enqueue_head` CAS) and this
    /// `SeqCst` load, together with the sleeper's `SeqCst` registration
    /// and its position-based re-check ([`Ring::pop_ready`],
    /// all-`SeqCst` loads), put all four accesses in the single total
    /// order of `SeqCst` operations, which rules out the
    /// both-sides-miss interleaving directly.
    ///
    /// Exactly **one** consumer is woken, never the whole herd: a pop
    /// claims the entire committed range, so under `notify_all` every
    /// consumer but the winner pays two slow-path lock round-trips just
    /// to go back to sleep (measured as tens of thousands of futile
    /// park/claim cycles per second under a 4x4 bulk workload). A
    /// consumer that leaves committed items behind relays the wake to
    /// the next sleeper ([`Inner::after_pop`]), so a single token is
    /// enough for any number of sleepers.
    fn wake_consumers(&self) {
        if self.pop_sleepers.load(Ordering::SeqCst) > 0
            && !self.pop_wake_pending.swap(true, Ordering::SeqCst)
        {
            let guard = self.waiters.lock();
            if guard.pop_waiting > 0 {
                self.not_empty.notify_one();
            } else {
                // The registered sleeper left before ever waiting: drop
                // the token so the next wake is not suppressed.
                self.pop_wake_pending.store(false, Ordering::SeqCst);
            }
        }
    }

    /// Post-pop wake-ups: producers (space was freed) plus the consumer
    /// wake *relay* — if committed items remain and a consumer sleeps,
    /// pass the single wake token on. The relay is what makes
    /// [`Inner::wake_consumers`]'s `notify_one` sufficient: every state
    /// with committed items and only parked consumers is reached either
    /// by a push (which sends a token) or by a pop that left items
    /// behind (which relays one), so some sleeper always holds a token.
    /// Fence-free for the same reason as [`Inner::wake_consumers`]: the
    /// caller's release (a `SeqCst` `dequeue_tail` store), these
    /// `SeqCst` sleeper loads, a registering producer's `SeqCst`
    /// registration, and its position-based re-check
    /// ([`Ring::push_ready`]) all sit in the `SeqCst` total order.
    ///
    /// Producers keep the batch-sized notify (`notify_batch`): freed
    /// space is split between claimants rather than taken whole, so
    /// waking several producers lets each claim a share of a large
    /// drain.
    fn after_pop(&self, n: usize) {
        if self.push_sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.waiters.lock();
            notify_batch(&self.not_full, n);
        }
        if self.pop_sleepers.load(Ordering::SeqCst) > 0
            && self.ring.len() > 0
            && !self.pop_wake_pending.swap(true, Ordering::SeqCst)
        {
            let guard = self.waiters.lock();
            if guard.pop_waiting > 0 {
                self.not_empty.notify_one();
            } else {
                self.pop_wake_pending.store(false, Ordering::SeqCst);
            }
        }
    }
}

/// A bounded multi-producer multi-consumer FIFO queue.
///
/// Cloning shares the queue. Blocking operations come in untracked
/// (`push`/`pop`) and tracked (`push_with`/`pop_with`) flavours; tracked
/// variants charge wait time to the calling thread's profile as
/// [`ThreadState::Waiting`] — exactly what the JVM's `ThreadMXBean`
/// reports for a thread parked on a `Condition`.
///
/// # Lock-free core
///
/// The queue is a bounded MPMC ring (CAS'd claim heads, in-order
/// published/freed frontier tails — see `Ring`): operations that
/// find space/items complete without locking. The internal
/// mutex+condvar pair is only the slow path for threads that must
/// block, and for [`BoundedQueue::close`]'s
/// store-then-lock-then-notify protocol.
///
/// # Bulk operations
///
/// A request crosses at least four of these queues on its way through
/// the replica, so per-item overhead bounds end-to-end throughput. The
/// bulk operations ([`BoundedQueue::push_many`],
/// [`BoundedQueue::try_pop_all`], [`BoundedQueue::pop_wait_all`]) claim
/// a whole contiguous run of ring slots with one CAS and one wake-up
/// check per burst, draining into a caller-owned reusable buffer so the
/// steady state allocates nothing.
///
/// # Examples
///
/// ```
/// use smr_queue::BoundedQueue;
///
/// let q = BoundedQueue::new("RequestQueue", 1000);
/// q.push(42).unwrap();
/// assert_eq!(q.pop().unwrap(), 42);
///
/// q.push_many(0..3).unwrap();
/// let mut buf = Vec::new();
/// assert_eq!(q.try_pop_all(&mut buf).unwrap(), 3);
/// assert_eq!(buf, vec![0, 1, 2]);
/// ```
pub struct BoundedQueue<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for BoundedQueue<T> {
    fn clone(&self) -> Self {
        BoundedQueue {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("name", &self.inner.name)
            .field("capacity", &self.inner.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Creates a queue with the given diagnostic name and capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        Self::with_start_index(name, capacity, 0)
    }

    /// Creates a queue whose ring positions start at `start` instead of
    /// zero. Behaviour is identical to [`BoundedQueue::new`]; the only
    /// use is tests/benches that exercise index wraparound (e.g. cycling
    /// the absolute positions past `u32::MAX` without pushing four
    /// billion items).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`, or if `start` has its top bit set (that
    /// bit of the claim head is the closed flag).
    pub fn with_start_index(name: impl Into<String>, capacity: usize, start: u64) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Arc::new(Inner {
                ring: Ring::new(capacity, start),
                waiters: Mutex::new(Waiters::default()),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                pop_sleepers: AtomicUsize::new(0),
                pop_wake_pending: AtomicBool::new(false),
                push_sleepers: AtomicUsize::new(0),
                capacity,
                name: name.into(),
                pushed: Counter::new(),
                popped: Counter::new(),
                push_waits: Counter::new(),
                pop_waits: Counter::new(),
                depth: Gauge::new(),
                high_watermark: Watermark::new(),
            }),
        }
    }

    /// The queue's diagnostic name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Maximum number of items the queue holds.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Current number of queued items (committed ring length; never
    /// exceeds the capacity).
    pub fn len(&self) -> usize {
        self.inner.ring.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.ring.is_closed()
    }

    /// Closes the queue: subsequent pushes fail, pops drain remaining
    /// items and then report [`PopError::Closed`]. All waiters wake.
    ///
    /// The closed flag lives in the ring's claim head, so a push either
    /// claimed before this call (and its items are drained) or fails
    /// (see `Ring`). The set-then-lock-then-notify order is
    /// load-bearing: a thread that read "open" during its under-lock
    /// park re-check is either still holding the slow-path lock (so this
    /// call's `notify_all` happens after it releases into the wait) or
    /// already parked — either way it receives the wake and re-checks.
    pub fn close(&self) {
        self.inner.ring.close();
        let _guard = self.inner.waiters.lock();
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushed: self.inner.pushed.get(),
            popped: self.inner.popped.get(),
            push_waits: self.inner.push_waits.get(),
            pop_waits: self.inner.pop_waits.get(),
            capacity: self.inner.capacity,
            depth: self.inner.depth.get().max(0) as usize,
            high_watermark: self.inner.high_watermark.get() as usize,
        }
    }

    /// A type-erased observability handle for this queue: shares the
    /// queue's counters, depth gauge and high-watermark without holding
    /// the items' type, so queues of different item types can live in
    /// one [`QueueRegistry`](crate::QueueRegistry). All shared handles
    /// are plain atomics, so observation stays lock-free against the
    /// ring core.
    pub fn probe(&self) -> QueueProbe {
        QueueProbe::new(
            self.inner.name.clone(),
            self.inner.capacity,
            self.inner.depth.clone(),
            self.inner.high_watermark.clone(),
            self.inner.pushed.clone(),
            self.inner.popped.clone(),
            self.inner.push_waits.clone(),
            self.inner.pop_waits.clone(),
        )
    }

    /// Sleeper half of the consumer handshake: registers, re-checks the
    /// ring and the closed flag under the lock, and parks. Returns
    /// whether the wait timed out. `counted` dedupes the `pop_waits`
    /// accounting to one count per wait episode. No fence between
    /// registration and re-check: the registration RMW and the
    /// re-check loads are `SeqCst`, which pairs with the publisher's
    /// `SeqCst` frontier store + sleeper load (see [`Ring`]).
    fn park_pop(&self, deadline: Option<Instant>, counted: &mut bool) -> bool {
        let inner = &*self.inner;
        let mut guard = inner.waiters.lock();
        inner.pop_sleepers.fetch_add(1, Ordering::SeqCst);
        if inner.ring.pop_ready() || inner.ring.is_closed() {
            inner.pop_sleepers.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        if !*counted {
            inner.pop_waits.inc();
            *counted = true;
        }
        guard.pop_waiting += 1;
        let timed_out = match deadline {
            Some(dl) => inner.not_empty.wait_until(&mut guard, dl).timed_out(),
            None => {
                inner.not_empty.wait(&mut guard);
                false
            }
        };
        guard.pop_waiting -= 1;
        // Consume the wake token on any park exit (notify, timeout, or
        // spurious). Clearing on a timeout whose token targeted another
        // waiter merely permits one extra notify; never clearing would
        // suppress wakes forever.
        inner.pop_wake_pending.store(false, Ordering::SeqCst);
        inner.pop_sleepers.fetch_sub(1, Ordering::SeqCst);
        timed_out
    }

    /// The producer dual of [`BoundedQueue::park_pop`].
    fn park_push(&self, counted: &mut bool) {
        let inner = &*self.inner;
        let mut guard = inner.waiters.lock();
        inner.push_sleepers.fetch_add(1, Ordering::SeqCst);
        if inner.ring.push_ready() || inner.ring.is_closed() {
            inner.push_sleepers.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if !*counted {
            inner.push_waits.inc();
            *counted = true;
        }
        inner.not_full.wait(&mut guard);
        inner.push_sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Moves `n` claimed items starting at `first` into `buf` and
    /// settles accounting + producer wake-ups.
    fn take_claimed(&self, first: u64, n: usize, buf: &mut Vec<T>) {
        let ring = &self.inner.ring;
        // One counter wait for the whole run, then move the values out
        // contiguously (≤ 2 memcpys) and release the slots for reuse.
        ring.await_published(first, n);
        buf.reserve(n);
        let base = buf.len();
        unsafe {
            ring.copy_out(first, n, buf.as_mut_ptr().add(base));
            buf.set_len(base + n);
        }
        ring.release(first, n);
        self.inner.note_pop(first, n);
        self.inner.after_pop(n);
    }

    /// Blocking push without metrics attribution.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] if the queue is closed.
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        self.push_impl(item, None)
    }

    /// Blocking push; wait time is charged to `handle` as `Waiting`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] if the queue is closed.
    pub fn push_with(&self, item: T, handle: &ThreadHandle) -> Result<(), PushError<T>> {
        self.push_impl(item, Some(handle))
    }

    fn push_impl(&self, item: T, handle: Option<&ThreadHandle>) -> Result<(), PushError<T>> {
        let mut counted = false;
        let mut wait_guard = None;
        loop {
            match self.inner.ring.claim_push(1) {
                Claim::Got(pos, _) => {
                    unsafe { self.inner.ring.write(pos, item) };
                    self.inner.ring.publish(pos, 1);
                    self.inner.note_push(pos, 1);
                    self.inner.wake_consumers();
                    return Ok(());
                }
                Claim::Closed => return Err(PushError::Closed(item)),
                Claim::Full => {}
            }
            if wait_guard.is_none() {
                wait_guard = handle.map(|h| h.enter(ThreadState::Waiting));
            }
            self.park_push(&mut counted);
        }
    }

    /// Blocking bulk push: moves every item of `items` into the queue,
    /// claiming whatever contiguous run of free slots exists with one
    /// CAS per burst and waiting for room when full. Consumers are woken
    /// once per burst (one `notify_one` for a single item, one
    /// `notify_all` for more) instead of once per item — and only when
    /// one is actually parked. Returns the number of items pushed.
    ///
    /// Unlike the historical mutex core, the iterator is advanced
    /// *outside* any internal lock, so the old "must not touch this
    /// queue from `next()`" deadlock caveat no longer applies to the
    /// fast path; keep iterators cheap anyway — they run on the hot
    /// path.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] carrying the items not yet pushed
    /// if the queue closes mid-way; items pushed before the close remain
    /// poppable (close drains).
    ///
    /// # Examples
    ///
    /// ```
    /// use smr_queue::BoundedQueue;
    ///
    /// let q = BoundedQueue::new("ProposalQueue", 8);
    /// assert_eq!(q.push_many(vec!["a", "b", "c"]).unwrap(), 3);
    /// assert_eq!(q.len(), 3);
    /// ```
    pub fn push_many<I>(&self, items: I) -> Result<usize, PushError<Vec<T>>>
    where
        I: IntoIterator<Item = T>,
    {
        self.push_many_impl(items, None)
    }

    /// Blocking bulk push; wait time is charged to `handle` as `Waiting`.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Closed`] carrying the items not yet pushed if
    /// the queue closes mid-way.
    pub fn push_many_with<I>(
        &self,
        items: I,
        handle: &ThreadHandle,
    ) -> Result<usize, PushError<Vec<T>>>
    where
        I: IntoIterator<Item = T>,
    {
        self.push_many_impl(items, Some(handle))
    }

    fn push_many_impl<I>(
        &self,
        items: I,
        handle: Option<&ThreadHandle>,
    ) -> Result<usize, PushError<Vec<T>>>
    where
        I: IntoIterator<Item = T>,
    {
        let mut iter = items.into_iter();
        // Items pulled from the iterator but not yet written to claimed
        // slots (a claim can come up shorter than the staged run when
        // producers race); nothing here has been pushed yet.
        let mut staged: Vec<T> = Vec::new();
        let mut exhausted = false;
        let mut total = 0usize;
        let mut counted = false;
        let mut wait_guard = None;
        loop {
            if staged.is_empty() && !exhausted {
                // Stage up to one queue's worth; more can never be
                // claimed in one burst anyway.
                staged.extend(iter.by_ref().take(self.inner.capacity));
                exhausted = staged.len() < self.inner.capacity;
            }
            if staged.is_empty() {
                return Ok(total);
            }
            match self.inner.ring.claim_push(staged.len()) {
                Claim::Got(first, n) => {
                    let ring = &self.inner.ring;
                    // Bitwise-move the claimed prefix into the ring,
                    // shift any unclaimed remainder to the front, and
                    // publish. No per-item moves, no drops: the copies
                    // and `set_len` transfer ownership without running
                    // any `T` code, so there is no double-drop window.
                    unsafe {
                        ring.copy_in(first, n, staged.as_ptr());
                        let rem = staged.len() - n;
                        std::ptr::copy(staged.as_ptr().add(n), staged.as_mut_ptr(), rem);
                        staged.set_len(rem);
                    }
                    ring.publish(first, n);
                    total += n;
                    self.inner.note_push(first, n);
                    self.inner.wake_consumers();
                    // Progress made: a later full-queue stall is a new
                    // wait episode for the stats.
                    counted = false;
                }
                Claim::Closed => {
                    let mut rest: Vec<T> = staged;
                    rest.extend(iter);
                    return Err(PushError::Closed(rest));
                }
                Claim::Full => {
                    if wait_guard.is_none() {
                        wait_guard = handle.map(|h| h.enter(ThreadState::Waiting));
                    }
                    self.park_push(&mut counted);
                }
            }
        }
    }

    /// Non-blocking push.
    ///
    /// # Errors
    ///
    /// Returns [`PushError::Full`] or [`PushError::Closed`], handing the
    /// item back.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        match self.inner.ring.claim_push(1) {
            Claim::Got(pos, _) => {
                unsafe { self.inner.ring.write(pos, item) };
                self.inner.ring.publish(pos, 1);
                self.inner.note_push(pos, 1);
                self.inner.wake_consumers();
                Ok(())
            }
            Claim::Closed => Err(PushError::Closed(item)),
            Claim::Full => {
                // A rejected non-blocking push is the try-path's
                // equivalent of a blocked push: count it so backpressure
                // stays visible in Table I-style stats regardless of
                // push mode.
                self.inner.push_waits.inc();
                Err(PushError::Full(item))
            }
        }
    }

    /// Blocking pop without metrics attribution.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::Closed`] once the queue is closed and drained.
    pub fn pop(&self) -> Result<T, PopError> {
        self.pop_impl(None)
    }

    /// Blocking pop; wait time is charged to `handle` as `Waiting`.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::Closed`] once the queue is closed and drained.
    pub fn pop_with(&self, handle: &ThreadHandle) -> Result<T, PopError> {
        self.pop_impl(Some(handle))
    }

    fn pop_impl(&self, handle: Option<&ThreadHandle>) -> Result<T, PopError> {
        let mut counted = false;
        let mut wait_guard = None;
        loop {
            if let Some((pos, _)) = self.inner.ring.claim_pop_committed(1) {
                self.inner.ring.await_published(pos, 1);
                let value = unsafe { self.inner.ring.read(pos) };
                self.inner.ring.release(pos, 1);
                self.inner.note_pop(pos, 1);
                self.inner.after_pop(1);
                return Ok(value);
            }
            if self.is_closed() {
                if self.inner.ring.len() == 0 {
                    return Err(PopError::Closed);
                }
                // Closed with items still in flight: a producer claimed
                // slots before the close and is about to publish them.
                // They must be drained, not dropped — spin them in.
                std::thread::yield_now();
                continue;
            }
            if wait_guard.is_none() {
                wait_guard = handle.map(|h| h.enter(ThreadState::Waiting));
            }
            self.park_pop(None, &mut counted);
        }
    }

    /// Non-blocking pop.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::Empty`] when nothing is queued, or
    /// [`PopError::Closed`] when closed and drained.
    pub fn try_pop(&self) -> Result<T, PopError> {
        loop {
            if let Some((pos, _)) = self.inner.ring.claim_pop_committed(1) {
                self.inner.ring.await_published(pos, 1);
                let value = unsafe { self.inner.ring.read(pos) };
                self.inner.ring.release(pos, 1);
                self.inner.note_pop(pos, 1);
                self.inner.after_pop(1);
                return Ok(value);
            }
            if self.is_closed() {
                if self.inner.ring.len() == 0 {
                    return Err(PopError::Closed);
                }
                // In-flight publish after close: `Closed` here would
                // strand the items, so wait the publish out.
                std::thread::yield_now();
                continue;
            }
            return Err(PopError::Empty);
        }
    }

    /// Non-blocking bulk pop: drains every committed item into `buf`
    /// (appending) with one CAS per run, waking producers once per
    /// batch. Returns the number of items moved (at least 1 on
    /// success). "Committed" includes items a racing bulk push has
    /// claimed but not yet published; those are waited out with a brief
    /// spin rather than left behind, so a successful return reflects
    /// the queue's committed length at the claim.
    ///
    /// # Errors
    ///
    /// Returns [`PopError::Empty`] when nothing is queued, or
    /// [`PopError::Closed`] when closed and drained.
    ///
    /// # Examples
    ///
    /// ```
    /// use smr_queue::BoundedQueue;
    ///
    /// let q = BoundedQueue::new("ReplyQueue", 8);
    /// q.push_many(0..4).unwrap();
    /// let mut buf = Vec::new();
    /// assert_eq!(q.try_pop_all(&mut buf).unwrap(), 4);
    /// assert_eq!(buf, vec![0, 1, 2, 3]);
    /// ```
    pub fn try_pop_all(&self, buf: &mut Vec<T>) -> Result<usize, PopError> {
        loop {
            if let Some((first, n)) = self.inner.ring.claim_pop_committed(self.inner.capacity) {
                self.take_claimed(first, n, buf);
                return Ok(n);
            }
            if self.is_closed() {
                if self.inner.ring.len() == 0 {
                    return Err(PopError::Closed);
                }
                std::thread::yield_now();
                continue;
            }
            return Err(PopError::Empty);
        }
    }

    /// Blocking bulk pop: waits up to `timeout` for the queue to become
    /// non-empty, then drains up to `max` committed items into `buf`
    /// (appending) with one CAS per run. Producers are woken once per
    /// batch. Returns the number of items moved (at least 1 on success).
    ///
    /// A consumer woken by [`BoundedQueue::close`] drains any items
    /// already committed to the queue — including items a racing bulk
    /// push claimed before the close but had not yet published — before
    /// ever reporting [`PopError::Closed`].
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] on timeout, [`PopError::Closed`] when closed
    /// and drained.
    pub fn pop_wait_all(
        &self,
        buf: &mut Vec<T>,
        max: usize,
        timeout: Duration,
    ) -> Result<usize, PopError> {
        self.pop_wait_all_impl(buf, max, timeout, None)
    }

    /// Blocking bulk pop; wait time is charged to `handle` as `Waiting`.
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] on timeout, [`PopError::Closed`] when closed
    /// and drained.
    pub fn pop_wait_all_with(
        &self,
        buf: &mut Vec<T>,
        max: usize,
        timeout: Duration,
        handle: &ThreadHandle,
    ) -> Result<usize, PopError> {
        self.pop_wait_all_impl(buf, max, timeout, Some(handle))
    }

    fn pop_wait_all_impl(
        &self,
        buf: &mut Vec<T>,
        max: usize,
        timeout: Duration,
        handle: Option<&ThreadHandle>,
    ) -> Result<usize, PopError> {
        if max == 0 {
            return Err(PopError::Empty);
        }
        let mut counted = false;
        let mut wait_guard = None;
        let mut deadline = None;
        loop {
            if let Some((first, n)) = self.inner.ring.claim_pop_committed(max) {
                self.take_claimed(first, n, buf);
                return Ok(n);
            }
            if self.is_closed() {
                if self.inner.ring.len() == 0 {
                    return Err(PopError::Closed);
                }
                std::thread::yield_now();
                continue;
            }
            if wait_guard.is_none() {
                wait_guard = handle.map(|h| h.enter(ThreadState::Waiting));
            }
            let dl = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            if self.park_pop(Some(dl), &mut counted) {
                // Timed out: one final claim so a just-published burst
                // is not reported as Empty.
                if let Some((first, n)) = self.inner.ring.claim_pop_committed(max) {
                    self.take_claimed(first, n, buf);
                    return Ok(n);
                }
                if self.is_closed() {
                    if self.inner.ring.len() == 0 {
                        return Err(PopError::Closed);
                    }
                    std::thread::yield_now();
                    continue;
                }
                return Err(PopError::Empty);
            }
        }
    }

    /// Pop with a timeout.
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] on timeout, [`PopError::Closed`] when closed
    /// and drained.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<T, PopError> {
        self.pop_timeout_impl(timeout, None)
    }

    /// Pop with a timeout; wait time is charged to `handle` as `Waiting`.
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] on timeout, [`PopError::Closed`] when closed
    /// and drained.
    pub fn pop_timeout_with(
        &self,
        timeout: Duration,
        handle: &ThreadHandle,
    ) -> Result<T, PopError> {
        self.pop_timeout_impl(timeout, Some(handle))
    }

    fn pop_timeout_impl(
        &self,
        timeout: Duration,
        handle: Option<&ThreadHandle>,
    ) -> Result<T, PopError> {
        let mut counted = false;
        let mut wait_guard = None;
        let mut deadline = None;
        loop {
            if let Some((pos, _)) = self.inner.ring.claim_pop_committed(1) {
                self.inner.ring.await_published(pos, 1);
                let value = unsafe { self.inner.ring.read(pos) };
                self.inner.ring.release(pos, 1);
                self.inner.note_pop(pos, 1);
                self.inner.after_pop(1);
                return Ok(value);
            }
            if self.is_closed() {
                if self.inner.ring.len() == 0 {
                    return Err(PopError::Closed);
                }
                std::thread::yield_now();
                continue;
            }
            if wait_guard.is_none() {
                wait_guard = handle.map(|h| h.enter(ThreadState::Waiting));
            }
            let dl = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            if self.park_pop(Some(dl), &mut counted) {
                if let Some((pos, _)) = self.inner.ring.claim_pop_committed(1) {
                    self.inner.ring.await_published(pos, 1);
                    let value = unsafe { self.inner.ring.read(pos) };
                    self.inner.ring.release(pos, 1);
                    self.inner.note_pop(pos, 1);
                    self.inner.after_pop(1);
                    return Ok(value);
                }
                if self.is_closed() {
                    if self.inner.ring.len() == 0 {
                        return Err(PopError::Closed);
                    }
                    std::thread::yield_now();
                    continue;
                }
                return Err(PopError::Empty);
            }
        }
    }

    /// Drains everything currently queued, waiting out any in-flight
    /// publishes so a concurrent bulk push cannot strand claimed items.
    pub fn drain(&self) -> Vec<T> {
        let mut items: Vec<T> = Vec::new();
        loop {
            match self.inner.ring.claim_pop_committed(self.inner.capacity) {
                Some((first, n)) => {
                    let ring = &self.inner.ring;
                    ring.await_published(first, n);
                    items.reserve(n);
                    let base = items.len();
                    unsafe {
                        ring.copy_out(first, n, items.as_mut_ptr().add(base));
                        items.set_len(base + n);
                    }
                    ring.release(first, n);
                    self.inner.note_pop(first, n);
                }
                None => {
                    // Nothing published, but a producer may still hold
                    // a claimed-but-unpublished run (it never parks in
                    // that window) — wait it out rather than strand it.
                    if self.inner.ring.len() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        }
        // Unconditional (not sleeper-gated): drain is a shutdown-path
        // operation, so one uncontended lock is preferable to any risk
        // of a missed wake.
        let _guard = self.inner.waiters.lock();
        self.inner.not_full.notify_all();
        items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order() {
        let q = BoundedQueue::new("t", 10);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap(), i);
        }
    }

    #[test]
    fn try_push_full() {
        let q = BoundedQueue::new("t", 2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
    }

    #[test]
    fn try_pop_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new("t", 2);
        assert_eq!(q.try_pop(), Err(PopError::Empty));
    }

    #[test]
    fn close_wakes_and_drains() {
        let q: BoundedQueue<u32> = BoundedQueue::new("t", 2);
        q.push(7).unwrap();
        q.close();
        assert_eq!(q.pop().unwrap(), 7);
        assert_eq!(q.pop(), Err(PopError::Closed));
        assert!(matches!(q.push(1), Err(PushError::Closed(1))));
    }

    #[test]
    fn close_unblocks_waiting_popper() {
        let q: BoundedQueue<u32> = BoundedQueue::new("t", 2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), Err(PopError::Closed));
    }

    #[test]
    fn blocking_push_waits_for_space() {
        let q = BoundedQueue::new("t", 1);
        q.push(1).unwrap();
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push(2));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop().unwrap(), 1);
        h.join().unwrap().unwrap();
        assert_eq!(q.pop().unwrap(), 2);
        assert_eq!(q.stats().push_waits, 1);
    }

    #[test]
    fn pop_timeout_times_out() {
        let q: BoundedQueue<u32> = BoundedQueue::new("t", 2);
        let start = std::time::Instant::now();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(30)),
            Err(PopError::Empty)
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn pop_timeout_returns_item() {
        let q = BoundedQueue::new("t", 2);
        let q2 = q.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            q2.push(9).unwrap();
        });
        assert_eq!(q.pop_timeout(Duration::from_secs(5)).unwrap(), 9);
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        let q = BoundedQueue::new("t", 64);
        let producers = 4;
        let per = 2_500u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(thread::spawn(move || {
                for i in 0..per {
                    q.push(p as u64 * per + i).unwrap();
                }
            }));
        }
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u64> = (0..producers as u64 * per).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn tracked_waiting_is_accounted() {
        use smr_metrics::MetricsRegistry;
        let reg = MetricsRegistry::new();
        let q: BoundedQueue<u32> = BoundedQueue::new("t", 2);
        let q2 = q.clone();
        let reg2 = reg.clone();
        let h = thread::spawn(move || {
            let handle = reg2.register_thread("consumer");
            q2.pop_with(&handle)
        });
        thread::sleep(Duration::from_millis(30));
        q.push(5).unwrap();
        assert_eq!(h.join().unwrap().unwrap(), 5);
        let snap = reg.snapshot();
        assert!(
            snap.threads[0].waiting_ns >= 20_000_000,
            "waiting time was recorded"
        );
    }

    #[test]
    fn drain_empties_queue() {
        let q = BoundedQueue::new("t", 10);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.drain(), vec![0, 1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _: BoundedQueue<u32> = BoundedQueue::new("t", 0);
    }

    #[test]
    fn push_many_preserves_fifo() {
        let q = BoundedQueue::new("t", 16);
        assert_eq!(q.push_many(0..5).unwrap(), 5);
        for i in 0..5 {
            assert_eq!(q.pop().unwrap(), i);
        }
    }

    #[test]
    fn push_many_empty_input_is_ok() {
        let q: BoundedQueue<u32> = BoundedQueue::new("t", 4);
        assert_eq!(q.push_many(std::iter::empty()).unwrap(), 0);
        q.close();
        assert_eq!(q.push_many(std::iter::empty()).unwrap(), 0);
    }

    #[test]
    fn push_many_blocks_for_space_then_finishes() {
        let q = BoundedQueue::new("t", 4);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push_many(0..10).unwrap());
        let mut got = Vec::new();
        while got.len() < 10 {
            match q.pop_timeout(Duration::from_secs(5)) {
                Ok(v) => got.push(v),
                Err(e) => panic!("pop failed: {e}"),
            }
        }
        assert_eq!(h.join().unwrap(), 10);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(q.stats().push_waits >= 1, "bulk push waited for space");
    }

    #[test]
    fn push_many_hands_back_remainder_on_close() {
        let q = BoundedQueue::new("t", 2);
        let q2 = q.clone();
        let h = thread::spawn(move || q2.push_many(0..6));
        // Wait until the pusher filled the queue and blocked.
        while q.len() < 2 {
            thread::yield_now();
        }
        q.close();
        match h.join().unwrap() {
            Err(PushError::Closed(rest)) => {
                assert_eq!(rest, vec![2, 3, 4, 5], "unpushed items handed back");
            }
            other => panic!("expected Closed with remainder, got {other:?}"),
        }
        // Items pushed before the close remain poppable (close drains).
        assert_eq!(q.pop().unwrap(), 0);
        assert_eq!(q.pop().unwrap(), 1);
        assert_eq!(q.pop(), Err(PopError::Closed));
    }

    #[test]
    fn try_pop_all_drains_and_reports_state() {
        let q = BoundedQueue::new("t", 8);
        let mut buf = Vec::new();
        assert_eq!(q.try_pop_all(&mut buf), Err(PopError::Empty));
        q.push_many(0..3).unwrap();
        assert_eq!(q.try_pop_all(&mut buf).unwrap(), 3);
        assert_eq!(buf, vec![0, 1, 2]);
        assert!(q.is_empty());
        q.close();
        assert_eq!(q.try_pop_all(&mut buf), Err(PopError::Closed));
    }

    #[test]
    fn pop_wait_all_respects_max() {
        let q = BoundedQueue::new("t", 16);
        q.push_many(0..10).unwrap();
        let mut buf = Vec::new();
        assert_eq!(
            q.pop_wait_all(&mut buf, 4, Duration::from_millis(10))
                .unwrap(),
            4
        );
        assert_eq!(buf, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn pop_wait_all_times_out_empty() {
        let q: BoundedQueue<u32> = BoundedQueue::new("t", 4);
        let mut buf = Vec::new();
        let start = std::time::Instant::now();
        assert_eq!(
            q.pop_wait_all(&mut buf, 8, Duration::from_millis(30)),
            Err(PopError::Empty)
        );
        assert!(start.elapsed() >= Duration::from_millis(25));
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_wait_all_wakes_on_bulk_push() {
        let q = BoundedQueue::new("t", 64);
        let q2 = q.clone();
        let h = thread::spawn(move || {
            let mut buf = Vec::new();
            let n = q2
                .pop_wait_all(&mut buf, 64, Duration::from_secs(5))
                .unwrap();
            (n, buf)
        });
        thread::sleep(Duration::from_millis(10));
        q.push_many(0..8).unwrap();
        let (n, buf) = h.join().unwrap();
        assert!(n >= 1, "the single batch notification woke the popper");
        assert_eq!(buf[0], 0);
    }

    #[test]
    fn pop_wait_all_closed_after_drain() {
        let q = BoundedQueue::new("t", 8);
        q.push_many(0..2).unwrap();
        q.close();
        let mut buf = Vec::new();
        assert_eq!(
            q.pop_wait_all(&mut buf, 8, Duration::from_millis(10))
                .unwrap(),
            2,
            "close drains remaining items first"
        );
        assert_eq!(
            q.pop_wait_all(&mut buf, 8, Duration::from_millis(10)),
            Err(PopError::Closed)
        );
    }

    #[test]
    fn bulk_ops_update_stats_totals() {
        let q = BoundedQueue::new("t", 32);
        q.push_many(0..10).unwrap();
        let mut buf = Vec::new();
        q.pop_wait_all(&mut buf, 4, Duration::from_millis(10))
            .unwrap();
        q.try_pop_all(&mut buf).unwrap();
        let stats = q.stats();
        assert_eq!(stats.pushed, 10);
        assert_eq!(stats.popped, 10);
    }

    /// Regression: Table I numbers must be mode-independent. Running the
    /// same workload through scalar ops and through bulk ops must leave
    /// identical stat totals (pushed/popped/depth/high-watermark).
    #[test]
    fn scalar_and_bulk_ops_produce_identical_stats() {
        let scalar = BoundedQueue::new("scalar", 32);
        for i in 0..10 {
            scalar.push(i).unwrap();
        }
        for _ in 0..10 {
            scalar.pop().unwrap();
        }

        let bulk = BoundedQueue::new("bulk", 32);
        bulk.push_many(0..10).unwrap();
        let mut buf = Vec::new();
        bulk.try_pop_all(&mut buf).unwrap();

        let (s, b) = (scalar.stats(), bulk.stats());
        assert_eq!(s.pushed, b.pushed);
        assert_eq!(s.popped, b.popped);
        assert_eq!(s.depth, b.depth);
        assert_eq!(
            s.high_watermark, b.high_watermark,
            "bulk push must raise the watermark exactly like scalar pushes"
        );
        assert_eq!(s.high_watermark, 10);
        assert_eq!(s.depth, 0);
    }

    #[test]
    fn depth_and_watermark_track_queue_length() {
        let q = BoundedQueue::new("t", 8);
        assert_eq!(q.stats().depth, 0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.stats().depth, 3);
        assert_eq!(q.stats().high_watermark, 3);
        q.pop().unwrap();
        let s = q.stats();
        assert_eq!(s.depth, 2);
        assert_eq!(s.high_watermark, 3, "watermark is sticky");
        assert_eq!(s.capacity, 8);
    }

    #[test]
    fn try_push_full_counts_as_blocked_push() {
        let q = BoundedQueue::new("t", 1);
        q.try_push(1).unwrap();
        assert!(q.try_push(2).is_err());
        assert!(q.try_push(3).is_err());
        assert_eq!(q.stats().push_waits, 2);
    }

    #[test]
    fn probe_shares_live_stats() {
        let q = BoundedQueue::new("request_q", 16);
        let probe = q.probe();
        assert_eq!(probe.name(), "request_q");
        assert_eq!(probe.capacity(), 16);
        q.push_many(0..5).unwrap();
        assert_eq!(probe.depth(), 5);
        let snap = probe.snapshot();
        assert_eq!(snap.high_watermark, 5);
        assert_eq!(snap.pushed, 5);
    }

    /// Loom-style stress (plain threads): close racing with scalar and
    /// bulk waiters on both the empty and the full side. Every waiter
    /// must wake and observe `Closed`; none may hang. This is the
    /// ordering the `closed` AtomicBool + store-then-lock-then-notify
    /// handshake in `close` guarantees.
    #[test]
    fn close_vs_waiters_stress() {
        for _ in 0..100 {
            let full: BoundedQueue<u32> = BoundedQueue::new("full", 1);
            full.push(0).unwrap();
            let empty: BoundedQueue<u32> = BoundedQueue::new("empty", 1);
            let mut pushers = Vec::new();
            for i in 0..2 {
                let q = full.clone();
                pushers.push(thread::spawn(move || q.push(i).is_err()));
            }
            let bulk_pusher = {
                let q = full.clone();
                thread::spawn(move || q.push_many(10..14).is_err())
            };
            let mut poppers = Vec::new();
            for _ in 0..2 {
                let q = empty.clone();
                poppers.push(thread::spawn(move || q.pop() == Err(PopError::Closed)));
            }
            let bulk_popper = {
                let q = empty.clone();
                thread::spawn(move || {
                    let mut buf = Vec::new();
                    q.pop_wait_all(&mut buf, 8, Duration::from_secs(10)) == Err(PopError::Closed)
                })
            };
            thread::yield_now();
            full.close();
            empty.close();
            for h in pushers {
                assert!(h.join().unwrap(), "scalar pusher observed Closed");
            }
            assert!(bulk_pusher.join().unwrap(), "bulk pusher observed Closed");
            for h in poppers {
                assert!(h.join().unwrap(), "scalar popper observed Closed");
            }
            assert!(bulk_popper.join().unwrap(), "bulk popper observed Closed");
        }
    }

    fn stress_iters(default: usize) -> usize {
        std::env::var("SMR_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// The ring core must never report a depth or high-watermark larger
    /// than the capacity, even while a sampler races concurrent pushes
    /// and pops (the committed-length observation, not a racy
    /// two-counter load). A racy implementation fails this within a few
    /// thousand iterations.
    #[test]
    fn watermark_never_exceeds_capacity_under_contention() {
        const CAP: usize = 7;
        let iters = stress_iters(30_000) as u64;
        let q: BoundedQueue<u64> = BoundedQueue::new("stress", CAP);
        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let q = q.clone();
            let probe = q.probe();
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = q.stats();
                    assert!(s.depth <= CAP, "depth {} > capacity {}", s.depth, CAP);
                    assert!(
                        s.high_watermark <= CAP,
                        "high watermark {} > capacity {}",
                        s.high_watermark,
                        CAP
                    );
                    assert!(probe.depth() <= CAP, "probe depth exceeds capacity");
                    assert!(q.len() <= CAP, "len exceeds capacity");
                }
            })
        };
        let producers: Vec<_> = (0..3)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || {
                    for i in 0..iters {
                        if p == 0 {
                            q.push(i).unwrap();
                        } else {
                            q.push_many([i, i + 1]).unwrap();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut buf = Vec::new();
                    while let Ok(_) | Err(PopError::Empty) =
                        q.pop_wait_all(&mut buf, CAP, Duration::from_millis(20))
                    {
                        buf.clear();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().unwrap();
        let s = q.stats();
        assert!(s.high_watermark <= CAP);
        assert_eq!(s.pushed, s.popped, "close drained everything");
    }

    /// Close racing bulk pushes: every item a push reported as accepted
    /// (returned `Ok` or not in the handed-back remainder) must be
    /// drained by the consumers before they observe `Closed` — items a
    /// producer had *claimed* but not yet published at close time
    /// included. Conservation proves no accepted item is stranded.
    #[test]
    fn close_drains_in_flight_bulk_pushes() {
        let rounds = stress_iters(200);
        for _ in 0..rounds {
            let q: BoundedQueue<u64> = BoundedQueue::new("inflight", 4);
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let q = q.clone();
                    thread::spawn(move || {
                        let mut accepted = 0u64;
                        for burst in 0..4u64 {
                            let base = p * 1_000 + burst * 10;
                            match q.push_many(base..base + 6) {
                                Ok(n) => accepted += n as u64,
                                Err(PushError::Closed(rest)) => {
                                    accepted += 6 - rest.len() as u64;
                                    break;
                                }
                                Err(PushError::Full(_)) => unreachable!("blocking push"),
                            }
                        }
                        accepted
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let q = q.clone();
                    thread::spawn(move || {
                        let mut got = 0u64;
                        let mut buf = Vec::new();
                        loop {
                            match q.pop_wait_all(&mut buf, 8, Duration::from_secs(10)) {
                                Ok(n) => {
                                    got += n as u64;
                                    buf.clear();
                                }
                                Err(PopError::Closed) => break,
                                Err(PopError::Empty) => {}
                            }
                        }
                        got
                    })
                })
                .collect();
            thread::yield_now();
            q.close();
            let accepted: u64 = producers.into_iter().map(|p| p.join().unwrap()).sum();
            let drained: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(
                accepted, drained,
                "every accepted item was drained before Closed"
            );
            let s = q.stats();
            assert_eq!(s.pushed, accepted);
            assert_eq!(s.popped, drained);
        }
    }

    /// ABA/wraparound: with a tiny capacity and ring positions starting
    /// just below `u32::MAX`, push/pop cycles carry the absolute indices
    /// across the 32-bit boundary (and thousands of laps beyond). FIFO
    /// order, stats, and depth must be unaffected — this is the test a
    /// 32-bit-counter or masked-index implementation fails.
    #[test]
    fn ring_indices_survive_u32_wraparound() {
        const CAP: usize = 3;
        let start = u64::from(u32::MAX) - 7;
        let laps = stress_iters(20_000) as u64;
        let q: BoundedQueue<u64> = BoundedQueue::with_start_index("wrap", CAP, start);
        // Single-threaded laps across the boundary: exact FIFO.
        let mut next_out = 0u64;
        let mut next_in = 0u64;
        for _ in 0..laps {
            q.push(next_in).unwrap();
            next_in += 1;
            q.push(next_in).unwrap();
            next_in += 1;
            assert_eq!(q.pop().unwrap(), next_out);
            next_out += 1;
            assert_eq!(q.pop().unwrap(), next_out);
            next_out += 1;
        }
        let s = q.stats();
        assert_eq!(s.pushed, 2 * laps);
        assert_eq!(s.popped, 2 * laps);
        assert_eq!(s.depth, 0);
        assert!(s.high_watermark <= CAP);

        // Concurrent wraparound: producers and consumers hammer the same
        // tiny ring across the boundary; nothing lost, nothing
        // duplicated.
        let q: BoundedQueue<u64> = BoundedQueue::with_start_index("wrap-mpmc", CAP, start);
        let per = laps.min(10_000);
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = q.clone();
                thread::spawn(move || {
                    for i in 0..per {
                        q.push(p * per + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = q.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..2 * per).collect::<Vec<_>>());
    }

    /// A queue created with a non-zero start index behaves exactly like
    /// a fresh one for a scripted single-threaded sequence.
    #[test]
    fn start_index_is_transparent() {
        let plain: BoundedQueue<u32> = BoundedQueue::new("plain", 4);
        let offset: BoundedQueue<u32> = BoundedQueue::with_start_index("offset", 4, u64::MAX / 3);
        for q in [&plain, &offset] {
            assert_eq!(q.push_many(0..3).unwrap(), 3);
            assert_eq!(q.try_pop().unwrap(), 0);
            assert_eq!(q.try_push(9), Ok(()));
            assert_eq!(q.try_push(10), Ok(()));
            assert_eq!(q.try_push(11), Err(PushError::Full(11)));
            let mut buf = Vec::new();
            assert_eq!(q.try_pop_all(&mut buf).unwrap(), 4);
            assert_eq!(buf, vec![1, 2, 9, 10]);
        }
        let (p, o) = (plain.stats(), offset.stats());
        assert_eq!(p.pushed, o.pushed);
        assert_eq!(p.popped, o.popped);
        assert_eq!(p.push_waits, o.push_waits);
        assert_eq!(p.high_watermark, o.high_watermark);
    }

    /// Items left in the ring at drop time are dropped exactly once
    /// (the ring owns raw `MaybeUninit` cells, so leaks or double drops
    /// are the failure mode).
    #[test]
    fn dropping_queue_drops_remaining_items() {
        let counter = Arc::new(AtomicUsize::new(0));
        #[derive(Debug)]
        struct Tracked(Arc<AtomicUsize>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let q = BoundedQueue::new("drop", 8);
        for _ in 0..5 {
            q.push(Tracked(Arc::clone(&counter))).unwrap();
        }
        drop(q.pop().unwrap());
        assert_eq!(counter.load(Ordering::SeqCst), 1);
        drop(q);
        assert_eq!(
            counter.load(Ordering::SeqCst),
            5,
            "remaining 4 dropped with the queue"
        );
    }
}
