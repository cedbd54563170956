//! Pure batch-formation policy.
//!
//! §V-C1: requests taken from the RequestQueue are formed into batches
//! according to the batching policy (`BSZ` bytes or a timeout). The
//! *policy* is pure and lives here. In `smr-core` the Protocol thread runs
//! it, popping requests only while the pipelining window has room and
//! proposing each batch it seals; `smr-sim-jpaxos` runs it on a simulated
//! Batcher thread that feeds a ProposalQueue, as JPaxos does.

use smr_types::BatchPolicy;
use smr_wire::{Batch, Request};

/// Incremental batch builder.
///
/// Timestamps are caller-supplied nanoseconds from an arbitrary epoch
/// (monotonic), keeping the policy usable under both real and virtual
/// time.
///
/// # Examples
///
/// ```
/// use smr_paxos::BatchBuilder;
/// use smr_types::{BatchPolicy, ClientId, RequestId, SeqNum};
/// use smr_wire::Request;
///
/// let mut builder = BatchBuilder::new(BatchPolicy {
///     max_bytes: 100,
///     ..BatchPolicy::default()
/// });
/// let req = Request::new(RequestId::new(ClientId(1), SeqNum(1)), vec![0u8; 40]);
/// assert!(builder.push(req.clone(), 0).is_none(), "first request fits");
/// let full = builder.push(req, 10).expect("second request overflows 100 bytes");
/// assert_eq!(full.len(), 1);
/// ```
#[derive(Debug)]
pub struct BatchBuilder {
    policy: BatchPolicy,
    pending: Vec<Request>,
    pending_bytes: usize,
    opened_at: Option<u64>,
}

/// Serialized overhead of a batch envelope (request count prefix).
const BATCH_OVERHEAD: usize = 4;

impl BatchBuilder {
    /// Creates a builder with the given policy.
    pub fn new(policy: BatchPolicy) -> Self {
        BatchBuilder {
            policy,
            pending: Vec::new(),
            pending_bytes: BATCH_OVERHEAD,
            opened_at: None,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Number of requests currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Serialized size the pending batch would have.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Adds a request; returns a completed batch if the addition filled
    /// one (the completed batch never includes `req` unless `req` itself
    /// closed it by count).
    pub fn push(&mut self, req: Request, now_ns: u64) -> Option<Batch> {
        let size = req.wire_size();
        let mut completed = None;
        // Close the current batch first if this request would overflow it.
        if !self.pending.is_empty() && self.pending_bytes + size > self.policy.max_bytes {
            completed = self.flush();
        }
        if self.pending.is_empty() {
            self.opened_at = Some(now_ns);
        }
        self.pending_bytes += size;
        self.pending.push(req);
        if completed.is_none()
            && (self.pending.len() >= self.policy.max_requests
                || self.pending_bytes >= self.policy.max_bytes)
        {
            completed = self.flush();
        }
        completed
    }

    /// Closes and returns the pending batch if its timeout expired.
    pub fn poll_timeout(&mut self, now_ns: u64) -> Option<Batch> {
        match self.opened_at {
            Some(t) if now_ns.saturating_sub(t) >= self.policy.timeout.as_nanos() as u64 => {
                self.flush()
            }
            _ => None,
        }
    }

    /// Deadline (ns) at which the pending batch must be flushed, if one is
    /// open.
    pub fn next_deadline(&self) -> Option<u64> {
        self.opened_at
            .map(|t| t + self.policy.timeout.as_nanos() as u64)
    }

    /// Unconditionally closes the pending batch.
    pub fn flush(&mut self) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        self.pending_bytes = BATCH_OVERHEAD;
        self.opened_at = None;
        Some(Batch::new(std::mem::take(&mut self.pending)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_types::{ClientId, RequestId, SeqNum};
    use std::time::Duration;

    fn req(seq: u64, payload: usize) -> Request {
        Request::new(RequestId::new(ClientId(1), SeqNum(seq)), vec![0u8; payload])
    }

    fn policy(max_bytes: usize) -> BatchPolicy {
        BatchPolicy {
            max_bytes,
            max_requests: 1000,
            timeout: Duration::from_millis(5),
        }
    }

    #[test]
    fn fills_by_bytes() {
        // 128-byte payloads serialize to 148 bytes; BSZ=1300 fits 8.
        let mut b = BatchBuilder::new(policy(1300));
        let mut batches = Vec::new();
        for i in 0..17 {
            if let Some(batch) = b.push(req(i, 128), 0) {
                batches.push(batch);
            }
        }
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 8, "BSZ=1300 holds 8 x 148-byte requests");
        assert_eq!(batches[1].len(), 8);
        assert_eq!(b.pending_len(), 1, "17th request opens the third batch");
    }

    #[test]
    fn closes_before_overflow() {
        let mut b = BatchBuilder::new(policy(100));
        assert!(b.push(req(0, 60), 0).is_none());
        // 60+20=80 pending (+4 overhead); adding another 80 would overflow
        // 100, so the current batch is closed *without* the new request.
        let closed = b.push(req(1, 60), 0).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(b.pending_len(), 1);
    }

    #[test]
    fn fills_by_count() {
        let p = BatchPolicy {
            max_requests: 3,
            ..policy(1_000_000)
        };
        let mut b = BatchBuilder::new(p);
        assert!(b.push(req(0, 1), 0).is_none());
        assert!(b.push(req(1, 1), 0).is_none());
        let batch = b.push(req(2, 1), 0).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn oversized_request_gets_own_batch() {
        let mut b = BatchBuilder::new(policy(50));
        let batch = b.push(req(0, 100), 0).unwrap();
        assert_eq!(batch.len(), 1, "request larger than BSZ still ships");
    }

    #[test]
    fn timeout_flushes_partial_batch() {
        let mut b = BatchBuilder::new(policy(10_000));
        b.push(req(0, 10), 1_000);
        assert!(b.poll_timeout(1_000).is_none());
        let batch = b.poll_timeout(1_000 + 5_000_000).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(b.next_deadline().is_none());
    }

    #[test]
    fn deadline_tracks_first_request() {
        let mut b = BatchBuilder::new(policy(10_000));
        assert!(b.next_deadline().is_none());
        b.push(req(0, 10), 7);
        assert_eq!(b.next_deadline(), Some(7 + 5_000_000));
        b.push(req(1, 10), 1_000_000);
        assert_eq!(
            b.next_deadline(),
            Some(7 + 5_000_000),
            "deadline is from batch open"
        );
    }

    #[test]
    fn flush_empty_is_none() {
        let mut b = BatchBuilder::new(policy(100));
        assert!(b.flush().is_none());
    }

    #[test]
    fn requests_preserve_order() {
        let mut b = BatchBuilder::new(policy(1_000_000));
        for i in 0..5 {
            b.push(req(i, 4), 0);
        }
        let batch = b.flush().unwrap();
        let seqs: Vec<u64> = batch.requests.iter().map(|r| r.id.seq.0).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
