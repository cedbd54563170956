//! The load generator.
//!
//! One [`Generator`] owns one client connection and many logical clients on
//! it; each logical client has at most one request outstanding (the reply
//! cache's model) and reads and writes only its own keys, so every reply
//! has exactly one expected value. The generator speaks `ClientMsg` directly
//! over a [`ClientEndpoint`], which is what lets one thread keep dozens of
//! requests in flight.
//!
//! The generator never blocks in `send` while replies are unread: the number
//! of requests in flight on a connection is capped below the in-memory
//! fabric's 64-frame client queue, every request draws at most one
//! response, and every reconnect starts on fresh queues. An open-loop
//! arrival that finds its client busy or the cap reached waits, is still
//! timed from the instant it was due, and is counted as generator-late.
//!
//! Retry policy (fixed; it is part of every failover figure): an attempt
//! that gets no answer within [`ATTEMPT_TIMEOUT`] marks the replica
//! suspected for [`SUSPECT_HOLD`] and moves the connection to the next
//! unsuspected replica; a redirect naming an unsuspected replica is
//! followed at once, any other redirect moves to the next unsuspected
//! replica after [`REDIRECT_BACKOFF`]. Every move re-sends all outstanding
//! requests under their original ids.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smr_core::KvService;
use smr_net::{ClientEndpoint, NetError};
use smr_types::{ClientId, RequestId, SeqNum};
use smr_wire::{ClientMsg, Codec, Request};

use crate::stats::LatencyHist;
use crate::sys;

/// How long one attempt may stay unanswered before the generator gives up on
/// the replica it was sent to.
pub const ATTEMPT_TIMEOUT: Duration = Duration::from_millis(250);
/// How long a replica that timed out is avoided.
pub const SUSPECT_HOLD: Duration = Duration::from_secs(1);
/// Pause before re-sending after a redirect that names no usable leader.
pub const REDIRECT_BACKOFF: Duration = Duration::from_millis(10);
/// Longest single wait for a reply, so clocks and deadlines are rechecked.
const MAX_WAIT: Duration = Duration::from_millis(5);
/// Bytes in every stored value.
pub const VALUE_LEN: usize = 100;
/// Bytes in every null-service request.
pub const NULL_PAYLOAD: usize = 128;
/// Bytes in every null-service reply.
pub const NULL_REPLY: [u8; 8] = [0; 8];
/// Most wrong replies kept verbatim for the report.
const WRONG_EXAMPLES: usize = 5;

/// Process-wide totals, kept for the watchdog: if a run stalls, it
/// reports these instead of the generators' own reports.
pub mod progress {
    use std::sync::atomic::AtomicU64;

    /// Measured requests issued so far.
    pub static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
    /// Measured requests that failed so far.
    pub static FAILED: AtomicU64 = AtomicU64::new(0);
    /// Requests outstanding right now.
    pub static IN_FLIGHT: AtomicU64 = AtomicU64::new(0);
}

fn bump(c: &AtomicU64, by: u64) {
    c.fetch_add(by, Ordering::Relaxed);
}

fn drop_one(c: &AtomicU64) {
    c.fetch_sub(1, Ordering::Relaxed);
}

/// Opens a client connection to replica `r`.
pub type Connector = Arc<dyn Fn(usize) -> Result<Box<dyn ClientEndpoint>, NetError> + Send + Sync>;

/// The operations a generator issues.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// 128-byte requests to the null service; replies must be 8 zero bytes.
    Null,
    /// Key-value GETs and PUTs of 100-byte values on the client's own keys.
    Kv {
        /// Share of operations that are PUTs.
        put_share: f64,
    },
}

/// How requests are issued in one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// An arrival every `1/rate` seconds from the phase start, whatever
    /// the replies do; each is timed from its due instant.
    Open {
        /// Arrivals per second on this generator.
        rate: f64,
    },
    /// Every idle client sends its next request at once.
    Closed,
    /// Every client visits each of its keys once, in order: PUTs create
    /// or advance a key, GETs read it back (a null-service generator sends
    /// one null request per key instead).
    Sweep {
        /// Write (true) or read (false).
        put: bool,
    },
}

/// The instant a failure was injected, shared with the generators so they
/// can tell which requests were sent after it.
#[derive(Debug)]
pub struct CrashMark {
    origin: Instant,
    at_ns: AtomicU64,
}

impl CrashMark {
    /// A mark not yet set.
    pub fn new() -> Arc<Self> {
        Arc::new(CrashMark {
            origin: Instant::now(),
            at_ns: AtomicU64::new(0),
        })
    }

    /// Records that the failure has just been injected.
    pub fn set(&self) -> Instant {
        let now = Instant::now();
        let ns = now.duration_since(self.origin).as_nanos() as u64 + 1;
        self.at_ns.store(ns, Ordering::SeqCst);
        now
    }

    fn is_set(&self) -> bool {
        self.at_ns.load(Ordering::SeqCst) != 0
    }
}

/// One phase of a generator's work.
#[derive(Debug, Clone)]
pub struct Phase {
    /// What to issue.
    pub load: Load,
    /// Origin of the open-loop schedule.
    pub start: Instant,
    /// Requests due at or after this instant are measured.
    pub window_start: Instant,
    /// No request falls due at or after this instant.
    pub window_end: Instant,
    /// Requests still unanswered now count as failed.
    pub drain_deadline: Instant,
    /// The window is reported in slices of this length.
    pub slice: Duration,
    /// Set when a failure is injected during the phase.
    pub crash: Arc<CrashMark>,
}

/// One slice of the measured window.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Correct replies that arrived in the slice.
    pub completed: u64,
    /// Due-to-reply latency of the requests due in the slice.
    pub latency: LatencyHist,
}

/// What one phase of one generator measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Requests due inside the window (issued, whether or not answered).
    pub attempted: u64,
    /// Of those, requests unanswered at the drain deadline or answered
    /// wrongly.
    pub failed: u64,
    /// Wrong replies anywhere in the phase.
    pub wrong: u64,
    /// Correct replies that arrived inside the window.
    pub completed_in_window: u64,
    /// The window, slice by slice.
    pub slices: Vec<Slice>,
    /// Due-to-reply latency of every answered request due in the window.
    pub latency: LatencyHist,
    /// Send-minus-due lateness of every open-loop request due in the window.
    pub lateness: LatencyHist,
    /// Open-loop requests of the window that waited for a free client or
    /// for room under the in-flight cap.
    pub cap_late: u64,
    /// Attempts that timed out.
    pub timeouts: u64,
    /// Redirects received.
    pub redirects: u64,
    /// First correct reply to a request first sent after the crash mark.
    pub first_reply_after_crash: Option<Instant>,
    /// Most requests ever in flight on the connection.
    pub max_in_flight: usize,
    /// The generator thread's CPU time inside the window.
    pub cpu_ns: u64,
    /// The first few wrong replies, described.
    pub wrong_examples: Vec<String>,
}

impl Report {
    /// Folds another generator's report of the same phase into this one.
    pub fn merge(&mut self, o: Report) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
        self.completed_in_window += o.completed_in_window;
        for (i, s) in o.slices.iter().enumerate() {
            let mine = self.slice(i);
            mine.completed += s.completed;
            mine.latency.merge(&s.latency);
        }
        self.latency.merge(&o.latency);
        self.lateness.merge(&o.lateness);
        self.cap_late += o.cap_late;
        self.timeouts += o.timeouts;
        self.redirects += o.redirects;
        self.first_reply_after_crash =
            match (self.first_reply_after_crash, o.first_reply_after_crash) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        self.max_in_flight = self.max_in_flight.max(o.max_in_flight);
        self.cpu_ns += o.cpu_ns;
        self.wrong_examples.extend(o.wrong_examples);
        self.wrong_examples.truncate(WRONG_EXAMPLES);
    }

    /// Slice `i`, created on first use.
    pub fn slice(&mut self, i: usize) -> &mut Slice {
        if self.slices.len() <= i {
            self.slices.resize_with(i + 1, Slice::default);
        }
        &mut self.slices[i]
    }
}

impl Phase {
    fn slice_of(&self, t: Instant) -> usize {
        let since = t.saturating_duration_since(self.window_start);
        (since.as_nanos() / self.slice.as_nanos().max(1)) as usize
    }
}

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The key name of key `idx`.
pub fn key_bytes(idx: u32) -> Vec<u8> {
    format!("key-{idx:08}").into_bytes()
}

/// The value version `ver` of key `idx` holds: a pure function of both,
/// so the generator stores only version numbers.
pub fn value_bytes(idx: u32, ver: u32) -> [u8; VALUE_LEN] {
    let mut rng = Rng((u64::from(idx) << 32) | u64::from(ver));
    let mut v = [0u8; VALUE_LEN];
    for chunk in v.chunks_mut(8) {
        let w = rng.next().to_le_bytes();
        chunk.copy_from_slice(&w[..chunk.len()]);
    }
    v
}

/// One key a client owns, with what the replicas must hold for it.
#[derive(Debug, Clone)]
struct Key {
    idx: u32,
    /// Last acknowledged version; `None` while the key does not exist.
    ver: Option<u32>,
    /// A PUT that was never answered and may or may not have executed.
    pending: Option<u32>,
}

impl Key {
    fn reply_matches(&self, ver: Option<u32>, reply: &[u8]) -> bool {
        match ver {
            None => reply == [0],
            Some(v) => reply.first() == Some(&1) && reply[1..] == value_bytes(self.idx, v),
        }
    }

    /// Checks a reply carrying the key's current value (a GET's result or
    /// a PUT's previous value), resolving an ambiguous earlier PUT.
    fn check_current(&mut self, reply: &[u8]) -> bool {
        if self.reply_matches(self.ver, reply) {
            return true;
        }
        match self.pending {
            Some(p) if self.reply_matches(Some(p), reply) => {
                self.ver = Some(p);
                self.pending = None;
                true
            }
            _ => false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Null,
    Get(usize),
    Put(usize, u32),
}

#[derive(Debug)]
struct Outstanding {
    seq: u64,
    op: Op,
    frame: Vec<u8>,
    due: Instant,
    deadline: Instant,
    after_crash: bool,
    measured: bool,
}

#[derive(Debug)]
struct Client {
    id: ClientId,
    seq: u64,
    rng: Rng,
    keys: Vec<Key>,
    sweep_pos: usize,
    out: Option<Outstanding>,
}

/// Static description of one generator.
#[derive(Clone)]
pub struct GeneratorSpec {
    /// Replicas in the cluster.
    pub n: usize,
    /// Logical clients on the connection; also the in-flight cap.
    pub clients: usize,
    /// Operations to issue.
    pub mix: Mix,
    /// First client id; the generator uses `client_base..client_base+clients`.
    pub client_base: u64,
    /// Keys this generator's clients own, dealt round-robin to its clients.
    pub keys: Vec<u32>,
    /// Workload seed.
    pub seed: u64,
    /// Opens connections.
    pub connector: Connector,
    /// Replica the first connection goes to.
    pub first_target: usize,
    /// Keep a connection open and drained after moving away from it,
    /// instead of dropping it. Needed on the in-memory fabric: a dropped
    /// client endpoint never closes its queues, and a replica that still
    /// routes replies to it (the client stays bound there) blocks its
    /// ClientIO thread once 64 replies are unread. Over TCP the dropped
    /// socket closes and the replica forgets the connection.
    pub keep_stale: bool,
}

/// One connection's worth of load generation.
pub struct Generator {
    n: usize,
    cap: usize,
    mix: Mix,
    base: u64,
    connector: Connector,
    target: usize,
    ep: Option<Box<dyn ClientEndpoint>>,
    /// Earlier connections kept open and drained (see [`GeneratorSpec::keep_stale`]).
    parked: Vec<Option<Box<dyn ClientEndpoint>>>,
    keep_stale: bool,
    resend_at: Option<Instant>,
    suspect_until: Vec<Option<Instant>>,
    clients: Vec<Client>,
    idle: Vec<usize>,
    in_flight: usize,
}

impl Generator {
    /// Builds a generator; connects lazily.
    pub fn new(spec: GeneratorSpec) -> Self {
        let cap = spec.clients.max(1);
        let mut clients: Vec<Client> = (0..cap)
            .map(|i| Client {
                id: ClientId(spec.client_base + i as u64),
                seq: 0,
                rng: Rng(
                    spec.seed ^ (spec.client_base + i as u64).wrapping_mul(0xA24B_AED4_963E_E407)
                ),
                keys: Vec::new(),
                sweep_pos: 0,
                out: None,
            })
            .collect();
        for (j, &idx) in spec.keys.iter().enumerate() {
            clients[j % cap].keys.push(Key {
                idx,
                ver: None,
                pending: None,
            });
        }
        Generator {
            n: spec.n,
            cap,
            mix: spec.mix,
            base: spec.client_base,
            connector: spec.connector,
            target: spec.first_target,
            ep: None,
            parked: (0..spec.n).map(|_| None).collect(),
            keep_stale: spec.keep_stale,
            resend_at: None,
            suspect_until: vec![None; spec.n],
            idle: (0..cap).rev().collect(),
            clients,
            in_flight: 0,
        }
    }

    /// Runs one phase to completion (or to its drain deadline).
    pub fn run(&mut self, phase: &Phase) -> Report {
        let mut rep = Report::default();
        for c in &mut self.clients {
            c.sweep_pos = 0;
        }
        let mut arrival: u64 = 0;
        let mut arrival_blocked = false;
        let mut cpu_start = None;
        let mut cpu_end = None;
        let mut next_scan = Instant::now();
        if self.ep.is_none() && self.resend_at.is_none() {
            let t = self.target;
            self.switch_to(t, Instant::now(), None);
        }
        loop {
            let now = Instant::now();
            if cpu_start.is_none() && now >= phase.window_start {
                cpu_start = Some(sys::thread_cpu_ns());
            }
            if cpu_end.is_none() && now >= phase.window_end {
                cpu_end = Some(sys::thread_cpu_ns());
            }
            if self.resend_at.is_some_and(|t| now >= t) {
                self.resend_at = None;
                let t = self.target;
                self.switch_to(t, now, None);
            }
            let can_send = self.resend_at.is_none() && self.ep.is_some();
            let mut wake = now + MAX_WAIT;
            let issuing_done = match phase.load {
                Load::Open { rate } => loop {
                    let due = phase.start + Duration::from_secs_f64(arrival as f64 / rate);
                    if due >= phase.window_end {
                        break true;
                    }
                    if due > now {
                        wake = wake.min(due);
                        break false;
                    }
                    let c = (arrival % self.cap as u64) as usize;
                    if !can_send || self.clients[c].out.is_some() || self.in_flight >= self.cap {
                        arrival_blocked = true;
                        break false;
                    }
                    let measured = due >= phase.window_start;
                    if measured {
                        rep.lateness
                            .record(now.duration_since(due).as_nanos() as u64);
                        rep.cap_late += u64::from(arrival_blocked);
                    }
                    self.idle.retain(|&i| i != c);
                    self.issue(c, None, due, now, phase, &mut rep);
                    arrival += 1;
                    arrival_blocked = false;
                },
                Load::Closed => {
                    if now < phase.window_end && can_send {
                        while let Some(c) = self.idle.pop() {
                            self.issue(c, None, now, now, phase, &mut rep);
                        }
                    }
                    now >= phase.window_end
                }
                Load::Sweep { put } => {
                    if can_send {
                        let mut parked = Vec::new();
                        while let Some(c) = self.idle.pop() {
                            let cl = &self.clients[c];
                            if cl.sweep_pos < cl.keys.len() {
                                let k = cl.sweep_pos;
                                self.clients[c].sweep_pos += 1;
                                let op = match (self.mix, put) {
                                    (Mix::Null, _) => Op::Null,
                                    (Mix::Kv { .. }, true) => {
                                        Op::Put(k, self.clients[c].keys[k].ver.map_or(0, |v| v + 1))
                                    }
                                    (Mix::Kv { .. }, false) => Op::Get(k),
                                };
                                self.issue(c, Some(op), now, now, phase, &mut rep);
                            } else {
                                parked.push(c);
                            }
                        }
                        self.idle = parked;
                    }
                    self.clients.iter().all(|c| c.sweep_pos >= c.keys.len())
                }
            };
            if now >= next_scan {
                next_scan = now + MAX_WAIT;
                self.check_timeouts(now, &mut rep);
            }
            if issuing_done && self.in_flight == 0 {
                break;
            }
            if now >= phase.drain_deadline {
                self.abandon_outstanding(&mut rep);
                break;
            }
            let mut until = wake.min(phase.drain_deadline);
            if let Some(t) = self.resend_at {
                until = until.min(t);
            }
            let wait = until.saturating_duration_since(now);
            self.drain_parked();
            let Some(ep) = self.ep.as_mut() else {
                std::thread::sleep(wait);
                continue;
            };
            match ep.recv_timeout(wait) {
                Ok(Some(frame)) => self.on_frame(&frame, phase, &mut rep),
                Ok(None) => {}
                Err(_) => {
                    // The connection broke: treat the replica like one
                    // that timed out.
                    self.ep = None;
                    self.suspect_until[self.target] = Some(now + SUSPECT_HOLD);
                    let next = self.next_candidate(now);
                    self.switch_to(next, now, Some(now + REDIRECT_BACKOFF));
                }
            }
        }
        let end = sys::thread_cpu_ns();
        rep.cpu_ns = cpu_end
            .unwrap_or(end)
            .saturating_sub(cpu_start.unwrap_or(end));
        rep
    }

    /// Builds and sends client `c`'s next request.
    fn issue(
        &mut self,
        c: usize,
        op: Option<Op>,
        due: Instant,
        now: Instant,
        phase: &Phase,
        rep: &mut Report,
    ) {
        let mix = self.mix;
        let cl = &mut self.clients[c];
        let op = op.unwrap_or_else(|| match mix {
            Mix::Null => Op::Null,
            Mix::Kv { put_share } => {
                let k = (cl.rng.next() % cl.keys.len() as u64) as usize;
                if cl.rng.unit() < put_share {
                    Op::Put(k, cl.keys[k].ver.map_or(0, |v| v + 1))
                } else {
                    Op::Get(k)
                }
            }
        });
        let payload = match op {
            Op::Null => vec![0xA5; NULL_PAYLOAD],
            Op::Get(k) => KvService::get(&key_bytes(cl.keys[k].idx)),
            Op::Put(k, v) => {
                let idx = cl.keys[k].idx;
                KvService::put(&key_bytes(idx), &value_bytes(idx, v))
            }
        };
        let seq = cl.seq;
        cl.seq += 1;
        let frame = ClientMsg::Request(Request::new(RequestId::new(cl.id, SeqNum(seq)), payload))
            .encode_to_vec();
        let measured = due >= phase.window_start && due < phase.window_end;
        rep.attempted += u64::from(measured);
        bump(&progress::ATTEMPTED, u64::from(measured));
        bump(&progress::IN_FLIGHT, 1);
        cl.out = Some(Outstanding {
            seq,
            op,
            frame: frame.clone(),
            due,
            deadline: now + ATTEMPT_TIMEOUT,
            after_crash: phase.crash.is_set(),
            measured,
        });
        self.in_flight += 1;
        rep.max_in_flight = rep.max_in_flight.max(self.in_flight);
        debug_assert!(self.in_flight <= self.cap, "in-flight cap exceeded");
        let sent = self.ep.as_mut().map(|ep| ep.send(frame));
        if !matches!(sent, Some(Ok(()))) {
            self.suspect_until[self.target] = Some(now + SUSPECT_HOLD);
            let next = self.next_candidate(now);
            self.switch_to(next, now, Some(now + REDIRECT_BACKOFF));
        }
    }

    fn on_frame(&mut self, frame: &[u8], phase: &Phase, rep: &mut Report) {
        let now = Instant::now();
        match ClientMsg::decode(frame) {
            Ok(ClientMsg::Reply(reply)) => {
                let Some(c) = reply
                    .id
                    .client
                    .0
                    .checked_sub(self.base)
                    .map(|c| c as usize)
                    .filter(|&c| c < self.cap)
                else {
                    return self.wrong(
                        rep,
                        None,
                        format!("reply for unknown client {:?}", reply.id),
                    );
                };
                let cl = &mut self.clients[c];
                if cl.out.as_ref().map(|o| o.seq) != Some(reply.id.seq.0) {
                    return; // answer to an earlier attempt of a finished request
                }
                let o = cl.out.take().expect("checked above");
                self.in_flight -= 1;
                drop_one(&progress::IN_FLIGHT);
                self.idle.push(c);
                let ok = match o.op {
                    Op::Null => reply.payload == NULL_REPLY,
                    Op::Get(k) => cl.keys[k].check_current(&reply.payload),
                    Op::Put(k, v) => {
                        let key = &mut cl.keys[k];
                        let ok = key.check_current(&reply.payload);
                        key.ver = Some(v);
                        key.pending = None;
                        ok
                    }
                };
                if !ok {
                    let what = format!("{:?} of client {} got {:?}", o.op, cl.id.0, reply.payload);
                    return self.wrong(rep, Some(&o), what);
                }
                if o.measured {
                    let lat = now.duration_since(o.due).as_nanos() as u64;
                    rep.latency.record(lat);
                    rep.slice(phase.slice_of(o.due)).latency.record(lat);
                }
                if now >= phase.window_start && now < phase.window_end {
                    rep.completed_in_window += 1;
                    rep.slice(phase.slice_of(now)).completed += 1;
                }
                if o.after_crash && rep.first_reply_after_crash.is_none() {
                    rep.first_reply_after_crash = Some(now);
                }
            }
            Ok(ClientMsg::Redirect { leader }) => {
                rep.redirects += 1;
                let hint = leader
                    .map(|l| l.index())
                    .filter(|&l| l < self.n && l != self.target && !self.suspected(l, now));
                match hint {
                    Some(l) => self.switch_to(l, now, None),
                    None => {
                        let next = self.next_candidate(now);
                        self.switch_to(next, now, Some(now + REDIRECT_BACKOFF));
                    }
                }
            }
            other => self.wrong(rep, None, format!("unexpected frame {other:?}")),
        }
    }

    fn wrong(&mut self, rep: &mut Report, o: Option<&Outstanding>, what: String) {
        let failed = u64::from(o.is_some_and(|o| o.measured));
        rep.wrong += 1;
        rep.failed += failed;
        bump(&progress::FAILED, failed);
        if rep.wrong_examples.len() < WRONG_EXAMPLES {
            rep.wrong_examples.push(what);
        }
    }

    fn suspected(&self, r: usize, now: Instant) -> bool {
        self.suspect_until[r].is_some_and(|t| now < t)
    }

    /// The next replica after the current target that is not suspected
    /// (the one after the target when every other replica is).
    fn next_candidate(&self, now: Instant) -> usize {
        (1..self.n)
            .map(|d| (self.target + d) % self.n)
            .find(|&r| !self.suspected(r, now))
            .unwrap_or((self.target + 1) % self.n)
    }

    /// Points the connection at replica `r` and re-sends every
    /// outstanding request there — now, or at `resend_at`.
    fn switch_to(&mut self, r: usize, now: Instant, resend_at: Option<Instant>) {
        if let Some(old) = self.ep.take() {
            if self.keep_stale {
                self.parked[self.target] = Some(old);
            }
        }
        self.target = r;
        if resend_at.is_some() {
            self.resend_at = resend_at;
            return;
        }
        let reuse = self.parked[r].take().map(|mut ep| {
            // Answers to earlier attempts there must not be mistaken
            // for answers to this one.
            while let Ok(Some(_)) = ep.recv_timeout(Duration::ZERO) {}
            ep
        });
        match reuse.map_or_else(|| (self.connector)(r), Ok) {
            Ok(ep) => self.ep = Some(ep),
            Err(_) => {
                self.suspect_until[r] = Some(now + SUSPECT_HOLD);
                self.target = self.next_candidate(now);
                self.resend_at = Some(now + REDIRECT_BACKOFF);
                return;
            }
        }
        let ep = self.ep.as_mut().expect("just connected");
        let mut broken = false;
        for cl in &mut self.clients {
            if let Some(o) = cl.out.as_mut() {
                o.deadline = now + ATTEMPT_TIMEOUT;
                if !broken && ep.send(o.frame.clone()).is_err() {
                    broken = true;
                }
            }
        }
        if broken {
            self.ep = None;
            self.suspect_until[r] = Some(now + SUSPECT_HOLD);
            let next = self.next_candidate(now);
            self.switch_to(next, now, Some(now + REDIRECT_BACKOFF));
        }
    }

    fn check_timeouts(&mut self, now: Instant, rep: &mut Report) {
        if self.resend_at.is_some() || self.ep.is_none() {
            return;
        }
        let expired = self
            .clients
            .iter()
            .any(|c| c.out.as_ref().is_some_and(|o| now >= o.deadline));
        if expired {
            rep.timeouts += 1;
            self.suspect_until[self.target] = Some(now + SUSPECT_HOLD);
            let next = self.next_candidate(now);
            self.switch_to(next, now, None);
        }
    }

    /// Gives up on everything still outstanding: measured requests count
    /// as failed, and an unanswered PUT leaves its key ambiguous.
    fn abandon_outstanding(&mut self, rep: &mut Report) {
        for (c, cl) in self.clients.iter_mut().enumerate() {
            if let Some(o) = cl.out.take() {
                rep.failed += u64::from(o.measured);
                bump(&progress::FAILED, u64::from(o.measured));
                drop_one(&progress::IN_FLIGHT);
                if let Op::Put(k, v) = o.op {
                    cl.keys[k].pending = Some(v);
                }
                self.in_flight -= 1;
                self.idle.push(c);
            }
        }
    }

    /// Discards whatever the parked connections hold.
    fn drain_parked(&mut self) {
        for slot in &mut self.parked {
            if let Some(ep) = slot.as_mut() {
                loop {
                    match ep.recv_timeout(Duration::ZERO) {
                        Ok(Some(_)) => {}
                        Ok(None) => break,
                        Err(_) => {
                            *slot = None;
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Reads and discards everything every connection holds, for `period`:
    /// lets replicas that are still routing replies here finish before
    /// the cluster shuts down.
    pub fn quiesce(&mut self, period: Duration) {
        let end = Instant::now() + period;
        while Instant::now() < end {
            self.drain_parked();
            if let Some(ep) = self.ep.as_mut() {
                while let Ok(Some(_)) = ep.recv_timeout(Duration::ZERO) {}
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_wire::Reply;
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An in-process endpoint answering like a null service after a
    /// scripted delay, recording the in-flight count it observes.
    struct FakeEndpoint {
        state: Arc<Mutex<FakeState>>,
    }

    #[derive(Default)]
    struct FakeState {
        /// (ready-at, reply frame)
        queue: VecDeque<(Instant, Vec<u8>)>,
        delay: Duration,
        /// Extra delay for the very first request only.
        first_extra: Duration,
        sent: u64,
        max_unanswered: usize,
        /// Never answer (a dead replica).
        mute: bool,
    }

    impl ClientEndpoint for FakeEndpoint {
        fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
            let mut s = self.state.lock().unwrap();
            let Ok(ClientMsg::Request(req)) = ClientMsg::decode(&frame) else {
                panic!("generator sent a non-request");
            };
            s.sent += 1;
            if s.mute {
                s.queue
                    .push_back((Instant::now() + Duration::from_secs(3600), Vec::new()));
            } else {
                let extra = if s.sent == 1 {
                    s.first_extra
                } else {
                    Duration::ZERO
                };
                let reply =
                    ClientMsg::Reply(Reply::new(req.id, NULL_REPLY.to_vec())).encode_to_vec();
                let at = Instant::now() + s.delay + extra;
                s.queue.push_back((at, reply));
            }
            s.max_unanswered = s.max_unanswered.max(s.queue.len());
            Ok(())
        }

        fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
            let deadline = Instant::now() + timeout;
            loop {
                {
                    let mut s = self.state.lock().unwrap();
                    // Answers leave in order of readiness.
                    let ready = s
                        .queue
                        .iter()
                        .enumerate()
                        .filter(|(_, (at, _))| *at <= Instant::now())
                        .min_by_key(|(_, (at, _))| *at)
                        .map(|(i, _)| i);
                    if let Some(i) = ready {
                        return Ok(s.queue.remove(i).map(|(_, f)| f));
                    }
                }
                if Instant::now() >= deadline {
                    return Ok(None);
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }

    fn generator(state: &Arc<Mutex<FakeState>>, clients: usize) -> Generator {
        let st = Arc::clone(state);
        Generator::new(GeneratorSpec {
            n: 1,
            clients,
            mix: Mix::Null,
            client_base: 100,
            keys: Vec::new(),
            seed: 7,
            connector: Arc::new(move |_| {
                Ok(Box::new(FakeEndpoint {
                    state: Arc::clone(&st),
                }) as Box<dyn ClientEndpoint>)
            }),
            first_target: 0,
            keep_stale: false,
        })
    }

    fn phase(load: Load, window: Duration) -> Phase {
        let start = Instant::now();
        Phase {
            load,
            start,
            window_start: start,
            window_end: start + window,
            drain_deadline: start + window + Duration::from_secs(2),
            slice: Duration::from_secs(1),
            crash: CrashMark::new(),
        }
    }

    #[test]
    fn open_loop_times_from_due_instant_and_counts_late_arrivals() {
        // One client, 1 ms arrivals; the first reply takes 50 ms, so the
        // ~49 arrivals behind it fall due while the only client is busy.
        let state = Arc::new(Mutex::new(FakeState {
            delay: Duration::from_micros(200),
            first_extra: Duration::from_millis(50),
            ..FakeState::default()
        }));
        let mut d = generator(&state, 1);
        let rep = d.run(&phase(
            Load::Open { rate: 1000.0 },
            Duration::from_millis(200),
        ));
        assert_eq!(rep.failed, 0);
        assert_eq!(rep.wrong, 0);
        assert_eq!(rep.attempted, 200);
        assert_eq!(rep.latency.count(), 200);
        assert_eq!(rep.lateness.count(), 200);
        assert_eq!(rep.slices.len(), 1);
        assert_eq!(rep.slices[0].latency.count(), 200);
        // Arrivals 1.. waited behind the slow first reply.
        assert!(rep.cap_late >= 40, "cap_late {}", rep.cap_late);
        // The second arrival was due at 1 ms but could only go at ~50 ms:
        // its latency counts the wait, not just its own service time.
        let second_highest = rep.latency.percentile(199.0 / 200.0).unwrap();
        assert!(
            second_highest >= 45_000_000,
            "tail latency {second_highest}"
        );
        // Every latency is at least its lateness (timed from due).
        let late_max = rep.lateness.percentile(1.0).unwrap();
        assert!(late_max >= 40_000_000);
        assert!(rep.latency.percentile(1.0).unwrap() >= late_max);
    }

    #[test]
    fn in_flight_cap_is_never_exceeded() {
        // Replies take 20 ms at 2000 arrivals/s: ~40 would be in flight
        // without a cap; the cap is 8.
        let state = Arc::new(Mutex::new(FakeState {
            delay: Duration::from_millis(20),
            ..FakeState::default()
        }));
        let mut d = generator(&state, 8);
        let rep = d.run(&phase(
            Load::Open { rate: 2000.0 },
            Duration::from_millis(150),
        ));
        assert_eq!(rep.failed, 0);
        assert!(rep.max_in_flight <= 8);
        assert!(state.lock().unwrap().max_unanswered <= 8);
        assert!(rep.cap_late > 0);

        let state = Arc::new(Mutex::new(FakeState {
            delay: Duration::from_millis(1),
            ..FakeState::default()
        }));
        let mut d = generator(&state, 5);
        let rep = d.run(&phase(Load::Closed, Duration::from_millis(100)));
        assert_eq!(rep.max_in_flight, 5);
        assert!(state.lock().unwrap().max_unanswered <= 5);
    }

    #[test]
    fn unanswered_requests_fail_at_the_drain_deadline() {
        let state = Arc::new(Mutex::new(FakeState {
            mute: true,
            ..FakeState::default()
        }));
        let mut d = generator(&state, 4);
        let start = Instant::now();
        let rep = d.run(&Phase {
            load: Load::Open { rate: 100.0 },
            start,
            window_start: start,
            window_end: start + Duration::from_millis(30),
            drain_deadline: start + Duration::from_millis(400),
            slice: Duration::from_secs(1),
            crash: CrashMark::new(),
        });
        assert_eq!(rep.attempted, 3);
        assert_eq!(rep.failed, 3);
        assert!(rep.timeouts >= 1);
        assert_eq!(rep.latency.count(), 0);
    }

    #[test]
    fn values_are_a_pure_function_of_key_and_version() {
        assert_eq!(value_bytes(3, 1), value_bytes(3, 1));
        assert_ne!(value_bytes(3, 1), value_bytes(3, 2));
        assert_ne!(value_bytes(3, 1), value_bytes(4, 1));
        let mut k = Key {
            idx: 9,
            ver: Some(1),
            pending: Some(2),
        };
        let mut reply = vec![1];
        reply.extend_from_slice(&value_bytes(9, 2));
        assert!(k.check_current(&reply), "an ambiguous PUT may have landed");
        assert_eq!((k.ver, k.pending), (Some(2), None));
        assert!(!k.check_current(&[0]));
    }
}
