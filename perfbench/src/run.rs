//! The workloads, and one run of one of them.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::cluster::{Cluster, ClusterSpec, ServiceKind, Transport};
use crate::gen::{self, CrashMark, Generator, GeneratorSpec, Load, Mix, Phase, Report};
use crate::layers::{self, Failover, LayerSnap};
use crate::stats;
use crate::sys::{self, Host};
use crate::trace::WireEvent;

/// How a workload issues requests in its measured window.
#[derive(Debug, Clone, Copy)]
pub enum Arrivals {
    /// Open loop at this many requests per second in total.
    Open(f64),
    /// Closed loop: every logical client keeps one request in flight.
    Closed,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Why it is in the benchmark.
    pub why: &'static str,
    /// Peer and client transport.
    pub transport: Transport,
    /// WAL and snapshots on disk, fsync'd.
    pub durable: bool,
    /// Replicated service.
    pub service: ServiceKind,
    /// Operations.
    pub mix: Mix,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Client connections (capped at the core count).
    pub conns: usize,
    /// Crash and heal the leader inside the measured window.
    pub failover: bool,
}

/// The benchmark's workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "open_kv_mem",
        why: "low-load latency: the Batcher timer and the stages' timeout polling set it",
        transport: Transport::Memory,
        durable: false,
        service: ServiceKind::Kv,
        mix: Mix::Kv { put_share: 0.1 },
        arrivals: Arrivals::Open(1000.0),
        conns: 1,
        failover: false,
    },
    Workload {
        name: "sat_null_mem",
        why: "high fixed load of null requests, batches full by size: Protocol, ReplicaIO, codec and queue hops do the work",
        transport: Transport::Memory,
        durable: false,
        service: ServiceKind::Null,
        mix: Mix::Null,
        arrivals: Arrivals::Open(SAT_NULL_RATE),
        conns: 2,
        failover: false,
    },
    Workload {
        name: "sat_kv_tcp_durable",
        why: "high fixed load of write-heavy KV over loopback TCP with an fsync'd WAL: syscalls and storage do the work",
        transport: Transport::Tcp,
        durable: true,
        service: ServiceKind::Kv,
        mix: Mix::Kv { put_share: 0.5 },
        arrivals: Arrivals::Open(SAT_TCP_RATE),
        conns: 2,
        failover: false,
    },
    Workload {
        name: "failover_kv_mem",
        why: "leader crash and heal under open-loop PUTs: failure detector, view change, catch-up, redirects",
        transport: Transport::Memory,
        durable: false,
        service: ServiceKind::Kv,
        mix: Mix::Kv { put_share: 1.0 },
        arrivals: Arrivals::Open(1000.0),
        conns: 1,
        failover: true,
    },
];

/// Offered rates of the two high-load workloads, well below the slowest
/// closed-loop capacity seen on a shared 2-vCPU VM (about 30k req/s on
/// the memory fabric, 15k over TCP with the WAL). Closed-loop capacity
/// itself moved by up to 2x within minutes there, so it is reported only
/// by the traced run (`capacity.closed_loop_rps`), which has no bound.
const SAT_NULL_RATE: f64 = 8_000.0;
const SAT_TCP_RATE: f64 = 4_000.0;
/// Length of the traced run's closed-loop capacity phases.
const CAPACITY_LEN: Duration = Duration::from_secs(5);
/// Replicas in every measured cluster.
const N: usize = 3;
/// Keys in the working set, all written during set-up.
const KEYS: u32 = 10_000;
/// Logical clients (and the in-flight cap) per connection: below the
/// memory fabric's 64-frame client queue.
const CLIENTS_PER_CONN: usize = 48;
/// Quiet set-ups per run (host steal below [`STEAL_LIMIT`]); `setup_s` is
/// their median, or the median of all when the attempts run out first.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 8;
/// Load before the measured window opens.
const WARMUP: Duration = Duration::from_millis(500);
/// How long outstanding requests may take after the window closes.
const DRAIN: Duration = Duration::from_secs(3);
/// Where inside the window `failover_kv_mem` crashes and heals the leader.
const FAILOVER_CRASH: f64 = 0.3;
const FAILOVER_HEAL: f64 = 0.6;
/// The window is reported as the median over slices of this length, so a
/// few seconds of interference from outside do not move a run's figures.
const SLICE: Duration = Duration::from_secs(1);
/// A slice in which the hypervisor stole at least this share of host CPU
/// time measures the neighbours more than the program; such slices are
/// left out of the medians once half of the window's slices are quiet.
const STEAL_LIMIT: f64 = 0.05;
/// A window short of quiet slices grows by this much at a time ...
const EXTENSION: Duration = Duration::from_secs(5);
/// ... and by at most this much in all (the busy spells seen lasted one
/// to three minutes).
const MAX_EXTENSION: Duration = Duration::from_secs(30);
/// Leader outages timed per run; `unavailable_ms` is their median.
const OUTAGES: usize = 3;
/// The outage probe run after the window (`failover_kv_mem` has its first
/// outage inside the window): open-loop requests of the workload's own
/// mix at this rate, leader cut off and healed at these offsets.
const PROBE_RATE: f64 = 1000.0;
const PROBE_LEN: Duration = Duration::from_millis(1200);
const PROBE_CRASH: Duration = Duration::from_millis(100);
const PROBE_HEAL: Duration = Duration::from_millis(900);
const PROBE_KEYS: u32 = 256;
const PROBE_KEY_BASE: u32 = 1_000_000;
/// Client ids of the workload's and the probe's logical clients.
const MAIN_CLIENT_BASE: u64 = 1_000;
const PROBE_CLIENT_BASE: u64 = 1_000_000;
/// Longest a sweep (preload or read-back) may take.
const SWEEP_LIMIT: Duration = Duration::from_secs(60);
/// A phase whose generators are not back this long after its drain deadline
/// has stalled.
const STALL_GRACE: Duration = Duration::from_secs(5);
/// How long every connection is drained before the cluster stops.
const QUIESCE: Duration = Duration::from_millis(50);
/// A whole run must end within this, or the watchdog ends it.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// Prints the result line of a run that had to be stopped, and exits.
fn watchdog_fire(reason: &str) -> ! {
    let attempted = gen::progress::ATTEMPTED.load(Ordering::Relaxed).max(1);
    let failed = gen::progress::FAILED.load(Ordering::Relaxed)
        + gen::progress::IN_FLIGHT.load(Ordering::Relaxed);
    eprintln!("perfbench: watchdog: {reason}; outstanding requests count as failed");
    println!("{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{}}}}");
    std::process::exit(3);
}

/// Instant-driven work the main thread does while generators run: window
/// snapshots, the crash and heal, catch-up and follower-lag sampling.
struct Events<'a> {
    cluster: &'a mut Cluster,
    trace: bool,
    window: Option<(Instant, Instant)>,
    crash_at: Option<Instant>,
    heal_at: Option<Instant>,
    mark: Arc<CrashMark>,
    /// Process CPU time at the window start and at each slice boundary.
    cpu_marks: Vec<u64>,
    /// Peak resident set of each slice.
    slice_rss: Vec<f64>,
    /// Host ticks (all, stolen) at the window start and each slice boundary.
    host: Vec<(u64, u64)>,
    snaps: (Option<LayerSnap>, Option<LayerSnap>),
    leader: Option<usize>,
    lag_max: u64,
    failover: Failover,
    healed: Option<Instant>,
    catchup: Option<(usize, u64)>,
}

impl<'a> Events<'a> {
    fn new(cluster: &'a mut Cluster, mark: Arc<CrashMark>) -> Self {
        Events {
            cluster,
            trace: false,
            window: None,
            crash_at: None,
            heal_at: None,
            mark,
            cpu_marks: Vec::new(),
            slice_rss: Vec::new(),
            host: Vec::new(),
            snaps: (None, None),
            leader: None,
            lag_max: 0,
            failover: Failover::default(),
            healed: None,
            catchup: None,
        }
    }

    /// Does whatever is due and returns when it next wants to run.
    fn tick(&mut self, now: Instant) -> Instant {
        let mut next = now + Duration::from_secs(1);
        if let Some((ws, we)) = self.window {
            let slices = (we.duration_since(ws).as_nanos() / SLICE.as_nanos()) as usize;
            let mark_at = ws + SLICE * self.cpu_marks.len() as u32;
            if self.cpu_marks.len() <= slices {
                if now >= mark_at {
                    self.cpu_marks.push(sys::process_cpu_ns());
                    self.host.push(sys::host_ticks());
                    let peak = sys::take_peak_rss_mb();
                    if self.cpu_marks.len() == 1 {
                        self.leader = self.cluster.leader();
                    } else {
                        self.slice_rss.push(peak);
                    }
                } else {
                    next = next.min(mark_at);
                }
            }
            if self.trace && self.snaps.0.is_none() && now >= ws {
                self.snaps.0 = Some(layers::snap(self.cluster));
            }
            if self.trace && self.snaps.1.is_none() && now >= we {
                self.snaps.1 = Some(layers::snap(self.cluster));
            }
            if self.trace && now >= ws && now < we {
                self.sample_lag();
                next = next.min(now + Duration::from_millis(10));
            }
        }
        if let Some(t) = self.crash_at {
            if now >= t {
                self.crash_at = None;
                if let Some(l) = self.cluster.leader() {
                    let view = self.cluster.replica(l).shared().view().0;
                    self.cluster.crash(l);
                    let at = self.mark.set();
                    self.failover.crash = Some((at, l, view));
                }
            } else {
                next = next.min(t);
            }
        }
        if let Some(t) = self.heal_at {
            if now >= t {
                self.heal_at = None;
                if let Some((_, old, _)) = self.failover.crash {
                    let target = self
                        .cluster
                        .leader()
                        .map_or(0, |l| self.cluster.decided()[l]);
                    self.cluster.heal();
                    self.healed = Some(Instant::now());
                    self.catchup = Some((old, target));
                }
            } else {
                next = next.min(t);
            }
        }
        if let Some((old, target)) = self.catchup {
            if self.cluster.decided()[old] >= target {
                let healed = self.healed.expect("catch-up starts at the heal");
                self.failover.catchup_ms = now.duration_since(healed).as_secs_f64() * 1e3;
                self.catchup = None;
            } else {
                next = next.min(now + Duration::from_millis(1));
            }
        }
        next
    }

    fn sample_lag(&mut self) {
        let Some(l) = self.cluster.leader() else {
            return;
        };
        let decided = self.cluster.decided();
        let lag = (0..self.cluster.n)
            .filter(|&r| Some(r) != self.cluster.crashed)
            .map(|r| decided[l].saturating_sub(decided[r]))
            .max()
            .unwrap_or(0);
        self.lag_max = self.lag_max.max(lag);
    }

    /// Keeps polling a catch-up still running after the phase ended.
    fn finish_catchup(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while self.catchup.is_some() && Instant::now() < deadline {
            self.tick(Instant::now());
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Runs every generator through `phase` on its own thread while the main
/// thread works through `ev`; returns the generators and their merged report.
fn run_phase(gens: Vec<Generator>, phase: &Phase, ev: &mut Events<'_>) -> (Vec<Generator>, Report) {
    let (tx, rx) = mpsc::channel();
    let k = gens.len();
    let handles: Vec<_> = gens
        .into_iter()
        .enumerate()
        .map(|(i, mut d)| {
            let tx = tx.clone();
            let ph = phase.clone();
            std::thread::Builder::new()
                .name(format!("gen-{i}"))
                .spawn(move || {
                    let rep = d.run(&ph);
                    let _ = tx.send((i, d, rep));
                })
                .expect("spawn generator thread")
        })
        .collect();
    drop(tx);
    let stall = phase.drain_deadline + STALL_GRACE;
    let mut back: Vec<Option<(Generator, Report)>> = (0..k).map(|_| None).collect();
    let mut got = 0;
    while got < k {
        let now = Instant::now();
        if now >= stall {
            watchdog_fire("a phase did not finish by its drain deadline");
        }
        let next = ev.tick(now).min(stall);
        match rx.recv_timeout(next.saturating_duration_since(now)) {
            Ok((i, d, rep)) => {
                back[i] = Some((d, rep));
                got += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                watchdog_fire("a generator thread died");
            }
        }
    }
    ev.tick(Instant::now());
    for h in handles {
        h.join().expect("generator thread finished");
    }
    let mut merged = Report::default();
    let gens = back
        .into_iter()
        .map(|b| {
            let (d, rep) = b.expect("every generator reported");
            merged.merge(rep);
            d
        })
        .collect();
    (gens, merged)
}

/// Generators for the workload's logical clients, with keys dealt so each
/// client owns its own.
fn make_generators(
    cluster: &Cluster,
    w: &Workload,
    seed: u64,
    conns: usize,
    leader: usize,
) -> Vec<Generator> {
    let total = conns * CLIENTS_PER_CONN;
    (0..conns)
        .map(|d| {
            let keys = (0..KEYS)
                .filter(|k| (*k as usize % total) / CLIENTS_PER_CONN == d)
                .collect();
            Generator::new(GeneratorSpec {
                n: cluster.n,
                clients: CLIENTS_PER_CONN,
                mix: w.mix,
                client_base: MAIN_CLIENT_BASE + (d * CLIENTS_PER_CONN) as u64,
                keys,
                seed,
                connector: cluster.connector(),
                first_target: leader,
                keep_stale: w.transport == Transport::Memory,
            })
        })
        .collect()
}

/// A sweep over every client's keys (preload or read-back).
fn sweep(cluster: &mut Cluster, gens: Vec<Generator>, put: bool) -> (Vec<Generator>, Report) {
    let start = Instant::now();
    let phase = Phase {
        load: Load::Sweep { put },
        start,
        window_start: start,
        window_end: start + SWEEP_LIMIT,
        drain_deadline: start + SWEEP_LIMIT,
        slice: SWEEP_LIMIT,
        crash: CrashMark::new(),
    };
    let mut ev = Events::new(cluster, Arc::clone(&phase.crash));
    run_phase(gens, &phase, &mut ev)
}

/// Starts a cluster, waits for a leader, and writes the working set
/// through the replicated path.
fn setup(
    spec: &ClusterSpec,
    w: &Workload,
    seed: u64,
    conns: usize,
) -> Result<(Cluster, Vec<Generator>), String> {
    let mut cluster = Cluster::start(spec)?;
    let leader = cluster
        .wait_leader(Duration::from_secs(10))
        .ok_or("no leader elected within 10 s")?;
    let gens = make_generators(&cluster, w, seed, conns, leader);
    let (gens, rep) = sweep(&mut cluster, gens, true);
    if rep.failed > 0 || rep.wrong > 0 {
        return Err(format!(
            "preload failed: {} of {} requests failed ({} wrong): {:?}",
            rep.failed, rep.attempted, rep.wrong, rep.wrong_examples
        ));
    }
    Ok((cluster, gens))
}

/// What one measured window produced.
struct Window {
    /// Slices the window was meant to have (before any extension).
    nominal: usize,
    report: Report,
    /// Process CPU nanoseconds spent in each slice.
    slice_cpu: Vec<u64>,
    /// Peak resident set of each slice, MiB.
    slice_rss: Vec<f64>,
    /// Share of host CPU time the hypervisor stole in each slice.
    slice_steal: Vec<f64>,
    snaps: Option<(LayerSnap, LayerSnap)>,
    leader: usize,
    lag_max: u64,
    failover: Failover,
    events: Vec<WireEvent>,
}

/// Drives `arrivals` of the workload's operations for `window` (after a
/// warm-up), with the leader crashed and healed inside it when `failover`
/// is set. An untraced window in which fewer than half of the slices were
/// quiet is extended, a few seconds at a time and by at most
/// [`MAX_EXTENSION`], until half are.
fn measure(
    cluster: &mut Cluster,
    gens: Vec<Generator>,
    arrivals: Arrivals,
    window: Duration,
    trace: bool,
    failover: bool,
) -> (Vec<Generator>, Window) {
    let (mut gens, mut win) =
        measure_phase(cluster, gens, arrivals, window, WARMUP, trace, failover);
    let mut extended = Duration::ZERO;
    while !trace && win.quiet().len() < win.quiet_needed() && extended < MAX_EXTENSION {
        let (g, more) = measure_phase(
            cluster,
            gens,
            arrivals,
            EXTENSION,
            Duration::ZERO,
            false,
            false,
        );
        gens = g;
        win.append(more);
        extended += EXTENSION;
    }
    (gens, win)
}

fn measure_phase(
    cluster: &mut Cluster,
    gens: Vec<Generator>,
    arrivals: Arrivals,
    window: Duration,
    warmup: Duration,
    trace: bool,
    failover: bool,
) -> (Vec<Generator>, Window) {
    let conns = gens.len();
    let start = Instant::now() + Duration::from_millis(5);
    let ws = start + warmup;
    let we = ws + window;
    let phase = Phase {
        load: match arrivals {
            Arrivals::Open(rate) => Load::Open {
                rate: rate / conns as f64,
            },
            Arrivals::Closed => Load::Closed,
        },
        start,
        window_start: ws,
        window_end: we,
        drain_deadline: we + DRAIN,
        slice: SLICE,
        crash: CrashMark::new(),
    };
    cluster.trace_on.store(trace, Ordering::SeqCst);
    let mut ev = Events::new(cluster, Arc::clone(&phase.crash));
    ev.trace = trace;
    ev.window = Some((ws, we));
    if failover {
        ev.crash_at = Some(ws + window.mul_f64(FAILOVER_CRASH));
        ev.heal_at = Some(ws + window.mul_f64(FAILOVER_HEAL));
    }
    let (gens, report) = run_phase(gens, &phase, &mut ev);
    ev.finish_catchup(Duration::from_secs(5));
    let events = ev.cluster.taps.iter().flat_map(|t| t.events()).collect();
    let slice_cpu = ev.cpu_marks.windows(2).map(|w| w[1] - w[0]).collect();
    let snaps = match ev.snaps {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    };
    let slice_steal = ev
        .host
        .windows(2)
        .map(|w| steal_share(w[0], w[1]))
        .collect();
    let out = Window {
        nominal: (window.as_nanos() / SLICE.as_nanos()) as usize,
        report,
        slice_cpu,
        slice_rss: std::mem::take(&mut ev.slice_rss),
        slice_steal,
        snaps,
        leader: ev.leader.unwrap_or(0),
        lag_max: ev.lag_max,
        failover: ev.failover,
        events,
    };
    ev.cluster.trace_on.store(false, Ordering::SeqCst);
    (gens, out)
}

/// Outage probe `i`: cuts the leader off under a short open-loop load of
/// the workload's own operations and heals it. Each probe has its own
/// clients and keys.
fn probe(
    cluster: &mut Cluster,
    w: &Workload,
    seed: u64,
    trace: bool,
    i: usize,
) -> Result<(Generator, Report, Failover, Vec<WireEvent>), String> {
    let leader = cluster
        .wait_leader(Duration::from_secs(5))
        .ok_or("no leader before the outage probe")?;
    let generator = Generator::new(GeneratorSpec {
        n: cluster.n,
        clients: CLIENTS_PER_CONN,
        mix: w.mix,
        client_base: PROBE_CLIENT_BASE + (i * CLIENTS_PER_CONN) as u64,
        keys: (0..PROBE_KEYS)
            .map(|k| PROBE_KEY_BASE + i as u32 * PROBE_KEYS + k)
            .collect(),
        seed: seed ^ 0xF0F0_5EED ^ i as u64,
        connector: cluster.connector(),
        first_target: leader,
        keep_stale: w.transport == Transport::Memory,
    });
    let start = Instant::now() + Duration::from_millis(5);
    let phase = Phase {
        load: Load::Open { rate: PROBE_RATE },
        start,
        window_start: start,
        window_end: start + PROBE_LEN,
        drain_deadline: start + PROBE_LEN + DRAIN,
        slice: PROBE_LEN,
        crash: CrashMark::new(),
    };
    cluster.trace_on.store(trace, Ordering::SeqCst);
    let mut ev = Events::new(cluster, Arc::clone(&phase.crash));
    ev.crash_at = Some(start + PROBE_CRASH);
    ev.heal_at = Some(start + PROBE_HEAL);
    let (mut gens, rep) = run_phase(vec![generator], &phase, &mut ev);
    ev.finish_catchup(Duration::from_secs(5));
    let events = ev.cluster.taps.iter().flat_map(|t| t.events()).collect();
    let failover = ev.failover;
    ev.cluster.trace_on.store(false, Ordering::SeqCst);
    Ok((
        gens.pop().expect("one probe generator"),
        rep,
        failover,
        events,
    ))
}

/// Crash-to-first-reply of a request sent after the crash.
fn unavailable_ms(rep: &Report, f: &Failover) -> Result<f64, String> {
    let (crash, ..) = f.crash.ok_or("the leader was never crashed")?;
    let first = rep
        .first_reply_after_crash
        .ok_or("no request sent after the crash was ever answered")?;
    Ok(first.duration_since(crash).as_secs_f64() * 1e3)
}

/// One run's result.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn describe(w: &Workload, conns: usize) -> String {
    let load = match w.arrivals {
        Arrivals::Open(r) => format!("open loop, {r} req/s on {conns} connection(s)"),
        Arrivals::Closed => {
            format!("closed loop, {conns} connection(s) x {CLIENTS_PER_CONN} in flight")
        }
    };
    let ops = match w.mix {
        Mix::Null => format!("null service, {} B requests", gen::NULL_PAYLOAD),
        Mix::Kv { put_share } => format!(
            "KV {:.0}% PUT / {:.0}% GET, {} B values, {KEYS} keys",
            put_share * 100.0,
            (1.0 - put_share) * 100.0,
            gen::VALUE_LEN
        ),
    };
    let transport = match w.transport {
        Transport::Memory => "memory fabric",
        Transport::Tcp => "loopback TCP",
    };
    format!(
        "{load}; {ops}; {transport}{}",
        if w.durable { ", durable WAL" } else { "" }
    )
}

fn run(
    w: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let host = Host::probe();
    let conns = w.conns.min(host.nproc).max(1);
    let window = Duration::from_secs(seconds);
    let spec = ClusterSpec {
        n: N,
        transport: w.transport,
        durable: w.durable,
        service: w.service,
        work_dir: work_dir.to_path_buf(),
    };
    let config = smr_types::ClusterConfig::new(N);
    println!(
        "# perfbench workload={} seed={seed} seconds={seconds} trace={}",
        w.name,
        u8::from(trace)
    );
    println!(
        "# load: {}; no injected message delay: latency is processor and scheduler time",
        describe(w, conns)
    );
    println!(
        "# config: n={N} window={} batch={}B/{}ms client_io={} (threaded) suspect_timeout={}ms heartbeat={}ms",
        config.window(),
        config.batch().max_bytes,
        config.batch().timeout.as_millis(),
        config.client_io_threads(),
        config.suspect_timeout().as_millis(),
        config.heartbeat_interval().as_millis()
    );
    println!(
        "# generator: in-flight cap {CLIENTS_PER_CONN}/connection (client queue holds 64), attempt timeout {}ms, suspect hold {}ms, redirect backoff {}ms",
        gen::ATTEMPT_TIMEOUT.as_millis(),
        gen::SUSPECT_HOLD.as_millis(),
        gen::REDIRECT_BACKOFF.as_millis()
    );

    // (seconds, quiet) per set-up; quiet ones are repeated until there
    // are enough, within a fixed number of attempts.
    let mut setups: Vec<(f64, bool)> = Vec::new();
    let mut live: Option<(Cluster, Vec<Generator>)> = None;
    while setups.iter().filter(|s| s.1).count() < SETUPS && setups.len() < MAX_SETUPS {
        if let Some((c, _)) = live.take() {
            c.shutdown();
        }
        let ticks = sys::host_ticks();
        let t0 = Instant::now();
        live = Some(setup(&spec, w, seed, conns)?);
        let quiet = steal_share(ticks, sys::host_ticks()) < STEAL_LIMIT;
        setups.push((t0.elapsed().as_secs_f64(), quiet));
    }
    let quiet_setups: Vec<f64> = setups.iter().filter(|s| s.1).map(|s| s.0).collect();
    let setup_s = if quiet_setups.len() >= SETUPS {
        stats::median(&quiet_setups)
    } else {
        stats::median(&setups.iter().map(|s| s.0).collect::<Vec<_>>())
    };
    let (mut cluster, gens) = live.expect("at least one set-up");
    sys::release_free_memory();
    let per_replica = cluster.tids.iter().map(Vec::len).max().unwrap_or(0);
    let total_threads = sys::task_ids().len();
    println!(
        "# host: nproc={} kernel={} wal_fs={}",
        host.nproc,
        host.kernel,
        if w.durable {
            sys::fs_type(work_dir)
        } else {
            "-".into()
        }
    );
    println!(
        "# threads: {per_replica} per replica, {total_threads} in the process ({conns} generating load) on {} cores{}",
        host.nproc,
        if total_threads > host.nproc {
            format!(" -- oversubscribed {:.1}x", total_threads as f64 / host.nproc as f64)
        } else {
            String::new()
        }
    );
    let samples: Vec<String> = setups
        .iter()
        .map(|(t, quiet)| format!("{t:.4}{}", if *quiet { "" } else { " (busy host)" }))
        .collect();
    println!(
        "# setup_s samples: {}; median {setup_s:.4} s",
        samples.join(", ")
    );

    let mut totals = Report::default();
    let mut gens = gens;
    let mut untraced = None;
    if trace {
        let (d, m) = measure(&mut cluster, gens, w.arrivals, window, false, w.failover);
        gens = d;
        untraced = Some(summarize(&m));
        totals.merge(m.report);
    }
    let (d, main) = measure(&mut cluster, gens, w.arrivals, window, trace, w.failover);
    gens = d;
    let sum = summarize(&main);

    // Leader outages: the window's own, then probes until there are enough.
    let mut outages = Vec::new();
    let mut timeline = None;
    if w.failover {
        outages.push(unavailable_ms(&main.report, &main.failover)?);
        timeline = Some((main.failover.clone(), main.events.clone()));
    }
    let mut probe_gens = Vec::new();
    for i in 0..OUTAGES - outages.len() {
        let (d, rep, f, ev) = probe(&mut cluster, w, seed, trace, i)?;
        outages.push(unavailable_ms(&rep, &f)?);
        timeline.get_or_insert((f, ev));
        probe_gens.push(d);
        totals.merge(rep);
    }
    let unavailable = stats::median(&outages);
    let (failover, events) = timeline.expect("at least one outage");

    let r = &main.report;
    let spread = |name: &str, unit: &str, v: Vec<f64>| {
        let mut v = v;
        v.sort_by(f64::total_cmp);
        match (v.first(), v.last()) {
            (Some(lo), Some(hi)) => {
                format!("{name} {lo:.1}..{:.1}..{hi:.1} {unit}", stats::median(&v))
            }
            _ => format!("{name} -"),
        }
    };
    let slices = || r.slices.iter().take(main.slice_cpu.len());
    let pct = |q: f64| -> Vec<f64> {
        slices()
            .map(|s| s.latency.percentile(q).unwrap_or(0) as f64 / 1e3)
            .collect()
    };
    println!(
        "# slices (min..median..max): {}; {}; {}; {}; {}",
        spread(
            "throughput",
            "req/s",
            slices()
                .map(|s| s.completed as f64 / SLICE.as_secs_f64())
                .collect()
        ),
        spread("p50", "us", pct(0.5)),
        spread("p99", "us", pct(0.99)),
        spread(
            "cpu",
            "us/req",
            slices()
                .zip(&main.slice_cpu)
                .map(|(s, c)| *c as f64 / 1e3 / s.completed.max(1) as f64)
                .collect()
        ),
        spread("rss", "MB", main.slice_rss.clone())
    );
    println!(
        "# window: {} replies in {} slices of {}s ({seconds} asked; a window short of quiet slices is extended); {} latency samples (p99 per slice has >= {} beyond it); generator-late {} (waited for the in-flight cap); timeouts {}; redirects {}",
        r.completed_in_window,
        sum.slices,
        SLICE.as_secs(),
        r.latency.count(),
        stats::samples_beyond((r.latency.count() / sum.slices.max(1) as u64) as usize, 0.99),
        r.cap_late,
        r.timeouts,
        r.redirects
    );
    println!(
        "# host: {:.1}% of host CPU time stolen by the hypervisor during the window; medians over {} of {} slices (steal below {:.0}% in the slice)",
        main.slice_steal.iter().sum::<f64>() / main.slice_steal.len().max(1) as f64 * 100.0,
        sum.used,
        sum.slices,
        STEAL_LIMIT * 100.0
    );
    if let Some((_, old, _)) = failover.crash {
        println!(
            "# outages: {outages:.1?} ms from cutting off the leader to the first reply to a request sent after it ({}); first cut leader {old}, caught up {:.1} ms after heal",
            if w.failover { "first inside the window, then post-window probes" } else { "post-window probes" },
            failover.catchup_ms
        );
    }

    let mut correct = main.report.wrong == 0;
    let main_report = main.report.clone();
    totals.merge(main.report.clone());
    let mut capacity = 0.0;
    if trace {
        let (d, m) = measure(
            &mut cluster,
            gens,
            Arrivals::Closed,
            CAPACITY_LEN,
            false,
            false,
        );
        gens = d;
        capacity = summarize(&m).throughput;
        println!("# closed-loop capacity: {capacity:.0} req/s");
        totals.merge(m.report);
    }
    if w.service == ServiceKind::Kv {
        let (d, rep) = sweep(&mut cluster, gens, false);
        gens = d;
        println!(
            "# read-back: {} keys, {} failed, {} wrong",
            rep.attempted, rep.failed, rep.wrong
        );
        correct &= rep.wrong == 0 && rep.failed == 0;
        totals.merge(rep);
    }
    match cluster.converge(Duration::from_secs(15)) {
        Ok(digest) => println!(
            "# state: all {N} replicas decided the same log and hold digest {digest:#018x}"
        ),
        Err(e) => {
            println!("# state: {e}");
            correct = false;
        }
    }
    // Replicas still routing replies to connections the generators moved
    // away from must be able to finish before they are shut down.
    for d in gens.iter_mut().chain(probe_gens.iter_mut()) {
        d.quiesce(QUIESCE);
    }
    correct &= totals.wrong == 0;
    for e in &totals.wrong_examples {
        println!("# wrong reply: {e}");
    }

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if trace {
        let (a, b) = main
            .snaps
            .as_ref()
            .ok_or("traced window took no snapshots")?;
        let lateness = &main_report.lateness;
        let cx = layers::Context {
            cluster: &cluster,
            leader: main.leader,
            ops: main_report.completed_in_window,
            window_s: window.as_secs_f64(),
            client_mean_us: main_report.latency.mean() / 1e3,
            lag_max: main.lag_max,
            generator_cpu_ns: main_report.cpu_ns,
            late_p99_us: lateness.percentile(0.99).unwrap_or(0) as f64 / 1e3,
            cap_late_share: if lateness.count() == 0 {
                0.0
            } else {
                main_report.cap_late as f64 / lateness.count() as f64
            },
        };
        let mut m: BTreeMap<String, f64> = layers::per_layer(a, b, &cx);
        let (detect, elect, views) = layers::failover_numbers(&failover, &events);
        m.insert("failover.detect_ms".into(), detect);
        m.insert("failover.elect_ms".into(), elect);
        m.insert("failover.view_changes".into(), views);
        m.insert("failover.catchup_ms".into(), failover.catchup_ms);
        // Every workload runs at a fixed offered rate, so tracing costs
        // show as CPU per request, not as lost throughput.
        let untraced = untraced.expect("traced runs measure untraced first");
        m.insert("trace.throughput_rps".into(), sum.throughput);
        m.insert("trace.untraced_throughput_rps".into(), untraced.throughput);
        m.insert("trace.cpu_us_per_req".into(), sum.cpu_us_per_req);
        m.insert(
            "trace.untraced_cpu_us_per_req".into(),
            untraced.cpu_us_per_req,
        );
        m.insert(
            "trace.overhead_share".into(),
            if untraced.cpu_us_per_req > 0.0 {
                sum.cpu_us_per_req / untraced.cpu_us_per_req - 1.0
            } else {
                0.0
            },
        );
        cluster.shutdown();
        let n1 = single_node_capacity(w, seed, conns, work_dir)?;
        m.insert("capacity.closed_loop_rps".into(), capacity);
        m.insert(
            "replication.n1_over_n3_throughput".into(),
            if capacity > 0.0 { n1 / capacity } else { 0.0 },
        );
        println!("# per-layer (traced window; per_op = per completed request, cpu and wakeups summed over replicas):");
        for (name, unit) in layers::PER_LAYER {
            let v = *m
                .get(*name)
                .ok_or_else(|| format!("per-layer metric {name} missing"))?;
            println!("#   {name:<40} {v:>14.3} {unit}");
            metrics.push((name.to_string(), v, unit));
        }
    } else {
        cluster.shutdown();
        metrics.push(("throughput_rps".into(), sum.throughput, "1/s"));
        metrics.push(("latency_p50_us".into(), sum.p50_us, "us"));
        metrics.push(("latency_p99_us".into(), sum.p99_us, "us"));
        metrics.push(("cpu_us_per_req".into(), sum.cpu_us_per_req, "us"));
        metrics.push(("peak_rss_mb".into(), sum.peak_rss_mb, "MB"));
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("unavailable_ms".into(), unavailable, "ms"));
    }
    Ok(Outcome {
        correct,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics,
    })
}

impl Window {
    /// Slices in which the hypervisor stole less than [`STEAL_LIMIT`].
    fn quiet(&self) -> Vec<usize> {
        (0..self.slice_cpu.len())
            .filter(|&i| self.slice_steal.get(i).is_some_and(|&s| s < STEAL_LIMIT))
            .collect()
    }

    /// Quiet slices needed before the medians leave the others out.
    fn quiet_needed(&self) -> usize {
        self.nominal.div_ceil(2).max(1)
    }

    /// Appends an extension's slices and counts.
    fn append(&mut self, mut more: Window) {
        self.report
            .slices
            .resize_with(self.slice_cpu.len(), Default::default);
        more.report
            .slices
            .resize_with(more.slice_cpu.len(), Default::default);
        let slices = std::mem::take(&mut more.report.slices);
        self.report.merge(more.report);
        self.report.slices.extend(slices);
        self.slice_cpu.extend(more.slice_cpu);
        self.slice_rss.extend(more.slice_rss);
        self.slice_steal.extend(more.slice_steal);
    }
}

/// Share of host CPU time the hypervisor stole between two readings.
fn steal_share((t0, s0): (u64, u64), (t1, s1): (u64, u64)) -> f64 {
    if t1 > t0 {
        s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
    } else {
        0.0
    }
}

/// A window's end-to-end figures: each the median over its quiet slices
/// (those in which the hypervisor stole less than [`STEAL_LIMIT`] of host
/// CPU time) when there are enough of them, else over all slices.
struct Summary {
    /// Slices the medians were taken over, and slices in the window.
    used: usize,
    slices: usize,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_req: f64,
    peak_rss_mb: f64,
}

fn summarize(m: &Window) -> Summary {
    let n = m.slice_cpu.len();
    let empty = gen::Slice::default();
    let slice = |i: usize| m.report.slices.get(i).unwrap_or(&empty);
    let quiet = m.quiet();
    let used = if quiet.len() >= m.quiet_needed() {
        quiet
    } else {
        (0..n).collect()
    };
    let per = |f: &dyn Fn(usize) -> f64| -> f64 {
        let v: Vec<f64> = used.iter().map(|&i| f(i)).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    };
    let pct = |i: usize, q: f64| slice(i).latency.percentile(q).unwrap_or(0) as f64 / 1e3;
    Summary {
        used: used.len(),
        slices: n,
        throughput: per(&|i| slice(i).completed as f64 / SLICE.as_secs_f64()),
        p50_us: per(&|i| pct(i, 0.50)),
        p99_us: per(&|i| pct(i, 0.99)),
        cpu_us_per_req: per(&|i| m.slice_cpu[i] as f64 / 1e3 / slice(i).completed.max(1) as f64),
        peak_rss_mb: if m.slice_rss.len() < n {
            sys::peak_rss_mb()
        } else {
            per(&|i| m.slice_rss[i])
        },
    }
}

/// Closed-loop capacity of the same workload on a single replica.
fn single_node_capacity(
    w: &Workload,
    seed: u64,
    conns: usize,
    work_dir: &std::path::Path,
) -> Result<f64, String> {
    let spec = ClusterSpec {
        n: 1,
        transport: w.transport,
        durable: w.durable,
        service: w.service,
        work_dir: work_dir.join("n1"),
    };
    let (mut cluster, gens) = setup(&spec, w, seed, conns)?;
    let (mut gens, m) = measure(
        &mut cluster,
        gens,
        Arrivals::Closed,
        CAPACITY_LEN,
        false,
        false,
    );
    for d in &mut gens {
        d.quiesce(QUIESCE);
    }
    cluster.shutdown();
    if m.report.wrong > 0 {
        return Err(format!(
            "single-node run: wrong replies {:?}",
            m.report.wrong_examples
        ));
    }
    let throughput = summarize(&m).throughput;
    println!("# single replica closed-loop capacity: {throughput:.0} req/s");
    Ok(throughput)
}

/// Formats the result line.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// Runs `w` once and prints the result line; the exit code is nonzero
/// when any reply or replica state was wrong.
pub fn main(w: &Workload, seed: u64, seconds: u64, trace: bool) -> ExitCode {
    sys::pin_mmap_threshold();
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(|| {
            std::thread::sleep(RUN_BUDGET);
            watchdog_fire("the run exceeded its time budget");
        })
        .expect("spawn watchdog");
    let work_dir = match std::env::current_dir() {
        Ok(d) => d.join(".bench_run").join(std::process::id().to_string()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let result = run(w, seed, seconds, trace, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    match result {
        Ok(o) => {
            println!("{}", result_line(&o));
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_metrics::json::JsonValue;
    use std::sync::Mutex;

    /// Clusters share the machine; one smoke run at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(name: &str, seconds: u64, trace: bool) -> Outcome {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let w = WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .expect("workload exists");
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_run"))
            .join(format!("smoke-{name}-{}", std::process::id()));
        let out = run(w, 7, seconds, trace, &dir).expect("run completes");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.correct, "{name}: wrong replies or diverged replicas");
        assert_eq!(out.failed, 0, "{name}: failed requests");
        assert!(out.attempted > 0);
        out
    }

    fn check_end_to_end(out: &Outcome) {
        let names: Vec<&str> = out.metrics.iter().map(|(n, ..)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "throughput_rps",
                "latency_p50_us",
                "latency_p99_us",
                "cpu_us_per_req",
                "peak_rss_mb",
                "setup_s",
                "unavailable_ms"
            ]
        );
        for (n, v, _) in &out.metrics {
            assert!(v.is_finite() && *v > 0.0, "{n} = {v}");
        }
    }

    #[test]
    fn smoke_open_kv_mem() {
        check_end_to_end(&smoke("open_kv_mem", 1, false));
    }

    #[test]
    fn smoke_sat_null_mem() {
        check_end_to_end(&smoke("sat_null_mem", 1, false));
    }

    #[test]
    fn smoke_sat_kv_tcp_durable() {
        check_end_to_end(&smoke("sat_kv_tcp_durable", 1, false));
    }

    #[test]
    fn smoke_failover_kv_mem() {
        check_end_to_end(&smoke("failover_kv_mem", 2, false));
    }

    #[test]
    fn smoke_traced_run_prints_every_per_layer_metric() {
        let out = smoke("sat_null_mem", 1, true);
        let names: Vec<&str> = out.metrics.iter().map(|(n, ..)| n.as_str()).collect();
        let expected: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, expected);
        let get = |k: &str| {
            out.metrics
                .iter()
                .find(|(n, ..)| n == k)
                .map(|m| m.1)
                .unwrap()
        };
        assert!(get("batch.requests_per_batch") >= 1.0);
        assert!(get("exec.calls_per_op") > 2.5, "every replica executes");
        assert!(get("failover.detect_ms") > 0.0);
        assert!(get("trace.throughput_rps") > 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(&Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("latency_p50_us".into(), 12.5, "us")],
        });
        let doc = JsonValue::parse(&line).expect("valid JSON");
        assert_eq!(doc.keys(), ["attempted", "correct", "failed", "metrics"]);
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("latency_p50_us"))
            .unwrap();
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(12.5));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("us"));
    }

    #[test]
    fn benchmark_json_names_what_this_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(JsonValue::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(JsonValue::as_str)
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads"), workloads);
        let layers: Vec<String> = layers::PER_LAYER
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        assert_eq!(names("per_layer"), layers);
        assert_eq!(
            names("end_to_end"),
            [
                "throughput_rps",
                "latency_p50_us",
                "latency_p99_us",
                "cpu_us_per_req",
                "peak_rss_mb",
                "setup_s",
                "unavailable_ms"
            ]
        );
    }
}
