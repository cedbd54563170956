//! The replica runtime: thread spawning, wiring, and lifecycle.

mod client_io;
mod core_threads;
mod replica_io;
mod service_manager;
mod stage;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use smr_metrics::{Counter, MetricsRegistry, MetricsSnapshot, ThreadState};
use smr_net::{ClientConn, ClientListener, ReplicaNetwork};
use smr_paxos::Target;
use smr_queue::{BoundedQueue, DepthSampler, QueueRegistry};
use smr_storage::Storage;
use smr_types::{
    ClusterConfig, CompactionPolicy, ConfigError, ReplicaId, Slot, SmrError, SnapshotBlob,
};
use smr_wire::{Batch, ProtocolMsg, Reply, Request};

use stage::{StageClock, StageMetrics};

use crate::reply_cache::{ReplyCache, ShardedReplyCache};
use crate::service::{ConflictAwareService, RecoverableService, Service, SharedSnapshotService};
use crate::shared::SharedState;

pub use client_io::EventedIoOptions;
pub(crate) use client_io::IoWaker;
use service_manager::{ServiceMode, SnapshotRig};

/// One input of the Protocol thread, carried by the DispatcherQueue. The
/// thread's only wait is a pop of this queue, so everything that has
/// work for it arrives here.
#[derive(Debug)]
pub(crate) enum Input {
    /// A decoded frame from a peer's ReplicaIO receiver.
    Message { from: ReplicaId, msg: ProtocolMsg },
    /// ClientIO pushed to the RequestQueue. Coalesced through
    /// [`Ctx::requests_ready`]: at most one is queued at a time.
    RequestsReady,
    /// The ServiceManager published a newer snapshot to the
    /// [`SnapshotStore`].
    SnapshotPublished,
}

/// One unit of work on the DecisionQueue.
#[derive(Debug)]
pub(crate) enum Decision {
    /// Execute the decided batch of `slot` (strictly increasing, gap-free
    /// except across a preceding `Install`). The clock carries the
    /// batch's stage stamps when this replica proposed it with stage
    /// metrics on; follower deliveries carry `None`.
    Apply(Slot, Batch, Option<StageClock>),
    /// Replace the service state with a peer's snapshot before applying
    /// anything at or above its watermark.
    Install(SnapshotBlob),
}

/// The replica's published snapshot state: the newest blob (for serving
/// snapshot transfer) and its watermark (which the Protocol thread reads
/// on [`Input::SnapshotPublished`] to drive compaction).
pub(crate) struct SnapshotStore {
    latest: Mutex<Option<Arc<SnapshotBlob>>>,
    watermark: AtomicU64,
}

impl SnapshotStore {
    fn new() -> Self {
        SnapshotStore {
            latest: Mutex::new(None),
            watermark: AtomicU64::new(0),
        }
    }

    /// Publishes a newer snapshot. Blob first, watermark second: anyone
    /// who observes the watermark will find a blob at least as new.
    pub fn publish(&self, blob: Arc<SnapshotBlob>) {
        let upto = blob.applied_upto;
        {
            let mut latest = self.latest.lock();
            if latest.as_ref().is_some_and(|cur| cur.applied_upto >= upto) {
                return;
            }
            *latest = Some(blob);
        }
        self.watermark.fetch_max(upto.0, Ordering::Release);
    }

    /// The newest published snapshot, if any.
    pub fn latest(&self) -> Option<Arc<SnapshotBlob>> {
        self.latest.lock().clone()
    }

    /// Watermark of the newest published snapshot.
    pub fn watermark(&self) -> Slot {
        Slot(self.watermark.load(Ordering::Acquire))
    }
}

/// Everything the replica's threads share.
pub(crate) struct Ctx {
    pub me: ReplicaId,
    pub config: ClusterConfig,
    pub shared: Arc<SharedState>,
    pub cache: Arc<dyn ReplyCache>,
    pub metrics: MetricsRegistry,
    /// Probes of every named pipeline queue, for the metrics export and
    /// the opt-in depth sampler.
    pub queues: QueueRegistry,
    /// The slot-lifecycle latency instrumentation (see [`stage`]).
    pub stage: StageMetrics,
    pub shutdown: AtomicBool,
    /// Requests paired with their intake stamp (0 when stage metrics are
    /// off).
    pub request_q: BoundedQueue<(Request, u64)>,
    /// Set by ClientIO after it pushed requests, cleared by the Protocol
    /// thread at the top of every pass (see [`Ctx::notify_requests`]).
    pub requests_ready: AtomicBool,
    pub dispatcher_q: BoundedQueue<Input>,
    pub decision_q: BoundedQueue<Decision>,
    /// Newest snapshot (blob + watermark) this replica can serve.
    pub snapshots: SnapshotStore,
    /// Whether the configured service supports snapshot/restore.
    pub snapshot_capable: bool,
    /// The compaction policy threaded into the Protocol core.
    pub compaction: CompactionPolicy,
    /// Indexed by peer replica id (own slot unused).
    pub send_qs: Vec<BoundedQueue<ProtocolMsg>>,
    /// Indexed by ClientIO thread.
    pub reply_qs: Vec<BoundedQueue<(u64, Reply)>>,
    /// Indexed by ClientIO thread: newly accepted connections.
    pub intake_qs: Vec<BoundedQueue<Box<dyn ClientConn>>>,
    /// Indexed by ClientIO thread: rings the thread out of `epoll_wait`
    /// when replies or connections land. No-ops on a thread that runs
    /// without epoll.
    pub io_wakers: Vec<IoWaker>,
    pub network: Arc<dyn ReplicaNetwork>,
    /// Frames dropped because a SendQueue was full (the non-blocking
    /// escape hatch of §V-B; retransmission recovers them).
    pub send_drops: Counter,
}

impl Ctx {
    /// Enqueues `msg` for each target peer on its SendQueue without
    /// blocking; full queues drop (the protocol core resends what goes
    /// unanswered).
    pub fn send(&self, to: Target, msg: &ProtocolMsg) {
        match to {
            Target::All => {
                for peer in self.config.peers(self.me) {
                    if self.send_qs[peer.index()].try_push(msg.clone()).is_err() {
                        self.send_drops.inc();
                    }
                }
            }
            Target::One(peer) => {
                if peer != self.me
                    && self.config.contains(peer)
                    && self.send_qs[peer.index()].try_push(msg.clone()).is_err()
                {
                    self.send_drops.inc();
                }
            }
        }
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Tells the Protocol thread that requests were pushed to the
    /// RequestQueue, keeping at most one [`Input::RequestsReady`] queued.
    /// ClientIO calls it once per loop pass in which it pushed. Never
    /// blocks.
    ///
    /// No request is stranded. Both sides are `SeqCst` read-modify-writes
    /// of `requests_ready`: ClientIO sets it *after* its pushes, and the
    /// Protocol thread clears it at the top of every pass, *before* it
    /// pops the RequestQueue. A clear that comes after the swap below in
    /// the flag's order reads this swap's write (or a later one), so the
    /// pop that follows it sees the requests. Otherwise the swap read the
    /// last clear's `false` and queues a notice. An accepted notice starts
    /// a pass whose clear comes after the swap. A notice a full
    /// DispatcherQueue refuses is not needed: every pop the Protocol
    /// thread made before that last clear happens before the swap, so the
    /// queue is full of inputs it has yet to pop, and the pass that
    /// follows them clears after the swap. Requests a pass leaves behind
    /// because the pipelining window is closed wait for the event that
    /// reopens it, and every event is followed by a pass.
    pub fn notify_requests(&self) {
        if !self.requests_ready.swap(true, Ordering::SeqCst) {
            let _ = self.dispatcher_q.try_push(Input::RequestsReady);
        }
    }

    /// Publishes `blob` and tells the Protocol thread, which compacts
    /// its log up to the new watermark. The notice never blocks: the
    /// caller is the ServiceManager, and the Protocol thread may itself
    /// be blocked pushing to the DecisionQueue the ServiceManager drains.
    /// A notice refused by a full DispatcherQueue is not lost: the
    /// Protocol thread also compares the watermark on each tick.
    pub fn publish_snapshot(&self, blob: Arc<SnapshotBlob>) {
        self.snapshots.publish(blob);
        let _ = self.dispatcher_q.try_push(Input::SnapshotPublished);
    }
}

/// Builder for a [`Replica`] ([C-BUILDER]).
///
/// The surface is `with_*` setters: a service (one of the four service
/// setters), [`with_network`](ReplicaBuilder::with_network), and
/// [`with_client_listener`](ReplicaBuilder::with_client_listener) are
/// required; durability, compaction, metrics, and the reply cache are
/// optional.
pub struct ReplicaBuilder {
    me: ReplicaId,
    config: ClusterConfig,
    service: Option<ServiceMode>,
    network: Option<Arc<dyn ReplicaNetwork>>,
    listener: Option<Box<dyn ClientListener>>,
    metrics: Option<MetricsRegistry>,
    cache: Option<Arc<dyn ReplyCache>>,
    durability: Option<PathBuf>,
    compaction: Option<CompactionPolicy>,
    snapshot_every: u64,
    stage_metrics: bool,
    metrics_dump: Option<(PathBuf, Duration)>,
    queue_sampler: Option<Duration>,
    /// ClientIO pool size override; `None` uses
    /// [`ClusterConfig::client_io_threads`].
    client_io_pool: Option<usize>,
    client_io_opts: EventedIoOptions,
}

impl ReplicaBuilder {
    /// Starts building replica `me` of `config`.
    pub fn new(me: ReplicaId, config: ClusterConfig) -> Self {
        ReplicaBuilder {
            me,
            config,
            service: None,
            network: None,
            listener: None,
            metrics: None,
            cache: None,
            durability: None,
            compaction: None,
            snapshot_every: 1024,
            stage_metrics: true,
            metrics_dump: None,
            queue_sampler: None,
            client_io_pool: None,
            client_io_opts: EventedIoOptions::default(),
        }
    }

    /// Sets the replicated service, executed sequentially in decided-log
    /// order. Exactly one of the four service setters is required.
    ///
    /// A service set this way cannot snapshot: durability and
    /// snapshot-driven compaction are unavailable. Prefer
    /// [`with_snapshot_service`](ReplicaBuilder::with_snapshot_service)
    /// when the service implements [`SnapshotService`](crate::SnapshotService).
    pub fn with_service(mut self, service: Box<dyn Service>) -> Self {
        self.service = Some(ServiceMode::Sequential(service));
        self
    }

    /// Sets a sequential service that also supports snapshot/restore,
    /// unlocking [`with_durability`](ReplicaBuilder::with_durability),
    /// snapshot-driven compaction, and snapshot transfer to lagging
    /// peers.
    pub fn with_snapshot_service(mut self, service: Box<dyn RecoverableService>) -> Self {
        self.service = Some(ServiceMode::SequentialSnapshot(service));
        self
    }

    /// Sets the replicated service in dependency-aware parallel mode:
    /// decided commands that do not conflict (per the service's
    /// [`ConflictAwareService::conflict_keys`] classification) execute
    /// concurrently on a pool of `workers` threads, conflicting ones in
    /// decided order. Replaces any service set earlier; `workers` is
    /// clamped to at least 1.
    pub fn with_parallel_service(
        mut self,
        service: Arc<dyn ConflictAwareService>,
        workers: usize,
    ) -> Self {
        self.service = Some(ServiceMode::Parallel {
            service,
            workers: workers.max(1),
            snapshot: None,
        });
        self
    }

    /// Sets a parallel service that also supports shared
    /// snapshot/restore ([`SharedSnapshotService`]), combining parallel
    /// execution with durability, compaction, and snapshot transfer.
    pub fn with_parallel_snapshot_service<S>(mut self, service: Arc<S>, workers: usize) -> Self
    where
        S: ConflictAwareService + SharedSnapshotService + 'static,
    {
        let snapshot: Arc<dyn SharedSnapshotService + Send> = service.clone();
        self.service = Some(ServiceMode::Parallel {
            service,
            workers: workers.max(1),
            snapshot: Some(snapshot),
        });
        self
    }

    /// Persists the decided log and snapshots under `dir`, and recovers
    /// from them on startup. Requires a snapshot-capable service
    /// ([`with_snapshot_service`](ReplicaBuilder::with_snapshot_service)
    /// or
    /// [`with_parallel_snapshot_service`](ReplicaBuilder::with_parallel_snapshot_service)).
    pub fn with_durability(mut self, dir: impl Into<PathBuf>) -> Self {
        self.durability = Some(dir.into());
        self
    }

    /// Sets the log compaction policy (optional; defaults to
    /// [`CompactionPolicy::SnapshotDriven`] for snapshot-capable
    /// services and `KeepSlots(4096)` otherwise).
    pub fn with_compaction(mut self, policy: CompactionPolicy) -> Self {
        self.compaction = Some(policy);
        self
    }

    /// Takes a snapshot every `n` applied slots (optional; default
    /// 1024). Clamped to at least 1; only meaningful for
    /// snapshot-capable services.
    pub fn with_snapshot_every(mut self, n: u64) -> Self {
        self.snapshot_every = n.max(1);
        self
    }

    /// Sets the replica-to-replica network (required).
    pub fn with_network(mut self, network: Arc<dyn ReplicaNetwork>) -> Self {
        self.network = Some(network);
        self
    }

    /// Sets the client listener (required).
    pub fn with_client_listener(mut self, listener: Box<dyn ClientListener>) -> Self {
        self.listener = Some(listener);
        self
    }

    /// Overrides the ClientIO pool's size and slow-reader limits
    /// (optional). Each of the `pool` threads runs the readiness loop
    /// over its share of the connections; `opts` sets the per-connection
    /// outbound cap, the overflow a slow reader may build before it is
    /// dropped, and the scan tick (see [`EventedIoOptions`]). `pool`
    /// replaces [`ClusterConfig::client_io_threads`] and is clamped to at
    /// least 1. Without this call the pool has
    /// `config.client_io_threads()` threads and the default options.
    ///
    /// [`ClusterConfig::client_io_threads`]: smr_types::ClusterConfig::client_io_threads
    pub fn with_evented_client_io(mut self, pool: usize, opts: EventedIoOptions) -> Self {
        self.client_io_pool = Some(pool.max(1));
        self.client_io_opts = opts;
        self
    }

    /// Uses an existing metrics registry (optional).
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Toggles the slot-lifecycle latency breakdown (optional; default
    /// on). When off, batches carry zero stamps and no stage histogram
    /// is touched, so the pipeline's hot-path overhead is one branch per
    /// stage boundary.
    pub fn with_stage_metrics(mut self, enabled: bool) -> Self {
        self.stage_metrics = enabled;
        self
    }

    /// Periodically writes the full metrics snapshot
    /// ([`Replica::metrics_json`]) to `path` (optional). Each write goes
    /// to a temp file and renames into place, so readers never observe a
    /// torn snapshot; a final dump is written at shutdown. `period` is
    /// clamped to at least 10ms.
    pub fn with_metrics_dump(mut self, path: impl Into<PathBuf>, period: Duration) -> Self {
        self.metrics_dump = Some((path.into(), period.max(Duration::from_millis(10))));
        self
    }

    /// Samples every pipeline queue's depth at `period` into Table
    /// I-style mean ± std-dev statistics (optional; off by default — the
    /// exact high-watermark and instantaneous depth are always
    /// maintained). `period` is clamped to at least 1ms.
    pub fn with_queue_sampler(mut self, period: Duration) -> Self {
        self.queue_sampler = Some(period.max(Duration::from_millis(1)));
        self
    }

    /// Overrides the reply cache (optional; defaults to a
    /// [`ShardedReplyCache`] with the configured shard count).
    pub fn with_reply_cache(mut self, cache: Arc<dyn ReplyCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Spawns every thread of the architecture and returns the handle.
    ///
    /// When durability is configured, recovery runs first, before any
    /// thread starts: the newest valid snapshot on disk is restored into
    /// the service, the durable log tail beyond it is replayed, and a
    /// fresh snapshot is written at the recovered frontier (rotating the
    /// log so the next recovery starts there).
    ///
    /// # Errors
    ///
    /// Returns [`SmrError::Config`] if a required component is missing,
    /// `me` is not part of `config`, durability is requested for a
    /// service that cannot snapshot, or recovery from the durable
    /// directory fails.
    pub fn start(self) -> Result<Replica, SmrError> {
        if !self.config.contains(self.me) {
            return Err(ConfigError::invalid("replica id outside cluster").into());
        }
        let mut service = self
            .service
            .ok_or_else(|| ConfigError::invalid("service is required"))?;
        let network = self
            .network
            .ok_or_else(|| ConfigError::invalid("network is required"))?;
        let listener = self
            .listener
            .ok_or_else(|| ConfigError::invalid("client listener is required"))?;
        let metrics = self.metrics.unwrap_or_default();
        let cache = self
            .cache
            .unwrap_or_else(|| Arc::new(ShardedReplyCache::new(self.config.reply_cache_shards())));

        let snapshot_capable = service.snapshot_capable();
        if self.durability.is_some() && !snapshot_capable {
            return Err(ConfigError::invalid(
                "durability requires a snapshot-capable service \
                 (with_snapshot_service or with_parallel_snapshot_service)",
            )
            .into());
        }
        if self.compaction == Some(CompactionPolicy::SnapshotDriven) && !snapshot_capable {
            return Err(ConfigError::invalid(
                "snapshot-driven compaction requires a snapshot-capable service",
            )
            .into());
        }
        let compaction = self.compaction.unwrap_or(if snapshot_capable {
            CompactionPolicy::SnapshotDriven
        } else {
            CompactionPolicy::KeepSlots(4096)
        });

        // Crash recovery, strictly before any thread spawns: the service
        // is rebuilt from disk while it is still exclusively ours.
        let mut rig = SnapshotRig {
            storage: None,
            watermark: Slot::ZERO,
            last_snapshot: Slot::ZERO,
            every: self.snapshot_every,
        };
        let recovered_blob = match &self.durability {
            Some(dir) => recover(dir, &mut service, &*cache, &mut rig)?,
            None => None,
        };

        let config = self.config;
        let me = self.me;
        let n = config.n();
        let client_io_opts = self.client_io_opts;
        let k = self
            .client_io_pool
            .unwrap_or_else(|| config.client_io_threads());
        let stage = StageMetrics::new(&metrics, self.stage_metrics);
        // A named counter rather than a free-floating one, so the
        // metrics export picks it up with everything else.
        let send_drops = metrics.counter("net.send_drops");
        let ctx = Arc::new(Ctx {
            me,
            shared: Arc::new(SharedState::new()),
            cache,
            metrics,
            queues: QueueRegistry::new(),
            stage,
            shutdown: AtomicBool::new(false),
            request_q: BoundedQueue::new("RequestQueue", config.request_queue_capacity()),
            requests_ready: AtomicBool::new(false),
            dispatcher_q: BoundedQueue::new("DispatcherQueue", config.dispatcher_queue_capacity()),
            decision_q: BoundedQueue::new("DecisionQueue", config.decision_queue_capacity()),
            send_qs: (0..n)
                .map(|p| BoundedQueue::new(format!("SendQueue-{p}"), config.send_queue_capacity()))
                .collect(),
            reply_qs: (0..k)
                .map(|i| {
                    BoundedQueue::new(format!("ReplyQueue-{i}"), config.reply_queue_capacity())
                })
                .collect(),
            intake_qs: (0..k)
                .map(|i| BoundedQueue::new(format!("ConnIntake-{i}"), 1024))
                .collect(),
            io_wakers: (0..k).map(|_| IoWaker::default()).collect(),
            network,
            send_drops,
            snapshots: SnapshotStore::new(),
            snapshot_capable,
            compaction,
            config,
        });
        // Register every pipeline queue for depth/watermark export
        // (Table I). The peer's own SendQueue slot is unused, so skip it.
        ctx.queues.register(ctx.request_q.probe());
        ctx.queues.register(ctx.dispatcher_q.probe());
        ctx.queues.register(ctx.decision_q.probe());
        for (p, q) in ctx.send_qs.iter().enumerate() {
            if p != me.index() {
                ctx.queues.register(q.probe());
            }
        }
        for q in &ctx.reply_qs {
            ctx.queues.register(q.probe());
        }
        let sampler = self
            .queue_sampler
            .map(|period| ctx.queues.start_sampler(period));
        // Publish the recovered snapshot before any thread starts, so
        // the Protocol thread compacts from it and peers can fetch it
        // immediately.
        if let Some(blob) = recovered_blob {
            ctx.snapshots.publish(blob);
        }

        let mut threads = Vec::new();
        let spawn = |name: String, f: Box<dyn FnOnce() + Send>| -> JoinHandle<()> {
            std::thread::Builder::new()
                .name(name)
                .spawn(f)
                .expect("spawn replica thread")
        };

        // ClientIO pool + acceptor (§V-A).
        for i in 0..k {
            let ctx2 = Arc::clone(&ctx);
            let opts = client_io_opts.clone();
            threads.push(spawn(
                format!("ClientIO-{i}"),
                Box::new(move || client_io::run_client_io(&ctx2, i, &opts)),
            ));
        }
        {
            let ctx2 = Arc::clone(&ctx);
            threads.push(spawn(
                "ClientAcceptor".into(),
                Box::new(move || client_io::run_acceptor(&ctx2, listener)),
            ));
        }
        // ReplicaIO: one sender + one receiver per peer (§V-B).
        for peer in ctx.config.peers(me).collect::<Vec<_>>() {
            let ctx2 = Arc::clone(&ctx);
            threads.push(spawn(
                format!("ReplicaIOSnd-{}", peer.0),
                Box::new(move || replica_io::run_sender(&ctx2, peer)),
            ));
            let ctx2 = Arc::clone(&ctx);
            threads.push(spawn(
                format!("ReplicaIORcv-{}", peer.0),
                Box::new(move || replica_io::run_receiver(&ctx2, peer)),
            ));
        }
        // ReplicationCore (§V-C): one Protocol thread, which also batches.
        {
            let ctx2 = Arc::clone(&ctx);
            threads.push(spawn(
                "Protocol".into(),
                Box::new(move || core_threads::run_protocol(&ctx2)),
            ));
        }
        // ServiceManager (§V-D) — named "Replica" in the paper's profiles.
        {
            let ctx2 = Arc::clone(&ctx);
            threads.push(spawn(
                "Replica".into(),
                Box::new(move || service_manager::run_service_manager(&ctx2, service, rig)),
            ));
        }

        // MetricsDump (opt-in): periodic JSON snapshots of the whole
        // observability surface, plus a final dump at shutdown.
        if let Some((path, period)) = self.metrics_dump {
            let ctx2 = Arc::clone(&ctx);
            threads.push(spawn(
                "MetricsDump".into(),
                Box::new(move || run_metrics_dump(&ctx2, &path, period)),
            ));
        }

        Ok(Replica {
            ctx,
            sampler,
            threads: Some(threads),
        })
    }
}

/// Assembles the full metrics snapshot of a running replica.
fn build_snapshot(ctx: &Ctx) -> MetricsSnapshot {
    MetricsSnapshot {
        replica: u64::from(ctx.me.0),
        uptime_ns: ctx.shared.now_ns(),
        threads: ctx.metrics.snapshot().threads,
        counters: ctx.metrics.counter_values(),
        histograms: ctx.metrics.histogram_summaries(),
        queues: ctx.queues.snapshots(),
    }
}

/// The MetricsDump thread: every `period`, serializes the snapshot and
/// atomically replaces `path` (temp file + rename, so a concurrent
/// reader never sees a torn document). Writes one final snapshot on
/// shutdown before exiting.
fn run_metrics_dump(ctx: &Ctx, path: &std::path::Path, period: Duration) {
    let handle = ctx.metrics.register_thread("MetricsDump");
    let tmp = path.with_extension("json.tmp");
    let dump = |ctx: &Ctx| {
        let doc = build_snapshot(ctx).to_json();
        if std::fs::write(&tmp, &doc).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    };
    loop {
        // Sleep in short slices so shutdown is prompt even with long
        // periods.
        let mut slept = Duration::ZERO;
        while slept < period && !ctx.is_shutdown() {
            let slice = (period - slept).min(Duration::from_millis(25));
            let _g = handle.enter(ThreadState::Other);
            std::thread::sleep(slice);
            slept += slice;
        }
        dump(ctx);
        if ctx.is_shutdown() {
            return;
        }
    }
}

/// Restores `service` from the durable directory: newest valid snapshot
/// first, then replay of the log tail through the reply cache (so
/// post-restart client retries still dedup). Finishes by writing a fresh
/// snapshot at the recovered frontier — rotating the log so the next
/// recovery starts there — and returns the snapshot to publish.
fn recover(
    dir: &std::path::Path,
    service: &mut ServiceMode,
    cache: &dyn ReplyCache,
    rig: &mut SnapshotRig,
) -> Result<Option<Arc<SnapshotBlob>>, SmrError> {
    let bad = |e: String| ConfigError::invalid(format!("durability: {e}"));
    let (mut storage, recovered) = Storage::open(dir).map_err(|e| bad(e.to_string()))?;
    let mut blob = None;
    if let Some(snap) = recovered.snapshot {
        service.restore(&snap).map_err(bad)?;
        rig.watermark = snap.applied_upto;
        rig.last_snapshot = snap.applied_upto;
        blob = Some(Arc::new(snap));
    }
    let mut replies = Vec::new();
    for (slot, batch) in recovered.tail {
        service.execute_batch(cache, batch, &mut replies);
        replies.clear();
        rig.watermark = slot.next();
    }
    if rig.watermark > rig.last_snapshot {
        // Replay advanced past the snapshot on disk: checkpoint here so
        // recovery work is not repeated (and the old log is pruned).
        if let Some(fresh) = service.snapshot(rig.watermark) {
            storage
                .install_snapshot(&fresh)
                .map_err(|e| bad(e.to_string()))?;
            rig.last_snapshot = rig.watermark;
            blob = Some(Arc::new(fresh));
        }
    }
    rig.storage = Some(storage);
    Ok(blob)
}

/// A running replica: the full thread ensemble of Fig. 3.
///
/// Dropping the handle shuts the replica down and joins every thread.
pub struct Replica {
    ctx: Arc<Ctx>,
    sampler: Option<DepthSampler>,
    threads: Option<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Replica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica").field("id", &self.ctx.me).finish()
    }
}

impl Replica {
    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.ctx.me
    }

    /// The lock-free shared state (view, leader, frontier).
    pub fn shared(&self) -> &SharedState {
        &self.ctx.shared
    }

    /// The metrics registry with every thread's profile.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.ctx.metrics
    }

    /// Frames dropped on full SendQueues so far.
    pub fn send_drops(&self) -> u64 {
        self.ctx.send_drops.get()
    }

    /// A point-in-time snapshot of the replica's full observability
    /// surface: thread profiles, named counters, per-stage latency
    /// histograms, and per-queue depth/watermark statistics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        build_snapshot(&self.ctx)
    }

    /// [`Replica::metrics_snapshot`] serialized as a self-contained JSON
    /// document (see [`smr_metrics::MetricsSnapshot::to_json`] for the
    /// schema). Parse it back with [`smr_metrics::json::JsonValue`].
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Watermark of the newest snapshot this replica has published —
    /// every slot below it has been folded into a snapshot (and, under
    /// [`CompactionPolicy::SnapshotDriven`], compacted out of the
    /// in-memory log). `Slot::ZERO` when no snapshot exists yet or the
    /// service cannot snapshot.
    pub fn snapshot_watermark(&self) -> Slot {
        self.ctx.snapshots.watermark()
    }

    /// The newest snapshot this replica can serve to lagging peers, if
    /// any.
    pub fn latest_snapshot(&self) -> Option<Arc<SnapshotBlob>> {
        self.ctx.snapshots.latest()
    }

    /// Stops every thread and joins them.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(threads) = self.threads.take() else {
            return;
        };
        drop(self.sampler.take()); // stop sampling before queues close
        self.ctx.shutdown.store(true, Ordering::Release);
        self.ctx.request_q.close();
        self.ctx.dispatcher_q.close();
        self.ctx.decision_q.close();
        for q in &self.ctx.send_qs {
            q.close();
        }
        for q in &self.ctx.reply_qs {
            q.close();
        }
        for q in &self.ctx.intake_qs {
            q.close();
        }
        self.ctx.network.shutdown();
        // Kick ClientIO threads out of epoll_wait so they
        // observe the flag now rather than at their next timeout.
        for w in &self.ctx.io_wakers {
            w.ring();
        }
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}
