//! Cluster and replication-policy configuration.
//!
//! [`ClusterConfig`] describes a deployment: the number of replicas, the
//! batching policy ([`BatchPolicy`], the paper's `BSZ` and batch timeout),
//! the pipelining window (the paper's `WND`), queue capacities, and the
//! number of ClientIO threads — the parameters swept in the paper's
//! evaluation (Figs. 9–11, Tables I and III).

use std::time::Duration;

use crate::error::ConfigError;
use crate::ids::ReplicaId;

/// Batching policy: the conditions under which the Protocol thread closes
/// the batch it is building and proposes it.
///
/// Mirrors §III-B of the paper: a batch is proposed when it reaches the
/// maximum size (`max_bytes`, the paper's `BSZ`) or its timeout expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchPolicy {
    /// Maximum serialized size of a batch in bytes (the paper's `BSZ`;
    /// default 1300, chosen so a batch fits one Ethernet frame).
    pub max_bytes: usize,
    /// Maximum number of requests per batch regardless of size.
    pub max_requests: usize,
    /// How long a non-empty batch may wait for more requests before being
    /// proposed anyway.
    pub timeout: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_bytes: 1300,
            max_requests: 4096,
            timeout: Duration::from_millis(5),
        }
    }
}

impl BatchPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any field is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_bytes == 0 {
            return Err(ConfigError::invalid("batch max_bytes must be > 0"));
        }
        if self.max_requests == 0 {
            return Err(ConfigError::invalid("batch max_requests must be > 0"));
        }
        if self.timeout.is_zero() {
            return Err(ConfigError::invalid("batch timeout must be > 0"));
        }
        Ok(())
    }
}

/// Retransmission policy for protocol messages that must eventually be
/// delivered (§V-C4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetransmitPolicy {
    /// Initial retransmission timeout.
    pub initial: Duration,
    /// Multiplier applied on every retransmission (exponential backoff).
    pub backoff_num: u32,
    /// Denominator of the backoff fraction (`backoff_num / backoff_den`).
    pub backoff_den: u32,
    /// Upper bound on the retransmission interval.
    pub max: Duration,
}

impl Default for RetransmitPolicy {
    fn default() -> Self {
        RetransmitPolicy {
            initial: Duration::from_millis(100),
            backoff_num: 3,
            backoff_den: 2,
            max: Duration::from_secs(2),
        }
    }
}

impl RetransmitPolicy {
    /// The interval to wait after `attempt` retransmissions (0-based).
    pub fn interval(&self, attempt: u32) -> Duration {
        let mut d = self.initial;
        for _ in 0..attempt {
            d = d
                .checked_mul(self.backoff_num)
                .map(|x| x / self.backoff_den.max(1))
                .unwrap_or(self.max);
            if d >= self.max {
                return self.max;
            }
        }
        d.min(self.max)
    }
}

/// Static description of a replicated-state-machine deployment.
///
/// Construct with [`ClusterConfig::new`] for defaults or via
/// [`ClusterConfig::builder`] to tune the parameters the paper sweeps.
///
/// # Examples
///
/// ```
/// use smr_types::ClusterConfig;
///
/// let config = ClusterConfig::builder(5)
///     .window(35)
///     .client_io_threads(4)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(config.majority(), 3);
/// assert_eq!(config.window(), 35);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    n: usize,
    window: usize,
    batch: BatchPolicy,
    retransmit: RetransmitPolicy,
    client_io_threads: usize,
    request_queue_capacity: usize,
    dispatcher_queue_capacity: usize,
    decision_queue_capacity: usize,
    send_queue_capacity: usize,
    reply_queue_capacity: usize,
    heartbeat_interval: Duration,
    suspect_timeout: Duration,
    reply_cache_shards: usize,
}

impl ClusterConfig {
    /// Creates a configuration for `n` replicas with the paper's default
    /// parameters (`WND = 10`, `BSZ = 1300`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`. Use [`ClusterConfig::builder`] for fallible
    /// construction.
    pub fn new(n: usize) -> Self {
        ClusterConfig::builder(n)
            .build()
            .expect("default configuration is valid")
    }

    /// Starts building a configuration for `n` replicas.
    pub fn builder(n: usize) -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: ClusterConfig {
                n,
                window: 10,
                batch: BatchPolicy::default(),
                retransmit: RetransmitPolicy::default(),
                client_io_threads: 4,
                request_queue_capacity: 1000,
                dispatcher_queue_capacity: 4096,
                decision_queue_capacity: 1024,
                send_queue_capacity: 4096,
                reply_queue_capacity: 4096,
                heartbeat_interval: Duration::from_millis(20),
                suspect_timeout: Duration::from_millis(100),
                reply_cache_shards: 16,
            },
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Size of a majority quorum (`⌊n/2⌋ + 1`).
    pub fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Number of crash faults tolerated (`⌊(n-1)/2⌋`).
    pub fn max_faults(&self) -> usize {
        (self.n - 1) / 2
    }

    /// Maximum number of consensus instances executing in parallel (the
    /// paper's `WND`).
    pub fn window(&self) -> usize {
        self.window
    }

    /// The batching policy.
    pub fn batch(&self) -> BatchPolicy {
        self.batch
    }

    /// The retransmission policy.
    pub fn retransmit(&self) -> RetransmitPolicy {
        self.retransmit
    }

    /// Number of ClientIO threads in the pool (§V-A; swept in Fig. 9).
    pub fn client_io_threads(&self) -> usize {
        self.client_io_threads
    }

    /// Capacity of the RequestQueue (ClientIO → Protocol).
    pub fn request_queue_capacity(&self) -> usize {
        self.request_queue_capacity
    }

    /// Capacity of the DispatcherQueue (everyone → Protocol).
    pub fn dispatcher_queue_capacity(&self) -> usize {
        self.dispatcher_queue_capacity
    }

    /// Capacity of the DecisionQueue (Protocol → ServiceManager).
    pub fn decision_queue_capacity(&self) -> usize {
        self.decision_queue_capacity
    }

    /// Capacity of each ReplicaIOSnd queue.
    pub fn send_queue_capacity(&self) -> usize {
        self.send_queue_capacity
    }

    /// Capacity of each per-ClientIO-thread ReplyQueue (ServiceManager →
    /// ClientIO; the third axis of the Fig. 9-style reply-path sweep).
    pub fn reply_queue_capacity(&self) -> usize {
        self.reply_queue_capacity
    }

    /// Heartbeat period of the failure detector: a link that carried
    /// nothing for this long gets a heartbeat (leader to followers,
    /// followers to the leader). The Protocol thread ticks the detector
    /// every half period, and waits for input at most that long.
    pub fn heartbeat_interval(&self) -> Duration {
        self.heartbeat_interval
    }

    /// The floor of the suspicion threshold: a follower suspects its
    /// leader, and a leader stops serving without a quorum, after a
    /// silence this long — or longer, when the peer recently showed
    /// longer inter-arrival gaps (the threshold adapts to them).
    pub fn suspect_timeout(&self) -> Duration {
        self.suspect_timeout
    }

    /// Number of shards of the reply cache (§V-D: fine-grained locking).
    pub fn reply_cache_shards(&self) -> usize {
        self.reply_cache_shards
    }

    /// Iterator over all replica ids of the cluster.
    pub fn replicas(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.n as u16).map(ReplicaId)
    }

    /// All replica ids except `me`.
    pub fn peers(&self, me: ReplicaId) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.n as u16).map(ReplicaId).filter(move |r| *r != me)
    }

    /// Whether `id` is a valid replica id for this cluster.
    pub fn contains(&self, id: ReplicaId) -> bool {
        id.index() < self.n
    }
}

/// Builder for [`ClusterConfig`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

impl ClusterConfigBuilder {
    /// Sets the pipelining window (the paper's `WND`).
    pub fn window(mut self, window: usize) -> Self {
        self.config.window = window;
        self
    }

    /// Sets the batching policy.
    pub fn batch(mut self, batch: BatchPolicy) -> Self {
        self.config.batch = batch;
        self
    }

    /// Sets the maximum batch size in bytes (the paper's `BSZ`).
    pub fn batch_bytes(mut self, max_bytes: usize) -> Self {
        self.config.batch.max_bytes = max_bytes;
        self
    }

    /// Sets the retransmission policy.
    pub fn retransmit(mut self, retransmit: RetransmitPolicy) -> Self {
        self.config.retransmit = retransmit;
        self
    }

    /// Sets the number of ClientIO threads.
    pub fn client_io_threads(mut self, threads: usize) -> Self {
        self.config.client_io_threads = threads;
        self
    }

    /// Sets the RequestQueue capacity.
    pub fn request_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.request_queue_capacity = capacity;
        self
    }

    /// Sets the DispatcherQueue capacity.
    pub fn dispatcher_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.dispatcher_queue_capacity = capacity;
        self
    }

    /// Sets the DecisionQueue capacity.
    pub fn decision_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.decision_queue_capacity = capacity;
        self
    }

    /// Sets the per-peer send queue capacity.
    pub fn send_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.send_queue_capacity = capacity;
        self
    }

    /// Sets the per-ClientIO-thread reply queue capacity.
    pub fn reply_queue_capacity(mut self, capacity: usize) -> Self {
        self.config.reply_queue_capacity = capacity;
        self
    }

    /// Sets the heartbeat interval (must be > 0).
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.config.heartbeat_interval = interval;
        self
    }

    /// Sets the floor of the suspicion threshold.
    pub fn suspect_timeout(mut self, timeout: Duration) -> Self {
        self.config.suspect_timeout = timeout;
        self
    }

    /// Sets the number of reply-cache shards.
    pub fn reply_cache_shards(mut self, shards: usize) -> Self {
        self.config.reply_cache_shards = shards;
        self
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent (zero
    /// replicas, zero window, invalid batch policy, zero queue capacities,
    /// zero heartbeat interval, suspect timeout not larger than the
    /// heartbeat interval, …).
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        let c = &self.config;
        if c.n == 0 {
            return Err(ConfigError::invalid(
                "cluster must have at least one replica",
            ));
        }
        if c.window == 0 {
            return Err(ConfigError::invalid("window (WND) must be > 0"));
        }
        c.batch.validate()?;
        if c.client_io_threads == 0 {
            return Err(ConfigError::invalid("client_io_threads must be > 0"));
        }
        for (name, cap) in [
            ("request_queue_capacity", c.request_queue_capacity),
            ("dispatcher_queue_capacity", c.dispatcher_queue_capacity),
            ("decision_queue_capacity", c.decision_queue_capacity),
            ("send_queue_capacity", c.send_queue_capacity),
            ("reply_queue_capacity", c.reply_queue_capacity),
        ] {
            if cap == 0 {
                return Err(ConfigError::invalid(format!("{name} must be > 0")));
            }
        }
        // The Protocol thread waits for input at most until its next
        // tick, `heartbeat_interval / 2` away: zero would make it spin.
        if c.heartbeat_interval.is_zero() {
            return Err(ConfigError::invalid("heartbeat_interval must be > 0"));
        }
        if c.suspect_timeout <= c.heartbeat_interval {
            return Err(ConfigError::invalid(
                "suspect_timeout must exceed heartbeat_interval",
            ));
        }
        if c.reply_cache_shards == 0 {
            return Err(ConfigError::invalid("reply_cache_shards must be > 0"));
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ClusterConfig::new(3);
        assert_eq!(c.n(), 3);
        assert_eq!(c.window(), 10);
        assert_eq!(c.batch().max_bytes, 1300);
        assert_eq!(c.request_queue_capacity(), 1000);
    }

    #[test]
    fn builder_rejects_zero_heartbeat_interval() {
        let r = ClusterConfig::builder(3)
            .heartbeat_interval(Duration::ZERO)
            .suspect_timeout(Duration::from_millis(100))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn majority_and_faults() {
        for (n, maj, f) in [
            (1, 1, 0),
            (2, 2, 0),
            (3, 2, 1),
            (4, 3, 1),
            (5, 3, 2),
            (7, 4, 3),
        ] {
            let c = ClusterConfig::new(n);
            assert_eq!(c.majority(), maj, "n={n}");
            assert_eq!(c.max_faults(), f, "n={n}");
        }
    }

    #[test]
    fn builder_rejects_zero_replicas() {
        assert!(ClusterConfig::builder(0).build().is_err());
    }

    #[test]
    fn builder_rejects_zero_window() {
        assert!(ClusterConfig::builder(3).window(0).build().is_err());
    }

    #[test]
    fn reply_queue_capacity_round_trips_and_validates() {
        let c = ClusterConfig::builder(3)
            .reply_queue_capacity(128)
            .build()
            .unwrap();
        assert_eq!(c.reply_queue_capacity(), 128);
        assert_eq!(ClusterConfig::new(3).reply_queue_capacity(), 4096);
        assert!(ClusterConfig::builder(3)
            .reply_queue_capacity(0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_bad_batch() {
        let bad = BatchPolicy {
            max_bytes: 0,
            ..BatchPolicy::default()
        };
        assert!(ClusterConfig::builder(3).batch(bad).build().is_err());
    }

    #[test]
    fn builder_rejects_suspect_not_above_heartbeat() {
        let r = ClusterConfig::builder(3)
            .heartbeat_interval(Duration::from_millis(100))
            .suspect_timeout(Duration::from_millis(100))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn peers_excludes_self() {
        let c = ClusterConfig::new(3);
        let peers: Vec<_> = c.peers(ReplicaId(1)).collect();
        assert_eq!(peers, vec![ReplicaId(0), ReplicaId(2)]);
    }

    #[test]
    fn retransmit_backoff_caps() {
        let p = RetransmitPolicy::default();
        assert_eq!(p.interval(0), Duration::from_millis(100));
        assert_eq!(p.interval(1), Duration::from_millis(150));
        assert!(p.interval(20) <= p.max);
    }

    #[test]
    fn contains_checks_bounds() {
        let c = ClusterConfig::new(3);
        assert!(c.contains(ReplicaId(2)));
        assert!(!c.contains(ReplicaId(3)));
    }
}
