//! Stands up an n-replica cluster with the benchmark's decorators on
//! every seam, over the in-memory fabric or loopback TCP, and gives the
//! benchmark what it needs from outside: client connections, the leader,
//! network crashes, state digests, and each replica's threads.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smr_core::{KvService, NullService, Replica, ReplicaBuilder, ShardedReplyCache};
use smr_net::memory::MemoryHub;
use smr_net::tcp::{TcpClientEndpoint, TcpClientListener, TcpReplicaNetwork};
use smr_net::{ClientEndpoint, ClientListener, ReplicaNetwork};
use smr_types::{ClusterConfig, ReplicaId};

use crate::gen::Connector;
use crate::sys;
use crate::trace::{StateHash, Tap, TracedCache, TracedListener, TracedNet, TracedService};

/// How replicas and clients are connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// The in-process memory fabric: no syscalls, no injected delay.
    Memory,
    /// Real TCP sockets on 127.0.0.1, for peers and clients.
    Tcp,
}

/// The replicated service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// `NullService`: 8-byte replies, no state.
    Null,
    /// `KvService`.
    Kv,
}

/// What to start.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Replicas.
    pub n: usize,
    /// Peer and client transport.
    pub transport: Transport,
    /// Write-ahead log and snapshots under `work_dir` (fsync'd).
    pub durable: bool,
    /// Service every replica runs.
    pub service: ServiceKind,
    /// Parent directory of the per-replica durable directories.
    pub work_dir: PathBuf,
}

/// A running cluster.
pub struct Cluster {
    /// Replica count.
    pub n: usize,
    replicas: Vec<Replica>,
    /// Per-replica decorator counters.
    pub taps: Vec<Arc<Tap>>,
    /// Switches counting on in every tap.
    pub trace_on: Arc<AtomicBool>,
    cuts: Vec<Arc<AtomicBool>>,
    hashes: Vec<StateHash>,
    hub: Option<MemoryHub>,
    client_addrs: Vec<SocketAddr>,
    /// Threads each replica started (diffed around its start).
    pub tids: Vec<Vec<u32>>,
    dirs: Vec<PathBuf>,
    /// The replica currently cut off, if any.
    pub crashed: Option<usize>,
}

fn free_addrs(n: usize) -> Result<Vec<SocketAddr>, String> {
    // Hold every listener until all ports are chosen so they differ.
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| format!("local_addr: {e}")))
        .collect()
}

/// Binds every replica's peer port before any replica starts. A port
/// found free can be taken before it is bound again (by any socket's
/// ephemeral port), so a failed attempt is retried on fresh ports.
fn bind_peers(n: usize) -> Result<Vec<TcpReplicaNetwork>, String> {
    let mut last = String::new();
    for _ in 0..5 {
        let addrs = free_addrs(n)?;
        let mut nets = Vec::new();
        for i in 0..n {
            match TcpReplicaNetwork::bind(ReplicaId(i as u16), addrs.clone()) {
                Ok(net) => nets.push(net),
                Err(e) => {
                    last = format!("replica {i}: bind peers: {e}");
                    break;
                }
            }
        }
        if nets.len() == n {
            return Ok(nets);
        }
        for net in nets {
            net.shutdown();
        }
    }
    Err(last)
}

impl Cluster {
    /// Starts every replica.
    ///
    /// # Errors
    ///
    /// When a socket cannot be bound, a directory cannot be made, or a
    /// replica fails to start.
    pub fn start(spec: &ClusterSpec) -> Result<Cluster, String> {
        let config = ClusterConfig::new(spec.n);
        let trace_on = Arc::new(AtomicBool::new(false));
        let hub =
            (spec.transport == Transport::Memory).then(|| MemoryHub::new(spec.n, 0xC0FF_EE00));
        let mut peer_nets = match spec.transport {
            Transport::Tcp => bind_peers(spec.n)?,
            Transport::Memory => Vec::new(),
        }
        .into_iter();
        let mut c = Cluster {
            n: spec.n,
            replicas: Vec::new(),
            taps: Vec::new(),
            trace_on: Arc::clone(&trace_on),
            cuts: Vec::new(),
            hashes: Vec::new(),
            hub,
            client_addrs: Vec::new(),
            tids: Vec::new(),
            dirs: Vec::new(),
            crashed: None,
        };
        for i in 0..spec.n {
            let id = ReplicaId(i as u16);
            let tap = Tap::new(Arc::clone(&trace_on));
            let cut = Arc::new(AtomicBool::new(false));
            let before = sys::task_ids();
            let (network, listener): (Arc<dyn ReplicaNetwork>, Box<dyn ClientListener>) = match &c
                .hub
            {
                Some(hub) => (
                    Arc::new(hub.replica_network(id)),
                    Box::new(hub.client_listener(id)),
                ),
                None => {
                    let net = peer_nets.next().expect("one peer network per replica");
                    let listener =
                        TcpClientListener::bind("127.0.0.1:0".parse().expect("loopback address"))
                            .map_err(|e| format!("replica {i}: bind clients: {e}"))?;
                    c.client_addrs.push(
                        listener
                            .local_addr()
                            .map_err(|e| format!("replica {i}: {e}"))?,
                    );
                    (Arc::new(net), Box::new(listener))
                }
            };
            let builder = ReplicaBuilder::new(id, config.clone())
                .with_network(Arc::new(TracedNet::new(
                    network,
                    Arc::clone(&tap),
                    Arc::clone(&cut),
                )))
                .with_client_listener(Box::new(TracedListener::new(listener, Arc::clone(&tap))))
                .with_reply_cache(Arc::new(TracedCache::new(
                    ShardedReplyCache::new(config.reply_cache_shards()),
                    Arc::clone(&tap),
                )));
            let (builder, hash) = match (spec.service, spec.durable) {
                (ServiceKind::Null, false) => {
                    let (s, h) = TracedService::new(NullService::default(), Arc::clone(&tap));
                    (builder.with_service(Box::new(s)), h)
                }
                (ServiceKind::Kv, false) => {
                    let (s, h) = TracedService::new(KvService::new(), Arc::clone(&tap));
                    (builder.with_service(Box::new(s)), h)
                }
                (ServiceKind::Kv, true) => {
                    let dir = spec.work_dir.join(format!("replica-{i}"));
                    let _ = std::fs::remove_dir_all(&dir);
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("create {}: {e}", dir.display()))?;
                    c.dirs.push(dir.clone());
                    let (s, h) = TracedService::new(KvService::new(), Arc::clone(&tap));
                    (
                        builder
                            .with_snapshot_service(Box::new(s))
                            .with_durability(dir),
                        h,
                    )
                }
                (ServiceKind::Null, true) => {
                    return Err("no workload runs the null service durably".into())
                }
            };
            let replica = builder
                .start()
                .map_err(|e| format!("replica {i} failed to start: {e}"))?;
            let after = sys::task_ids();
            c.tids
                .push(after.into_iter().filter(|t| !before.contains(t)).collect());
            c.replicas.push(replica);
            c.taps.push(tap);
            c.cuts.push(cut);
            c.hashes.push(hash);
        }
        Ok(c)
    }

    /// Opens client connections to any replica.
    pub fn connector(&self) -> Connector {
        match &self.hub {
            Some(hub) => {
                let hub = hub.clone();
                Arc::new(move |r| {
                    hub.connect_client(ReplicaId(r as u16))
                        .map(|ep| Box::new(ep) as Box<dyn ClientEndpoint>)
                })
            }
            None => {
                let addrs = self.client_addrs.clone();
                Arc::new(move |r| {
                    TcpClientEndpoint::connect(addrs[r])
                        .map(|ep| Box::new(ep) as Box<dyn ClientEndpoint>)
                })
            }
        }
    }

    /// A replica's runtime handle.
    pub fn replica(&self, r: usize) -> &Replica {
        &self.replicas[r]
    }

    /// The replica that considers itself leader in the highest view,
    /// ignoring a replica that is cut off.
    pub fn leader(&self) -> Option<usize> {
        (0..self.n)
            .filter(|&r| Some(r) != self.crashed && self.replicas[r].shared().is_leader())
            .max_by_key(|&r| self.replicas[r].shared().view())
    }

    /// Waits for a leader.
    pub fn wait_leader(&self, timeout: Duration) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(l) = self.leader() {
                return Some(l);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Cuts replica `r` off from its peers (its client side keeps
    /// working, so clients must notice on their own).
    pub fn crash(&mut self, r: usize) {
        match &self.hub {
            Some(hub) => hub.isolate(ReplicaId(r as u16), true),
            None => self.cuts[r].store(true, Ordering::SeqCst),
        }
        self.crashed = Some(r);
    }

    /// Reconnects the replica cut off by [`Cluster::crash`].
    pub fn heal(&mut self) {
        if let Some(r) = self.crashed.take() {
            match &self.hub {
                Some(hub) => hub.isolate(ReplicaId(r as u16), false),
                None => self.cuts[r].store(false, Ordering::SeqCst),
            }
        }
    }

    /// Every replica's `decided_upto`.
    pub fn decided(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.shared().decided_upto().0)
            .collect()
    }

    /// Waits until every replica has decided the same log and holds the
    /// same service state, and returns that state's digest.
    ///
    /// # Errors
    ///
    /// When they still differ at the deadline.
    pub fn converge(&self, timeout: Duration) -> Result<u64, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let decided = self.decided();
            let hashes: Vec<u64> = self.hashes.iter().map(|h| h()).collect();
            if decided.iter().all(|&d| d == decided[0]) && hashes.iter().all(|&h| h == hashes[0]) {
                return Ok(hashes[0]);
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "replicas disagree after {timeout:?}: decided_upto {decided:?}, state digests {hashes:x?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops every replica and removes the durable directories.
    pub fn shutdown(self) {
        for r in self.replicas {
            r.shutdown();
        }
        if let Some(hub) = self.hub {
            hub.shutdown();
        }
        for d in self.dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
