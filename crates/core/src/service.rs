//! The replicated service abstraction and ready-made services.
//!
//! The paper evaluates with a *null service* ("discards the payload of the
//! request and sends back a byte array of the size required") to isolate
//! the ordering path; real deployments replicate things like lock servers
//! (Chubby \[1\]) and coordination kernels (ZooKeeper \[2\]) — small,
//! CPU-light services for which the replication layer is the bottleneck.
//! This module ships all of those shapes.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::BytesMut;
use parking_lot::Mutex;

use smr_types::{key_hash, KeySet, SnapshotError};
use smr_wire::{WireReader, WireWriter};

/// A deterministic state machine replicated by the cluster.
///
/// Implementations must be deterministic: the reply and the state change
/// may depend only on the current state and the request payload, never on
/// time, randomness, or thread identity — every replica executes the same
/// sequence and must stay identical.
pub trait Service: Send + 'static {
    /// Executes one request and returns the reply payload.
    fn execute(&mut self, request: &[u8]) -> Vec<u8>;
}

/// A service whose full state can be summarized as a digest.
///
/// This is the shared root of the service trait family: both execution
/// modes ([`Service`] via [`SnapshotService`], [`ConflictAwareService`]
/// directly) hang off it, so determinism tests and recovery verification
/// use one method regardless of mode.
pub trait ServiceState {
    /// A deterministic, iteration-order-independent digest of the full
    /// service state. Replicas that executed the same decided order must
    /// report identical digests regardless of execution mode — this is
    /// what the determinism tests assert, and what crash recovery checks
    /// after restoring a snapshot.
    fn state_hash(&self) -> u64;
}

/// A sequential service that can serialize and restore its full state —
/// the substrate for durability, log compaction, and snapshot transfer.
///
/// The format of the blob is service-defined; the only contract is
/// `restore(snapshot()) == identity` (including [`ServiceState::state_hash`]),
/// on any replica.
pub trait SnapshotService: ServiceState {
    /// Serializes the full service state.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the service state with a previously captured snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when `bytes` is not a valid snapshot; the
    /// service state is unspecified afterwards and the replica must not
    /// continue executing.
    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// The shared-state counterpart of [`SnapshotService`], for services
/// executed through `Arc` handles (the parallel mode): restore takes
/// `&self` because the executor and the runtime share the service.
///
/// Every `Arc<impl SharedSnapshotService>` is automatically a
/// [`SnapshotService`] (see the blanket impl), so one implementation
/// serves both execution modes without duplicate impls. In parallel mode
/// the runtime keeps a second `Arc` handle on the service as
/// `Arc<dyn SharedSnapshotService + Send>` next to the executor's
/// `Arc<dyn ConflictAwareService>`.
///
/// Callers must quiesce execution (no in-flight commands) before calling
/// [`SharedSnapshotService::snapshot`] or
/// [`SharedSnapshotService::restore_shared`]; implementations are not
/// required to make either atomic with respect to concurrent execution.
/// The ServiceManager drains its executor before both.
pub trait SharedSnapshotService: ServiceState + Sync {
    /// Serializes the full service state.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the service state with a previously captured snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when `bytes` is not a valid snapshot.
    fn restore_shared(&self, bytes: &[u8]) -> Result<(), SnapshotError>;
}

/// The object-safe union the durable sequential runtime works with: a
/// service that both executes and snapshots. Blanket-implemented — never
/// implement it directly.
pub trait RecoverableService: Service + SnapshotService {}

impl<S: Service + SnapshotService> RecoverableService for S {}

impl<S: ServiceState + ?Sized> ServiceState for Arc<S> {
    fn state_hash(&self) -> u64 {
        (**self).state_hash()
    }
}

/// Sequential adapter: a shared snapshot service behind an `Arc` is also
/// a plain [`SnapshotService`] (restore delegates to the shared variant).
impl<S: SharedSnapshotService + ?Sized> SnapshotService for Arc<S> {
    fn snapshot(&self) -> Vec<u8> {
        SharedSnapshotService::snapshot(&**self)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        (**self).restore_shared(bytes)
    }
}

/// A [`Service`] that additionally declares, per command, which keys the
/// command touches — enabling dependency-aware parallel execution.
///
/// The parallel executor ([`crate::ParallelExecutor`]) serializes
/// commands whose [`KeySet`]s conflict (read/write or write/write on a
/// common key, or either set global) in decided-log order and runs
/// everything else concurrently on a worker pool. That is only sound if
/// the implementation upholds two contracts:
///
/// 1. **Footprint honesty** ([`ConflictAwareService::conflict_keys`]):
///    executing a command must read or write *only* state covered by the
///    keys it declared. Declaring too much costs parallelism; declaring
///    too little silently breaks replica determinism. When the footprint
///    cannot be determined from the payload, return [`KeySet::global`].
/// 2. **Conflict-serialized determinism**
///    ([`ConflictAwareService::execute`]): `execute` takes `&self` and is
///    called from several worker threads at once, but never concurrently
///    for two *conflicting* commands. Given that guarantee, the reply and
///    the state change must depend only on the current state of the
///    declared keys and the payload — exactly the [`Service`] determinism
///    rule, per key instead of per machine.
///
/// Any `Arc<impl ConflictAwareService>` is also a plain sequential
/// [`Service`] (see the blanket impl), so one implementation can run in
/// both execution modes and be compared for bit-identical state. The
/// state digest lives on the [`ServiceState`] supertrait, shared with
/// the sequential family.
pub trait ConflictAwareService: ServiceState + Send + Sync + 'static {
    /// Classifies one command: the keys it reads/writes, as hashes
    /// (use [`smr_types::key_hash`]). Must be a pure function of the
    /// payload.
    fn conflict_keys(&self, request: &[u8]) -> KeySet;

    /// Executes one request and returns the reply payload. Called
    /// concurrently, but never for two conflicting commands at once.
    fn execute(&self, request: &[u8]) -> Vec<u8>;
}

/// Sequential adapter: a shared conflict-aware service is also a plain
/// [`Service`], executing on the calling thread. This is what lets the
/// determinism tests run one implementation in both execution modes.
impl<S: ConflictAwareService + ?Sized> Service for Arc<S> {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        ConflictAwareService::execute(&**self, request)
    }
}

/// Combines one key/value pair into the commutative state digest used by
/// [`ServiceState::state_hash`] implementations. The per-entry
/// hashes are combined with `wrapping_add`, so the digest is independent
/// of map iteration order.
fn entry_hash(key: &[u8], value: &[u8]) -> u64 {
    key_hash(key)
        .rotate_left(17)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ key_hash(value)
}

/// A decoded snapshot entry list: `(key, value)` pairs.
type Entries = Vec<(Vec<u8>, Vec<u8>)>;

/// Serializes sorted `(key, value)` entries as a snapshot blob: `u32`
/// count, then a length-prefixed key and value per entry. Shared by
/// [`KvService`] and [`ConcurrentKvService`] so their snapshots are
/// interchangeable, and by the map-shaped demo services.
fn encode_entries(entries: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    let mut w = WireWriter::new(&mut buf);
    w.u32(entries.len() as u32);
    for (k, v) in entries {
        w.bytes(k);
        w.bytes(v);
    }
    buf.to_vec()
}

/// Inverse of [`encode_entries`].
fn decode_entries(bytes: &[u8]) -> Result<Entries, SnapshotError> {
    let mut r = WireReader::new(bytes);
    let parse = (|| {
        let count = r.u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let k = r.bytes()?;
            let v = r.bytes()?;
            entries.push((k, v));
        }
        r.finish("kv snapshot")?;
        Ok::<_, smr_wire::DecodeError>(entries)
    })();
    parse.map_err(|e| SnapshotError::new(e.to_string()))
}

impl<F> Service for F
where
    F: FnMut(&[u8]) -> Vec<u8> + Send + 'static,
{
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        self(request)
    }
}

/// The paper's evaluation service: ignores the request, replies with a
/// fixed-size byte array (8 bytes in the paper's workload).
#[derive(Debug, Clone)]
pub struct NullService {
    reply: Vec<u8>,
}

impl NullService {
    /// Creates a null service replying with `reply_size` zero bytes.
    pub fn new(reply_size: usize) -> Self {
        NullService {
            reply: vec![0u8; reply_size],
        }
    }
}

impl Default for NullService {
    fn default() -> Self {
        NullService::new(8)
    }
}

impl Service for NullService {
    fn execute(&mut self, _request: &[u8]) -> Vec<u8> {
        self.reply.clone()
    }
}

impl ServiceState for NullService {
    fn state_hash(&self) -> u64 {
        // The reply template is the entire state.
        key_hash(&self.reply)
    }
}

impl SnapshotService for NullService {
    fn snapshot(&self) -> Vec<u8> {
        self.reply.clone()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.reply = bytes.to_vec();
        Ok(())
    }
}

/// A replicated key-value store with a tiny binary command format.
///
/// Commands: `P <klen u16> key value` (put, replies previous value or
/// empty), `G <klen u16> key` (get), `D <klen u16> key` (delete).
/// Replies: `1 value` when a value is present, `0` otherwise.
#[derive(Debug, Default)]
pub struct KvService {
    map: HashMap<Vec<u8>, Vec<u8>>,
}

impl KvService {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvService::default()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Encodes a put command.
    pub fn put(key: &[u8], value: &[u8]) -> Vec<u8> {
        let mut cmd = vec![b'P'];
        cmd.extend_from_slice(&(key.len() as u16).to_le_bytes());
        cmd.extend_from_slice(key);
        cmd.extend_from_slice(value);
        cmd
    }

    /// Encodes a get command.
    pub fn get(key: &[u8]) -> Vec<u8> {
        let mut cmd = vec![b'G'];
        cmd.extend_from_slice(&(key.len() as u16).to_le_bytes());
        cmd.extend_from_slice(key);
        cmd
    }

    /// Encodes a delete command.
    pub fn delete(key: &[u8]) -> Vec<u8> {
        let mut cmd = vec![b'D'];
        cmd.extend_from_slice(&(key.len() as u16).to_le_bytes());
        cmd.extend_from_slice(key);
        cmd
    }

    /// Decodes a reply into the value it carries, if any.
    pub fn decode_value(reply: &[u8]) -> Option<Vec<u8>> {
        match reply.first() {
            Some(1) => Some(reply[1..].to_vec()),
            _ => None,
        }
    }

    /// Classifies a KV command for parallel execution: gets read their
    /// key, puts and deletes write it; anything unparseable is global
    /// (conflicts with everything), the conservative safe default.
    pub fn conflict_keys(request: &[u8]) -> KeySet {
        match Self::parse(request) {
            Some((b'G', key, _)) => KeySet::read(key_hash(key)),
            Some((b'P' | b'D', key, _)) => KeySet::write(key_hash(key)),
            _ => KeySet::global(),
        }
    }

    /// Every key/value pair, sorted by key — for test comparisons.
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<_> = self
            .map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        all.sort();
        all
    }

    fn parse(request: &[u8]) -> Option<(u8, &[u8], &[u8])> {
        if request.len() < 3 {
            return None;
        }
        let op = request[0];
        let klen = u16::from_le_bytes([request[1], request[2]]) as usize;
        if request.len() < 3 + klen {
            return None;
        }
        let key = &request[3..3 + klen];
        let rest = &request[3 + klen..];
        Some((op, key, rest))
    }

    fn found(value: &[u8]) -> Vec<u8> {
        let mut r = vec![1u8];
        r.extend_from_slice(value);
        r
    }
}

impl ServiceState for KvService {
    /// Same digest function as [`ConcurrentKvService`]'s, so the two
    /// implementations can be compared across execution modes.
    fn state_hash(&self) -> u64 {
        self.map.iter().fold(self.map.len() as u64, |acc, (k, v)| {
            acc.wrapping_add(entry_hash(k, v))
        })
    }
}

impl SnapshotService for KvService {
    /// Snapshots are byte-for-byte interchangeable with
    /// [`ConcurrentKvService`]'s: a sequential replica can restore a
    /// parallel peer's snapshot and vice versa.
    fn snapshot(&self) -> Vec<u8> {
        encode_entries(&self.entries())
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.map = decode_entries(bytes)?.into_iter().collect();
        Ok(())
    }
}

impl Service for KvService {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        match Self::parse(request) {
            Some((b'P', key, value)) => match self.map.insert(key.to_vec(), value.to_vec()) {
                Some(old) => Self::found(&old),
                None => vec![0u8],
            },
            Some((b'G', key, _)) => match self.map.get(key) {
                Some(v) => Self::found(v),
                None => vec![0u8],
            },
            Some((b'D', key, _)) => match self.map.remove(key) {
                Some(old) => Self::found(&old),
                None => vec![0u8],
            },
            _ => vec![0u8],
        }
    }
}

/// The replicated key-value store built for parallel execution: the same
/// command format and replies as [`KvService`], with the map sharded
/// under fine-grained locks so non-conflicting commands can execute
/// concurrently on the worker pool.
///
/// The per-shard locks are *not* what makes execution deterministic —
/// the parallel executor's dependency graph already serializes
/// conflicting commands in decided order. The locks only make concurrent
/// access to unrelated keys that share a shard memory-safe; which thread
/// wins such a race is irrelevant because racing commands never touch
/// the same key.
///
/// # Examples
///
/// ```
/// use smr_core::{ConcurrentKvService, KvService};
///
/// let kv = ConcurrentKvService::new(4);
/// use smr_core::ConflictAwareService;
/// assert_eq!(kv.execute(&KvService::put(b"k", b"v")), vec![0]);
/// assert_eq!(
///     KvService::decode_value(&kv.execute(&KvService::get(b"k"))),
///     Some(b"v".to_vec())
/// );
/// ```
#[derive(Debug)]
pub struct ConcurrentKvService {
    shards: Vec<Mutex<HashMap<Vec<u8>, Vec<u8>>>>,
}

impl Default for ConcurrentKvService {
    fn default() -> Self {
        ConcurrentKvService::new(16)
    }
}

impl ConcurrentKvService {
    /// Creates an empty store with `shards` independently locked shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ConcurrentKvService {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<HashMap<Vec<u8>, Vec<u8>>> {
        &self.shards[(key_hash(key) >> 32) as usize % self.shards.len()]
    }

    /// Number of keys stored, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every key/value pair, sorted by key — for test comparisons
    /// against [`KvService::entries`].
    pub fn entries(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut all: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for shard in &self.shards {
            let map = shard.lock();
            all.extend(map.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        all.sort();
        all
    }
}

impl ConflictAwareService for ConcurrentKvService {
    fn conflict_keys(&self, request: &[u8]) -> KeySet {
        KvService::conflict_keys(request)
    }

    fn execute(&self, request: &[u8]) -> Vec<u8> {
        match KvService::parse(request) {
            Some((b'P', key, value)) => {
                let mut shard = self.shard(key).lock();
                match shard.insert(key.to_vec(), value.to_vec()) {
                    Some(old) => KvService::found(&old),
                    None => vec![0u8],
                }
            }
            Some((b'G', key, _)) => {
                let shard = self.shard(key).lock();
                match shard.get(key) {
                    Some(v) => KvService::found(v),
                    None => vec![0u8],
                }
            }
            Some((b'D', key, _)) => {
                let mut shard = self.shard(key).lock();
                match shard.remove(key) {
                    Some(old) => KvService::found(&old),
                    None => vec![0u8],
                }
            }
            _ => vec![0u8],
        }
    }
}

impl ServiceState for ConcurrentKvService {
    fn state_hash(&self) -> u64 {
        let mut acc = 0u64;
        let mut count = 0u64;
        for shard in &self.shards {
            let map = shard.lock();
            count += map.len() as u64;
            for (k, v) in map.iter() {
                acc = acc.wrapping_add(entry_hash(k, v));
            }
        }
        count.wrapping_add(acc)
    }
}

impl SharedSnapshotService for ConcurrentKvService {
    /// Snapshots are byte-for-byte interchangeable with [`KvService`]'s.
    fn snapshot(&self) -> Vec<u8> {
        encode_entries(&self.entries())
    }

    fn restore_shared(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let entries = decode_entries(bytes)?;
        for shard in &self.shards {
            shard.lock().clear();
        }
        for (k, v) in entries {
            self.shard(&k).lock().insert(k, v);
        }
        Ok(())
    }
}

/// A Chubby-style replicated lock service.
///
/// Commands: `A <name>` acquire, `R <name>` release, `Q <name>` query.
/// The owner is the requesting client id, embedded in the command by
/// [`LockService::acquire`]. Replies: `1` success / lock held by you,
/// `0` failure / free.
#[derive(Debug, Default)]
pub struct LockService {
    /// lock name → owner token.
    locks: HashMap<Vec<u8>, u64>,
}

impl LockService {
    /// Creates a lock service with no locks held.
    pub fn new() -> Self {
        LockService::default()
    }

    /// Encodes an acquire command for `owner`.
    pub fn acquire(name: &[u8], owner: u64) -> Vec<u8> {
        let mut cmd = vec![b'A'];
        cmd.extend_from_slice(&owner.to_le_bytes());
        cmd.extend_from_slice(name);
        cmd
    }

    /// Encodes a release command for `owner`.
    pub fn release(name: &[u8], owner: u64) -> Vec<u8> {
        let mut cmd = vec![b'R'];
        cmd.extend_from_slice(&owner.to_le_bytes());
        cmd.extend_from_slice(name);
        cmd
    }

    /// Encodes a query command.
    pub fn query(name: &[u8]) -> Vec<u8> {
        let mut cmd = vec![b'Q'];
        cmd.extend_from_slice(&0u64.to_le_bytes());
        cmd.extend_from_slice(name);
        cmd
    }

    /// Whether a reply indicates success.
    pub fn granted(reply: &[u8]) -> bool {
        reply.first() == Some(&1)
    }
}

impl Service for LockService {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        if request.len() < 9 {
            return vec![0u8];
        }
        let op = request[0];
        let owner = u64::from_le_bytes(request[1..9].try_into().expect("8 bytes"));
        let name = request[9..].to_vec();
        let ok = match op {
            b'A' => match self.locks.get(&name) {
                None => {
                    self.locks.insert(name, owner);
                    true
                }
                Some(current) => *current == owner, // re-entrant
            },
            b'R' => match self.locks.get(&name) {
                Some(current) if *current == owner => {
                    self.locks.remove(&name);
                    true
                }
                _ => false,
            },
            b'Q' => self.locks.contains_key(&name),
            _ => false,
        };
        vec![u8::from(ok)]
    }
}

impl ServiceState for LockService {
    fn state_hash(&self) -> u64 {
        self.locks
            .iter()
            .fold(self.locks.len() as u64, |acc, (name, owner)| {
                acc.wrapping_add(entry_hash(name, &owner.to_le_bytes()))
            })
    }
}

impl SnapshotService for LockService {
    fn snapshot(&self) -> Vec<u8> {
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = self
            .locks
            .iter()
            .map(|(name, owner)| (name.clone(), owner.to_le_bytes().to_vec()))
            .collect();
        entries.sort();
        encode_entries(&entries)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut locks = HashMap::new();
        for (name, owner) in decode_entries(bytes)? {
            let owner: [u8; 8] = owner
                .as_slice()
                .try_into()
                .map_err(|_| SnapshotError::new("lock owner is not 8 bytes"))?;
            locks.insert(name, u64::from_le_bytes(owner));
        }
        self.locks = locks;
        Ok(())
    }
}

/// A coordination-kernel primitive: named monotone sequencers
/// (ZooKeeper's sequential znodes in miniature).
///
/// Command: the sequencer name; reply: the next value (u64 LE), unique
/// and gap-free per name across the whole cluster.
#[derive(Debug, Default)]
pub struct SequencerService {
    counters: HashMap<Vec<u8>, u64>,
}

impl SequencerService {
    /// Creates a sequencer service with all counters at zero.
    pub fn new() -> Self {
        SequencerService::default()
    }

    /// Decodes a reply into the assigned sequence number.
    pub fn decode(reply: &[u8]) -> Option<u64> {
        reply.try_into().ok().map(u64::from_le_bytes)
    }
}

impl Service for SequencerService {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        let counter = self.counters.entry(request.to_vec()).or_insert(0);
        let value = *counter;
        *counter += 1;
        value.to_le_bytes().to_vec()
    }
}

impl ServiceState for SequencerService {
    fn state_hash(&self) -> u64 {
        self.counters
            .iter()
            .fold(self.counters.len() as u64, |acc, (name, next)| {
                acc.wrapping_add(entry_hash(name, &next.to_le_bytes()))
            })
    }
}

impl SnapshotService for SequencerService {
    fn snapshot(&self) -> Vec<u8> {
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = self
            .counters
            .iter()
            .map(|(name, next)| (name.clone(), next.to_le_bytes().to_vec()))
            .collect();
        entries.sort();
        encode_entries(&entries)
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut counters = HashMap::new();
        for (name, next) in decode_entries(bytes)? {
            let next: [u8; 8] = next
                .as_slice()
                .try_into()
                .map_err(|_| SnapshotError::new("sequencer counter is not 8 bytes"))?;
            counters.insert(name, u64::from_le_bytes(next));
        }
        self.counters = counters;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_service_fixed_reply() {
        let mut s = NullService::new(8);
        assert_eq!(s.execute(b"whatever").len(), 8);
        assert_eq!(s.execute(b"").len(), 8);
    }

    #[test]
    fn closure_is_a_service() {
        let mut s = |req: &[u8]| req.to_vec();
        assert_eq!(Service::execute(&mut s, b"echo"), b"echo");
    }

    #[test]
    fn kv_put_get_delete() {
        let mut kv = KvService::new();
        assert_eq!(kv.execute(&KvService::put(b"k", b"v1")), vec![0]);
        assert_eq!(kv.execute(&KvService::get(b"k")), KvService::found(b"v1"));
        assert_eq!(
            kv.execute(&KvService::put(b"k", b"v2")),
            KvService::found(b"v1")
        );
        assert_eq!(
            kv.execute(&KvService::delete(b"k")),
            KvService::found(b"v2")
        );
        assert_eq!(kv.execute(&KvService::get(b"k")), vec![0]);
        assert!(kv.is_empty());
    }

    #[test]
    fn kv_decode_value() {
        assert_eq!(KvService::decode_value(&[1, b'x']), Some(vec![b'x']));
        assert_eq!(KvService::decode_value(&[0]), None);
        assert_eq!(KvService::decode_value(&[]), None);
    }

    #[test]
    fn kv_garbage_request_is_harmless() {
        let mut kv = KvService::new();
        assert_eq!(kv.execute(b""), vec![0]);
        assert_eq!(kv.execute(&[b'P', 255, 255, 0]), vec![0]);
    }

    #[test]
    fn lock_lifecycle() {
        let mut s = LockService::new();
        assert!(LockService::granted(
            &s.execute(&LockService::acquire(b"L", 1))
        ));
        assert!(
            LockService::granted(&s.execute(&LockService::acquire(b"L", 1))),
            "re-entrant"
        );
        assert!(!LockService::granted(
            &s.execute(&LockService::acquire(b"L", 2))
        ));
        assert!(!LockService::granted(
            &s.execute(&LockService::release(b"L", 2))
        ));
        assert!(LockService::granted(
            &s.execute(&LockService::release(b"L", 1))
        ));
        assert!(LockService::granted(
            &s.execute(&LockService::acquire(b"L", 2))
        ));
    }

    #[test]
    fn lock_query() {
        let mut s = LockService::new();
        assert!(!LockService::granted(&s.execute(&LockService::query(b"L"))));
        s.execute(&LockService::acquire(b"L", 7));
        assert!(LockService::granted(&s.execute(&LockService::query(b"L"))));
    }

    #[test]
    fn sequencer_is_gap_free_per_name() {
        let mut s = SequencerService::new();
        assert_eq!(SequencerService::decode(&s.execute(b"a")), Some(0));
        assert_eq!(SequencerService::decode(&s.execute(b"a")), Some(1));
        assert_eq!(SequencerService::decode(&s.execute(b"b")), Some(0));
        assert_eq!(SequencerService::decode(&s.execute(b"a")), Some(2));
    }

    #[test]
    fn kv_snapshot_restore_roundtrip() {
        let mut kv = KvService::new();
        for i in 0..20u64 {
            kv.execute(&KvService::put(&i.to_le_bytes(), &(i * i).to_le_bytes()));
        }
        let blob = kv.snapshot();
        let mut restored = KvService::new();
        restored.restore(&blob).unwrap();
        assert_eq!(restored.entries(), kv.entries());
        assert_eq!(restored.state_hash(), kv.state_hash());
    }

    #[test]
    fn kv_snapshots_interchange_across_modes() {
        let mut seq = KvService::new();
        let par = ConcurrentKvService::new(4);
        for i in 0..20u64 {
            let cmd = KvService::put(&i.to_le_bytes(), b"value");
            seq.execute(&cmd);
            ConflictAwareService::execute(&par, &cmd);
        }
        assert_eq!(seq.state_hash(), par.state_hash());
        // Sequential snapshot restores into the parallel store…
        let fresh = ConcurrentKvService::new(7);
        fresh.restore_shared(&seq.snapshot()).unwrap();
        assert_eq!(fresh.state_hash(), seq.state_hash());
        assert_eq!(fresh.entries(), seq.entries());
        // …and the parallel snapshot restores into the sequential one.
        let mut back = KvService::new();
        back.restore(&SharedSnapshotService::snapshot(&par))
            .unwrap();
        assert_eq!(back.state_hash(), par.state_hash());
    }

    #[test]
    fn restore_replaces_existing_state() {
        let mut kv = KvService::new();
        kv.execute(&KvService::put(b"stale", b"state"));
        let mut reference = KvService::new();
        reference.execute(&KvService::put(b"k", b"v"));
        kv.restore(&reference.snapshot()).unwrap();
        assert_eq!(kv.entries(), reference.entries());
    }

    #[test]
    fn garbage_snapshot_rejected() {
        let mut kv = KvService::new();
        assert!(kv.restore(&[1, 2, 3]).is_err());
        let fresh = ConcurrentKvService::new(2);
        assert!(fresh.restore_shared(&[9, 9]).is_err());
    }

    #[test]
    fn arc_adapter_snapshots_shared_service() {
        let mut arc: Arc<ConcurrentKvService> = Arc::new(ConcurrentKvService::new(2));
        Service::execute(&mut arc, &KvService::put(b"k", b"v"));
        let blob = SnapshotService::snapshot(&arc);
        let mut restored = KvService::new();
        restored.restore(&blob).unwrap();
        assert_eq!(restored.state_hash(), arc.state_hash());
    }

    #[test]
    fn lock_snapshot_roundtrip() {
        let mut s = LockService::new();
        s.execute(&LockService::acquire(b"a", 1));
        s.execute(&LockService::acquire(b"b", 2));
        let mut restored = LockService::new();
        restored.restore(&s.snapshot()).unwrap();
        assert_eq!(restored.state_hash(), s.state_hash());
        assert!(LockService::granted(
            &restored.execute(&LockService::query(b"a"))
        ));
    }

    #[test]
    fn sequencer_snapshot_roundtrip() {
        let mut s = SequencerService::new();
        s.execute(b"a");
        s.execute(b"a");
        s.execute(b"b");
        let mut restored = SequencerService::new();
        restored.restore(&s.snapshot()).unwrap();
        assert_eq!(restored.state_hash(), s.state_hash());
        // The restored counter continues where the original left off.
        assert_eq!(SequencerService::decode(&restored.execute(b"a")), Some(2));
    }

    #[test]
    fn null_service_snapshot_roundtrip() {
        let s = NullService::new(16);
        let mut restored = NullService::new(1);
        restored.restore(&s.snapshot()).unwrap();
        assert_eq!(restored.state_hash(), s.state_hash());
        assert_eq!(restored.execute(b"x").len(), 16);
    }
}
