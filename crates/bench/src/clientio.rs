//! ClientIO connection-scaling harness over real TCP sockets.
//!
//! A single replica (consensus over the in-memory fabric, so the client
//! path is the only variable) serves closed-loop TCP clients while a
//! configurable number of connected-but-silent TCP connections sit on
//! the same listener. ClientIO's readiness loop pays one `epoll_wait`
//! per wakeup however many connections it owns; sweeping the
//! idle-connection axis checks that claim by measurement (Fig. 9's
//! ClientIO axis, extended to connection count).

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smr_core::{NullService, ReplicaBuilder, SmrClient};
use smr_net::memory::MemoryHub;
use smr_net::tcp::{TcpClientEndpoint, TcpClientListener};
use smr_types::{BatchPolicy, ClientId, ClusterConfig, ReplicaId};

/// The batch delay of every sweep cell. At the 5 ms default each
/// closed-loop client waits out the batch timer on every request, so
/// every cell would read the same timer-bound rate whatever the pool
/// size or idle-connection count; 50 µs leaves ClientIO on the path.
const CELL_BATCH_TIMEOUT: Duration = Duration::from_micros(50);

/// One cell of the connection-scaling sweep.
#[derive(Debug, Clone, Copy)]
pub struct ClientIoCell {
    /// ClientIO pool size.
    pub pool: usize,
    /// Connected-but-silent TCP connections held open for the window.
    pub idle_conns: usize,
    /// Per-thread reply queue capacity.
    pub reply_capacity: usize,
    /// Closed-loop active clients driving load.
    pub active_clients: usize,
    /// Measurement window.
    pub window: Duration,
}

/// Runs one sweep cell: a single-replica cluster with a TCP client
/// listener, `idle_conns` silent connections, and
/// `active_clients` closed-loop TCP clients. Returns requests/second
/// over the window.
///
/// # Panics
///
/// Panics if the replica fails to start or a connection fails — the
/// harness runs against 127.0.0.1, so failures indicate bugs or fd
/// exhaustion, not environment flakiness worth recovering from.
pub fn clientio_tcp_run(cell: ClientIoCell) -> f64 {
    let config = ClusterConfig::builder(1)
        .client_io_threads(cell.pool)
        .reply_queue_capacity(cell.reply_capacity)
        .batch(BatchPolicy {
            timeout: CELL_BATCH_TIMEOUT,
            ..BatchPolicy::default()
        })
        .build()
        .expect("valid config");
    let hub = MemoryHub::new(1, 0xF1609);
    let listener = TcpClientListener::bind("127.0.0.1:0".parse().unwrap()).expect("bind listener");
    let addr = listener.local_addr().expect("local addr");

    let replica = ReplicaBuilder::new(ReplicaId(0), config)
        .with_network(Arc::new(hub.replica_network(ReplicaId(0))))
        .with_client_listener(Box::new(listener))
        .with_service(Box::new(NullService::default()))
        .start()
        .expect("replica starts");

    // Idle connections: opened before the timed window so the loop
    // carries them for the whole measurement. They never write a byte.
    let idle: Vec<TcpStream> = (0..cell.idle_conns)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();

    // Warm-up, then closed-loop clients for the window.
    let mut warm = tcp_client(ClientId(1), addr);
    for _ in 0..20 {
        warm.execute(&[0u8; 128]).expect("warm-up request");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..cell.active_clients)
        .map(|c| {
            let stop = Arc::clone(&stop);
            let mut client = tcp_client(ClientId(100 + c as u64), addr);
            std::thread::spawn(move || {
                let payload = [0u8; 128];
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if client.execute(&payload).is_err() {
                        break;
                    }
                    done += 1;
                }
                done
            })
        })
        .collect();
    let start = Instant::now();
    std::thread::sleep(cell.window);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let rps = total as f64 / start.elapsed().as_secs_f64();

    drop(idle);
    replica.shutdown();
    hub.shutdown();
    rps
}

fn tcp_client(id: ClientId, addr: SocketAddr) -> SmrClient {
    SmrClient::new(
        id,
        1,
        Box::new(move |_| TcpClientEndpoint::connect(addr).map(|ep| Box::new(ep) as _)),
    )
    .with_timeouts(Duration::from_millis(500), Duration::from_secs(20))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_requests_over_tcp() {
        let rps = clientio_tcp_run(ClientIoCell {
            pool: 1,
            idle_conns: 4,
            reply_capacity: 1024,
            active_clients: 2,
            window: Duration::from_millis(300),
        });
        assert!(rps > 0.0, "no requests moved");
    }
}
