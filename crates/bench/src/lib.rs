//! Shared plumbing for the experiment binaries: table rendering and
//! series printing in the paper's units, plus the contended-queue
//! harnesses shared by the criterion benches and `bench_snapshot` (so
//! the committed `BENCH_PRn.json` trajectory and `cargo bench` always
//! measure the same workload).
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper and prints the same rows or series the paper plots.

use std::fmt::Write as _;
use std::time::Duration;

use smr_queue::{BoundedQueue, MutexBoundedQueue, PopError};

mod clientio;
mod exec;
mod recovery;

pub use clientio::{clientio_tcp_run, ClientIoCell};
pub use exec::{exec_parallel, exec_sequential, CpuHashService};
pub use recovery::{recovery_replay, snapshot_restore, snapshot_write};

/// Uncontended harness: `pairs` scalar push+pop round trips on one
/// thread. Returns `(items_moved, elapsed)`.
pub fn queue_uncontended_scalar(pairs: u64) -> (u64, Duration) {
    let q = BoundedQueue::new("uncontended", 1024);
    let start = std::time::Instant::now();
    for i in 0..pairs {
        q.push(i).unwrap();
        std::hint::black_box(q.pop().unwrap());
    }
    (pairs, start.elapsed())
}

/// Uncontended harness: moves `items` items through the bulk API in
/// bursts of `burst` (`push_many` then `try_pop_all` into a reused
/// buffer). Returns `(items_moved, elapsed)`.
pub fn queue_uncontended_bulk(items: u64, burst: u64) -> (u64, Duration) {
    // Capacity must hold a full burst: a single-threaded push_many on a
    // smaller queue would block forever waiting for a consumer.
    let q = BoundedQueue::new("uncontended", 1024.max(burst as usize));
    let mut buf: Vec<u64> = Vec::with_capacity(burst as usize);
    let mut moved = 0u64;
    let start = std::time::Instant::now();
    while moved < items {
        let n = burst.min(items - moved);
        q.push_many(std::hint::black_box(0..n)).unwrap();
        q.try_pop_all(&mut buf).unwrap();
        std::hint::black_box(&buf);
        buf.clear();
        moved += n;
    }
    (moved, start.elapsed())
}

/// Stamps out the contended MPMC harnesses for one queue core. The ring
/// ([`BoundedQueue`]) and the retained mutex reference core
/// ([`MutexBoundedQueue`]) expose the same API, so one body serves
/// both — and `bench_snapshot` can measure ring vs mutex in a single
/// run on the same machine, making the speedup a same-file ratio.
macro_rules! mpmc_harnesses {
    ($scalar:ident, $bulk:ident, $Q:ident, $core:literal) => {
        #[doc = concat!(
                                    "Contended MPMC harness (", $core, " core): 4 producers and 4 \
             consumers move at least `items` items through one \
             capacity-1024 queue with scalar ops (`push`/`pop`). \
             Returns `(items_moved, elapsed)`."
                                )]
        pub fn $scalar(items: u64) -> (u64, Duration) {
            let q = $Q::new("mpmc4x4", 1024);
            let per = items.div_ceil(4);
            let start = std::time::Instant::now();
            let producers: Vec<_> = (0..4)
                .map(|_| {
                    let q = q.clone();
                    std::thread::spawn(move || {
                        for i in 0..per {
                            q.push(i).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = q.clone();
                    std::thread::spawn(move || while q.pop().is_ok() {})
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            q.close();
            for c in consumers {
                c.join().unwrap();
            }
            (per * 4, start.elapsed())
        }

        #[doc = concat!(
                                    "Same shape as the scalar ", $core, "-core harness but on the \
             bulk API: producers `push_many` bursts of `burst`, consumers \
             drain via `pop_wait_all`. Returns `(items_moved, elapsed)`."
                                )]
        pub fn $bulk(items: u64, burst: u64) -> (u64, Duration) {
            let q = $Q::new("mpmc4x4", 1024);
            let per = items.div_ceil(4);
            let start = std::time::Instant::now();
            let producers: Vec<_> = (0..4)
                .map(|_| {
                    let q = q.clone();
                    std::thread::spawn(move || {
                        let mut i = 0;
                        while i < per {
                            let end = (i + burst).min(per);
                            q.push_many(i..end).unwrap();
                            i = end;
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let q = q.clone();
                    std::thread::spawn(move || {
                        let mut buf = Vec::with_capacity(1024);
                        while let Ok(_) | Err(PopError::Empty) =
                            q.pop_wait_all(&mut buf, 1024, Duration::from_millis(50))
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
            (per * 4, start.elapsed())
        }
    };
}

mpmc_harnesses!(mpmc_4x4_scalar, mpmc_4x4_bulk, BoundedQueue, "ring");
mpmc_harnesses!(
    mpmc_4x4_scalar_mutex,
    mpmc_4x4_bulk_mutex,
    MutexBoundedQueue,
    "mutex"
);

/// Renders a simple aligned table.
///
/// # Examples
///
/// ```
/// let table = smr_bench::render_table(
///     &["cores", "req/s"],
///     &[vec!["1".to_string(), "15000".to_string()]],
/// );
/// assert!(table.contains("cores"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "{:>w$}  ", h, w = widths[i]);
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        let _ = write!(out, "{}  ", "-".repeat(widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "{:>w$}  ", cell, w = widths[i]);
        }
        out.push('\n');
    }
    out
}

/// Formats a float with `digits` decimals.
pub fn fmt(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Formats requests/s as the paper's "x1000" unit.
pub fn kreq(v: f64) -> String {
    format!("{:.1}", v / 1000.0)
}

/// Prints a figure/table banner.
pub fn banner(title: &str, what: &str) {
    println!("==================================================================");
    println!("{title}");
    println!("  {what}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn kreq_matches_paper_unit() {
        assert_eq!(kreq(100_000.0), "100.0");
    }

    #[test]
    fn mpmc_harnesses_move_all_items() {
        let (n, elapsed) = mpmc_4x4_scalar(1000);
        assert!(n >= 1000 && n % 4 == 0);
        assert!(elapsed > Duration::ZERO);
        let (n, elapsed) = mpmc_4x4_bulk(1000, 64);
        assert!(n >= 1000 && n % 4 == 0);
        assert!(elapsed > Duration::ZERO);
    }

    #[test]
    fn mutex_core_harnesses_move_all_items() {
        let (n, elapsed) = mpmc_4x4_scalar_mutex(1000);
        assert!(n >= 1000 && n % 4 == 0);
        assert!(elapsed > Duration::ZERO);
        let (n, elapsed) = mpmc_4x4_bulk_mutex(1000, 64);
        assert!(n >= 1000 && n % 4 == 0);
        assert!(elapsed > Duration::ZERO);
    }
}
