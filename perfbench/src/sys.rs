//! What the benchmark reads from the operating system: process CPU time,
//! peak memory, per-thread CPU and context switches from
//! `/proc/self/task`, and the host facts recorded with every run.

use std::collections::BTreeMap;
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_MMAP_THRESHOLD` in glibc's `mallopt`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc's mmap threshold at its documented default (128 KiB). Left
/// dynamic, the threshold rises to the size of the largest mapped block
/// freed so far, after which large buffers (snapshots, batches) land in
/// the heaps, and the resident set depends on the order in which they
/// happened to be freed.
pub fn pin_mmap_threshold() {
    // SAFETY: mallopt only sets an allocator parameter; it is called once,
    // before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Hands memory the allocator holds but no longer uses back to the
/// kernel, so what torn-down clusters left behind does not count in the
/// next window's resident set.
pub fn release_free_memory() {
    // SAFETY: glibc's malloc_trim takes a byte count, touches only the
    // allocator's own free lists, and is safe to call from any thread at
    // any time.
    unsafe {
        malloc_trim(0);
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (every thread, live or
/// exited), in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field(Path::new("/proc/self/status"), "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Current peak resident set size (`VmHWM`) in MiB, then resets the
/// peak to the current resident size, so the next reading is the peak
/// since now.
pub fn take_peak_rss_mb() -> f64 {
    let peak = peak_rss_mb();
    // Writing 5 to clear_refs resets VmHWM (Linux >= 4.0); where that is
    // refused the next reading is the peak since process start.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    peak
}

/// Host-wide CPU ticks since boot: (all, stolen by the hypervisor).
pub fn host_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// On-CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    read_schedstat(Path::new("/proc/thread-self/schedstat")).unwrap_or(0)
}

fn read_schedstat(path: &Path) -> Option<u64> {
    std::fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn status_field(path: &Path, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Thread ids of the process right now.
pub fn task_ids() -> Vec<u32> {
    let mut ids: Vec<u32> = std::fs::read_dir("/proc/self/task")
        .map(|rd| {
            rd.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// One thread's counters at one instant.
#[derive(Debug, Clone, Default)]
pub struct TaskSample {
    /// Thread name (`comm`, at most 15 bytes).
    pub name: String,
    /// On-CPU nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary context switches: how often the thread blocked and was
    /// woken again.
    pub wakeups: u64,
}

/// Samples the given threads; threads that have exited are skipped.
pub fn sample_tasks(tids: &[u32]) -> BTreeMap<u32, TaskSample> {
    tids.iter()
        .filter_map(|&tid| {
            let dir = format!("/proc/self/task/{tid}");
            let dir = Path::new(&dir);
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            Some((
                tid,
                TaskSample {
                    name: name.trim().to_string(),
                    cpu_ns: read_schedstat(&dir.join("schedstat"))?,
                    wakeups: status_field(&dir.join("status"), "voluntary_ctxt_switches:")?,
                },
            ))
        })
        .collect()
}

/// Host facts recorded with every run.
#[derive(Debug, Clone)]
pub struct Host {
    /// `available_parallelism`.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
}

impl Host {
    /// Reads the host facts.
    pub fn probe() -> Self {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        }
    }
}

/// File system type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mnt, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Bytes this process has caused to be written to the storage layer
/// (`write_bytes` in `/proc/self/io`): what actually reached the disk
/// path, as opposed to what the program says it appended.
pub fn io_write_bytes() -> u64 {
    status_field(Path::new("/proc/self/io"), "write_bytes:").unwrap_or(0)
}
