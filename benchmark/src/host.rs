//! What the harness reads from the host: CPU clocks, peak resident set,
//! core count and the commit of the checkout.

use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
}

// Linux clock ids (this benchmark runs on Linux x86-64 / aarch64 only).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this runs on) and the clock id
    // is one of the two constants above.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Arenas glibc's malloc may create. Its default is eight per core, and
/// whether a run's threads ever open a fifth one is a matter of timing:
/// `td2_explicit` ended at 60 or at 63 MB. With four, the peak resident
/// set repeats within 1.2% and round times do not move; with one or two
/// they rise by 5–15% (the threads queue for the arena).
pub const MALLOC_ARENAS: i32 = 4;

/// Cap glibc malloc's arena count at [`MALLOC_ARENAS`]; call before any
/// thread is started. False where the allocator is not glibc's or refused.
pub fn cap_malloc_arenas() -> bool {
    #[cfg(target_env = "gnu")]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only stores the value in malloc's parameters.
        unsafe { mallopt(M_ARENA_MAX, MALLOC_ARENAS) == 1 }
    }
    #[cfg(not(target_env = "gnu"))]
    false
}

/// A `cpu_set_t`: 1024 bits.
pub type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on.
pub fn affinity() -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable buffer of the size passed; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Let the calling thread, and every thread it starts from now on, run on
/// the CPUs of `mask` only. False if the kernel refused.
pub fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

/// The CPU the calling thread is running on.
pub fn current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    usize::try_from(unsafe { sched_getcpu() }).ok()
}

/// The set that holds `cpu` alone.
pub fn only(cpu: usize) -> Option<CpuSet> {
    let mut mask: CpuSet = [0; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    Some(mask)
}

/// CPU time of all threads of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// `VmHWM` of this process in MB (the peak resident set so far).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; the driver's checkout is not a repository
/// and reports `unknown`.
pub fn commit() -> String {
    read_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => {
            if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
                return Some(hash.trim().to_string());
            }
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        }
    }
}

/// Names of the `XDB_*` variables that are set. Ten of them switch
/// library code paths, so the harness refuses to run under any.
pub fn xdb_variables() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("XDB_"))
        .collect();
    names.sort();
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(x != 0);
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
    }

    #[test]
    fn pinning_leaves_one_cpu_to_the_thread_and_its_children() {
        // Affinity is per thread: pin a thread of our own, not the test
        // runner's.
        std::thread::spawn(|| {
            let all = affinity().expect("affinity is readable on Linux");
            let cpus = nproc();
            let cpu = current_cpu().expect("the CPU is readable on Linux");
            assert!(set_affinity(&only(cpu).expect("a CPU below 1024")));
            assert_eq!(nproc(), 1);
            assert_eq!(current_cpu(), Some(cpu));
            let inherited = std::thread::spawn(nproc).join().expect("child ran");
            assert_eq!(inherited, 1, "threads started later inherit the mask");
            assert!(set_affinity(&all));
            assert_eq!(nproc(), cpus, "and the former mask can be restored");
        })
        .join()
        .expect("pinned thread ran");
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().unwrap() > 1.0);
    }
}
