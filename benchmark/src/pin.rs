//! Pin the process to one CPU before any thread exists.
//!
//! Rank threads inherit the mask, so exactly one of them runs at a time
//! and a measured time is CPU work plus context switches — the software
//! path length — instead of whatever the host scheduler does with two
//! cores and 2–64 runnable threads (README.md, "Rules that make it repeat").

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs this process may run on, ascending. Empty when the platform has
/// no affinity call or the call failed.
pub fn allowed_cpus() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a valid, writable cpu_set_t of the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if rc == 0 {
            return (0..1024)
                .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
        }
    }
    Vec::new()
}

/// Pin the calling thread (the only one, at start-up) to the
/// highest-numbered allowed CPU and return it.
pub fn pin_to_last_cpu() -> Result<usize, String> {
    let cpu = *allowed_cpus()
        .last()
        .ok_or("sched_getaffinity is unavailable or failed")?;
    #[cfg(target_os = "linux")]
    {
        let mut set: CpuSet = [0; 16];
        set[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `set` is a valid cpu_set_t of the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
        if rc != 0 {
            return Err(format!("sched_setaffinity(cpu {cpu}) failed"));
        }
    }
    Ok(cpu)
}
