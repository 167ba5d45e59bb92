//! Pin a test's thread to one CPU, so that `Universe::run` derives one
//! worker thread for an `MPI_THREAD_SINGLE` job and every rank shares it.
//! (The same affinity calls as the repo benchmark's `pin.rs`.)

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the first CPU it may run on until dropped,
/// then gives it its old affinity back.
pub struct OneCpu(CpuSet);

pub fn one_cpu() -> OneCpu {
    let mut old: CpuSet = [0; 16];
    // SAFETY: `old` is a valid, writable cpu_set_t of the size passed; pid
    // 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut old) };
    assert_eq!(rc, 0, "sched_getaffinity");
    let cpu = (0..1024)
        .find(|c| old[c / 64] >> (c % 64) & 1 == 1)
        .unwrap();
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    assert_eq!(rc, 0, "sched_setaffinity");
    assert_eq!(
        litempi_fabric::task::workers(4096, true),
        1,
        "one CPU, one worker"
    );
    OneCpu(old)
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: the mask read in `one_cpu`, of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &self.0) };
    }
}
