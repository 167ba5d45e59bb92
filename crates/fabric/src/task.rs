//! Ranks as user-level tasks: the job runtime's threads and who runs next.
//!
//! [`run`] runs one body per rank on W worker threads. A worker that hosts
//! one rank runs it on its own stack, exactly like a thread per rank. A
//! worker that hosts several gives each its own stack and switches between
//! them in user space: a rank whose wait polls empty calls [`pause`], which
//! saves its registers and resumes the worker's scheduler loop, which picks
//! the next rank to run. The switch is a few loads and stores (about 15 ns)
//! where a hand-off between two OS threads on one CPU costs 600–900 ns.
//!
//! **How many workers.** Ranks that may share a thread (an
//! `MPI_THREAD_SINGLE` job) get one worker per CPU the process may run on,
//! at most one per rank; `available_parallelism` reads the affinity mask,
//! so a job pinned to one CPU runs every rank on one thread. Ranks that may
//! block their thread on threads of their own (`MPI_THREAD_MULTIPLE`), and
//! every target without a switch routine (only x86_64 has one), get one
//! worker per rank.
//!
//! **Where a rank switches.** Only in [`pause`], which the stack calls in
//! four places: `Endpoint::wait_until` (every blocking call), the drain
//! loop of `Endpoint::quiesce`, the rendezvous hand-off after a pull, and
//! an MPI polling call (`test`, `iprobe`, …) that answers "not yet". A
//! switch never happens with a lock held (debug builds count the live
//! `parking_lot` guards and assert). A rank never moves to another worker.
//!
//! **What a rank takes along.** The thread-locals that belong to a rank —
//! its instruction and allocation counters (`litempi-instr`) and its trace
//! recorder (`litempi-trace`) — are swapped in when it is switched in and
//! out when it is switched out. (The RMA layer's held-lock list is
//! thread-local too, but keyed by a window handle only one rank owns, so
//! ranks sharing a thread never see each other's entries.)
//!
//! **Who runs next.** A pausing rank hands the thread straight to the next
//! rank after it, in rank order, whose endpoint's completion epoch moved
//! since that rank paused — a delivery for it. When there is none, the
//! worker's scheduler loop polls every rank once (a forced sweep: that is
//! what notices an RMA lock word freed without an event, and what fires
//! retransmit timers). When forced sweeps find nothing to do
//! `QUIET_SWEEPS` times in a row, the worker sleeps until a delivery to one
//! of its endpoints or their next timer, at most `PARK_TIMEOUT`.
//!
//! **Stacks.** 2 MiB each, like a std thread, mapped with `MAP_NORESERVE`
//! under a `PROT_NONE` guard page: only the pages a rank touches cost
//! memory. They are unmapped when [`run`] returns. A body's panic is caught
//! on its own stack and re-raised by [`run`]; it never unwinds across a
//! switch.

use crate::addr::NetAddr;
use crate::endpoint::{sleep_budget, PARK_TIMEOUT};
use crate::event_count::EventCount;
use crate::fabric::Fabric;
use crate::stats::EndpointStats;
use litempi_instr::RankCounters;
use litempi_trace::SavedRecorder;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One rank's body.
pub type Body<'a> = Box<dyn FnOnce() + Send + 'a>;

/// Whether this target has a switch routine.
const CAN_SWITCH: bool = cfg!(target_arch = "x86_64");

/// Bytes of stack per task, as a std thread gets.
const STACK_BYTES: usize = 2 << 20;

/// Forced sweeps in a row that find nothing to do before a worker sleeps.
const QUIET_SWEEPS: u32 = 16;

/// The number of worker threads [`run`] uses for `n` ranks. `shared`: the
/// ranks may share a thread.
pub fn workers(n: usize, shared: bool) -> usize {
    if !shared || !CAN_SWITCH {
        return n;
    }
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n)
}

/// Run `bodies[r]` as rank `r` (endpoint `r` of `fabric`) on
/// [`workers`]`(n, shared)` threads, and return when every body has. Worker
/// `k` of `w` hosts a contiguous block of ranks. The first panic that
/// escapes a body is re-raised here, after every other body has finished.
pub fn run(fabric: &Arc<Fabric>, bodies: Vec<Body<'_>>, shared: bool) {
    let n = bodies.len();
    let w = workers(n, shared);
    let mut hosts: Vec<Vec<(NetAddr, Body<'_>)>> = (0..w).map(|_| Vec::new()).collect();
    for (rank, body) in bodies.into_iter().enumerate() {
        hosts[rank * w / n].push((NetAddr(rank as u32), body));
    }
    let mut escaped = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (hosts.into_iter())
            .map(|tasks| scope.spawn(move || host(fabric, tasks)))
            .collect();
        // Join each thread rather than let the scope wait for them: a
        // joined thread has given its allocator arena back, so the next job
        // on this process reuses it (measured: +0.8 to +4 MiB peak RSS
        // over five jobs otherwise).
        for h in handles {
            if let Err(p) = h.join() {
                escaped.get_or_insert(p);
            }
        }
    });
    if let Some(p) = escaped {
        resume_unwind(p);
    }
}

/// One worker thread.
fn host(fabric: &Arc<Fabric>, mut tasks: Vec<(NetAddr, Body<'_>)>) {
    if tasks.len() == 1 {
        let (_, body) = tasks.pop().expect("one task");
        return body();
    }
    let worker = Worker::new(fabric.clone(), tasks);
    worker.run();
    if let Some(p) = worker.panic.take() {
        resume_unwind(p);
    }
}

/// Hand this worker thread to another task: the caller's wait polled
/// empty. Returns `false`, at once, when the caller is not a task or is
/// the only live one on its worker — the caller then waits as a thread
/// would. `fresh`: the caller did work since it last paused (it is not
/// merely re-polling the same wait), so the worker must not go to sleep
/// on this sweep.
pub fn pause(fresh: bool) -> bool {
    let worker = CURRENT.get();
    if worker.is_null() {
        return false;
    }
    // SAFETY: `CURRENT` is non-null only while `Worker::run` runs on this
    // thread, and it points at that worker, which outlives the loop; only
    // a task the loop switched into can be running here.
    unsafe { &*worker }.pause(fresh)
}

thread_local! {
    /// The worker whose tasks run on this thread, while its loop runs.
    static CURRENT: Cell<*const Worker> = const { Cell::new(std::ptr::null()) };
}

/// One task: a rank's stack, where its registers are while it is switched
/// out, and the thread-locals it takes along.
struct Slot {
    addr: NetAddr,
    body: Cell<Option<Body<'static>>>,
    /// Mapped for as long as the worker lives; `sp` points into it.
    _stack: Stack,
    sp: Cell<*mut u8>,
    /// The endpoint's completion epoch when the task last paused; `None`
    /// for a task that has not run yet.
    seen: Cell<Option<u64>>,
    fresh: Cell<bool>,
    done: Cell<bool>,
    counters: RefCell<RankCounters>,
    recorder: RefCell<SavedRecorder>,
}

/// A worker thread hosting several tasks.
struct Worker {
    fabric: Arc<Fabric>,
    slots: Box<[Slot]>,
    /// The scheduler's stack pointer while a task runs.
    home: Cell<*mut u8>,
    /// The task running, or the last one that ran (at first the last
    /// task, so that the first search for a woken one starts at task 0).
    running: Cell<usize>,
    live: Cell<usize>,
    /// Set while the scheduler polls every task once: a pause then
    /// returns to it instead of handing the thread on.
    forced: Cell<bool>,
    /// What the worker sleeps on when idle; every endpoint it hosts bumps
    /// it on a delivery while the worker watches their events.
    idle: Arc<EventCount>,
    panic: Cell<Option<Box<dyn Any + Send>>>,
}

impl Worker {
    fn new(fabric: Arc<Fabric>, tasks: Vec<(NetAddr, Body<'_>)>) -> Worker {
        let idle = Arc::new(EventCount::new());
        let slots = (tasks.into_iter())
            .map(|(addr, body)| {
                fabric.shared(addr).set_host(idle.clone());
                let stack = Stack::new(STACK_BYTES);
                // SAFETY: `Worker::run` runs every body to completion
                // before `run` (which borrows for the bodies' lifetime)
                // returns, and a body that never ran is dropped inside it
                // too; the lifetime is erased only to keep `Worker` free
                // of it.
                let body = unsafe { std::mem::transmute::<Body<'_>, Body<'static>>(body) };
                Slot {
                    addr,
                    body: Cell::new(Some(body)),
                    sp: Cell::new(stack.first_frame()),
                    _stack: stack,
                    seen: Cell::new(None),
                    fresh: Cell::new(true),
                    done: Cell::new(false),
                    counters: RefCell::default(),
                    recorder: RefCell::default(),
                }
            })
            .collect::<Box<[Slot]>>();
        Worker {
            fabric,
            live: Cell::new(slots.len()),
            running: Cell::new(slots.len() - 1),
            slots,
            home: Cell::new(std::ptr::null_mut()),
            forced: Cell::new(false),
            idle,
            panic: Cell::new(None),
        }
    }

    fn run(&self) {
        CURRENT.set(self);
        let mut quiet = 0;
        while self.live.get() > 0 {
            // Run a task a delivery woke; it hands the thread on to the
            // next woken one itself, and comes back here when none is.
            let next = self.running.get() + 1;
            if let Some(i) = self.woken_from(next, self.slots.len()) {
                self.enter(i);
                quiet = 0;
                continue;
            }
            // Nobody was woken by a delivery: poll everyone.
            let before = self.epochs();
            if self.sweep() || self.epochs() != before {
                quiet = 0;
                continue;
            }
            quiet += 1;
            if quiet < QUIET_SWEEPS {
                std::thread::yield_now();
            } else {
                self.sleep(before);
                quiet = 0;
            }
        }
        CURRENT.set(std::ptr::null());
    }

    /// The first of the `count` tasks from index `from` on (cyclically)
    /// that is live and whose endpoint saw a delivery since it paused — or
    /// that never ran.
    fn woken_from(&self, from: usize, count: usize) -> Option<usize> {
        let n = self.slots.len();
        (0..count).map(|k| (from + k) % n).find(|&i| {
            let slot = &self.slots[i];
            !slot.done.get() && slot.seen.get() != Some(self.epoch(slot.addr))
        })
    }

    /// Run every live task once, each back to this loop when it pauses.
    /// Returns whether one finished or paused fresh.
    fn sweep(&self) -> bool {
        self.forced.set(true);
        let mut any = false;
        for (i, slot) in self.slots.iter().enumerate() {
            if !slot.done.get() {
                self.enter(i);
                any |= slot.done.get() || slot.fresh.get();
            }
        }
        self.forced.set(false);
        any
    }

    fn epoch(&self, addr: NetAddr) -> u64 {
        self.fabric.shared(addr).event_epoch()
    }

    /// The completion epochs of the live tasks' endpoints, summed: it moves
    /// with every delivery to any of them.
    fn epochs(&self) -> u64 {
        (self.slots.iter())
            .filter(|s| !s.done.get())
            .map(|s| self.epoch(s.addr))
            .sum()
    }

    /// Nothing to do: sleep until a delivery to a hosted endpoint moves
    /// [`Self::epochs`] past `before`, or until their next timer is close.
    fn sleep(&self, before: u64) {
        let live = || self.slots.iter().filter(|s| !s.done.get());
        let now = self.fabric.now_us();
        let due = (live())
            .filter_map(|s| self.fabric.shared(s.addr).next_deadline_us(now))
            .min();
        let Some(timeout) = sleep_budget(due, now) else {
            return;
        };
        // Watch every hosted endpoint's event first, so that a delivery
        // from now on finds a waiter and bumps `idle`; then look at the
        // epochs once more and sleep only if none has moved.
        for s in live() {
            self.fabric.shared(s.addr).watch_events(true);
        }
        let timed_out = self.idle.park(|| self.epochs() == before, timeout);
        for s in live() {
            self.fabric.shared(s.addr).watch_events(false);
        }
        if timed_out && timeout == PARK_TIMEOUT {
            let first = self.fabric.shared(self.slots[0].addr);
            EndpointStats::bump(&first.stats.park_timeouts, 1);
        }
    }

    /// Switch into task `i`, and back here when a task pauses with no
    /// other task to hand the thread to, or finishes.
    fn enter(&self, i: usize) {
        self.running.set(i);
        self.swap_locals(i);
        // SAFETY: `sp` is the stack pointer `switch` saved when task `i`
        // last left (or its first frame), on a stack this worker owns and
        // keeps mapped; whichever task runs last returns here through
        // `home`.
        unsafe { switch(self.home.as_ptr(), self.slots[i].sp.get()) };
        self.swap_locals(self.running.get());
    }

    /// Exchange the thread's rank-owned thread-locals with task `i`'s
    /// saved ones. While a task runs, its slot holds the worker's own.
    fn swap_locals(&self, i: usize) {
        let slot = &self.slots[i];
        litempi_instr::swap_rank_counters(&mut slot.counters.borrow_mut());
        litempi_trace::swap_recorder(&mut slot.recorder.borrow_mut());
    }

    /// See [`pause`]. Runs on the calling task's stack. Outside a forced
    /// sweep the next woken task after this one runs next, switched to
    /// directly; when none is, the scheduler loop.
    fn pause(&self, fresh: bool) -> bool {
        if self.live.get() < 2 {
            return false;
        }
        debug_assert_eq!(
            parking_lot::live_guards(),
            0,
            "a task must not switch while it holds a lock"
        );
        let me = self.running.get();
        let slot = &self.slots[me];
        let ep = self.fabric.shared(slot.addr);
        slot.seen.set(Some(ep.event_epoch()));
        slot.fresh.set(fresh);
        EndpointStats::bump(&ep.stats.task_switches, 1);
        let next = match self.forced.get() {
            true => None,
            false => self.woken_from(me + 1, self.slots.len() - 1),
        };
        let to = match next {
            Some(next) => {
                self.swap_locals(me);
                self.swap_locals(next);
                self.running.set(next);
                self.slots[next].sp.get()
            }
            None => self.home.get(),
        };
        // SAFETY: `to` is a stack pointer `switch` saved (the scheduler's,
        // or a paused task's other than this one) or a first frame, each
        // on a stack that stays mapped; this task's own state goes to
        // `slot.sp`, from which it is resumed.
        unsafe { switch(slot.sp.as_ptr(), to) };
        true
    }

    /// Where a task starts ([`task_main`]): run its body, then leave.
    fn main(&self) -> ! {
        let slot = &self.slots[self.running.get()];
        let body = slot.body.take().expect("a task starts once");
        if let Err(p) = catch_unwind(AssertUnwindSafe(body)) {
            let first = self.panic.take();
            self.panic.set(Some(first.unwrap_or(p)));
        }
        slot.done.set(true);
        self.live.set(self.live.get() - 1);
        // SAFETY: as in `pause`. Nothing on this stack needs dropping any
        // more, and the task is never entered again.
        unsafe { switch(slot.sp.as_ptr(), self.home.get()) };
        unreachable!("a finished task was resumed")
    }
}

/// The first code a task runs, entered by `switch`'s `ret` from the frame
/// [`Stack::first_frame`] built, with a return address of 0 above it so
/// that unwinders and debuggers stop here.
extern "C" fn task_main() -> ! {
    // SAFETY: only `Worker::enter` switches into a first frame, while the
    // worker's loop runs and `CURRENT` points at it.
    unsafe { &*CURRENT.get() }.main()
}

// ------------------------------------------------------------------ stacks

/// One task stack: a `PROT_NONE` guard page, then `len` bytes.
struct Stack {
    base: *mut u8,
    len: usize,
}

const PAGE: usize = 4096;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::c_void;
    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_STACK: i32 = 0x20000;
    pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

impl Stack {
    #[cfg(target_os = "linux")]
    fn new(len: usize) -> Stack {
        use sys::*;
        let total = len + PAGE;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: an anonymous private mapping at an address the kernel
        // picks aliases nothing; the result is checked before use.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                total,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            )
        };
        assert!(base != MAP_FAILED, "cannot map a {len}-byte task stack");
        // SAFETY: the first page of the mapping just made; stacks grow
        // down onto it, so an overflow faults instead of writing below.
        let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert_eq!(rc, 0, "cannot protect a task stack's guard page");
        Stack {
            base: base.cast(),
            len: total,
        }
    }

    #[cfg(not(target_os = "linux"))]
    fn new(_len: usize) -> Stack {
        unreachable!("tasks share a worker only where they can switch")
    }

    /// The initial stack pointer of a task that has not run: a frame that
    /// `switch` resumes into [`task_main`] with default floating-point
    /// control state and zeroed callee-saved registers.
    fn first_frame(&self) -> *mut u8 {
        // The frame `switch` pops, lowest address first: MXCSR and the x87
        // control word, r15, r14, r13, r12, rbx, rbp, the address it
        // returns to, and the 0 that `task_main` finds as its own return
        // address. `task_main` starts as if called, with the stack pointer
        // 8 bytes below a 16-byte boundary.
        const MXCSR_DEFAULT: u64 = 0x1F80;
        const FPU_CW_DEFAULT: u64 = 0x037F;
        let entry = task_main as extern "C" fn() -> !;
        let frame: [u64; 9] = [
            MXCSR_DEFAULT | FPU_CW_DEFAULT << 32,
            0,
            0,
            0,
            0,
            0,
            0,
            entry as usize as u64,
            0,
        ];
        let top = self.base as usize + self.len;
        let sp = (top & !15) - std::mem::size_of_val(&frame);
        debug_assert_eq!(sp % 16, 8);
        // SAFETY: `sp .. top` lies inside the writable part of the mapping
        // (72 bytes under its 16-byte-aligned top), which nothing else
        // uses before the task first runs.
        unsafe { std::ptr::write(sp as *mut [u64; 9], frame) };
        sp as *mut u8
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        // SAFETY: the whole mapping `new` made; no task runs on it any
        // more (its worker has finished).
        unsafe {
            sys::munmap(self.base.cast(), self.len);
        }
    }
}

// ------------------------------------------------------------------ switch

/// Save the callee-saved registers, MXCSR and the x87 control word on the
/// current stack, store the stack pointer at `*save`, and resume the
/// context whose stack pointer is `to` (one this routine saved, or a
/// [`Stack::first_frame`]).
///
/// # Safety
///
/// `save` must be writable, and `to` a stack pointer of a live stack saved
/// by `switch` (or a first frame) that nothing else resumes.
#[cfg(target_arch = "x86_64")]
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut *mut u8, to: *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

#[cfg(not(target_arch = "x86_64"))]
unsafe extern "C" fn switch(_save: *mut *mut u8, _to: *mut u8) {
    unreachable!("tasks share a worker only where they can switch")
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use crate::{ProviderProfile, Topology};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn fabric(n: usize) -> Arc<Fabric> {
        Fabric::new(n, ProviderProfile::infinite(), Topology::single_node(n))
    }

    /// Run `bodies` as tasks of one worker on the calling thread.
    fn one_worker(bodies: Vec<Body<'_>>) {
        let tasks: Vec<_> = (bodies.into_iter().enumerate())
            .map(|(i, b)| (NetAddr(i as u32), b))
            .collect();
        host(&fabric(tasks.len()), tasks);
    }

    #[test]
    fn tasks_take_turns_at_pauses() {
        let log = std::sync::Mutex::new(Vec::new());
        let body = |id: u32| -> Body<'_> {
            let log = &log;
            Box::new(move || {
                for step in 0..3 {
                    log.lock().unwrap().push((id, step));
                    assert!(pause(true));
                }
            })
        };
        one_worker(vec![body(0), body(1)]);
        let log = log.into_inner().unwrap();
        assert_eq!(log, [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
        assert!(!pause(true), "outside a task nothing switches");
    }

    /// Callee-saved registers hold across a switch in which the other task
    /// overwrites them. (`rbx` cannot be an asm operand, so it is saved and
    /// restored around the check by hand; `r15` carries the stack pointer
    /// through the call, so a lost `r15` crashes the test.)
    #[test]
    fn callee_saved_registers_survive_a_switch() {
        let out: std::sync::Mutex<Vec<u64>> = Default::default();
        one_worker(vec![
            Box::new(|| {
                let (a, b, c, d): (u64, u64, u64, u64);
                // SAFETY: steps over the red zone, aligns the stack for the
                // call, and restores `rsp` and `rbx` before the block ends;
                // every other register it writes is declared.
                unsafe {
                    core::arch::asm!(
                        "lea rsp, [rsp - 128]",
                        "push rbx",
                        "mov r15, rsp",
                        "and rsp, -16",
                        "mov rbx, 0x1111",
                        "mov r12, 0x2222",
                        "mov r13, 0x3333",
                        "mov r14, 0x4444",
                        "mov edi, 1",
                        "call {pause}",
                        "mov rax, rbx",
                        "mov rcx, r12",
                        "mov rdx, r13",
                        "mov rsi, r14",
                        "mov rsp, r15",
                        "pop rbx",
                        "lea rsp, [rsp + 128]",
                        pause = sym pause_fresh,
                        out("rax") a, out("rcx") b, out("rdx") c, out("rsi") d,
                        out("r12") _, out("r13") _, out("r14") _, out("r15") _,
                        clobber_abi("C"),
                    );
                }
                out.lock().unwrap().extend([a, b, c, d]);
            }),
            Box::new(|| {
                // SAFETY: clobbers are declared; the values are discarded.
                let trash = || unsafe {
                    core::arch::asm!(
                        "mov r12, 7", "mov r13, 7", "mov r14, 7", "mov r15, 7",
                        out("r12") _, out("r13") _, out("r14") _, out("r15") _,
                    );
                };
                trash();
                pause(true);
                trash();
            }),
        ]);
        assert_eq!(*out.lock().unwrap(), [0x1111, 0x2222, 0x3333, 0x4444]);
    }

    extern "C" fn pause_fresh(fresh: bool) -> bool {
        pause(fresh)
    }

    fn mxcsr() -> u32 {
        let mut v = 0u32;
        // SAFETY: stores MXCSR into a local.
        unsafe { core::arch::asm!("stmxcsr [{}]", in(reg) &mut v) };
        v
    }

    fn set_mxcsr(v: u32) {
        // SAFETY: loads a valid MXCSR value (rounding bits only changed).
        unsafe { core::arch::asm!("ldmxcsr [{}]", in(reg) &v) };
    }

    fn fpu_cw() -> u16 {
        let mut v = 0u16;
        // SAFETY: stores the x87 control word into a local.
        unsafe { core::arch::asm!("fnstcw [{}]", in(reg) &mut v) };
        v
    }

    fn set_fpu_cw(v: u16) {
        // SAFETY: loads a valid x87 control word (rounding bits changed).
        unsafe { core::arch::asm!("fldcw [{}]", in(reg) &v) };
    }

    /// Each task keeps its own rounding modes across switches, and the
    /// worker gets its own back.
    #[test]
    fn floating_point_control_state_is_per_task() {
        let (m0, c0) = (mxcsr(), fpu_cw());
        let seen: std::sync::Mutex<Vec<(u32, u16)>> = Default::default();
        let body = |round: u32| -> Body<'_> {
            let seen = &seen;
            Box::new(move || {
                // MXCSR rounding is bits 13–14, the x87's bits 10–11.
                set_mxcsr((m0 & !0x6000) | round << 13);
                set_fpu_cw((c0 & !0x0C00) | (round as u16) << 10);
                for _ in 0..3 {
                    pause(true);
                    seen.lock()
                        .unwrap()
                        .push((mxcsr() >> 13 & 3, fpu_cw() >> 10 & 3));
                }
                // Leave non-default state behind: the worker must not see it.
            })
        };
        one_worker(vec![body(1), body(2), body(3)]);
        for (i, got) in seen.into_inner().unwrap().into_iter().enumerate() {
            let round = (i % 3) as u32 + 1;
            assert_eq!(got, (round, round as u16), "switch {i}");
        }
        assert_eq!((mxcsr(), fpu_cw()), (m0, c0));
    }

    #[test]
    fn a_task_can_recurse_a_mebibyte_deep() {
        /// Recurse until the stack below `top` is `bytes` deep; returns the
        /// depth reached in bytes.
        fn deep(top: usize, bytes: usize) -> usize {
            let pad = std::hint::black_box([0u8; 512]);
            let here = pad.as_ptr() as usize;
            if top - here >= bytes {
                return top - here;
            }
            deep(top, bytes) + pad[0] as usize
        }
        let got = AtomicUsize::new(0);
        one_worker(vec![
            Box::new(|| {
                pause(true);
                let top = 0u8;
                let top = &top as *const u8 as usize;
                got.store(deep(top, 1 << 20), Ordering::Relaxed);
            }),
            Box::new(|| {
                pause(true);
            }),
        ]);
        assert!(got.into_inner() >= 1 << 20);
    }

    /// Whether `addr` lies in any mapping of this process.
    fn mapped(addr: usize) -> bool {
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        maps.lines().any(|l| {
            let range = l.split(' ').next().unwrap();
            let (lo, hi) = range.split_once('-').unwrap();
            let lo = usize::from_str_radix(lo, 16).unwrap();
            let hi = usize::from_str_radix(hi, 16).unwrap();
            (lo..hi).contains(&addr)
        })
    }

    #[test]
    fn stacks_are_unmapped_when_the_job_ends() {
        let at: std::sync::Mutex<Vec<usize>> = Default::default();
        let body = || -> Body<'_> {
            let at = &at;
            Box::new(move || {
                let local = 0u8;
                at.lock().unwrap().push(&local as *const u8 as usize);
                pause(true);
            })
        };
        one_worker(vec![body(), body(), body()]);
        let at = at.into_inner().unwrap();
        assert_eq!(at.len(), 3);
        assert!(
            at.iter().all(|&a| !mapped(a)),
            "a task stack outlived its job"
        );
    }

    #[test]
    fn a_panic_stays_on_its_stack_and_is_re_raised_after_the_others() {
        let finished = AtomicUsize::new(0);
        let panic = catch_unwind(AssertUnwindSafe(|| {
            one_worker(vec![
                Box::new(|| {
                    pause(true);
                    panic!("task 0 exploded");
                }),
                Box::new(|| {
                    for _ in 0..4 {
                        pause(true);
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                }),
            ])
        }))
        .expect_err("the panic propagates");
        assert_eq!(panic.downcast_ref::<&str>(), Some(&"task 0 exploded"));
        assert_eq!(finished.into_inner(), 1);
    }
}
