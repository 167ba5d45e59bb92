//! Build configurations — the paper's five library builds.
//!
//! The paper's Figure 2 ladder compares: MPICH/Original, MPICH/CH4
//! (default), CH4 with error checking disabled, CH4 additionally without
//! the runtime thread-safety check, and CH4 additionally with link-time
//! inlining (IPO). In C these are separate `configure`-time builds; here
//! they are a runtime [`BuildConfig`] carried by every process, branched on
//! at the *top* of each operation so that a disabled feature costs nothing
//! on the critical path below the branch (the branch itself stands in for
//! the build-time selection).

/// Which device implements the communication path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// The paper's contribution: the lightweight CH4-style device.
    Ch4,
    /// The CH3-like baseline ("MPICH/Original"): vtable dispatch, mandatory
    /// request allocation, RMA emulated over active messages.
    Original,
}

/// Requested thread support level (subset: single vs. multiple).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadLevel {
    /// `MPI_THREAD_SINGLE`: no locking.
    Single,
    /// `MPI_THREAD_MULTIPLE`: operations take the global critical section.
    Multiple,
}

/// One build of the MPI library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Which device (`ch4` vs `original`).
    pub device: DeviceKind,
    /// Argument/object validation compiled in ("Error checking" row).
    pub error_checking: bool,
    /// The runtime thread-safety *check* is compiled in ("Thread-safety
    /// check" row). A build with this `false` corresponds to a library
    /// compiled for a single thread level — no branch at all.
    pub thread_check: bool,
    /// The level actually granted (locks taken only for `Multiple`).
    pub thread_level: ThreadLevel,
    /// Link-time inlining of the MPI library: removes the "MPI function
    /// call" overhead, and the "redundant runtime checks" for calls whose
    /// datatype is a compile-time constant (the paper's §2.2 "Class 2"
    /// usage, e.g. `MPI_DOUBLE` written at the call site — our typed API).
    pub ipo: bool,
    /// §2.2 "Class 3" escalation: link-time inlining expanded to subsume
    /// the *whole application*, so even runtime-constant datatype handles
    /// (LULESH's `baseType` pattern — our byte-level API) constant-fold.
    /// Only meaningful with `ipo`.
    pub ipo_whole_program: bool,
}

impl BuildConfig {
    /// MPICH/Original, default build (Fig 2 bar 1).
    pub const fn original() -> Self {
        BuildConfig {
            device: DeviceKind::Original,
            error_checking: true,
            thread_check: true,
            thread_level: ThreadLevel::Single,
            ipo: false,
            ipo_whole_program: false,
        }
    }

    /// MPICH/CH4 default build (Fig 2 bar 2).
    pub const fn ch4_default() -> Self {
        BuildConfig {
            device: DeviceKind::Ch4,
            error_checking: true,
            thread_check: true,
            thread_level: ThreadLevel::Single,
            ipo: false,
            ipo_whole_program: false,
        }
    }

    /// CH4 with error checking disabled (Fig 2 bar 3, "no-err").
    pub const fn ch4_no_err() -> Self {
        BuildConfig {
            error_checking: false,
            ..BuildConfig::ch4_default()
        }
    }

    /// CH4 without error checking or thread check (Fig 2 bar 4,
    /// "no-err-single").
    pub const fn ch4_no_err_single() -> Self {
        BuildConfig {
            thread_check: false,
            ..BuildConfig::ch4_no_err()
        }
    }

    /// CH4 fully optimized: no error checking, single-threaded, link-time
    /// inlined (Fig 2 bar 5, "no-err-single-ipo").
    pub const fn ch4_no_err_single_ipo() -> Self {
        BuildConfig {
            ipo: true,
            ..BuildConfig::ch4_no_err_single()
        }
    }

    /// CH4 default build granted `MPI_THREAD_MULTIPLE`: every operation's
    /// runtime thread-safety check now also takes the process's critical
    /// section — the paper's global lock.
    pub const fn ch4_thread_multiple() -> Self {
        BuildConfig {
            thread_level: ThreadLevel::Multiple,
            ..BuildConfig::ch4_default()
        }
    }

    /// §2.2's fully subsumed build: whole-program link-time inlining, so
    /// even "Class 3" runtime-constant datatypes constant-fold.
    pub const fn ch4_ipo_whole_program() -> Self {
        BuildConfig {
            ipo_whole_program: true,
            ..BuildConfig::ch4_no_err_single_ipo()
        }
    }

    /// The five builds in the paper's Figure 2 order, with display labels.
    pub const FIG2_LADDER: [(&'static str, BuildConfig); 5] = [
        ("mpich/original", BuildConfig::original()),
        ("mpich/ch4 (default)", BuildConfig::ch4_default()),
        ("mpich/ch4 (no-err)", BuildConfig::ch4_no_err()),
        (
            "mpich/ch4 (no-err-single)",
            BuildConfig::ch4_no_err_single(),
        ),
        (
            "mpich/ch4 (no-err-single-ipo)",
            BuildConfig::ch4_no_err_single_ipo(),
        ),
    ];
}

impl Default for BuildConfig {
    /// The default build is the paper's default CH4 build.
    fn default() -> Self {
        BuildConfig::ch4_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_monotone_feature_removal() {
        let [orig, dflt, noerr, single, ipo] = BuildConfig::FIG2_LADDER.map(|(_, c)| c);
        assert_eq!(orig.device, DeviceKind::Original);
        assert_eq!(dflt.device, DeviceKind::Ch4);
        assert!(dflt.error_checking && !noerr.error_checking);
        assert!(noerr.thread_check && !single.thread_check);
        assert!(!single.ipo && ipo.ipo);
    }

    #[test]
    fn default_is_ch4_default() {
        assert_eq!(BuildConfig::default(), BuildConfig::ch4_default());
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = BuildConfig::FIG2_LADDER.iter().map(|(l, _)| *l).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }
}
