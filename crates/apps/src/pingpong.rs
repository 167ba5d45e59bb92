//! OSU-style point-to-point microbenchmarks: ping-pong latency and
//! windowed bandwidth.
//!
//! These are the standard probes of an MPI stack's pt2pt path (the paper's
//! message-rate benchmark is the injection-rate sibling). They run between
//! ranks 0 and 1 and report per-size results; the `osu_micro` driver uses them
//! to compare devices and providers in wall-clock terms.

use litempi_core::{waitall, Communicator, MpiResult, Process};
use std::time::Instant;

/// One (message size, metric) result row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizePoint {
    /// Message size in bytes.
    pub bytes: usize,
    /// Metric value: µs for latency, MiB/s for bandwidth.
    pub value: f64,
}

/// Half-round-trip latency per message size (the `osu_latency` shape).
/// Call on all ranks of `comm`; ranks other than 0/1 idle at the final
/// barrier. Returns rows on rank 0, empty elsewhere.
pub fn latency(
    proc: &Process,
    comm: &Communicator,
    sizes: &[usize],
    reps: usize,
) -> MpiResult<Vec<SizePoint>> {
    assert!(comm.size() >= 2, "latency needs two ranks");
    let me = comm.rank();
    let mut out = Vec::new();
    for &bytes in sizes {
        let data = vec![0xB5u8; bytes];
        let mut buf = vec![0u8; bytes];
        comm.barrier()?;
        if me == 0 {
            let t0 = Instant::now();
            for _ in 0..reps {
                comm.send(&data, 1, 0)?;
                comm.recv_into(&mut buf, 1, 0)?;
            }
            let dt = t0.elapsed().as_secs_f64();
            out.push(SizePoint {
                bytes,
                value: dt / (2.0 * reps as f64) * 1e6,
            });
        } else if me == 1 {
            for _ in 0..reps {
                comm.recv_into(&mut buf, 0, 0)?;
                comm.send(&data, 0, 0)?;
            }
        }
        comm.barrier()?;
    }
    let _ = proc;
    Ok(out)
}

/// Windowed unidirectional bandwidth (the `osu_bw` shape): rank 0 posts
/// `window` nonblocking sends, rank 1 `window` receives, then a 1-byte
/// ack closes the window. Returns MiB/s rows on rank 0.
pub fn bandwidth(
    proc: &Process,
    comm: &Communicator,
    sizes: &[usize],
    window: usize,
    reps: usize,
) -> MpiResult<Vec<SizePoint>> {
    assert!(comm.size() >= 2, "bandwidth needs two ranks");
    let me = comm.rank();
    let mut out = Vec::new();
    for &bytes in sizes {
        let data = vec![0x5Au8; bytes];
        comm.barrier()?;
        if me == 0 {
            let mut ack = [0u8; 1];
            let t0 = Instant::now();
            for _ in 0..reps {
                let reqs: Vec<_> = (0..window)
                    .map(|_| comm.isend(&data, 1, 1))
                    .collect::<MpiResult<_>>()?;
                waitall(reqs)?;
                comm.recv_into(&mut ack, 1, 2)?;
            }
            let dt = t0.elapsed().as_secs_f64();
            let total = (bytes * window * reps) as f64;
            out.push(SizePoint {
                bytes,
                value: total / dt / (1024.0 * 1024.0),
            });
        } else if me == 1 {
            let mut buf = vec![0u8; bytes];
            for _ in 0..reps {
                for _ in 0..window {
                    comm.recv_into(&mut buf, 0, 1)?;
                }
                comm.send(&[1u8], 0, 2)?;
            }
        }
        comm.barrier()?;
    }
    let _ = proc;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use litempi_core::Universe;

    #[test]
    fn latency_returns_rows_on_rank0() {
        let out = Universe::run_default(2, |proc| {
            let world = proc.world();
            latency(&proc, &world, &[1, 64, 1024], 20).unwrap()
        });
        assert_eq!(out[0].len(), 3);
        assert!(out[1].is_empty());
        for p in &out[0] {
            assert!(p.value > 0.0, "latency must be positive");
        }
    }

    #[test]
    fn bandwidth_positive_and_window_correct() {
        let out = Universe::run_default(2, |proc| {
            let world = proc.world();
            bandwidth(&proc, &world, &[4096], 8, 5).unwrap()
        });
        assert_eq!(out[0].len(), 1);
        assert!(out[0][0].value > 0.0);
    }

    #[test]
    fn works_with_extra_idle_ranks() {
        let out = Universe::run_default(3, |proc| {
            let world = proc.world();
            latency(&proc, &world, &[8], 10).unwrap()
        });
        assert_eq!(out[0].len(), 1);
        assert!(out[2].is_empty());
    }
}
