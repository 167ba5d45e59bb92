//! Reproduce **Figure 2**: MPI instruction counts across the five builds
//! (MPICH/Original → CH4 default → no-err → no-thread-check → IPO).
//!
//! The counts are the calibrated charges. The `original` build's `isend`
//! layering (the CH3 device dispatch and per-send request) is charge-only:
//! its injection executes CH4's code. Its `put` is real, RMA emulated over
//! active messages.

use litempi_bench::figs;

fn main() {
    let series = figs::fig2();
    println!("Figure 2: MPI instruction counts");
    println!("================================");
    let max = series.iter().map(|(_, _, p)| *p).max().unwrap() as f64;
    println!("{:<32} {:>9} {:>9}", "build", "MPI_Isend", "MPI_Put");
    for (label, isend, put) in &series {
        println!("{label:<32} {isend:>9} {put:>9}");
        println!("  isend |{}", figs::bar(*isend as f64, max, 56));
        println!("  put   |{}", figs::bar(*put as f64, max, 56));
    }
    println!();
    println!("Paper reference bars: 253/1342, 221/215, 147/143, 141/129, 59/44.");
    println!("The Original isend's CH3 layering is charge-only; its put runs RMA over AM.");
}
