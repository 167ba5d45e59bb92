//! Trace exporter tour: run the §4.2 message-rate microbenchmark with the
//! event-tracing subsystem switched on, then render all three exporter
//! views — the plaintext summary alongside instructions/op, per-operation
//! latency histograms, and a chrome://tracing timeline you can load at
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run --example trace_export`
//! Write the timeline to a file with:
//! `cargo run --example trace_export -- /tmp/litempi-trace.json`

use litempi::apps::msgrate;
use litempi::core::{BuildConfig, Universe};
use litempi::fabric::{ProviderProfile, Topology};

fn main() {
    // Tracing is a provider-profile opt-in: `.traced()` arms a
    // fixed-capacity ring recorder on every rank. The calibrated
    // instruction totals (221/op for this exact run) are untouched.
    let profile = ProviderProfile::ofi().traced();
    let results = Universe::run(
        2,
        BuildConfig::ch4_default(),
        profile,
        Topology::single_node(2),
        |proc| {
            let world = proc.world();
            let report = msgrate::isend_rate(&proc, &world, 2000, 32).expect("msgrate");
            // Each rank drains its own ring on its own thread; the drained
            // traces are plain data the exporters work from offline.
            (report, litempi::trace::drain().expect("tracing enabled"))
        },
    );

    let report = results[0].0.expect("rank 0 reports");
    let traces: Vec<_> = results.into_iter().map(|(_, t)| t).collect();

    // Exporter 1 + 2: plaintext summary with latency histograms, printed
    // alongside the paper's instructions/op headline.
    print!(
        "{}",
        msgrate::render_report("isend msgrate", &report, &traces)
    );

    // Exporter 3: chrome://tracing JSON, one track per rank.
    let json = litempi::trace::chrome_trace_json(&traces);
    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &json).expect("write trace file");
            println!("chrome trace written to {path} ({} bytes)", json.len());
        }
        None => println!(
            "chrome trace: {} bytes of JSON (pass a path to write it)",
            json.len()
        ),
    }

    assert!((report.instr_per_op - 221.0).abs() < 1e-9);
}
