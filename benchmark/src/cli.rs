//! Command line: one workload per process, and the commands that start
//! such processes (`all`, `selfcheck`).

use crate::harness::{Counts, SETUPS};
use crate::json::{quote, Json};
use crate::spec::Spec;
use crate::stats::{quartiles, spread};
use crate::workloads::{self, all_layer_metrics, Measured, MetricDef, Workload, END_TO_END};
use crate::{layers, pin, trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

const USAGE: &str = "\
usage: litempi-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       litempi-benchmark layers [--seed N]
       litempi-benchmark all [--seed N] [--seconds S]
       litempi-benchmark selfcheck [--runs N] [--seed N] [--seconds S]

  --workload   p2p_small | p2p_large | p2p_reliable | p2p_lossy | rma_mix |
               coll_mix | apps64
  --seed       payloads, orders, displacements, fault plan (default 0xC0FFEE)
  --seconds    measured window per run (default 10)
  --trace      1: record spans on every second batch and report the
               per-layer metrics instead of the end-to-end ones
  --runs       selfcheck: runs per set (default 5)
  --allow-unpinned   measure even if the process cannot be pinned to one CPU
";

struct Opts {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    allow_unpinned: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        command: None,
        workload: None,
        seed: 0xC0FFEE,
        seconds: 10.0,
        trace: false,
        runs: 5,
        allow_unpinned: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = parse_u64(value()?).ok_or("--seed: not a number")?,
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds: not a time in (0, 3600]")?
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace: 0 or 1".into()),
                }
            }
            "--runs" => {
                o.runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| (2..=100).contains(n))
                    .ok_or("--runs: a count from 2 to 100")?
            }
            "--allow-unpinned" => o.allow_unpinned = true,
            "all" | "layers" | "selfcheck" if o.command.is_none() => o.command = Some(arg.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

pub fn main(entered: Instant) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("litempi-benchmark: {e}\n{USAGE}");
            return 2;
        }
    };
    let result = match (opts.command.as_deref(), &opts.workload) {
        (Some("all"), None) => all(&opts),
        (Some("selfcheck"), None) => selfcheck(&opts),
        (Some("layers"), None) => measure(&opts, None, entered),
        (None, Some(name)) => match Workload::parse(name) {
            Some(w) => measure(&opts, Some(w), entered),
            None => Err(format!("unknown workload {name}\n{USAGE}")),
        },
        _ => Err(format!("name one workload or one command\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("litempi-benchmark: {e}");
            1
        }
    }
}

// ------------------------------------------------------ one measuring process

/// Remove every `LITEMPI_*` variable, so that none can change the load,
/// and say which were set.
fn clear_litempi_env() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LITEMPI_"))
        .collect();
    names.sort();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn git_commit() -> String {
    Command::new("git")
        .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The last line of every measuring process.
fn result_line(failed: u64, attempted: u64, metrics: &[(MetricDef, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|((name, unit), v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                fmt_f64(*v),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        failed,
        body.join(", ")
    )
}

fn counts_json(c: &Counts) -> String {
    let s = &c.stats;
    let mut out = format!(
        "\"msgs_sent\":{},\"bytes_sent\":{},\"am_sent\":{},\"rdma_puts\":{},\"rdma_gets\":{},\
         \"rdma_atomics\":{},\"unexpected\":{},\"bucket_hits\":{},\"wildcard_matches\":{},\
         \"acks_sent\":{},\"retransmits\":{},\"dup_dropped\":{},\"crc_failures\":{},\
         \"faults_dropped\":{},\"win_flushes\":{},\"reg_cache_hits\":{},\"reg_cache_misses\":{},\
         \"payload_allocs\":{},\"pool_takes\":{},\"pool_hits\":{},\"instr\":{{",
        s.msgs_sent,
        s.bytes_sent,
        s.am_sent,
        s.rdma_puts,
        s.rdma_gets,
        s.rdma_atomics,
        s.unexpected,
        s.bucket_hits,
        s.wildcard_matches,
        s.acks_sent,
        s.retransmits,
        s.dup_dropped,
        s.crc_failures,
        s.faults_dropped,
        s.win_flushes,
        s.reg_cache_hits,
        s.reg_cache_misses,
        c.allocs,
        c.pool_takes,
        c.pool_hits,
    );
    let charged: Vec<String> = c
        .instr
        .nonzero()
        .map(|(cat, n)| format!("{}:{n}", quote(cat.label())))
        .collect();
    out.push_str(&charged.join(","));
    out.push('}');
    out
}

/// Write the spans of the first traced batches of every rank, and every
/// rank's counters summed over its traced batches. Returns the path.
fn write_trace(w: Workload, m: &Measured) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{}.jsonl", w.name());
    let mut text = String::new();
    for (rank, r) in m.run.ranks.iter().enumerate() {
        if let Some(t) = &r.trace {
            trace::spans_jsonl(&mut text, rank, &t.dumped);
        }
        let _ = writeln!(
            text,
            "{{\"rank\":{rank},\"traced_batches\":{},\"counters\":{{{}}}}}",
            m.run.ranks[0].traced_ns.len(),
            counts_json(&r.counts)
        );
    }
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}

/// Run one workload (or, with `None`, the direct layer timings) in this
/// process and print its provenance and its result.
fn measure(opts: &Opts, workload: Option<Workload>, entered: Instant) -> Result<i32, String> {
    let cleared = clear_litempi_env();
    let nproc = pin::allowed_cpus().len();
    let pinned = pin::pin_to_last_cpu();
    if let Err(e) = &pinned {
        if !opts.allow_unpinned {
            return Err(format!(
                "cannot pin to one CPU ({e}); pass --allow-unpinned to measure anyway"
            ));
        }
    }

    let mut prov: Vec<(&str, String)> = vec![
        ("workload", quote(workload.map_or("layers", Workload::name))),
        ("nproc", nproc.to_string()),
        (
            "pinned_cpu",
            match &pinned {
                Ok(cpu) => cpu.to_string(),
                Err(e) => quote(&format!("unpinned: {e}")),
            },
        ),
        ("rustc", quote(env!("BENCH_RUSTC_VERSION"))),
        ("kernel_tier", quote(litempi::simd::active().name())),
        ("seed", opts.seed.to_string()),
        (
            "litempi_env_cleared",
            format!(
                "[{}]",
                cleared
                    .iter()
                    .map(|n| quote(n))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];

    let (failed, attempted, defs, values) = match workload {
        None => {
            let values = layers::measure(opts.seed);
            (0, values.len() as u64, layers::METRICS.to_vec(), values)
        }
        Some(w) => {
            let m = workloads::run(w, opts.seed, opts.seconds, opts.trace, entered);
            prov.extend([
                ("provider", quote(w.profile_label())),
                ("ranks", w.ranks().to_string()),
                ("window_seconds", fmt_f64(opts.seconds)),
                ("warmup_batches", w.warmup_batches().to_string()),
                ("setups", SETUPS.to_string()),
                ("ops_per_batch", w.ops_per_batch().to_string()),
                ("batches_sampled", m.batches.to_string()),
                ("probe_nominal_ns", fmt_f64(crate::probe::NOMINAL_NS)),
                ("host_speed", fmt_f64(m.host_speed)),
                ("traced", opts.trace.to_string()),
            ]);
            let defs = if opts.trace {
                prov.push(("span_floor_ns", fmt_f64(m.span_floor_ns)));
                match write_trace(w, &m) {
                    Ok(path) => prov.push(("trace_file", quote(&path))),
                    Err(e) => eprintln!("litempi-benchmark: trace not written: {e}"),
                }
                all_layer_metrics()
            } else {
                END_TO_END.to_vec()
            };
            (m.failed, m.attempted, defs, m.metrics)
        }
    };
    // A traced run names every per-layer metric of the benchmark; the
    // layers its workload does not exercise read 0.
    let value = |name: &str| values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
    let metrics: Vec<_> = defs.into_iter().map(|d| (d, value(d.0))).collect();
    // Last, so that a child process cannot disturb the measurement.
    prov.push(("git_commit", quote(&git_commit())));

    let fields: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    println!("{{\"provenance\": {{{}}}}}", fields.join(", "));
    println!("{}", result_line(failed, attempted, &metrics));
    if failed > 0 {
        eprintln!("litempi-benchmark: {failed} of {attempted} ops failed their check");
    }
    Ok((failed > 0) as i32)
}

// -------------------------------------------------- commands that start others

/// The parsed result line of a child process.
struct Child {
    ok: bool,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

/// Start this program again with `args`, one workload per process so
/// that none inherits another's heap, and read its last line.
fn child(args: &[String]) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or(format!("{args:?}: no output"))?;
    let doc = Json::parse(last).map_err(|e| format!("{args:?}: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or(format!("{args:?}: no metrics"))?
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            Some((name.clone(), (value, m.get("unit")?.as_str()?.to_string())))
        })
        .collect();
    Ok(Child {
        ok: out.status.success() && doc.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

fn workload_args(w: Workload, seed: u64, seconds: f64, trace: bool) -> Vec<String> {
    [
        "--workload",
        w.name(),
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(str::to_string)
    .to_vec()
}

fn print_metrics(c: &Child, names: &[MetricDef]) {
    for (name, _) in names {
        if let Some((value, unit)) = c.metrics.get(*name) {
            println!("  {name:<44} {value:>16.4} {unit}");
        }
    }
}

/// Every metric by name, with its unit: each workload untraced then
/// traced, then the direct layer timings.
fn all(opts: &Opts) -> Result<i32, String> {
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} — {}", w.name(), w.why());
        let plain = child(&workload_args(w, opts.seed, opts.seconds, false))?;
        print_metrics(&plain, END_TO_END);
        let traced = child(&workload_args(w, opts.seed, opts.seconds, true))?;
        print_metrics(&traced, workloads::COMMON);
        print_metrics(&traced, &w.layer_metrics());
        ok &= plain.ok && traced.ok;
    }
    println!("== layers — each layer's entry points driven from one thread");
    let direct = child(&["layers".into(), "--seed".into(), opts.seed.to_string()])?;
    print_metrics(&direct, layers::METRICS);
    ok &= direct.ok;
    println!(
        "{}",
        if ok {
            "all ops correct"
        } else {
            "FAILED: see above"
        }
    );
    Ok(!ok as i32)
}

/// Run the whole set `--runs` times in two interleaved sets and hold the
/// two against each other the way the driver does: per (workload, metric)
/// the spread of each set (interquartile distance ÷ median) and how much
/// worse the second median is than the first, both against the bound.
fn selfcheck(opts: &Opts) -> Result<i32, String> {
    let spec = Spec::load()?;
    type Samples = BTreeMap<(usize, String), Vec<f64>>;
    let mut sets: [Samples; 2] = [Samples::new(), Samples::new()];
    let mut ok = true;
    for run in 0..opts.runs {
        for (wi, w) in Workload::ALL.into_iter().enumerate() {
            for set in &mut sets {
                let c = child(&workload_args(
                    w,
                    opts.seed + run as u64,
                    opts.seconds,
                    false,
                ))?;
                ok &= c.ok;
                for (name, (value, _)) in c.metrics {
                    set.entry((wi, name)).or_default().push(value);
                }
            }
        }
        eprintln!("selfcheck: run {} of {} done", run + 1, opts.runs);
    }

    println!(
        "{:<13} {:<13} {:>13} {:>7} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound"
    );
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for m in &spec.end_to_end {
            let key = (wi, m.name.clone());
            let (a, b) = (&sets[0][&key], &sets[1][&key]);
            let (med_a, med_b) = (quartiles(a)[1], quartiles(b)[1]);
            let (spread_a, spread_b) = (spread(a), spread(b));
            // Positive: the second set is worse.
            let worse = if m.lower_is_better {
                med_b / med_a - 1.0
            } else {
                1.0 - med_b / med_a
            };
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let steady = m.name == "setup_s" || spread_a.max(spread_b) <= bound;
            let pass = steady && worse <= bound;
            ok &= pass;
            println!(
                "{:<13} {:<13} {:>13.4} {:>6.2}% {:>13.4} {:>6.2}% {:>+7.2}% {:>5.0}%  {}",
                w.name(),
                m.name,
                med_a,
                100.0 * spread_a,
                med_b,
                100.0 * spread_b,
                100.0 * worse,
                100.0 * bound,
                if pass { "ok" } else { "BREACH" }
            );
        }
    }
    println!(
        "{}",
        if ok {
            "selfcheck passed"
        } else {
            "selfcheck FAILED"
        }
    );
    Ok(!ok as i32)
}
