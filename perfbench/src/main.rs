//! Host-honest benchmark of the Uncorq simulator.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny] [--ops N]
//! ```
//!
//! Runs one workload for about `S` seconds, checks every output, and
//! prints human-readable lines followed by one JSON result line. With
//! `--trace 0` the result holds the end-to-end metrics, measured with
//! no span recording; with `--trace 1` it holds the per-layer metrics,
//! from spans the benchmark records around its calls into each layer
//! (kept in memory, written to `.bench_out/spans-*.jsonl` at the end).
//! The exit code is non-zero when any correctness check fails.
//!
//! `perfbench ringd --socket PATH --state-root DIR` is the daemon child
//! of the `ringd_sessions` workload: it serves exactly as `ringd` does
//! when given no tuning flags.

mod batch;
mod cell;
mod checks;
mod measure;
mod sessions;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use cell::CellResult;
use measure::{median, tail, Tracer};

/// End-to-end metrics: name and unit, in print order.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("sim_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cyc"),
    ("read_p50_cyc", "cyc"),
    ("read_p99_cyc", "cyc"),
    ("sessions_per_s", "1/s"),
    ("session_s_p50", "s"),
    ("session_s_tail", "s"),
    ("ctl_ms_p50", "ms"),
    ("ctl_ms_tail", "ms"),
];

/// Per-layer metrics (traced run): name and unit, in print order. A
/// layer a workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 46] = [
    ("sim.events", "count"),
    ("sim.events_per_op", "ratio"),
    ("sim.queue_peak", "count"),
    ("system.ns_per_event", "ns"),
    ("system.slice_ms_p50", "ms"),
    ("system.slice_ms_tail", "ms"),
    ("system.transactions", "count"),
    ("system.setup_share", "ratio"),
    ("coherence.snoops", "count"),
    ("coherence.snoops_skipped", "count"),
    ("coherence.collisions", "count"),
    ("coherence.retries", "count"),
    ("coherence.squash_marks", "count"),
    ("coherence.loser_hints", "count"),
    ("coherence.protocol_errors", "count"),
    ("coherence.ltt_stalled_responses", "count"),
    ("coherence.ltt_peak", "count"),
    ("coherence.npp_prefetches", "count"),
    ("coherence.ht_mem_fetches", "count"),
    ("noc.messages", "count"),
    ("noc.control_byte_hops", "byte-hops"),
    ("noc.data_byte_hops", "byte-hops"),
    ("noc.link_msgs_max", "count"),
    ("noc.link_msgs_mean", "count"),
    ("cache.read_misses", "count"),
    ("cache.c2c_share", "ratio"),
    ("mem.demand_fetches", "count"),
    ("mem.prefetch_fetches", "count"),
    ("mem.prefetch_hits", "count"),
    ("mem.prefetch_useful_ratio", "ratio"),
    ("cpu.ops_retired", "count"),
    ("stats.report_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.files_per_session", "count"),
    ("snapshot.bytes_per_session", "bytes"),
    ("server.create_ms", "ms"),
    ("server.start_ms", "ms"),
    ("server.status_ms", "ms"),
    ("server.kill_ms", "ms"),
    ("server.overhead_share", "ratio"),
    ("server.errors", "count"),
    ("server.refusals", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.invariant_violations", "count"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["uncorq64_pref", "eager64", "ht64_specweb", "ringd_sessions"];

/// Run options shared by every workload.
pub struct Opts {
    /// Workload seed: machine seeds and the session mix derive from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Test size: 4×4 machines, few ops, two sessions.
    pub tiny: bool,
    /// Ops per core of a batch cell or a session, overriding the size's
    /// default (to compare a workload's layer mix across sizes).
    pub ops: Option<u64>,
    /// Where spans, checkpoints and daemon state go.
    pub out_dir: PathBuf,
    /// Common time origin of every span.
    pub epoch: Instant,
}

/// What a run measured and checked.
pub struct Outcome {
    /// Operations attempted (cells or sessions).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Why they failed.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable details (tail percentiles and sample counts).
    pub notes: Vec<String>,
    /// Spans of the traced run.
    pub tracer: Tracer,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(epoch: Instant, trace: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            notes: Vec::new(),
            tracer: Tracer::new(trace, epoch),
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(why);
    }

    /// Counts one cell, failing it when its own checks failed or its
    /// digest differs from `expected`.
    pub fn cell(&mut self, c: &CellResult, expected: u64, label: &str) {
        self.attempted += 1;
        let mut bad: Vec<String> = c.failures.iter().map(|f| format!("{label}: {f}")).collect();
        if c.digest != expected {
            bad.push(format!(
                "{label}: report digest {:016x} differs from the first run's {expected:016x}",
                c.digest
            ));
        }
        if !bad.is_empty() {
            self.failed += 1;
            self.failures.extend(bad);
        }
    }

    /// Inserts `<prefix>_p50` and `<prefix>_tail` for a timing sample.
    pub fn timing(&mut self, prefix: &'static str, xs: &[f64]) {
        let (p50, tl) = match prefix {
            "session_s" => ("session_s_p50", "session_s_tail"),
            "ctl_ms" => ("ctl_ms_p50", "ctl_ms_tail"),
            _ => unreachable!("unknown timing {prefix}"),
        };
        let t = tail(xs);
        self.metrics.insert(p50, median(xs));
        self.metrics.insert(tl, t.value);
        self.notes.push(format!(
            "{tl} is p{:.1} of {} samples (10 beyond it; the median below 20)",
            t.pct, t.n
        ));
    }

    /// Per-layer metrics of traced cells: their counts (`layers`) plus
    /// the run-loop, slice and report timings from the spans.
    pub fn layers_from_cells(
        &mut self,
        layers: BTreeMap<&'static str, f64>,
        traced: &[CellResult],
    ) {
        let ns: Vec<f64> = traced
            .iter()
            .map(|c| {
                let check = c.layers.get("trace.check_s").copied().unwrap_or(0.0);
                let events = c.layers.get("sim.events").copied().unwrap_or(0.0).max(1.0);
                (c.times.run - check) / events * 1e9
            })
            .collect();
        self.metrics.extend(layers);
        self.metrics.insert("system.ns_per_event", median(&ns));
        let mut slices = self.tracer.durations("try_run_slice");
        slices.extend(self.tracer.durations("HtMachine::run"));
        let slices: Vec<f64> = slices.iter().map(|s| s * 1e3).collect();
        let t = tail(&slices);
        self.metrics.insert("system.slice_ms_p50", median(&slices));
        self.metrics.insert("system.slice_ms_tail", t.value);
        self.notes.push(format!(
            "system.slice_ms_tail is p{:.1} of {} slices",
            t.pct, t.n
        ));
        let report_ms = median(&self.tracer.durations("report"))
            + median(&self.tracer.durations("Report::write_stats"));
        self.metrics.insert("stats.report_ms", report_ms * 1e3);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1 [--size full|tiny] [--ops N]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The daemon child: `ringd`'s own entry point at default settings.
fn serve(args: &[String]) -> ExitCode {
    let (mut socket, mut root) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().map(PathBuf::from),
            "--state-root" => root = it.next().map(PathBuf::from),
            _ => return usage(),
        }
    }
    let (Some(socket), Some(root)) = (socket, root) else {
        return usage();
    };
    ring_server::daemon::install_signal_handlers();
    match ring_server::daemon::serve(&socket, ring_server::ServerConfig::new(root)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ringd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("ringd") {
        return serve(&args[1..]);
    }
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                kv.insert(&k[2..], v);
            }
            _ => return usage(),
        }
    }
    let (Some(workload), Some(Ok(seed)), Some(Ok(seconds)), Some(trace)) = (
        kv.get("workload").copied(),
        kv.get("seed").map(|s| s.parse::<u64>()),
        kv.get("seconds").map(|s| s.parse::<f64>()),
        kv.get("trace").copied(),
    ) else {
        return usage();
    };
    if !WORKLOADS.contains(&workload)
        || !matches!(trace, "0" | "1")
        || !seconds.is_finite()
        || seconds <= 0.0
    {
        return usage();
    }
    let tiny = match kv.get("size").copied().unwrap_or("full") {
        "full" => false,
        "tiny" => true,
        _ => return usage(),
    };
    let ops = match kv.get("ops").map(|s| s.parse::<u64>()) {
        None => None,
        Some(Ok(n)) if n > 0 => Some(n),
        Some(_) => return usage(),
    };
    let opts = Opts {
        seed,
        seconds,
        trace: trace == "1",
        tiny,
        ops,
        out_dir: PathBuf::from(".bench_out"),
        epoch: Instant::now(),
    };
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("perfbench: creating {}: {e}", opts.out_dir.display());
        return ExitCode::FAILURE;
    }
    let out = match batch::run(workload, &opts) {
        Some(out) => out,
        None => sessions::run(&opts),
    };
    report(workload, &opts, out)
}

/// Prints the human-readable lines and the JSON result line.
fn report(workload: &str, opts: &Opts, out: Outcome) -> ExitCode {
    let table: &[(&str, &str)] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "perfbench {workload} seed {} trace {} ({} s)",
        opts.seed,
        u8::from(opts.trace),
        opts.seconds
    );
    println!(
        "  note: host parallelism {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for n in &out.notes {
        println!("  note: {n}");
    }
    let mut correct = out.failed == 0 && out.attempted > 0;
    let mut fields = Vec::new();
    for (name, unit) in table {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if !opts.trace && v == 0.0 {
            // Every end-to-end metric is measured on every workload.
            correct = false;
            println!("  FAIL: {name} was not measured");
        }
        println!("  {name:<32} {v:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "  failed_ratio {}/{} = {:.4}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for f in out.failures.iter().take(20) {
        println!("  FAIL: {f}");
    }
    if opts.trace {
        let path = opts
            .out_dir
            .join(format!("spans-{workload}-{}.jsonl", opts.seed));
        match out.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "  spans: {} written to {}",
                out.tracer.spans().len(),
                path.display()
            ),
            Err(e) => println!("  spans: writing {} failed: {e}", path.display()),
        }
        for (name, s) in out.tracer.self_times() {
            println!("  self time {name:<28} {s:>10.4} s");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
