//! `ringprof` — time-resolved profiling report for one protocol cell.
//!
//! Runs a `(protocol × workload)` cell with the flight recorder and a
//! full event trace enabled, then reports where the time went:
//!
//! - per-window timeline with event rates, queue/LTT/MSHR occupancy,
//!   and the top-k hottest links and nodes of each window;
//! - phase-latency percentile table (request delivery, data transfer,
//!   response return — the paper's Figure 5 anatomy as distributions);
//! - per-class latency percentiles (read/write/upgrade × c2c/memory);
//! - stall attribution reusing the machine's stall-report plumbing
//!   (residual LTT/MSHR occupancy, retrying and starving lines).
//!
//! ```text
//! ringprof --app fmm --protocol uncorq [--prefetch] [--nodes 8x8]
//!          [--ops N] [--seed N] [--interval CYCLES] [--topk K]
//!          [--perfetto FILE] [--prometheus FILE] [--metrics-out FILE]
//!          [--flight-out FILE]
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::io::Write;
use std::process::ExitCode;

use uncorq::coherence::ProtocolKind;
use uncorq::stats::{Align, Table};
use uncorq::system::{Machine, MachineConfig};
use uncorq::trace::{
    perfetto_json, FlightConfig, FlightRecorder, SharedBufferSink, WindowSnapshot,
};
use uncorq::workloads::AppProfile;

struct Args {
    app: String,
    protocol: String,
    prefetch: bool,
    nodes: (usize, usize),
    ops: Option<u64>,
    seed: u64,
    interval: u64,
    topk: usize,
    perfetto: Option<String>,
    prometheus: Option<String>,
    metrics_out: Option<String>,
    flight_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            app: "fmm".into(),
            protocol: "uncorq".into(),
            prefetch: false,
            nodes: (8, 8),
            ops: None,
            seed: 2007,
            interval: 10_000,
            topk: 3,
            perfetto: None,
            prometheus: None,
            metrics_out: None,
            flight_out: None,
        }
    }
}

const USAGE: &str = "usage: ringprof [--app NAME] [--protocol eager|supersetcon|supersetagg|uncorq]
                [--prefetch] [--nodes WxH] [--ops N] [--seed N]
                [--interval CYCLES] [--topk K] [--perfetto FILE]
                [--prometheus FILE] [--metrics-out FILE] [--flight-out FILE]";

fn parse(mut argv: std::env::Args) -> Result<Args, String> {
    let mut a = Args::default();
    argv.next();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--app" => a.app = value("--app")?,
            "--protocol" => a.protocol = value("--protocol")?.to_lowercase(),
            "--prefetch" => a.prefetch = true,
            "--ops" => a.ops = Some(value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--interval" => {
                a.interval = value("--interval")?
                    .parse()
                    .map_err(|e| format!("--interval: {e}"))?;
                if a.interval == 0 {
                    return Err("--interval must be positive".into());
                }
            }
            "--topk" => {
                a.topk = value("--topk")?
                    .parse()
                    .map_err(|e| format!("--topk: {e}"))?
            }
            "--perfetto" => a.perfetto = Some(value("--perfetto")?),
            "--prometheus" => a.prometheus = Some(value("--prometheus")?),
            "--metrics-out" => a.metrics_out = Some(value("--metrics-out")?),
            "--flight-out" => a.flight_out = Some(value("--flight-out")?),
            "--nodes" => {
                let v = value("--nodes")?;
                let (w, h) = v
                    .split_once(['x', 'X'])
                    .ok_or_else(|| format!("--nodes expects WxH, got {v}"))?;
                a.nodes = (
                    w.parse().map_err(|e| format!("--nodes width: {e}"))?,
                    h.parse().map_err(|e| format!("--nodes height: {e}"))?,
                );
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn protocol_kind(name: &str) -> Result<ProtocolKind, String> {
    match name {
        "eager" => Ok(ProtocolKind::Eager),
        "supersetcon" => Ok(ProtocolKind::SupersetCon),
        "supersetagg" => Ok(ProtocolKind::SupersetAgg),
        "uncorq" => Ok(ProtocolKind::Uncorq),
        other => Err(format!("unknown protocol {other}\n{USAGE}")),
    }
}

/// Renders `[(index, value)]` as `i7:123 i2:45`.
fn hot_list(prefix: &str, items: &[(usize, u64)]) -> String {
    if items.is_empty() {
        return "-".into();
    }
    items
        .iter()
        .map(|(i, v)| format!("{prefix}{i}:{v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn window_table(windows: &[WindowSnapshot], topk: usize) -> String {
    let mut t = Table::new(
        [
            "Window end",
            "Cycles",
            "Events",
            "Ev/cyc",
            "Queue",
            "LTT",
            "MSHR",
            "Retry",
            "Hottest links",
            "Hottest nodes",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.align(vec![
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Left,
        Align::Left,
    ]);
    for w in windows {
        t.row(vec![
            format!("{}", w.window_end),
            format!("{}", w.cycles),
            format!("{}", w.events),
            format!("{:.2}", w.event_rate()),
            format!("{}", w.queue_depth),
            format!("{}", w.ltt_total),
            format!("{}", w.mshr_total),
            format!("{}", w.retries),
            hot_list("L", &w.hottest_links(topk)),
            hot_list("n", &w.hottest_nodes(topk)),
        ]);
    }
    t.render()
}

/// Aggregates the machine's per-node stall states into an attribution
/// breakdown. After a clean finish everything here is zero; after a cap
/// or stall it says which resource the unfinished nodes are stuck on.
fn stall_attribution(m: &Machine) -> String {
    let states = m.node_stall_states();
    let unfinished: Vec<u32> = states
        .iter()
        .filter(|s| !s.finished)
        .map(|s| s.node)
        .collect();
    let ltt: usize = states.iter().map(|s| s.ltt_occupancy).sum();
    let outstanding: usize = states.iter().map(|s| s.outstanding).sum();
    let pending: usize = states.iter().map(|s| s.pending_core).sum();
    let retrying: usize = states.iter().map(|s| s.retrying.len()).sum();
    let starving: Vec<u32> = states
        .iter()
        .filter(|s| s.starving_on.is_some())
        .map(|s| s.node)
        .collect();
    let mut out = String::new();
    out.push_str("stall attribution (end of run):\n");
    if unfinished.is_empty() && ltt + outstanding + pending + retrying == 0 {
        out.push_str("  all nodes finished; no residual occupancy\n");
        return out;
    }
    out.push_str(&format!(
        "  unfinished nodes : {} {:?}\n",
        unfinished.len(),
        unfinished
    ));
    out.push_str(&format!("  LTT entries held : {ltt}\n"));
    out.push_str(&format!("  outstanding misses: {outstanding}\n"));
    out.push_str(&format!("  pending core ops : {pending}\n"));
    out.push_str(&format!("  lines in retry   : {retrying}\n"));
    if !starving.is_empty() {
        out.push_str(&format!("  starving nodes   : {starving:?}\n"));
    }
    out
}

fn write_file(path: &str, what: &str, f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("{what} {path}: {e}");
        std::process::exit(1);
    });
    let mut w = std::io::BufWriter::new(file);
    f(&mut w).and_then(|()| w.flush()).unwrap_or_else(|e| {
        eprintln!("{what} {path}: {e}");
        std::process::exit(1);
    });
    eprintln!("{what} written to {path}");
}

fn main() -> ExitCode {
    let args = match parse(std::env::args()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let kind = match protocol_kind(&args.protocol) {
        Ok(k) => k,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let Some(mut profile) = AppProfile::by_name(&args.app) else {
        eprintln!("unknown application {}", args.app);
        return ExitCode::FAILURE;
    };
    if let Some(ops) = args.ops {
        profile = profile.scaled(ops);
    }
    let mut cfg = if args.prefetch {
        let mut c = MachineConfig::paper_uncorq_pref();
        c.protocol.kind = kind;
        c
    } else {
        MachineConfig::paper(kind)
    };
    cfg.width = args.nodes.0;
    cfg.height = args.nodes.1;
    cfg.seed = args.seed;

    let mut m = Machine::new(cfg, &profile);
    m.enable_flight_recorder(FlightRecorder::new(FlightConfig::with_interval(
        args.interval,
    )));
    let sink = SharedBufferSink::new();
    m.set_trace_sink(Box::new(sink.clone()));

    let report = match m.try_run() {
        Ok(r) => r,
        Err(stall) => {
            // The stall report itself is the most useful profile here;
            // print it and fall through to the windows we did record.
            eprintln!("{stall}");
            m.report()
        }
    };

    println!(
        "cell: {}{} {}x{}n {} seed {} — {} cycles, finished={}",
        args.protocol,
        if args.prefetch { "+pref" } else { "" },
        args.nodes.0,
        args.nodes.1,
        args.app,
        args.seed,
        report.exec_cycles,
        report.finished
    );
    let Some(recorder) = m.flight() else {
        eprintln!("flight recorder missing after the run (installed above)");
        return ExitCode::FAILURE;
    };
    let windows: Vec<WindowSnapshot> = recorder.snapshots().cloned().collect();
    println!(
        "windows: {} recorded at {}-cycle intervals ({} evicted from ring)",
        recorder.recorded(),
        args.interval,
        recorder.dropped()
    );
    println!();
    print!("{}", window_table(&windows, args.topk));
    println!();
    print!("{}", report.latency_table());
    println!();
    print!("{}", stall_attribution(&m));

    let events = sink.snapshot();
    if let Some(path) = &args.perfetto {
        let json = perfetto_json(&events, &windows);
        write_file(path, "perfetto trace", |w| w.write_all(json.as_bytes()));
    }
    if let Some(path) = &args.prometheus {
        write_file(path, "prometheus snapshot", |w| report.write_prometheus(w));
    }
    if let Some(path) = &args.metrics_out {
        write_file(path, "metrics json", |w| report.write_json(w));
    }
    if let Some(path) = &args.flight_out {
        write_file(path, "flight windows", |w| recorder.write_jsonl(w));
    }
    if report.finished {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
