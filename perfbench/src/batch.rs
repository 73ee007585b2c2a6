//! The batch workloads: 64-node cells repeated for the run's duration,
//! every repeat checked against the first run of the same input.

use std::time::Instant;

use ring_coherence::ProtocolKind;
use ring_system::MachineConfig;
use ring_workloads::AppProfile;

use crate::cell::{
    construct, read_percentiles, run_cell, CellResult, CellSpec, MachineKind, Traced,
};
use crate::measure::{median, vm_hwm_mb, Tracer};
use crate::{Opts, Outcome};

/// Ops per core of one batch cell at full size: the size of every
/// 64-node row in `results/BENCH_machine.json` and of `bench_sweep`'s
/// default cells. At 2000 ops the layer mix differs (set-up takes about
/// ten times its share, the ring run loop 17-33% less per event), so
/// cells stay at the size people run (`size_evidence` in records.json).
const OPS_FULL: u64 = 20_000;
/// Ops per core of one batch cell in the tiny test size.
const OPS_TINY: u64 = 800;

/// Set-up-only machine constructions, before the cells, whose median
/// is `setup_s`.
const SETUPS: usize = 15;

/// Most threads an untraced run simulates cells on (the host's `nproc`).
const THREADS: usize = 2;

/// Ops per core of one batch cell of a run.
fn ops(opts: &Opts) -> u64 {
    opts.ops
        .unwrap_or(if opts.tiny { OPS_TINY } else { OPS_FULL })
}

/// The cell a batch workload runs on `seed`, or `None` for another name.
pub fn spec(workload: &str, tiny: bool, ops: u64, seed: u64) -> Option<CellSpec> {
    let (kind, mut cfg, app) = match workload {
        "uncorq64_pref" => (MachineKind::Ring, MachineConfig::paper_uncorq_pref(), "fmm"),
        "eager64" => (
            MachineKind::Ring,
            MachineConfig::paper(ProtocolKind::Eager),
            "fmm",
        ),
        // The HT machine reads only the snoop latency from the protocol
        // config; this is the config the `uncorq --protocol ht` path uses.
        "ht64_specweb" => (
            MachineKind::Ht,
            MachineConfig::paper(ProtocolKind::Eager),
            "SPECweb",
        ),
        _ => return None,
    };
    // The test size shrinks the torus to 4x4, except for Uncorq+Pref:
    // its LTT ordering stalls and loser hints need 64 nodes to fire.
    if tiny && workload != "uncorq64_pref" {
        cfg.width = 4;
        cfg.height = 4;
    }
    cfg.seed = seed;
    let profile = AppProfile::by_name(app)?.scaled(ops);
    Some(CellSpec { kind, cfg, profile })
}

fn col(cells: &[CellResult], f: impl Fn(&CellResult) -> f64) -> Vec<f64> {
    cells.iter().map(f).collect()
}

/// Runs a batch workload: cells of the one input `--seed` names, each
/// checked against the first one's digest. An untraced run runs them
/// side by side on up to `THREADS` threads, as `bench_sweep` runs a grid
/// (one cell per available core); a traced run on one, so that traced
/// and untraced cells compare alike. Each thread runs at least one cell
/// (two when alone, so that the second checks the first) and more while
/// the next one, at its median cell time so far, still ends within the
/// run's budget.
pub fn run(workload: &str, opts: &Opts) -> Option<Outcome> {
    let spec = spec(workload, opts.tiny, ops(opts), opts.seed)?;
    let mut out = Outcome::new(opts.epoch, opts.trace);
    let budget = if opts.trace {
        0.45 * opts.seconds
    } else {
        opts.seconds
    };
    let fits = |cells: &[CellResult], since: Instant| {
        let next = median(&col(cells, |c| c.times.session));
        !opts.tiny && since.elapsed().as_secs_f64() + next <= budget
    };
    let setups: Vec<f64> = (0..SETUPS).map(|_| construct(&spec)).collect();
    let threads = if opts.trace {
        1
    } else {
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(THREADS)
    };
    let least = if threads == 1 { 2 } else { 1 };
    let t0 = Instant::now();
    let runs: Vec<_> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut off = Tracer::new(false, opts.epoch);
                    let mut cells = Vec::new();
                    while cells.len() < least || fits(&cells, opts.epoch) {
                        cells.push(run_cell(&spec, &mut off, None));
                    }
                    cells
                })
            })
            .collect();
        hs.into_iter().map(|h| h.join()).collect()
    });
    let window = t0.elapsed().as_secs_f64();
    let mut plain: Vec<CellResult> = Vec::new();
    for r in runs {
        match r {
            Ok(cells) => plain.extend(cells),
            Err(_) => out.fail("cell thread panicked".to_string()),
        }
    }
    let Some(expected) = plain.first().map(|c| c.digest) else {
        return Some(out);
    };
    for c in &plain {
        out.cell(c, expected, "cell");
    }
    if !opts.trace {
        let first = plain[0].report.as_ref();
        let (p50, p99) = first.map_or((0.0, 0.0), |r| read_percentiles(spec.kind, &[r]));
        let cycles = first.map_or(0.0, |r| r.exec_cycles as f64);
        let ops_per_s = |c: &CellResult| {
            c.report
                .as_ref()
                .map_or(0.0, |r| r.stats.ops_retired as f64 / c.times.run)
        };
        let ctl: Vec<f64> = plain
            .iter()
            .flat_map(|c| c.times.ctl.iter().map(|s| s * 1e3))
            .collect();
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        m.insert("cell_s", median(&col(&plain, |c| c.times.cell())));
        m.insert("sim_ops_per_s", median(&col(&plain, ops_per_s)));
        m.insert("peak_rss_mb", vm_hwm_mb(None).unwrap_or(0.0));
        m.insert("sim_cycles", cycles);
        m.insert("read_p50_cyc", p50);
        m.insert("read_p99_cyc", p99);
        m.insert("sessions_per_s", plain.len() as f64 / window);
        out.timing("session_s", &col(&plain, |c| c.times.session));
        out.timing("ctl_ms", &ctl);
        out.notes.push(format!(
            "{} cells of machine seed {} on {threads} threads in {window:.2} s; set-ups {setups:.4?} s",
            plain.len(),
            opts.seed,
        ));
        if let (Some(r), MachineKind::Ht) = (first, spec.kind) {
            out.notes.push(format!(
                "read_p50/p99_cyc are of cache-to-cache reads only ({} of {} reads); all reads average {:.1} cyc",
                r.stats.reads_c2c,
                r.stats.reads_c2c + r.stats.reads_mem,
                r.stats.read_latency.mean()
            ));
        }
        return Some(out);
    }

    let ckpt = opts.out_dir.join(format!("ckpt-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&ckpt) {
        out.fail(format!("creating {}: {e}", ckpt.display()));
        return Some(out);
    }
    let traced_opts = Traced {
        ckpt_dir: &ckpt,
        ckpt_at: plain[0].report.as_ref().map_or(0, |r| r.exec_cycles / 2),
    };
    let mut traced = Vec::new();
    let t1 = Instant::now();
    while traced.is_empty() || fits(&traced, t1) {
        traced.push(run_cell(&spec, &mut out.tracer, Some(&traced_opts)));
    }
    let _ = std::fs::remove_dir_all(&ckpt);
    for c in &traced {
        // Observation must not perturb the simulation.
        out.cell(c, expected, "traced cell");
    }
    let last = traced.last().map(|c| c.layers.clone()).unwrap_or_default();
    out.layers_from_cells(last, &traced);
    let plain_cell = median(&col(&plain, |c| c.times.cell()));
    let traced_cell = median(&col(&traced, |c| c.times.cell()));
    out.metrics
        .insert("system.setup_share", median(&setups) / plain_cell);
    out.metrics
        .insert("trace.overhead_ratio", traced_cell / plain_cell);
    out.notes.push(format!(
        "{} untraced and {} traced cells",
        plain.len(),
        traced.len()
    ));
    Some(out)
}
