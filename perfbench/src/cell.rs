//! One simulation cell: build a machine, run it to completion, report,
//! and check the result. The batch workloads repeat cells; the daemon
//! workload runs the same cells in-process as its bare baseline.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use ring_snapshot::fnv1a;
use ring_stats::LogHistogram;
use ring_system::{HtMachine, Machine, MachineConfig, Report, RunProgress};
use ring_trace::{FlightConfig, FlightRecorder};
use ring_workloads::AppProfile;

use crate::checks::{swmr_violations, CheckerSink};
use crate::measure::{secs, Tracer};

/// Events per `try_run_slice` call (the daemon worker's default slice
/// is 4096; a batch cell uses coarser slices so each is measurable).
pub const SLICE_EVENTS: u64 = 16_384;

/// Slices between two timed live status queries (`ctl_queries`) — the
/// in-process control round trip of a batch run, sampled across the
/// whole run. A run takes some fifty to a hundred and fifty samples, so
/// its tail (ten samples beyond) lies near p80-p90 rather than among
/// timer interrupts.
const CTL_EVERY: u64 = 64;

/// Timed status queries after an `HtMachine` run, which has no slices
/// to query between.
const CTL_PER_HT_CELL: usize = 4;

/// A cell is abandoned (and fails) after this much wall time.
const CELL_WALL_LIMIT_S: f64 = 60.0;

/// Flight-recorder window, in cycles, of the traced run.
const FLIGHT_WINDOW: u64 = 1_000;

/// Which machine a cell runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MachineKind {
    /// `Machine` (the five ring variants).
    Ring,
    /// `HtMachine` (the HyperTransport baseline).
    Ht,
}

/// What one cell simulates.
#[derive(Clone)]
pub struct CellSpec {
    /// Machine type.
    pub kind: MachineKind,
    /// Machine configuration (seed included).
    pub cfg: MachineConfig,
    /// Workload profile, already scaled.
    pub profile: AppProfile,
}

/// Wall-clock split of one cell.
#[derive(Clone, Debug, Default)]
pub struct CellTimes {
    /// Machine construction.
    pub setup: f64,
    /// Event loop (every slice).
    pub run: f64,
    /// `write_stats` plus digest.
    pub report: f64,
    /// Live `report()` query latencies.
    pub ctl: Vec<f64>,
    /// Whole lifecycle: construction to drop.
    pub session: f64,
}

impl CellTimes {
    /// Setup + run + report.
    pub fn cell(&self) -> f64 {
        self.setup + self.run + self.report
    }
}

/// Outcome of one cell.
pub struct CellResult {
    /// Timings.
    pub times: CellTimes,
    /// FNV-1a of `Report::write_stats` (0 when the run failed).
    pub digest: u64,
    /// The final report, when the run completed.
    pub report: Option<Report>,
    /// Everything that went wrong.
    pub failures: Vec<String>,
    /// Per-layer counts and timings (traced cells only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Traced-cell options.
pub struct Traced<'a> {
    /// Directory for the mid-run checkpoint.
    pub ckpt_dir: &'a Path,
    /// Cycle after which the one mid-run checkpoint is taken.
    pub ckpt_at: u64,
}

/// Digest of a report's plain-text statistics.
pub fn digest(report: &Report) -> (u64, Vec<u8>) {
    let mut buf = Vec::new();
    // Writing into a Vec cannot fail.
    let _ = report.write_stats(&mut buf);
    (fnv1a(&buf), buf)
}

/// Median and tail of the read latency over several runs' reports:
/// every read transaction (issue to completion) on the ring machine;
/// the HT machine records a distribution only for cache-to-cache reads.
pub fn read_percentiles(kind: MachineKind, reports: &[&Report]) -> (f64, f64) {
    match kind {
        MachineKind::Ring => {
            let mut h = LogHistogram::new();
            for r in reports {
                h.merge(&r.stats.class_latency.reads());
            }
            let (q, min) = (|p| h.percentile(p), h.min().unwrap_or(0));
            (interpolated(q, min, 50.0), interpolated(q, min, 99.0))
        }
        MachineKind::Ht => {
            let mut h = reports[0].stats.c2c_histogram.clone();
            for r in &reports[1..] {
                h.merge(&r.stats.c2c_histogram);
            }
            let (q, min) = (|p| h.percentile(p), h.min().unwrap_or(0));
            (interpolated(q, min, 50.0), interpolated(q, min, 99.0))
        }
    }
}

/// Percentile `p` of a bucketed distribution whose quantile function
/// `q` returns bucket edges, interpolated linearly inside the bucket
/// that holds it (whose lower edge is the previous bucket's upper edge,
/// or `min` for the first). The bare bucket edge would read the same for
/// most inputs and hide any shift smaller than a bucket.
pub fn interpolated(q: impl Fn(f64) -> u64, min: u64, p: f64) -> f64 {
    let v = q(p);
    // Bisect for the cumulative shares where `v`'s bucket starts (a)
    // and ends (b); q is a non-decreasing step function of p.
    let (mut below, mut a) = (0.0, p);
    let (mut b, mut above) = (p, 100.0);
    for _ in 0..60 {
        let m = (below + a) / 2.0;
        if q(m) >= v {
            a = m;
        } else {
            below = m;
        }
        let m = (b + above) / 2.0;
        if q(m) <= v {
            b = m;
        } else {
            above = m;
        }
    }
    let lower = if q(below) < v { q(below) } else { min.min(v) } as f64;
    if b <= a {
        return v as f64;
    }
    lower + (v as f64 - lower) * ((p - a) / (b - a)).clamp(0.0, 1.0)
}

/// Runs one cell. With `tracer` on, `traced` must be given: spans
/// bracket every layer call, the trace stream is checked, one mid-run
/// checkpoint is written and restored, and per-layer metrics are
/// collected.
pub fn run_cell(spec: &CellSpec, tr: &mut Tracer, traced: Option<&Traced<'_>>) -> CellResult {
    match spec.kind {
        MachineKind::Ring => run_ring(spec, tr, traced),
        MachineKind::Ht => run_ht(spec, tr, traced.is_some()),
    }
}

/// Seconds one machine construction takes (the machine is dropped
/// untimed).
pub fn construct(spec: &CellSpec) -> f64 {
    let t0 = Instant::now();
    let d = match spec.kind {
        MachineKind::Ring => {
            let m = Machine::new(spec.cfg.clone(), &spec.profile);
            let d = t0.elapsed();
            drop(m);
            d
        }
        MachineKind::Ht => {
            let m = HtMachine::new(spec.cfg.clone(), &spec.profile);
            let d = t0.elapsed();
            drop(m);
            d
        }
    };
    secs(d)
}

/// Times `n` live status queries: a `report()` rendered to the text a
/// status reply carries.
fn ctl_queries(tr: &mut Tracer, times: &mut CellTimes, n: usize, query: impl Fn() -> Report) {
    for _ in 0..n {
        let (r, d) = tr.span("report", &query);
        let (text, e) = tr.span("Report::write_stats", || digest(&r));
        std::hint::black_box(text);
        times.ctl.push(secs(d + e));
    }
}

fn finish_report(
    tr: &mut Tracer,
    report: &Report,
    times: &mut CellTimes,
    failures: &mut Vec<String>,
) -> u64 {
    let ((dg, _), d) = tr.span("Report::write_stats", || digest(report));
    times.report = secs(d);
    if !report.finished {
        failures.push("run ended with finished = false".to_string());
    }
    dg
}

fn run_ring(spec: &CellSpec, tr: &mut Tracer, traced: Option<&Traced<'_>>) -> CellResult {
    let cell = tr.open("cell");
    let mut times = CellTimes::default();
    let mut failures = Vec::new();
    let mut layers = BTreeMap::new();
    let (mut m, d) = tr.span("Machine::new", || {
        Machine::new(spec.cfg.clone(), &spec.profile)
    });
    times.setup = secs(d);
    let sink = CheckerSink::default();
    if traced.is_some() {
        tr.span("enable_flight_recorder", || {
            m.enable_flight_recorder(FlightRecorder::new(FlightConfig::with_interval(
                FLIGHT_WINDOW,
            )))
        });
        tr.span("set_trace_sink", || {
            m.set_trace_sink(Box::new(sink.clone()))
        });
    }
    let mut checkpointed = false;
    let mut slices = 0u64;
    let outcome = loop {
        let (step, d) = tr.span("try_run_slice", || m.try_run_slice(SLICE_EVENTS));
        times.run += secs(d);
        slices += 1;
        match step {
            Ok(RunProgress::Done(r)) => break Ok(*r),
            Ok(RunProgress::Yielded { cycle, .. }) => {
                if slices.is_multiple_of(CTL_EVERY) {
                    ctl_queries(tr, &mut times, 1, || m.report());
                }
                if let Some(t) = traced {
                    if !checkpointed && cycle >= t.ckpt_at {
                        checkpointed = true;
                        snapshot_round_trip(
                            spec,
                            &mut m,
                            tr,
                            t.ckpt_dir,
                            &mut layers,
                            &mut failures,
                        );
                    }
                }
                if times.run > CELL_WALL_LIMIT_S {
                    break Err(format!(
                        "cell exceeded {CELL_WALL_LIMIT_S} s of wall time at cycle {cycle}"
                    ));
                }
            }
            Err(stall) => break Err(format!("stalled: {stall}")),
        }
    };
    let report = match outcome {
        Ok(r) => Some(r),
        Err(e) => {
            failures.push(e);
            None
        }
    };
    let digest = match &report {
        Some(r) => finish_report(tr, r, &mut times, &mut failures),
        None => 0,
    };
    let errors: u64 = m.agents().iter().map(|a| a.stats().protocol_errors).sum();
    if errors > 0 {
        failures.push(format!("{errors} protocol errors"));
    }
    ctl_queries(tr, &mut times, 1, || m.report());
    if traced.is_some() {
        if let Some(r) = &report {
            ring_layers(&m, r, tr, &mut layers);
        }
        finish_checks(
            &sink,
            m.agents().iter().map(|a| a.l2()),
            &mut layers,
            &mut failures,
        );
    }
    drop(m);
    times.session = secs(tr.close(cell));
    CellResult {
        times,
        digest,
        report,
        failures,
        layers,
    }
}

/// Closes the trace check and the end-state SWMR check of a traced cell.
fn finish_checks<'a>(
    sink: &CheckerSink,
    l2s: impl Iterator<Item = &'a ring_cache::CacheArray>,
    layers: &mut BTreeMap<&'static str, f64>,
    failures: &mut Vec<String>,
) {
    let (violations, check_s) = sink.finish();
    let swmr = swmr_violations(l2s);
    layers.insert(
        "trace.invariant_violations",
        (violations.len() + swmr.len()) as f64,
    );
    layers.insert("trace.check_s", check_s);
    failures.extend(violations.into_iter().chain(swmr).take(20));
}

/// Writes one checkpoint, restores it into a second machine and checks
/// that both report the same statistics.
fn snapshot_round_trip(
    spec: &CellSpec,
    m: &mut Machine,
    tr: &mut Tracer,
    dir: &Path,
    layers: &mut BTreeMap<&'static str, f64>,
    failures: &mut Vec<String>,
) {
    let (written, d) = tr.span("checkpoint_now", || m.checkpoint_now(dir));
    let path = match written {
        Ok(p) => p,
        Err(e) => {
            failures.push(format!("checkpoint_now failed: {e}"));
            return;
        }
    };
    layers.insert("snapshot.write_ms", secs(d) * 1e3);
    layers.insert(
        "snapshot.bytes",
        std::fs::metadata(&path).map_or(0.0, |md| md.len() as f64),
    );
    let (restored, d) = tr.span("Machine::restore", || {
        Machine::restore(spec.cfg.clone(), &spec.profile, &path)
    });
    layers.insert("snapshot.restore_ms", secs(d) * 1e3);
    match restored {
        Ok(r) => {
            if digest(&r.report()).0 != digest(&m.report()).0 {
                failures.push("restored machine reports different statistics".to_string());
            }
        }
        Err(e) => failures.push(format!("Machine::restore failed: {e}")),
    }
    let _ = std::fs::remove_file(&path);
}

fn ring_layers(m: &Machine, r: &Report, tr: &mut Tracer, out: &mut BTreeMap<&'static str, f64>) {
    let s = &r.stats;
    let (agents, _) = tr.span("agents", || {
        let mut a = [0u64; 5];
        for ag in m.agents() {
            let st = ag.stats();
            a[0] += st.collisions;
            a[1] += st.squash_marks;
            a[2] += st.loser_hint_marks;
            a[3] += st.protocol_errors;
            a[4] += st.prefetches_issued;
        }
        a
    });
    let (mem, _) = tr.span("metrics", || {
        let mut a = [0u64; 3];
        for n in m.metrics().nodes() {
            a[0] += n.mem_demand;
            a[1] += n.mem_prefetch;
            a[2] += n.prefetch_hits;
        }
        a
    });
    let (qpeak, _) = tr.span("queue_peak", || m.queue_peak());
    common_layers(s, out);
    out.insert("sim.queue_peak", qpeak as f64);
    out.insert("coherence.collisions", agents[0] as f64);
    out.insert("coherence.squash_marks", agents[1] as f64);
    out.insert("coherence.loser_hints", agents[2] as f64);
    out.insert("coherence.protocol_errors", agents[3] as f64);
    out.insert("coherence.npp_prefetches", agents[4] as f64);
    out.insert("coherence.ltt_stalled_responses", s.ltt_stalls as f64);
    out.insert("coherence.ltt_peak", s.ltt_peak as f64);
    out.insert("coherence.retries", s.retries as f64);
    out.insert("coherence.snoops_skipped", s.snoops_skipped as f64);
    out.insert("mem.demand_fetches", mem[0] as f64);
    out.insert("mem.prefetch_fetches", mem[1] as f64);
    out.insert("mem.prefetch_hits", mem[2] as f64);
    out.insert(
        "mem.prefetch_useful_ratio",
        if mem[1] == 0 {
            0.0
        } else {
            mem[2] as f64 / mem[1] as f64
        },
    );
}

/// Counts both machines report the same way.
fn common_layers(s: &ring_system::MachineStats, out: &mut BTreeMap<&'static str, f64>) {
    out.insert("sim.events", s.events as f64);
    out.insert(
        "sim.events_per_op",
        s.events as f64 / s.ops_retired.max(1) as f64,
    );
    out.insert("system.transactions", s.transactions as f64);
    out.insert("coherence.snoops", s.snoops as f64);
    out.insert("noc.messages", s.traffic.messages() as f64);
    out.insert(
        "noc.control_byte_hops",
        s.traffic.control_byte_hops() as f64,
    );
    out.insert("noc.data_byte_hops", s.traffic.data_byte_hops() as f64);
    out.insert("noc.link_msgs_max", s.link_msgs.max().unwrap_or(0.0));
    out.insert("noc.link_msgs_mean", s.link_msgs.mean());
    out.insert("cache.read_misses", s.read_misses() as f64);
    out.insert("cache.c2c_share", s.c2c_fraction());
    out.insert("cpu.ops_retired", s.ops_retired as f64);
}

fn run_ht(spec: &CellSpec, tr: &mut Tracer, traced: bool) -> CellResult {
    let cell = tr.open("cell");
    let mut times = CellTimes::default();
    let mut failures = Vec::new();
    let mut layers = BTreeMap::new();
    let (mut m, d) = tr.span("HtMachine::new", || {
        HtMachine::new(spec.cfg.clone(), &spec.profile)
    });
    times.setup = secs(d);
    let sink = CheckerSink::default();
    if traced {
        tr.span("set_trace_sink", || {
            m.set_trace_sink(Box::new(sink.clone()))
        });
    }
    let (report, d) = tr.span("HtMachine::run", || m.run());
    times.run = secs(d);
    let digest = finish_report(tr, &report, &mut times, &mut failures);
    ctl_queries(tr, &mut times, CTL_PER_HT_CELL, || m.report());
    if traced {
        let (fetches, _) = tr.span("agents", || {
            m.agents()
                .iter()
                .map(|ag| ag.stats().mem_fetches)
                .sum::<u64>()
        });
        common_layers(&report.stats, &mut layers);
        layers.insert("coherence.ht_mem_fetches", fetches as f64);
        // The HT home fetches memory for every request it serializes:
        // these are the machine's demand fetches.
        layers.insert("mem.demand_fetches", fetches as f64);
        finish_checks(
            &sink,
            m.agents().iter().map(|a| a.l2()),
            &mut layers,
            &mut failures,
        );
    }
    drop(m);
    times.session = secs(tr.close(cell));
    CellResult {
        times,
        digest,
        report: Some(report),
        failures,
        layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_lands_inside_the_bucket() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let q = |p| h.percentile(p);
        let p50 = interpolated(q, 1, 50.0);
        assert!((495.0..=505.0).contains(&p50), "p50 {p50}");
        assert!(p50 <= h.p50() as f64);
        let p99 = interpolated(q, 1, 99.0);
        // A distribution inside one bucket interpolates from its minimum.
        let mut one = LogHistogram::new();
        for v in 580..=590u64 {
            one.record(v);
        }
        let p50 = interpolated(|p| one.percentile(p), 580, 50.0);
        assert!(p50 > 580.0 && p50 < 591.0, "p50 {p50}");
        assert!((985.0..=995.0).contains(&p99), "p99 {p99}");
    }
}
