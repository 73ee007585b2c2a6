//! The `ringd_sessions` workload: a `ringd` child at default settings,
//! driven over its Unix socket by closed-loop clients that each run
//! small 16-node sessions back to back (create → start → wait → kill).
//!
//! The clients run in rounds: in each, every client runs one session of
//! the same variant side by side, and as many in-process bare runs of
//! that variant follow side by side while the daemon is idle. The bare
//! baseline thus runs as the sessions do and samples the host every few
//! seconds across the whole run, and which sessions overlap in the
//! daemon (so its peak memory) does not depend on the order of the mix.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as Proc, Stdio};
use std::time::{Duration, Instant};

use ring_server::{Client, Command, ErrorKind, SessionSpec, WireError};
use ring_sim::DetRng;
use ring_snapshot::fnv1a;

use crate::cell::{read_percentiles, run_cell, CellResult, CellSpec, MachineKind, Traced};
use crate::measure::{median, secs, tail, vm_hwm_mb, Tracer};
use crate::{Opts, Outcome};

/// The five ring variants, by their wire names.
const VARIANTS: [&str; 5] = [
    "eager",
    "supersetcon",
    "supersetagg",
    "uncorq",
    "uncorq-pref",
];

/// Ops per core of one session at full size (the spec's `scale`): the
/// size of a batch cell, on a 4x4 torus.
const SCALE_FULL: u64 = 20_000;
/// Ops per core of one session in the tiny test size.
const SCALE_TINY: u64 = 1_000;

/// Closed-loop client connections (at most `nproc` = 2).
const CLIENTS: usize = 2;

/// Interval between `status` polls while a session runs.
const POLL: Duration = Duration::from_millis(10);

/// Share of the last same-spec session's run time a client sleeps
/// before its first status poll, so polls (and the control samples they
/// give) cluster near the end of a session instead of filling it.
const EARLY_WAIT: f64 = 0.8;

/// Daemon spawns per run; `setup_s` is their median.
const SPAWNS: usize = 7;

/// A session that has not reached a terminal state after this long fails.
const SESSION_LIMIT: Duration = Duration::from_secs(60);

/// One finished (or failed) session as a client saw it.
#[derive(Default)]
struct SessionRec {
    spec: usize,
    secs: f64,
    ok: bool,
    files: f64,
    bytes: f64,
}

/// What one client thread observed.
#[derive(Default)]
struct ClientLog {
    sessions: Vec<SessionRec>,
    status_ms: Vec<f64>,
    create_ms: Vec<f64>,
    start_ms: Vec<f64>,
    kill_ms: Vec<f64>,
    errors: Vec<String>,
    refusals: u64,
}

/// One client connection and what it has seen.
struct Conn {
    client: Client,
    log: ClientLog,
    tr: Tracer,
    /// Start-to-Done seconds of this client's last session of each
    /// spec: the first status poll waits for most of it.
    last_run_s: [f64; VARIANTS.len()],
}

/// A spawned daemon, killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns the daemon and waits for its first successful `status`;
    /// returns it with the seconds that took.
    fn spawn(dir: &Path, tag: usize) -> Result<(Daemon, f64), String> {
        let socket = dir.join(format!("d{tag}.sock"));
        let root = dir.join(format!("state{tag}"));
        let log = std::fs::File::create(dir.join(format!("d{tag}.log")))
            .map_err(|e| format!("daemon log: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let t0 = Instant::now();
        let child = Proc::new(exe)
            .arg("ringd")
            .arg("--socket")
            .arg(&socket)
            .arg("--state-root")
            .arg(&root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let d = Daemon { child, socket };
        loop {
            if let Ok(mut c) = Client::connect(&d.socket) {
                if c.request(Command::Status { session: None }).is_ok() {
                    return Ok((d, secs(t0.elapsed())));
                }
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("daemon never answered status".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.socket).map_err(|e| e.to_string())?;
        c.request(Command::Shutdown).map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(st)) = self.child.try_wait() {
                return if st.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {st}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not exit after shutdown".to_string())
    }
}

fn is_refusal(e: &WireError) -> bool {
    matches!(e.kind, ErrorKind::Busy | ErrorKind::QueueFull)
}

/// Times one request, as a span when tracing.
fn timed(
    c: &mut Client,
    tr: &mut Tracer,
    name: &'static str,
    cmd: Command,
    into: &mut Vec<f64>,
) -> Result<ring_server::Reply, WireError> {
    let (r, d) = tr.span(name, || c.request(cmd));
    into.push(secs(d) * 1e3);
    r
}

/// Shared, read-only inputs of the client threads.
struct Plan {
    socket: PathBuf,
    state_root: PathBuf,
    specs: Vec<SessionSpec>,
    expected: Vec<u64>,
}

/// One session of `spec` on `conn`, killed and cleaned up afterwards.
fn session(plan: &Plan, conn: &mut Conn, name: &str, spec: usize) {
    let t0 = Instant::now();
    let mut rec = SessionRec {
        spec,
        ..SessionRec::default()
    };
    let sess = conn.tr.open("session");
    let outcome = drive(plan, conn, name, spec, &mut rec);
    rec.secs = secs(t0.elapsed());
    let kill = timed(
        &mut conn.client,
        &mut conn.tr,
        "Client::request(kill)",
        Command::Kill {
            session: name.to_string(),
        },
        &mut conn.log.kill_ms,
    );
    conn.tr.close(sess);
    let _ = std::fs::remove_dir_all(plan.state_root.join(name));
    match outcome.and(
        kill.map(|_| ())
            .map_err(|e| (format!("kill {name}: {e}"), is_refusal(&e))),
    ) {
        Ok(()) => rec.ok = true,
        Err((msg, refused)) => {
            conn.log.refusals += u64::from(refused);
            conn.log.errors.push(msg);
        }
    }
    conn.log.sessions.push(rec);
}

/// create → start → poll status until terminal → check the report.
fn drive(
    plan: &Plan,
    conn: &mut Conn,
    name: &str,
    spec: usize,
    rec: &mut SessionRec,
) -> Result<(), (String, bool)> {
    let Conn {
        client: c,
        log,
        tr,
        last_run_s,
    } = conn;
    let fail = |what: &str, e: WireError| (format!("{what} {name}: {e}"), is_refusal(&e));
    let create = Command::Create {
        session: name.to_string(),
        spec: plan.specs[spec].clone(),
    };
    timed(c, tr, "Client::request(create)", create, &mut log.create_ms)
        .map_err(|e| fail("create", e))?;
    let start = Command::Start {
        session: name.to_string(),
    };
    timed(c, tr, "Client::request(start)", start, &mut log.start_ms)
        .map_err(|e| fail("start", e))?;
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(EARLY_WAIT * last_run_s[spec]));
    let (reply, state) = loop {
        std::thread::sleep(POLL);
        let status = Command::Status {
            session: Some(name.to_string()),
        };
        let r = timed(c, tr, "Client::request(status)", status, &mut log.status_ms)
            .map_err(|e| fail("status", e))?;
        let state = r.body.get("state").and_then(|s| s.as_str()).unwrap_or("");
        if matches!(state, "finished" | "stalled" | "dead") {
            let state = state.to_string();
            break (r, state);
        }
        if t0.elapsed() > SESSION_LIMIT {
            return Err((format!("session {name} never reached Done"), false));
        }
    };
    last_run_s[spec] = secs(t0.elapsed());
    if state != "finished" {
        return Err((format!("session {name} ended {state}"), false));
    }
    let text = reply
        .body
        .get("report")
        .and_then(|s| s.as_str())
        .unwrap_or("");
    if fnv1a(text.as_bytes()) != plan.expected[spec] {
        return Err((
            format!(
                "session {name} ({}) report digest differs from the in-process run",
                plan.specs[spec].variant
            ),
            false,
        ));
    }
    let dir = plan.state_root.join(name);
    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        let len = entry.metadata().map_or(0, |m| m.len());
        rec.bytes += len as f64;
        if entry.file_name().to_string_lossy().ends_with(".ringsnap") {
            rec.files += 1.0;
        }
    }
    Ok(())
}

/// One round: every client runs one session of `spec` side by side.
/// Returns the round's seconds and how many client threads panicked.
fn round(plan: &Plan, conns: &mut [Conn], r: usize, spec: usize) -> (f64, usize) {
    let t0 = Instant::now();
    let panics = std::thread::scope(|s| {
        let hs: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| s.spawn(move || session(plan, conn, &format!("s{r}c{i}"), spec)))
            .collect();
        hs.into_iter().map(|h| usize::from(h.join().is_err())).sum()
    });
    (secs(t0.elapsed()), panics)
}

/// Runs `CLIENTS` in-process bare cells of `cell` side by side, as the
/// daemon runs a round's sessions; a panicked run counts as a failure.
fn bare_runs(cell: &CellSpec, epoch: Instant, out: &mut Outcome) -> Vec<CellResult> {
    let joined: Vec<_> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| run_cell(cell, &mut Tracer::new(false, epoch), None)))
            .collect();
        hs.into_iter().map(|h| h.join()).collect()
    });
    let mut runs = Vec::new();
    for j in joined {
        match j {
            Ok(c) => runs.push(c),
            Err(_) => out.fail("bare run panicked".to_string()),
        }
    }
    runs
}

/// Moves every client's log out into one, and its spans into `tr`.
fn collect(conns: &mut [Conn], traced: bool, epoch: Instant, tr: &mut Tracer) -> ClientLog {
    let mut all = ClientLog::default();
    for c in conns {
        let l = std::mem::take(&mut c.log);
        all.sessions.extend(l.sessions);
        all.status_ms.extend(l.status_ms);
        all.create_ms.extend(l.create_ms);
        all.start_ms.extend(l.start_ms);
        all.kill_ms.extend(l.kill_ms);
        all.errors.extend(l.errors);
        all.refusals += l.refusals;
        tr.absorb(std::mem::replace(&mut c.tr, Tracer::new(traced, epoch)));
    }
    all
}

/// The session specs of one run: the five variants on a 4×4 torus, all
/// with the run's seed.
fn specs(seed: u64, scale: u64) -> Vec<SessionSpec> {
    VARIANTS
        .iter()
        .map(|v| SessionSpec {
            variant: (*v).to_string(),
            workload: "fmm".to_string(),
            scale,
            seed,
            ..SessionSpec::default()
        })
        .collect()
}

/// The variant of each round, a seeded mix over the specs: consecutive
/// blocks each holding every variant once, in a seeded order, so every
/// run sees the same shares.
fn mix(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = DetRng::seed(seed ^ 0x5e55_1015);
    let mut out = Vec::new();
    for _ in 0..200 {
        let mut block: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        out.extend(block);
    }
    out
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new(opts.epoch, opts.trace);
    let scale = opts
        .ops
        .unwrap_or(if opts.tiny { SCALE_TINY } else { SCALE_FULL });
    let specs = specs(opts.seed, scale);
    // In-process bare runs of every spec: the expected digests, the
    // daemon-free cell time, and (traced) the per-layer counts.
    let cells: Vec<CellSpec> = match specs
        .iter()
        .map(SessionSpec::build)
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(v) => v
            .into_iter()
            .map(|(cfg, profile)| CellSpec {
                kind: MachineKind::Ring,
                cfg,
                profile,
            })
            .collect(),
        Err(e) => {
            out.fail(format!("session spec does not build: {e}"));
            return out;
        }
    };
    // Bare runs of each spec before the daemon starts give the expected
    // digests; each client round adds more of its spec.
    let mut bare: Vec<Vec<CellResult>> = cells
        .iter()
        .map(|c| bare_runs(c, opts.epoch, &mut out))
        .collect();
    if bare.iter().any(Vec::is_empty) {
        return out;
    }
    let expected: Vec<u64> = bare.iter().map(|runs| runs[0].digest).collect();

    let dir = opts.out_dir.join(format!("ringd-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.fail(format!("creating {}: {e}", dir.display()));
        return out;
    }
    let mut setups = Vec::new();
    let mut daemon = None;
    for tag in 0..SPAWNS {
        match Daemon::spawn(&dir, tag) {
            Ok((d, s)) => {
                setups.push(s);
                if tag + 1 < SPAWNS {
                    if let Err(e) = d.shutdown() {
                        out.fail(format!("daemon shutdown: {e}"));
                    }
                } else {
                    daemon = Some((d, tag));
                }
            }
            Err(e) => out.fail(e),
        }
    }
    let Some((daemon, tag)) = daemon else {
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    };
    let plan = Plan {
        socket: daemon.socket.clone(),
        state_root: dir.join(format!("state{tag}")),
        specs: specs.clone(),
        expected: expected.clone(),
    };
    let mut conns = Vec::new();
    for _ in 0..CLIENTS {
        match Client::connect(&plan.socket) {
            Ok(client) => conns.push(Conn {
                client,
                log: ClientLog::default(),
                tr: Tracer::new(false, opts.epoch),
                last_run_s: [0.0; VARIANTS.len()],
            }),
            Err(e) => out.fail(format!("connect: {e}")),
        }
    }
    let order = mix(opts.seed, specs.len());
    // Rounds run while the next one, at the median round time so far,
    // still ends within the budget: the run's seconds from its start, or
    // 45% of them for each phase of a traced run. The tiny size runs one.
    let budget = if opts.trace {
        0.45 * opts.seconds
    } else {
        opts.seconds
    };
    let more = |times: &[f64], since: Instant| {
        times.is_empty() || (!opts.tiny && since.elapsed().as_secs_f64() + median(times) <= budget)
    };
    let mut r = 0;
    let mut window = 0.0;
    let mut times = Vec::new();
    while conns.len() == CLIENTS && more(&times, opts.epoch) {
        let t0 = Instant::now();
        let spec = order[r % order.len()];
        let (w, panics) = round(&plan, &mut conns, r, spec);
        for _ in 0..panics {
            out.fail("client thread panicked".to_string());
        }
        let runs = bare_runs(&cells[spec], opts.epoch, &mut out);
        bare[spec].extend(runs);
        window += w;
        times.push(secs(t0.elapsed()));
        r += 1;
    }
    let plain = collect(
        &mut conns,
        opts.trace,
        opts.epoch,
        &mut Tracer::new(false, opts.epoch),
    );
    let traced_log = if opts.trace {
        let (t1, mut times) = (Instant::now(), Vec::new());
        while conns.len() == CLIENTS && more(&times, t1) {
            let (w, panics) = round(&plan, &mut conns, r, order[r % order.len()]);
            for _ in 0..panics {
                out.fail("client thread panicked".to_string());
            }
            times.push(w);
            r += 1;
        }
        Some(collect(&mut conns, false, opts.epoch, &mut out.tracer))
    } else {
        None
    };
    // Idle connections would hold up the daemon's drain.
    drop(conns);
    let rss = vm_hwm_mb(Some(daemon.child.id()));
    if let Err(e) = daemon.shutdown() {
        out.fail(format!("daemon shutdown: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (i, runs) in bare.iter().enumerate() {
        for r in runs {
            out.cell(r, expected[i], VARIANTS[i]);
        }
    }
    let bare_s: Vec<f64> = bare
        .iter()
        .map(|runs| median(&runs.iter().map(|c| c.times.cell()).collect::<Vec<_>>()))
        .collect();

    for log in std::iter::once(&plain).chain(traced_log.as_ref()) {
        for s in &log.sessions {
            out.attempted += 1;
            if !s.ok {
                out.failed += 1;
            }
        }
        out.failures.extend(log.errors.iter().take(20).cloned());
    }
    let done: Vec<&SessionRec> = plain.sessions.iter().filter(|s| s.ok).collect();
    let session_s: Vec<f64> = done.iter().map(|s| s.secs).collect();
    let ops: f64 = done
        .iter()
        .map(|s| {
            bare[s.spec][0]
                .report
                .as_ref()
                .map_or(0.0, |r| r.stats.ops_retired as f64)
        })
        .sum();

    if !opts.trace {
        let firsts: Vec<&ring_system::Report> = bare
            .iter()
            .filter_map(|runs| runs[0].report.as_ref())
            .collect();
        let (p50, p99) = read_percentiles(MachineKind::Ring, &firsts);
        let cycles: f64 = firsts.iter().map(|r| r.exec_cycles as f64).sum();
        let m = &mut out.metrics;
        m.insert("setup_s", median(&setups));
        // Mean over the five specs: a median across specs would jump
        // between variants from run to run.
        m.insert("cell_s", bare_s.iter().sum::<f64>() / bare_s.len() as f64);
        m.insert("sim_ops_per_s", ops / window);
        m.insert("peak_rss_mb", rss.unwrap_or(0.0));
        m.insert("sim_cycles", cycles / firsts.len().max(1) as f64);
        m.insert("read_p50_cyc", p50);
        m.insert("read_p99_cyc", p99);
        m.insert("sessions_per_s", done.len() as f64 / window);
        out.timing("session_s", &session_s);
        out.timing("ctl_ms", &plain.status_ms);
        out.notes.push(format!(
            "sessions: {} finished of {} in {window:.2} s; daemon setups {setups:.4?} s",
            done.len(),
            plain.sessions.len()
        ));
        for (i, v) in VARIANTS.iter().enumerate() {
            let xs: Vec<f64> = done
                .iter()
                .filter(|s| s.spec == i)
                .map(|s| s.secs)
                .collect();
            let runs: Vec<f64> = bare[i].iter().map(|c| c.times.cell()).collect();
            out.notes.push(format!(
                "{v:<12} bare {:.4} s (of {runs:.3?}), in ringd p50 {:.4} s over {} sessions",
                bare_s[i],
                median(&xs),
                xs.len()
            ));
        }
        return out;
    }

    // Traced: one traced bare cell per spec gives the simulator layers
    // (mean over the five specs); the traced client phase the server
    // layers.
    let ckpt = dir.with_extension("ckpt");
    let _ = std::fs::create_dir_all(&ckpt);
    let mut layer_mean: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut traced = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        let at = bare[i][0].report.as_ref().map_or(0, |r| r.exec_cycles / 2);
        let t = Traced {
            ckpt_dir: &ckpt,
            ckpt_at: at,
        };
        let r = run_cell(c, &mut out.tracer, Some(&t));
        out.cell(&r, bare[i][0].digest, VARIANTS[i]);
        for (k, v) in &r.layers {
            *layer_mean.entry(k).or_insert(0.0) += v / cells.len() as f64;
        }
        traced.push(r);
    }
    let _ = std::fs::remove_dir_all(&ckpt);
    out.layers_from_cells(layer_mean, &traced);
    let setup_traced: Vec<f64> = traced.iter().map(|c| c.times.setup).collect();
    let tl = traced_log.unwrap_or_default();
    let t_done: Vec<&SessionRec> = tl.sessions.iter().filter(|s| s.ok).collect();
    let t_secs: Vec<f64> = t_done.iter().map(|s| s.secs).collect();
    let overhead: Vec<f64> = t_done
        .iter()
        .chain(done.iter())
        .map(|s| 1.0 - bare_s[s.spec] / s.secs)
        .collect();
    let m = &mut out.metrics;
    m.insert("server.create_ms", median(&tl.create_ms));
    m.insert("server.start_ms", median(&tl.start_ms));
    m.insert("server.status_ms", median(&tl.status_ms));
    m.insert("server.kill_ms", median(&tl.kill_ms));
    m.insert("server.overhead_share", median(&overhead));
    m.insert(
        "server.errors",
        (plain.errors.len() + tl.errors.len()) as f64 - (plain.refusals + tl.refusals) as f64,
    );
    m.insert("server.refusals", (plain.refusals + tl.refusals) as f64);
    // A session's directory is a function of its spec, so take the first
    // finished session of each spec and average over specs: a median over
    // all sessions would depend on how many of each the run finished.
    let firsts: Vec<&SessionRec> = (0..VARIANTS.len())
        .filter_map(|i| {
            done.iter()
                .chain(t_done.iter())
                .find(|s| s.spec == i)
                .copied()
        })
        .collect();
    let per_spec = |f: fn(&SessionRec) -> f64| {
        firsts.iter().map(|s| f(s)).sum::<f64>() / firsts.len().max(1) as f64
    };
    m.insert("snapshot.files_per_session", per_spec(|s| s.files));
    m.insert("snapshot.bytes_per_session", per_spec(|s| s.bytes));
    m.insert(
        "system.setup_share",
        median(&setup_traced) / median(&session_s).max(1e-12),
    );
    m.insert(
        "trace.overhead_ratio",
        median(&t_secs) / median(&session_s).max(1e-12),
    );
    let st = tail(&tl.status_ms);
    out.notes.push(format!(
        "traced sessions: {} finished; status p50 {:.3} ms, p{:.1} {:.3} ms over {} requests",
        t_done.len(),
        median(&tl.status_ms),
        st.pct,
        st.value,
        st.n
    ));
    out
}
