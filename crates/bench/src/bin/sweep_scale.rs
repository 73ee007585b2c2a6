//! Scaling study: the paper's introduction motivates embedded-ring
//! snooping for "medium-scale shared-memory multiprocessors with 32-128
//! processor cores". This sweep runs the fmm profile on 16-, 32-, 64- and
//! 128-node tori and shows the scaling asymmetry the paper's design
//! exploits: Eager's cache-to-cache latency grows with the ring length
//! (requests walk the ring), while Uncorq's stays near-flat (requests go
//! point-to-point); the response lap — off the critical path for reads —
//! grows linearly for both.
//!
//! Usage: `cargo run --release -p bench --bin sweep_scale [app]`

#![forbid(unsafe_code)]

use bench::{maybe_fast, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_system::{Machine, MachineConfig};
use ring_workloads::AppProfile;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "fmm".to_string());
    let profile = maybe_fast(AppProfile::by_name(&app).expect("known app"));
    let mut t = Table::new(
        [
            "Nodes",
            "Eager c2c",
            "Uncorq c2c",
            "c2c speedup",
            "Eager mem",
            "Uncorq mem",
            "Exec ratio U/E",
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
    ]);
    for (w, h) in [(4usize, 4usize), (8, 4), (8, 8), (16, 8)] {
        let run = |kind: ProtocolKind| {
            let mut cfg = MachineConfig::paper(kind);
            cfg.width = w;
            cfg.height = h;
            cfg.seed = SEED;
            let r = Machine::new(cfg, &profile).run();
            assert!(r.finished, "{kind} on {w}x{h} stalled");
            r
        };
        let e = run(ProtocolKind::Eager);
        let u = run(ProtocolKind::Uncorq);
        t.row(vec![
            format!("{}", w * h),
            format!("{:.0}", e.stats.read_latency_c2c.mean()),
            format!("{:.0}", u.stats.read_latency_c2c.mean()),
            format!(
                "{:.1}x",
                e.stats.read_latency_c2c.mean() / u.stats.read_latency_c2c.mean()
            ),
            format!("{:.0}", e.stats.read_latency_mem.mean()),
            format!("{:.0}", u.stats.read_latency_mem.mean()),
            format!("{:.2}", u.exec_cycles as f64 / e.exec_cycles as f64),
        ]);
        eprintln!("  done: {}x{h}", w);
    }
    println!("Scaling study on `{app}` (paper motivation: 32-128 cores)\n");
    println!("{}", t.render());
    println!("Eager's c2c latency grows with node count (the request walks the");
    println!("ring); Uncorq's grows only with network diameter. The memory path");
    println!("(the full response lap) grows linearly for both — the cost the");
    println!("§5.4 prefetching optimization targets.");
}
