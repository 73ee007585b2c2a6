//! Calibration sweep: per-app latency and c2c fraction for each protocol,
//! side by side with the paper's Figure 8(c) targets. Not a paper figure
//! itself — a development tool to tune the workload profiles.
//!
//! Usage: `cargo run --release -p bench --bin calibrate [app ...]`

#![forbid(unsafe_code)]

use bench::{maybe_fast, run_cell, Proto, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_workloads::AppProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profiles: Vec<AppProfile> = if args.is_empty() {
        AppProfile::all()
    } else {
        args.iter()
            .map(|a| AppProfile::by_name(a).unwrap_or_else(|| panic!("unknown app {a}")))
            .collect()
    };
    let mut t = Table::new(
        [
            "App", "Eager", "Uncorq", "U+Pref", "HT", "c2c%", "tgt", "E c2c", "U c2c", "retries",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for p in profiles {
        let prof = maybe_fast(p.clone());
        let e = run_cell(Proto::Ring(ProtocolKind::Eager), &prof, SEED);
        let u = run_cell(Proto::Ring(ProtocolKind::Uncorq), &prof, SEED);
        let up = run_cell(Proto::UncorqPref, &prof, SEED);
        let ht = run_cell(Proto::Ht, &prof, SEED);
        // Paper c2c targets are encoded in the profile shares.
        let shared =
            prof.shared_migratory + prof.shared_read_mostly + prof.shared_producer_consumer;
        let tgt = shared / (shared + (1.0 - shared) * prof.private_miss_rate);
        t.row(vec![
            p.name.clone(),
            format!("{:.0}", e.stats.read_latency.mean()),
            format!("{:.0}", u.stats.read_latency.mean()),
            format!("{:.0}", up.stats.read_latency.mean()),
            format!("{:.0}", ht.stats.read_latency.mean()),
            format!("{:.0}", 100.0 * u.stats.c2c_fraction()),
            format!("{:.0}", 100.0 * tgt),
            format!("{:.0}", e.stats.read_latency_c2c.mean()),
            format!("{:.0}", u.stats.read_latency_c2c.mean()),
            format!("{}", e.stats.retries + u.stats.retries),
        ]);
        eprintln!(
            "  mem lat: E={:.0} U={:.0} U+P={:.0} HT={:.0} | ltt stalls E={} U={} | retries E={} U={} | HT c2c={:.0}",
            e.stats.read_latency_mem.mean(),
            u.stats.read_latency_mem.mean(),
            up.stats.read_latency_mem.mean(),
            ht.stats.read_latency_mem.mean(),
            e.stats.ltt_stalls,
            u.stats.ltt_stalls,
            e.stats.retries,
            u.stats.retries,
            ht.stats.read_latency_c2c.mean(),
        );
        eprintln!(
            "{}: exec E={} U={} U+P={} HT={} (finished: {}{}{}{})",
            p.name,
            e.exec_cycles,
            u.exec_cycles,
            up.exec_cycles,
            ht.exec_cycles,
            e.finished,
            u.finished,
            up.finished,
            ht.finished
        );
    }
    println!("{}", t.render());
}
