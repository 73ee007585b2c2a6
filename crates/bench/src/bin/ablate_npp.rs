//! Ablation: Node Prefetch Predictor capacity (the paper uses 8K line
//! addresses). Capacity 0 degenerates to "prefetch every miss" — the
//! wasteful design §5.4 warns against; small tables forget hot lines and
//! prefetch them uselessly (Pref,Cache grows).
//!
//! Usage: `cargo run --release -p bench --bin ablate_npp [app]`

#![forbid(unsafe_code)]

use bench::{maybe_fast, SEED};
use ring_stats::{Align, Table};
use ring_system::{Machine, MachineConfig};
use ring_workloads::AppProfile;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "fmm".to_string());
    let profile = maybe_fast(AppProfile::by_name(&app).expect("known app"));
    let mut t = Table::new(
        [
            "NPP entries",
            "Read miss lat",
            "Pref,Cache %",
            "Pref coverage %",
            "Exec (cyc)",
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
    ]);
    for entries in [0usize, 512, 2048, 8192, 32768] {
        let mut cfg = MachineConfig::paper_uncorq_pref();
        cfg.seed = SEED;
        cfg.protocol.npp_entries = entries;
        let r = Machine::new(cfg, &profile).run();
        assert!(r.finished);
        let s = &r.stats;
        let total = (s.pref_cache + s.nopref_cache + s.nopref_mem + s.pref_mem).max(1) as f64;
        let coverage = s.pref_mem as f64 / (s.pref_mem + s.nopref_mem).max(1) as f64;
        t.row(vec![
            if entries == 0 {
                "0 (always prefetch)".into()
            } else {
                format!("{entries}")
            },
            format!("{:.0}", s.read_latency.mean()),
            format!("{:.1}", 100.0 * s.pref_cache as f64 / total),
            format!("{:.0}", 100.0 * coverage),
            format!("{}", r.exec_cycles),
        ]);
    }
    println!("Ablation — Node Prefetch Predictor capacity on `{app}` (Uncorq+Pref)\n");
    println!("{}", t.render());
}
