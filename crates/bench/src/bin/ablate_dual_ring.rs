//! Ablation: §2.1 load balancing — "messages to different line addresses
//! can use ... the same ring with different directions". Odd lines lap
//! the snake in reverse, splitting response traffic across both directed
//! link sets.
//!
//! Usage: `cargo run --release -p bench --bin ablate_dual_ring [app]`

#![forbid(unsafe_code)]

use bench::{maybe_fast, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_system::{Machine, MachineConfig};
use ring_workloads::AppProfile;

fn main() {
    let app = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ocean".to_string());
    let profile = maybe_fast(AppProfile::by_name(&app).expect("known app"));
    let mut t = Table::new(
        [
            "Rings",
            "Protocol",
            "Exec (cyc)",
            "Read miss lat",
            "Mem-path lat",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.align(vec![
        Align::Left,
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    for kind in [ProtocolKind::Eager, ProtocolKind::Uncorq] {
        for dual in [false, true] {
            let mut cfg = MachineConfig::paper(kind);
            cfg.seed = SEED;
            cfg.dual_rings = dual;
            let r = Machine::new(cfg, &profile).run();
            assert!(r.finished);
            t.row(vec![
                if dual {
                    "dual (split by parity)"
                } else {
                    "single"
                }
                .into(),
                kind.to_string(),
                format!("{}", r.exec_cycles),
                format!("{:.0}", r.stats.read_latency.mean()),
                format!("{:.0}", r.stats.read_latency_mem.mean()),
            ]);
        }
    }
    println!("Ablation — dual-direction ring load balancing on `{app}`\n");
    println!("{}", t.render());
}
