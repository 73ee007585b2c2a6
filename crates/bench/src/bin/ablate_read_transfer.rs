//! Ablation: the §5.5 supplier-status-transfer extension. By default,
//! every successful transaction transfers supplier status to the
//! requester, so two colliding cache-to-cache *reads* squash one of the
//! pair. The extension keeps the designation at the old supplier and
//! hands out Shared copies, eliminating read-read squashes — the paper
//! describes it but does not evaluate it.
//!
//! Usage: `cargo run --release -p bench --bin ablate_read_transfer [app]`

#![forbid(unsafe_code)]

use bench::{maybe_fast, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_system::{Machine, MachineConfig};
use ring_workloads::AppProfile;

fn main() {
    // Read-mostly sharing stresses exactly the colliding-read case.
    let app = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "radiosity".to_string());
    let profile = maybe_fast(AppProfile::by_name(&app).expect("known app"));
    let mut t = Table::new(
        [
            "Read suppliership",
            "Exec (cyc)",
            "Retries",
            "c2c lat",
            "Mem misses",
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
    for keep in [false, true] {
        let mut cfg = MachineConfig::paper(ProtocolKind::Uncorq);
        cfg.seed = SEED;
        cfg.protocol.reads_keep_supplier = keep;
        let r = Machine::new(cfg, &profile).run();
        assert!(r.finished);
        t.row(vec![
            if keep {
                "kept at supplier (§5.5)"
            } else {
                "transferred (default)"
            }
            .into(),
            format!("{}", r.exec_cycles),
            format!("{}", r.stats.retries),
            format!("{:.0}", r.stats.read_latency_c2c.mean()),
            format!("{}", r.stats.reads_mem),
        ]);
    }
    println!("Ablation — §5.5 read suppliership transfer on `{app}` (Uncorq)\n");
    println!("{}", t.render());
    println!("Keeping the designation removes read-read squashes (fewer retries);");
    println!("the trade-off is a more static supplier placement.");
}
