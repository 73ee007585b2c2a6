//! Ablation: memory-controller concurrency. The paper models memory as a
//! flat 224-cycle round trip; this sweep shows what controller queueing
//! would do to each protocol (HT suffers most — its home nodes fetch
//! speculatively on every transaction).
//!
//! Usage: `cargo run --release -p bench --bin ablate_mem [app]`

#![forbid(unsafe_code)]

use bench::{maybe_fast, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_system::{HtMachine, Machine, MachineConfig};
use ring_workloads::AppProfile;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "fft".to_string());
    let profile = maybe_fast(AppProfile::by_name(&app).expect("known app"));
    let mut t = Table::new(
        [
            "Controller slots",
            "Uncorq mem lat",
            "Uncorq exec",
            "HT mem lat",
            "HT exec",
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
    for slots in [1usize, 4, 16, 64] {
        let mut cfg = MachineConfig::paper(ProtocolKind::Uncorq);
        cfg.seed = SEED;
        cfg.mem.max_in_flight = slots;
        let u = Machine::new(cfg, &profile).run();
        let mut cfg = MachineConfig::paper(ProtocolKind::Eager);
        cfg.seed = SEED;
        cfg.mem.max_in_flight = slots;
        let h = HtMachine::new(cfg, &profile).run();
        t.row(vec![
            format!("{slots}"),
            format!("{:.0}", u.stats.read_latency_mem.mean()),
            format!("{}", u.exec_cycles),
            format!("{:.0}", h.stats.read_latency_mem.mean()),
            format!("{}", h.exec_cycles),
        ]);
    }
    println!("Ablation — memory controller concurrency on `{app}`\n");
    println!("{}", t.render());
}
