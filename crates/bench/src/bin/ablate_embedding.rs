//! Ablation: ring embedding. The boustrophedon (snake) embedding gives
//! every logical ring hop exactly one physical link; naive row-major
//! order pays extra links on row wrap, lengthening every response lap.
//!
//! Usage: `cargo run --release -p bench --bin ablate_embedding [app]`

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
            "Embedding",
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
        for row_major in [false, true] {
            let mut cfg = MachineConfig::paper(kind);
            cfg.seed = SEED;
            cfg.ring_row_major = row_major;
            let r = Machine::new(cfg, &profile).run();
            assert!(r.finished);
            t.row(vec![
                if row_major { "row-major" } else { "snake" }.into(),
                kind.to_string(),
                format!("{}", r.exec_cycles),
                format!("{:.0}", r.stats.read_latency.mean()),
                format!("{:.0}", r.stats.read_latency_mem.mean()),
            ]);
        }
    }
    println!("Ablation — ring embedding on `{app}`\n");
    println!("{}", t.render());
    println!("The snake's single-link hops keep the response lap at 64 links;");
    println!("row-major pays ~7 extra links per lap on the row wraps.");
}
