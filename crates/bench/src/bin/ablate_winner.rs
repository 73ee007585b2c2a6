//! Ablation: winner-selection policy (paper §3.3.2). The paper's
//! hierarchy (transaction type > random tiebreak > node id) is compared
//! against the node-id-only strawman ("unfair, but it never ties") on a
//! hot-lock workload where collisions are constant.
//!
//! Usage: `cargo run --release -p bench --bin ablate_winner`

#![forbid(unsafe_code)]

use bench::SEED;
use ring_cache::LineAddr;
use ring_coherence::ProtocolKind;
use ring_cpu::Op;
use ring_stats::{Align, Summary, Table};
use ring_system::{Machine, MachineConfig};

fn lock_streams(nodes: usize, rounds: usize) -> Vec<Box<dyn Iterator<Item = Op> + Send>> {
    (0..nodes)
        .map(|n| {
            let mut ops = Vec::new();
            for r in 0..rounds {
                ops.push(Op::Compute((n as u32 * 5) % 13 + 2));
                let lock = LineAddr::new(((r + n) % 8) as u64);
                ops.push(Op::Read(lock));
                ops.push(Op::Write(lock));
                ops.push(Op::Fence);
            }
            Box::new(ops.into_iter()) as Box<dyn Iterator<Item = Op> + Send>
        })
        .collect()
}

fn main() {
    let mut t = Table::new(
        [
            "Policy",
            "Exec (cyc)",
            "Retries",
            "Starvation events",
            "Retry fairness (stddev)",
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
    for node_id_only in [false, true] {
        let mut cfg = MachineConfig::paper(ProtocolKind::Uncorq);
        cfg.seed = SEED;
        cfg.protocol.winner_node_id_only = node_id_only;
        let nodes = cfg.nodes();
        let mut m = Machine::with_streams(cfg, lock_streams(nodes, 120));
        let r = m.run();
        assert!(r.finished, "winner ablation stalled");
        // Per-node retry spread as a fairness measure.
        let mut spread = Summary::new();
        for a in m.agents() {
            spread.record(a.stats().retries as f64);
        }
        t.row(vec![
            if node_id_only {
                "node-id only"
            } else {
                "type > random > id"
            }
            .into(),
            format!("{}", r.exec_cycles),
            format!("{}", r.stats.retries),
            format!("{}", r.stats.starvation_events),
            format!("{:.1}", spread.stddev()),
        ]);
    }
    println!("Ablation — winner-selection policy (64 cores, 8 hot lock lines)\n");
    println!("{}", t.render());
    println!("Both policies sustain forward progress; the paper prefers the");
    println!("hierarchy because the type rank minimizes memory accesses and the");
    println!("random tiebreak removes systematic bias, at identical hardware cost.");
}
