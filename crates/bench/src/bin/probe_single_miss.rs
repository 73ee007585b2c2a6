//! Directed probes of transaction latency anatomy (development tool).
//!
//! Probe 1: one read miss on an idle machine (pure r-lap + memory).
//! Probe 2: all 64 nodes miss distinct private lines simultaneously
//! (worst-case burst contention).
//! Probe 3: one cache-to-cache transfer at varying ring distance.

#![forbid(unsafe_code)]

use ring_cache::{LineAddr, LineState};
use ring_coherence::ProtocolKind;
use ring_cpu::Op;
use ring_noc::NodeId;
use ring_system::{Machine, MachineConfig};

fn build(kind: ProtocolKind, per_node: impl Fn(usize) -> Vec<Op>) -> Machine {
    let cfg = MachineConfig::paper(kind);
    let nodes = cfg.nodes();
    let streams: Vec<Box<dyn Iterator<Item = Op> + Send>> = (0..nodes)
        .map(|n| Box::new(per_node(n).into_iter()) as Box<dyn Iterator<Item = Op> + Send>)
        .collect();
    Machine::with_streams(cfg, streams)
}

fn main() {
    println!("probe 1: single idle-machine read miss (memory)");
    for kind in [ProtocolKind::Eager, ProtocolKind::Uncorq] {
        let mut m = build(kind, |n| {
            if n == 0 {
                vec![Op::Read(LineAddr::new(0x999_000))]
            } else {
                vec![]
            }
        });
        let r = m.run();
        println!("  {kind}: mem_lat={:.0}", r.stats.read_latency_mem.mean());
    }

    println!("probe 2: 64 simultaneous private read misses (burst)");
    for kind in [ProtocolKind::Eager, ProtocolKind::Uncorq] {
        let mut m = build(kind, |n| {
            vec![Op::Read(LineAddr::new(0x999_000 + n as u64))]
        });
        let r = m.run();
        println!(
            "  {kind}: mem_lat avg={:.0} max={:.0}",
            r.stats.read_latency_mem.mean(),
            r.stats.read_latency_mem.max().unwrap_or(0.0)
        );
    }

    println!("probe 3: single c2c transfer, supplier at ring distance 32");
    for kind in [ProtocolKind::Eager, ProtocolKind::Uncorq] {
        let line = LineAddr::new(0x555_000);
        let mut m = build(kind, |n| if n == 0 { vec![Op::Read(line)] } else { vec![] });
        m.warm_line(NodeId(32), line, LineState::Exclusive);
        let r = m.run();
        println!("  {kind}: c2c_lat={:.0}", r.stats.read_latency_c2c.mean());
    }
}
