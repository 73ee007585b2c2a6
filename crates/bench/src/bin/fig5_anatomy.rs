//! Regenerates the latency anatomy of the paper's **Figure 5(b)**: for a
//! cache-to-cache transfer, the *time to suppliership reception* (request
//! propagation + snoop + suppliership back) drops sharply from Eager to
//! Uncorq, while the *time to response reception* (the `r` lap) is the
//! same in both algorithms.
//!
//! Usage: `cargo run --release -p bench --bin fig5_anatomy [app]`

#![forbid(unsafe_code)]

use bench::{maybe_fast, run_cell, Proto, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_workloads::AppProfile;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "fmm".to_string());
    let profile = maybe_fast(AppProfile::by_name(&app).expect("known app"));
    let mut t = Table::new(
        [
            "Algorithm",
            "Time to suppliership (c2c reads)",
            "Time to response (all reads)",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.align(vec![Align::Left, Align::Right, Align::Right]);
    let mut rows = Vec::new();
    for proto in [
        Proto::Ring(ProtocolKind::Eager),
        Proto::Ring(ProtocolKind::Uncorq),
    ] {
        let r = run_cell(proto, &profile, SEED);
        assert!(r.finished);
        rows.push((
            proto.name(),
            r.stats.read_latency_c2c.mean(),
            r.stats.read_completion.mean(),
        ));
        t.row(vec![
            proto.name().to_string(),
            format!("{:.0} cyc", r.stats.read_latency_c2c.mean()),
            format!("{:.0} cyc", r.stats.read_completion.mean()),
        ]);
    }
    println!("Figure 5(b) anatomy on `{app}` (measured)\n");
    println!("{}", t.render());
    let supp_cut = 100.0 * (rows[0].1 - rows[1].1) / rows[0].1;
    let resp_delta = 100.0 * (rows[1].2 - rows[0].2) / rows[0].2;
    println!(
        "Suppliership time cut by {supp_cut:.0}% (the paper's (1) in Fig 5(b));\n\
         response-reception time differs by only {resp_delta:.0}% — \"such time is\n\
         the same in both algorithms\"."
    );
}
