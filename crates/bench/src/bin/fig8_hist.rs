//! Regenerates **Figures 8(a) and 8(b)**: histograms of cache-to-cache
//! read-miss latency in `fmm` under Eager and Uncorq, with cumulative
//! distributions.
//!
//! Usage: `cargo run --release -p bench --bin fig8_hist [app]`
//!
//! Set `UNCORQ_CSV_DIR=<dir>` to also write plottable CSVs
//! (`fig8a_<app>.csv`, `fig8b_<app>.csv`).

#![forbid(unsafe_code)]

use bench::{maybe_fast, run_cell, Proto, SEED};
use ring_coherence::ProtocolKind;
use ring_workloads::AppProfile;

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "fmm".to_string());
    let profile =
        maybe_fast(AppProfile::by_name(&app).unwrap_or_else(|| panic!("unknown app {app}")));
    let csv_dir = std::env::var_os("UNCORQ_CSV_DIR");
    for (label, proto, fig, tag) in [
        ("Eager", Proto::Ring(ProtocolKind::Eager), "8(a)", "fig8a"),
        ("Uncorq", Proto::Ring(ProtocolKind::Uncorq), "8(b)", "fig8b"),
    ] {
        let r = run_cell(proto, &profile, SEED);
        let h = &r.stats.c2c_histogram;
        println!(
            "Figure {fig} — cache-to-cache read miss latency in {app} with {label}\n\
             samples={} mean={:.0} p50={} p90={} max={}\n",
            h.total(),
            h.mean(),
            h.percentile(50.0),
            h.percentile(90.0),
            h.max().unwrap_or(0),
        );
        println!("{}", h.render_ascii(48));
        if let Some(dir) = &csv_dir {
            let path = std::path::Path::new(dir).join(format!("{tag}_{app}.csv"));
            let file = std::fs::File::create(&path).expect("create CSV");
            h.write_csv(std::io::BufWriter::new(file))
                .expect("write CSV");
            eprintln!("wrote {}", path.display());
        }
    }
}
