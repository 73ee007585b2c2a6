//! Regenerates **Figure 8(c)**: read-miss latency characteristics.
//!
//! Columns: average read-miss latency under Eager and Uncorq, the
//! relative reduction, and the fraction of misses serviced cache-to-cache
//! — measured by this reproduction and, in parentheses, as published in
//! the paper.
//!
//! Usage: `cargo run --release -p bench --bin fig8_table`
//! (set `UNCORQ_FAST=1` for a quick smoke run).

#![forbid(unsafe_code)]

use bench::paper::{paper_row, SPLASH2_AVERAGE};
use bench::{maybe_fast, run_cell, Proto, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{reduction_pct, Align, Table};
use ring_workloads::AppProfile;

fn main() {
    let mut t = Table::new(
        ["Application", "Eager", "Uncorq", "(E-U)/E %", "c2c %"]
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
    let mut splash_eager = 0.0;
    let mut splash_uncorq = 0.0;
    let mut splash_c2c = 0.0;
    let splash_n = AppProfile::splash2().len() as f64;
    for profile in AppProfile::all() {
        let prof = maybe_fast(profile.clone());
        let e = run_cell(Proto::Ring(ProtocolKind::Eager), &prof, SEED);
        let u = run_cell(Proto::Ring(ProtocolKind::Uncorq), &prof, SEED);
        let el = e.stats.read_latency.mean();
        let ul = u.stats.read_latency.mean();
        let c2c = 100.0 * u.stats.c2c_fraction();
        let p = paper_row(&profile.name).expect("paper row");
        let is_splash = AppProfile::splash2().iter().any(|s| s.name == profile.name);
        if is_splash {
            splash_eager += el;
            splash_uncorq += ul;
            splash_c2c += c2c;
        }
        t.row(vec![
            profile.name.clone(),
            format!("{:.0} ({})", el, p.eager_lat),
            format!("{:.0} ({})", ul, p.uncorq_lat),
            format!("{:.0} ({})", reduction_pct(el, ul), p.reduction_pct),
            format!("{:.0} ({})", c2c, p.c2c_pct),
        ]);
        if profile.name == "water-spatial" {
            // Insert the SPLASH-2 average row where the paper puts it.
            t.separator();
            let (ea, ua, ca) = (
                splash_eager / splash_n,
                splash_uncorq / splash_n,
                splash_c2c / splash_n,
            );
            t.row(vec![
                "SPLASH-2 avg.".into(),
                format!("{:.0} ({})", ea, SPLASH2_AVERAGE.eager_lat),
                format!("{:.0} ({})", ua, SPLASH2_AVERAGE.uncorq_lat),
                format!(
                    "{:.0} ({})",
                    reduction_pct(ea, ua),
                    SPLASH2_AVERAGE.reduction_pct
                ),
                format!("{:.0} ({})", ca, SPLASH2_AVERAGE.c2c_pct),
            ]);
            t.separator();
        }
        eprintln!("  done: {}", profile.name);
    }
    println!("Figure 8(c) — read miss latency; measured (paper)\n");
    println!("{}", t.render());
}
