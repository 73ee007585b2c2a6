//! Regenerates **Figure 10**: impact of the §5.4 prefetching optimization.
//!
//! Part (a): breakdown of read misses into {Pref,NoPref} × {Cache,Memory}
//! under Uncorq+Pref. Part (b): average read-miss latency under
//! Uncorq+Pref and the reduction relative to plain Uncorq, measured and
//! (in parentheses) as published.
//!
//! Usage: `cargo run --release -p bench --bin fig10_prefetch`

#![forbid(unsafe_code)]

use bench::paper::{paper_row, SPLASH2_AVERAGE};
use bench::{maybe_fast, run_cell, Proto, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{reduction_pct, Align, Table};
use ring_workloads::AppProfile;

fn main() {
    let mut ta = Table::new(
        [
            "Application",
            "Pref,Cache %",
            "NoPref,Cache %",
            "NoPref,Mem %",
            "Pref,Mem %",
        ]
        .map(String::from)
        .to_vec(),
    );
    ta.align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut tb = Table::new(
        ["Application", "Uncorq+Pref lat", "(U - U+P)/U %"]
            .map(String::from)
            .to_vec(),
    );
    tb.align(vec![Align::Left, Align::Right, Align::Right]);
    let splash: Vec<String> = AppProfile::splash2()
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let (mut sum_lat, mut sum_red) = (0.0, 0.0);
    for profile in AppProfile::all() {
        let prof = maybe_fast(profile.clone());
        let u = run_cell(Proto::Ring(ProtocolKind::Uncorq), &prof, SEED);
        let up = run_cell(Proto::UncorqPref, &prof, SEED);
        let s = &up.stats;
        let total = (s.pref_cache + s.nopref_cache + s.nopref_mem + s.pref_mem).max(1) as f64;
        ta.row(vec![
            profile.name.clone(),
            format!("{:.1}", 100.0 * s.pref_cache as f64 / total),
            format!("{:.1}", 100.0 * s.nopref_cache as f64 / total),
            format!("{:.1}", 100.0 * s.nopref_mem as f64 / total),
            format!("{:.1}", 100.0 * s.pref_mem as f64 / total),
        ]);
        let ul = u.stats.read_latency.mean();
        let upl = up.stats.read_latency.mean();
        let red = reduction_pct(ul, upl);
        let p = paper_row(&profile.name).expect("paper row");
        tb.row(vec![
            profile.name.clone(),
            format!("{:.0} ({})", upl, p.pref_lat),
            format!("{:.0} ({})", red, p.pref_reduction_pct),
        ]);
        if splash.contains(&profile.name) {
            sum_lat += upl;
            sum_red += red;
        }
        if profile.name == "water-spatial" {
            tb.separator();
            tb.row(vec![
                "SPLASH-2 avg.".into(),
                format!(
                    "{:.0} ({})",
                    sum_lat / splash.len() as f64,
                    SPLASH2_AVERAGE.pref_lat
                ),
                format!(
                    "{:.0} ({})",
                    sum_red / splash.len() as f64,
                    SPLASH2_AVERAGE.pref_reduction_pct
                ),
            ]);
            tb.separator();
        }
        eprintln!("  done: {}", profile.name);
    }
    println!("Figure 10(a) — breakdown of read misses under Uncorq+Pref (measured)\n");
    println!("{}", ta.render());
    println!("Figure 10(b) — read miss latency; measured (paper)\n");
    println!("{}", tb.render());
}
