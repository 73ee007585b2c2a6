//! Regenerates **Figure 11**: comparing Uncorq against the
//! HyperTransport-style baseline.
//!
//! Parts (a)/(b): cache-to-cache read-miss latency histograms in `fmm`
//! under Uncorq and HT. Part (c): HT read-miss latency per application
//! plus the latency and traffic (byte-hops) saved by Uncorq, measured and
//! (in parentheses) as published.
//!
//! Usage: `cargo run --release -p bench --bin fig11_ht`

#![forbid(unsafe_code)]

use bench::paper::{paper_row, SPLASH2_AVERAGE};
use bench::{maybe_fast, run_cell, Proto, SEED};
use ring_coherence::ProtocolKind;
use ring_stats::{Align, Table};
use ring_workloads::AppProfile;

fn main() {
    // Parts (a) and (b): histograms for fmm.
    let fmm = maybe_fast(AppProfile::by_name("fmm").expect("fmm profile"));
    for (label, proto, fig) in [
        ("Uncorq", Proto::Ring(ProtocolKind::Uncorq), "11(a)"),
        ("HT", Proto::Ht, "11(b)"),
    ] {
        let r = run_cell(proto, &fmm, SEED);
        let h = &r.stats.c2c_histogram;
        println!(
            "Figure {fig} — cache-to-cache read miss latency in fmm with {label}\n\
             samples={} mean={:.0} p50={} p90={}\n",
            h.total(),
            h.mean(),
            h.percentile(50.0),
            h.percentile(90.0),
        );
        println!("{}", h.render_ascii(48));
    }

    // Part (c): per-application table.
    let mut t = Table::new(
        [
            "Application",
            "HT lat",
            "(HT-U)/HT lat %",
            "(HT-U)/HT traffic %",
        ]
        .map(String::from)
        .to_vec(),
    );
    t.align(vec![Align::Left, Align::Right, Align::Right, Align::Right]);
    let splash: Vec<String> = AppProfile::splash2()
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let (mut s_lat, mut s_latsave, mut s_trafsave) = (0.0, 0.0, 0.0);
    for profile in AppProfile::all() {
        let prof = maybe_fast(profile.clone());
        let u = run_cell(Proto::Ring(ProtocolKind::Uncorq), &prof, SEED);
        let ht = run_cell(Proto::Ht, &prof, SEED);
        let htl = ht.stats.read_latency.mean();
        let ul = u.stats.read_latency.mean();
        let lat_save = 100.0 * (htl - ul) / htl;
        let ht_traf = ht.stats.traffic.total_byte_hops() as f64;
        let u_traf = u.stats.traffic.total_byte_hops() as f64;
        let traf_save = 100.0 * (ht_traf - u_traf) / ht_traf;
        let p = paper_row(&profile.name).expect("paper row");
        t.row(vec![
            profile.name.clone(),
            format!("{:.0} ({})", htl, p.ht_lat),
            format!("{:.0} ({})", lat_save, p.ht_latency_saving_pct),
            format!("{:.0} ({})", traf_save, p.ht_traffic_saving_pct),
        ]);
        if splash.contains(&profile.name) {
            s_lat += htl;
            s_latsave += lat_save;
            s_trafsave += traf_save;
        }
        if profile.name == "water-spatial" {
            let n = splash.len() as f64;
            t.separator();
            t.row(vec![
                "SPLASH-2 avg.".into(),
                format!("{:.0} ({})", s_lat / n, SPLASH2_AVERAGE.ht_lat),
                format!(
                    "{:.0} ({})",
                    s_latsave / n,
                    SPLASH2_AVERAGE.ht_latency_saving_pct
                ),
                format!(
                    "{:.0} ({})",
                    s_trafsave / n,
                    SPLASH2_AVERAGE.ht_traffic_saving_pct
                ),
            ]);
            t.separator();
        }
        eprintln!("  done: {}", profile.name);
    }
    println!("Figure 11(c) — read miss latency and traffic vs HT; measured (paper)\n");
    println!("{}", t.render());
}
