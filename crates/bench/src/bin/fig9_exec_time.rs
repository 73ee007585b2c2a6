//! Regenerates **Figure 9**: execution time of every application under
//! Eager, SupersetCon, SupersetAgg, Uncorq and Uncorq+Pref, normalized to
//! Eager.
//!
//! The paper's stated averages: Uncorq improves execution time by 23%
//! (SPLASH-2), 15% (SPECjbb) and 5% (SPECweb); Uncorq+Pref by 26%, 22%
//! and 13%; SupersetCon/Agg are slower than Eager on a single CMP.
//!
//! Usage: `cargo run --release -p bench --bin fig9_exec_time`

#![forbid(unsafe_code)]

use bench::paper::{EXEC_IMPROVEMENT_SPECJBB, EXEC_IMPROVEMENT_SPECWEB, EXEC_IMPROVEMENT_SPLASH};
use bench::{maybe_fast, run_cell, Proto, SEED};
use ring_stats::{Align, Table};
use ring_workloads::AppProfile;

fn main() {
    let mut headers = vec!["Application".to_string()];
    headers.extend(Proto::FIG9.iter().map(|p| p.name().to_string()));
    let mut t = Table::new(headers);
    t.align(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut norm_sums = vec![0.0f64; Proto::FIG9.len()];
    let splash_names: Vec<String> = AppProfile::splash2()
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let mut splash_norms = vec![0.0f64; Proto::FIG9.len()];
    for profile in AppProfile::all() {
        let prof = maybe_fast(profile.clone());
        let mut cells = vec![profile.name.clone()];
        let mut base = 0.0;
        for (i, proto) in Proto::FIG9.iter().enumerate() {
            let r = run_cell(*proto, &prof, SEED);
            assert!(
                r.finished,
                "{} did not finish under {}",
                profile.name,
                proto.name()
            );
            let exec = r.exec_cycles as f64;
            if i == 0 {
                base = exec;
            }
            let norm = exec / base;
            norm_sums[i] += norm;
            if splash_names.contains(&profile.name) {
                splash_norms[i] += norm;
            }
            cells.push(format!("{norm:.2}"));
        }
        t.row(cells);
        eprintln!("  done: {}", profile.name);
    }
    let napps = AppProfile::all().len() as f64;
    let nsplash = splash_names.len() as f64;
    t.separator();
    let mut avg = vec!["average".to_string()];
    for s in &norm_sums {
        avg.push(format!("{:.2}", s / napps));
    }
    t.row(avg);
    println!("Figure 9 — execution time normalized to Eager (measured)\n");
    println!("{}", t.render());
    println!(
        "SPLASH-2 average improvement: Uncorq {:.0}% (paper {}%), Uncorq+Pref {:.0}% (paper {}%)",
        100.0 * (1.0 - splash_norms[3] / nsplash),
        EXEC_IMPROVEMENT_SPLASH.0,
        100.0 * (1.0 - splash_norms[4] / nsplash),
        EXEC_IMPROVEMENT_SPLASH.1,
    );
    println!(
        "(paper per-class: SPECjbb {}/{}%, SPECweb {}/{}% — see the SPECjbb/SPECweb rows)",
        EXEC_IMPROVEMENT_SPECJBB.0,
        EXEC_IMPROVEMENT_SPECJBB.1,
        EXEC_IMPROVEMENT_SPECWEB.0,
        EXEC_IMPROVEMENT_SPECWEB.1,
    );
}
