//! Correctness checks the benchmark applies to the simulator's output:
//! a trace sink feeding the stream invariant checker, and an end-state
//! single-writer/multiple-reader check over every L2.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ring_cache::CacheArray;
use ring_trace::{InvariantChecker, TraceEvent, TraceSink};

/// Events buffered before they are fed to the checker.
const BATCH: usize = 1 << 16;

#[derive(Default)]
struct Inner {
    buf: Vec<TraceEvent>,
    checker: InvariantChecker,
    /// Nanoseconds spent inside the checker, so the run-loop time can
    /// be reported without it.
    check_ns: u64,
}

impl Inner {
    fn feed(&mut self) {
        let t = Instant::now();
        for ev in &self.buf {
            self.checker.observe(ev);
        }
        self.buf.clear();
        self.check_ns += t.elapsed().as_nanos() as u64;
    }
}

/// A [`TraceSink`] that streams every event into
/// [`ring_trace::InvariantChecker`] (Resolution, Ordering, LTT balance,
/// winner uniqueness, exactly-once delivery). Clones share one checker,
/// so one clone goes into the machine and the other reads the verdict.
#[derive(Clone, Default)]
pub struct CheckerSink(Arc<Mutex<Inner>>);

impl CheckerSink {
    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0
            .lock()
            .expect("checker sink lock poisoned by a panic inside the simulator")
    }

    /// Feeds what is buffered, closes the stream and returns the
    /// violations found plus the seconds spent checking.
    pub fn finish(&self) -> (Vec<String>, f64) {
        let mut g = self.inner();
        g.feed();
        g.checker.finish();
        (g.checker.violations().to_vec(), g.check_ns as f64 * 1e-9)
    }
}

impl TraceSink for CheckerSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut g = self.inner();
        g.buf.push(*ev);
        if g.buf.len() >= BATCH {
            g.feed();
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner().feed();
        Ok(())
    }
}

/// Single-writer/multiple-reader check over the quiescent end state of
/// every L2: a line held silently writable (E or D) somewhere is valid
/// nowhere else, and no line has two suppliers.
pub fn swmr_violations<'a>(l2s: impl Iterator<Item = &'a CacheArray>) -> Vec<String> {
    // line -> (valid copies, silently writable copies, suppliers)
    let mut lines: BTreeMap<u64, (u32, u32, u32)> = BTreeMap::new();
    for l2 in l2s {
        for (line, state) in l2.iter() {
            let e = lines.entry(line.raw()).or_default();
            e.0 += 1;
            e.1 += u32::from(state.can_write_silently());
            e.2 += u32::from(state.is_supplier());
        }
    }
    lines
        .into_iter()
        .filter(|(_, (valid, writers, suppliers))| {
            *suppliers > 1 || (*writers > 0 && *valid > 1)
        })
        .map(|(line, (valid, writers, suppliers))| {
            format!(
                "SWMR: line {line:#x} has {valid} valid copies, {writers} writable, {suppliers} suppliers"
            )
        })
        .collect()
}
