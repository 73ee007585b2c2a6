//! Measurement helpers: order statistics, the span recorder and
//! process memory.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a timing sample: the highest order statistic that still
/// has ten samples above it, with its percentile and the sample count.
/// Below twenty samples that value would sit under the median, which
/// then stands in (the percentile reads 50).
pub struct Tail {
    /// The tail value.
    pub value: f64,
    /// Which percentile `value` is.
    pub pct: f64,
    /// Sample count.
    pub n: usize,
}

/// See [`Tail`].
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n < 20 {
        return Tail {
            value: median(xs),
            pct: 50.0,
            n,
        };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Tail {
        value: v[n - 11],
        pct: 100.0 * (n - 10) as f64 / n as f64,
        n,
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`; `None` when unreadable.
pub fn vm_hwm_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span brackets (e.g. `Machine::new`).
    pub name: &'static str,
    /// Start, nanoseconds since the benchmark's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the benchmark's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. A disabled recorder still times each call
/// (the untraced run needs the durations) but keeps nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on` decides whether spans are kept.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a parent span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> (Option<usize>, Instant) {
        let now = Instant::now();
        if !self.on {
            return (None, now);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.ns(now),
            end_ns: self.ns(now),
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        (Some(id), now)
    }

    /// Closes a span opened by [`Tracer::open`], returning its length.
    pub fn close(&mut self, handle: (Option<usize>, Instant)) -> Duration {
        let end = Instant::now();
        if let Some(id) = handle.0 {
            self.spans[id].end_ns = self.ns(end);
            self.open.retain(|&o| o != id);
        }
        end - handle.1
    }

    /// Times `f` as a leaf span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let h = self.open(name);
        let out = f();
        let d = self.close(h);
        (out, d)
    }

    /// All kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every kept span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Moves another recorder's spans in (e.g. a client thread's),
    /// re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name: each span's length minus the part its
    /// direct children cover, summed by name (seconds).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.n, 100);
        assert!((t.pct - 90.0).abs() < 1e-9);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let h = t.open("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(2)));
        t.close(h);
        let st = t.self_times();
        assert!(st["inner"] >= 0.002);
        assert!(st["outer"] < st["inner"]);
    }
}
