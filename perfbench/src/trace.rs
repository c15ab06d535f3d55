//! Spans recorded by the benchmark around its calls into each layer, sample
//! statistics, a seeded generator and the process counters read from
//! `/proc`.

use std::io::{self, Write};
use std::time::Instant;

/// One timed call into a layer. Spans of one request share `request`;
/// `parent` is the span that caused this one (0 = none).
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans one tracer keeps; later spans are counted as dropped, so a fast
/// workload's trace stays a few MB.
const MAX_SPANS: usize = 50_000;

/// Span recorder of one thread. Spans stay in memory until the run ends; a
/// disabled tracer records nothing and allocates nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer whose span ids start at `(thread + 1) << 40`, so recorders
    /// of different threads never hand out the same id.
    pub fn new(enabled: bool, epoch: Instant, thread: u64) -> Self {
        Tracer { enabled, epoch, next_id: (thread + 1) << 40, spans: Vec::new(), dropped: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Reserves the id of a span whose children are recorded before it
    /// closes (0 when disabled).
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a span under an id from [`Tracer::open`].
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == MAX_SPANS {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { id, parent, request, name, start_ns: ns(start), end_ns: ns(end) });
    }

    /// Records a span with a fresh id and returns that id.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.open();
        self.close(id, name, request, parent, start, end);
        id
    }

    /// Moves another thread's spans into this recorder.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.dropped += other.dropped;
    }

    /// Spans recorded and spans dropped past the cap.
    pub fn counts(&self) -> (usize, u64) {
        (self.spans.len(), self.dropped)
    }

    /// Writes the spans as CSV (`id,parent,request,name,start_ns,end_ns`).
    pub fn write_csv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "id,parent,request,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// splitmix64: every draw of the benchmark comes from one of these, seeded
/// from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Clock ticks per second of `/proc/self/stat` (`USER_HZ`, 100 on every
/// mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process in milliseconds, from
/// `/proc/self/stat` (10 ms resolution). Returns 0 where `/proc` is missing.
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields after it are plain.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / USER_HZ * 1e3
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn rng_repeats_from_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert!(a.iter().all(|&x| x == r.next_u64()));
    }

    #[test]
    fn proc_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ms() >= 0.0);
    }
}
