//! Result plumbing: named metrics, order statistics, the machine record
//! and the JSON lines the benchmark prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Metrics in print order: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`); 0 for
/// an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sort a sample ascending (NaN last) and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Width of the windows a timed pass is cut into.
const WINDOW_S: f64 = 1.0;

/// `(count, width)` of the windows of a pass lasting `seconds`; a pass
/// shorter than one window is one window.
fn grid(seconds: f64) -> (usize, f64) {
    if seconds < WINDOW_S {
        (1, seconds)
    } else {
        ((seconds / WINDOW_S) as usize, WINDOW_S)
    }
}

/// A pass's end-to-end figures.
pub struct Summary {
    pub throughput_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
}

/// Keep the quarter of `items` (rounded up) with the least CPU steal.
///
/// This VM loses CPU time to other guests in bursts of a few seconds, and
/// a stolen second stretches every timing in it; over a noisy run most
/// seconds lose some. Ranking by the steal the kernel measured, rather
/// than by the timings, drops the host's noise without favouring the
/// program's own fast or slow moments.
pub fn quietest_quarter<T>(mut items: Vec<(f64, T)>) -> Vec<T> {
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = items.len().div_ceil(4);
    items.into_iter().take(keep).map(|(_, t)| t).collect()
}

/// Summarize `(seconds into the pass, latency ms)` samples of a pass that
/// lasted `seconds`, given the CPU steal share of each of its windows
/// ([`steal_by_window`]): cut the pass into one-second windows, keep the
/// [`quietest_quarter`], and report the median over those windows of each
/// window's rate and latency percentiles. Samples past the last whole
/// window are dropped.
pub fn windowed(samples: &[(f64, f64)], seconds: f64, steal: &[f64]) -> Summary {
    let (n, width) = grid(seconds);
    let mut windows = vec![Vec::new(); n];
    for &(at, latency) in samples {
        if let Some(w) = windows.get_mut((at / width) as usize) {
            w.push(latency);
        }
    }
    let windows = quietest_quarter(
        windows
            .into_iter()
            .enumerate()
            .map(|(i, w)| (steal.get(i).copied().unwrap_or(0.0), sorted(w)))
            .collect(),
    );
    let rates: Vec<f64> = windows.iter().map(|w| w.len() as f64 / width).collect();
    let pct = |q: f64| {
        let per_window: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q))
            .collect();
        median(&per_window)
    };
    Summary {
        throughput_per_s: median(&rates),
        p50_ms: pct(0.5),
        p90_ms: pct(0.9),
    }
}

/// CPU steal share of each window of a pass that started at `start` and
/// lasts `seconds`, read from `/proc/stat` at the window boundaries.
/// Sleeps until the last window ends, so run it on a thread of its own.
pub fn steal_by_window(start: Instant, seconds: f64) -> Vec<f64> {
    let (n, width) = grid(seconds);
    let marks: Vec<(u64, u64)> = (0..=n)
        .map(|i| {
            let at = start + Duration::from_secs_f64(width * i as f64);
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
            cpu_ticks()
        })
        .collect();
    marks.windows(2).map(|m| steal_share(m[0], m[1])).collect()
}

/// Steal share of the CPU time between two [`cpu_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    ratio(
        to.1.saturating_sub(from.1) as f64,
        to.0.saturating_sub(from.0) as f64,
    )
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(all, stolen)` CPU time of the machine so far, in clock ticks, from
/// the `cpu` line of `/proc/stat`. On a virtual machine, time the host
/// gave to other guests shows up as steal and stretches every timing.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// What the numbers of one run were measured on, so results from
/// different days or machines can be compared as ratios of
/// `calibration_ms`.
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub commit: String,
    /// Median time of one fixed GEMM at decode shape.
    pub calibration_ms: f64,
}

impl Machine {
    pub fn probe() -> Machine {
        Machine {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model(),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            calibration_ms: calibrate(),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// The calibration kernel: `rpf_tensor::batched::matmul_fma_into` at the
/// decode step's recurrent GEMM shape (33 cars x 100 samples rows, hidden
/// 40 in, 4 x 40 gates out). Median of 31 timed calls after one warm-up.
fn calibrate() -> f64 {
    use rpf_tensor::Matrix;
    let (m, k, n) = (3300, 40, 160);
    let fill = |len: usize, salt: usize| -> Vec<f32> {
        (0..len)
            .map(|i| (((i * 7919 + salt) % 1000) as f32 - 500.0) / 1000.0)
            .collect()
    };
    let a = Matrix::from_vec(m, k, fill(m * k, 1));
    let b = Matrix::from_vec(k, n, fill(k * n, 2));
    let mut out = Matrix::zeros(m, n);
    rpf_tensor::batched::matmul_fma_into(&a, &b, &mut out);
    let times: Vec<f64> = (0..31)
        .map(|_| {
            let t0 = Instant::now();
            rpf_tensor::batched::matmul_fma_into(&a, &b, &mut out);
            std::hint::black_box(&out);
            ms(t0.elapsed())
        })
        .collect();
    median(&times)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON (`{}` prints the shortest representation that
/// round-trips, so every measured digit survives); non-finite values have
/// no JSON form and print as 0 — callers flag them as check failures.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
