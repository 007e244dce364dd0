//! Small shared pieces: metric lists, order statistics, OS memory readings
//! and a minimal JSON writer (the workspace vendors no serializer).

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Named metrics in print order: `(name, value, unit)`.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            );
        }
        s.push('}');
        s
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust prints (non-finite values become 0,
/// which JSON cannot otherwise express).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` once and returns its result with its duration in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, secs(start))
}

/// Runs a workload's unit of work once, reads the OS peak RSS, then
/// repeats it until `budget` has elapsed in all (at least `min_reps` runs),
/// calling `between` untimed before each later run. Returns every run's
/// result and duration in seconds, and the peak RSS in bytes after the
/// first run: what one unit costs in a fresh process, whatever the number
/// of repetitions.
pub fn measure<R>(
    min_reps: usize,
    budget: Duration,
    mut between: impl FnMut() -> Result<(), String>,
    mut f: impl FnMut() -> R,
) -> Result<(Vec<(R, f64)>, u64), String> {
    let start = Instant::now();
    let mut runs = vec![timed(&mut f)];
    let peak = peak_rss_bytes();
    while runs.len() < min_reps || start.elapsed() < budget {
        between()?;
        runs.push(timed(&mut f));
    }
    Ok((runs, peak))
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`) in bytes.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of this process so far, from the OS.
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM")
}

/// Current resident set size of this process, from the OS.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS")
}

/// The set-up times of one run; their median is `setup_s`. Set-up covers
/// everything from the workload's start to the first call into the
/// measured entry point, and is sampled before the first unit of work and
/// again between units, so it sees the same machine as the work.
#[derive(Default, Debug)]
pub struct Setups(Vec<f64>);

impl Setups {
    /// Runs the set-up `reps` times, recording each duration; returns the
    /// last result.
    pub fn sample<T>(
        &mut self,
        reps: usize,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = timed(&mut f);
        for _ in 1..reps {
            self.0.push(last.1);
            last = timed(&mut f);
        }
        self.0.push(last.1);
        last.0
    }

    /// The median set-up time, seconds.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}
