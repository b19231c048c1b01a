//! Readings of this process and machine, and the order statistics every
//! metric is reported with.

use std::path::Path;
use std::process::{Command, Stdio};

/// The q-quantile of `values` (linear interpolation between closest
/// ranks). 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The q-quantile of nanosecond samples, in microseconds.
pub fn quantile_us(samples_ns: &[u32], q: f64) -> f64 {
    let v: Vec<f64> = samples_ns.iter().map(|&n| f64::from(n) / 1e3).collect();
    quantile(&v, q)
}

/// A duration as whole nanoseconds for a latency sample (saturating at
/// about 4.3 s, far above any timeout the clients allow).
pub fn sample_ns(d: std::time::Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), in MB. 0 where `/proc`
/// is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time (user + system) of every thread this process ever ran, in
/// seconds, from `/proc/self/stat` (USER_HZ = 100 ticks per second).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields after its closing paren
    // are space-separated, with utime and stime at positions 11 and 12.
    let Some((_, after)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// The calling thread's id, for [`thread_cpu_s`] reads from other
/// threads.
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU time of thread `tid` of this process in seconds, at nanosecond
/// resolution (`schedstat`). 0 where unavailable.
pub fn thread_cpu_s(tid: Option<u32>) -> f64 {
    let Some(tid) = tid else { return 0.0 };
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Runs `program args` to completion and returns its first output
/// line, or `None` if it cannot run or fails.
fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Some(text.lines().next()?.trim().to_string())
}

/// The cgroup CPU quota (`cpu.max` under cgroup v2, else the v1 CFS
/// quota and period), or `"unavailable"`.
fn cpu_max() -> String {
    if let Ok(s) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        return s.trim().to_string();
    }
    let v1 = |f: &str| std::fs::read_to_string(format!("/sys/fs/cgroup/cpu/{f}")).ok();
    match (v1("cpu.cfs_quota_us"), v1("cpu.cfs_period_us")) {
        (Some(q), Some(p)) => format!("{} {}", q.trim(), p.trim()),
        _ => "unavailable".to_string(),
    }
}

/// The git commit of the checkout the benchmark runs in, when it is a
/// git working tree of its own.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    first_line_of("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

/// Escapes `s` as the body of a JSON string.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Where and how a result was measured: the header every result and
/// trace file carries.
#[derive(Debug, Clone)]
pub struct Provenance {
    fields: Vec<(&'static str, String)>,
}

impl Provenance {
    /// Reads the machine (`nproc`, cgroup `cpu.max`, `rustc -V`) and the
    /// checkout, and records the run's parameters.
    pub fn collect(workload: &str, seed: u64, world: &str, seconds: f64, traced: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Provenance {
            fields: vec![
                ("nproc", nproc.to_string()),
                ("cpu_max", cpu_max()),
                (
                    "rustc",
                    first_line_of("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
                ),
                ("commit", git_commit()),
                ("workload", workload.to_string()),
                ("seed", seed.to_string()),
                ("world", world.to_string()),
                ("run_seconds", format!("{seconds}")),
                ("traced", traced.to_string()),
            ],
        }
    }

    /// The header as one flat JSON object with string values.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", json_escape(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    /// The header's fields, in order.
    pub fn fields(&self) -> &[(&'static str, String)] {
        &self.fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
