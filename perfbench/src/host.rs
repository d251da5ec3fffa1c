//! The host a run measured on, so figures from different machines are
//! never compared as if they were one.

use ocular_serve::json::{obj, Json};

/// Microseconds per clock tick of `/proc` (`USER_HZ` = 100).
pub const TICK_US: f64 = 10_000.0;

/// Ticks the hypervisor took from this machine's CPUs (`steal` in the
/// aggregate `cpu` line of `/proc/stat`).
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// User + system CPU time in clock ticks (10 ms each) from a
/// `/proc/<pid>/stat` line: the process's own when `children` is false
/// (`utime` + `stime`, threads that exited included), its waited-for
/// children's when true (`cutime` + `cstime`).
pub fn cpu_ticks(stat: &str, children: bool) -> Option<u64> {
    // fields after the parenthesised command name, which may hold spaces;
    // `utime`, `stime`, `cutime`, `cstime` are fields 14–17 of the line
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let first = if children { 13 } else { 11 };
    let user: u64 = fields.get(first)?.parse().ok()?;
    let system: u64 = fields.get(first + 1)?.parse().ok()?;
    Some(user + system)
}

/// [`cpu_ticks`] of this process.
pub fn self_cpu_ticks(children: bool) -> Option<u64> {
    cpu_ticks(&std::fs::read_to_string("/proc/self/stat").ok()?, children)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// The `host` block: cores, CPU model, kernel and the steal ticks that
/// accrued between `steal_start` and now.
pub fn block(steal_start: Option<u64>) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let steal = match (steal_start, steal_ticks()) {
        (Some(a), Some(b)) => Json::Int(b.saturating_sub(a)),
        _ => Json::Null,
    };
    obj(vec![
        ("cores", Json::Int(cores as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("kernel", Json::Str(kernel())),
        ("steal_ticks", steal),
    ])
}
