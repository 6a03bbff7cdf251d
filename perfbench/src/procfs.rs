//! Process accounting read from `/proc/self`: CPU time and minor faults
//! from `stat`, peak RSS and thread count from `status`, open sockets
//! from `fd`. Everything here reads the benchmark's own process only.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every Linux ABI this runs on).
pub const USER_HZ: f64 = 100.0;

/// One reading of the process's cumulative counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User CPU time, milliseconds.
    pub user_ms: f64,
    /// System CPU time, milliseconds.
    pub sys_ms: f64,
    /// Minor page faults.
    pub minflt: u64,
}

impl ProcSample {
    /// Read `/proc/self/stat`.
    pub fn now() -> ProcSample {
        let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        // The command name is parenthesised and may contain spaces; the
        // numbered fields start after the last ')'.
        let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state): minflt is field 10, utime 14,
        // stime 15 in proc(5)'s 1-based numbering.
        let field = |n: usize| -> u64 { fields[n - 3].parse().expect("numeric stat field") };
        ProcSample {
            user_ms: field(14) as f64 * 1000.0 / USER_HZ,
            sys_ms: field(15) as f64 * 1000.0 / USER_HZ,
            minflt: field(10),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
            minflt: self.minflt - earlier.minflt,
        }
    }

    /// Add another interval's counters to this one.
    pub fn add(&mut self, other: &ProcSample) {
        self.user_ms += other.user_ms;
        self.sys_ms += other.sys_ms;
        self.minflt += other.minflt;
    }
}

fn status_field(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .map(|v| v.trim().to_string())
}

/// Peak resident set size (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    let kb: f64 = status_field("VmHWM:")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Threads of this process (`Threads:` in `/proc/self/status`).
pub fn threads() -> usize {
    status_field("Threads:")
        .and_then(|v| v.parse().ok())
        .expect("Threads in /proc/self/status")
}

/// Child processes of any of this process's threads.
pub fn children() -> usize {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("children")).ok())
        .map(|c| c.split_whitespace().count())
        .sum()
}

/// Open socket descriptors of this process.
pub fn open_sockets() -> usize {
    let Ok(fds) = fs::read_dir("/proc/self/fd") else {
        return 0;
    };
    fds.flatten()
        .filter_map(|fd| fs::read_link(fd.path()).ok())
        .filter(|target| target.to_string_lossy().starts_with("socket:"))
        .count()
}
