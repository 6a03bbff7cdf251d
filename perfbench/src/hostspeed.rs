//! Timed segments, scaled to a reference host speed.
//!
//! On a shared host the same code runs at different speeds from one
//! second to the next: on the 2-vCPU host these figures were taken on,
//! unscaled `steps_per_s` spread by 11–26% (quartile distance over the
//! median) across five 20 s runs of each workload, and one fan-in run's
//! rounds ranged from 3.6 to 5.9 ms per pump. So every timed segment is
//! bracketed by a short probe, a burst of `stat(".")` calls, and the
//! segment's time is scaled by the probe's speed relative to a fixed
//! reference: `scaled = wall × (probe / REF)^0.75`.
//!
//! Across seven runs of each workload, the workload's unscaled speed
//! tracked this probe with correlation 0.93–0.98 and a log-log slope of
//! 0.64–0.80 (an 8 MiB pointer chase tracked it at 0.54–0.70, a
//! streaming read at 0.32–0.86); the exponent is one value for all
//! workloads from that range. The probe is part of the benchmark,
//! identical for every build of the program, so the scaling never
//! favours one build over another; the unscaled figures are printed
//! beside the scaled ones.

use crate::procfs::ProcSample;
use std::time::Instant;

/// Probe speed the scaled figures refer to, `stat` calls per second
/// (about this host's median).
pub const REF_PROBE_PER_S: f64 = 1.4e6;
/// How strongly a workload's speed follows the probe's (log-log slope).
const EXPONENT: f64 = 0.75;
/// `stat` calls per probe (a few milliseconds).
const PROBE_CALLS: u32 = 5_000;

/// Probe calls per second, right now.
pub fn probe_rate() -> f64 {
    let t0 = Instant::now();
    let mut ok = 0u32;
    for _ in 0..PROBE_CALLS {
        // The checkout root (the working directory): a one-component
        // lookup, the same in every checkout.
        ok += u32::from(std::fs::metadata(".").is_ok());
    }
    std::hint::black_box(ok);
    f64::from(PROBE_CALLS) / t0.elapsed().as_secs_f64()
}

/// Run `f` as one timed segment between two probes.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Segment) {
    let before = probe_rate();
    let cpu0 = ProcSample::now();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = ProcSample::now().since(&cpu0);
    let probe = 0.5 * (before + probe_rate());
    (out, Segment { wall_s, cpu, probe })
}

/// One timed segment.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Process CPU time and faults.
    pub cpu: ProcSample,
    /// Probe speed around the segment, calls per second.
    pub probe: f64,
}

impl Segment {
    /// Time scale factor to the reference host speed.
    pub fn factor(&self) -> f64 {
        (self.probe / REF_PROBE_PER_S).powf(EXPONENT)
    }

    /// Wall time at the reference speed, seconds.
    pub fn scaled_s(&self) -> f64 {
        self.wall_s * self.factor()
    }

    /// User + system CPU time at the reference speed, milliseconds.
    pub fn scaled_cpu_ms(&self) -> f64 {
        (self.cpu.user_ms + self.cpu.sys_ms) * self.factor()
    }
}
