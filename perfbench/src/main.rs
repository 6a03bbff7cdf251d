//! End-to-end and per-layer benchmark of the ANOR control loop.
//!
//! ```text
//! anor-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one untimed warm-up round, then whole rounds of one workload on
//! the calling thread until `--seconds` have passed, checks every
//! round's outputs, and prints one JSON line last: `correct`, operations
//! `attempted` and `failed`, and the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`). A traced run spends its first half untraced and its
//! second half traced, and reports the difference as
//! `trace.overhead_pct`. See README.md for the workloads and metrics.

mod emu;
mod fanin;
mod hostspeed;
mod procfs;
mod report;
mod rng;
mod sim;

use hostspeed::Segment;
use procfs::ProcSample;
use report::{listed_metrics, median, result_json, Checks, Metric, Reported, Round};
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["emu16_dr", "sim100k_dr", "fanin10k_quiet", "fanin10k_step"];

/// The benchmark description: the one list of metric names and units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

enum Workload {
    Emu(emu::Emu),
    Sim(Box<sim::Sim>),
    FanIn(fanin::FanIn),
}

impl Workload {
    fn round(&mut self, traced: bool, checks: &mut Checks) -> Round {
        match self {
            Workload::Emu(w) => w.round(traced, checks),
            Workload::Sim(w) => w.round(traced, checks),
            Workload::FanIn(w) => w.round(traced, checks),
        }
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        match self {
            Workload::Emu(w) => w.layer_metrics(),
            Workload::Sim(w) => w.layer_metrics(),
            Workload::FanIn(w) => w.layer_metrics(),
        }
    }
}

/// Check that the process is still one process within `nproc` threads.
/// This sees threads and children left running between rounds.
fn check_process(checks: &mut Checks, nproc: usize) {
    let (threads, children) = (procfs::threads(), procfs::children());
    checks.check(threads <= nproc && children == 0, || {
        format!("ran {threads} thread(s) and {children} child process(es); limit {nproc} threads, 0 children")
    });
}

/// Check that a timed segment ran on one thread: its user + system CPU
/// is at most its wall time, plus 5% and two clock ticks for the
/// rounding of the two `/proc/self/stat` readings. This sees threads
/// that start and end inside the segment, which `check_process` cannot.
fn check_one_thread(checks: &mut Checks, seg: &Segment) {
    let cpu_s = (seg.cpu.user_ms + seg.cpu.sys_ms) / 1e3;
    let limit_s = seg.wall_s * 1.05 + 2.0 / procfs::USER_HZ;
    checks.check(cpu_s <= limit_s, || {
        format!(
            "a timed segment used {cpu_s:.3} s of CPU in {:.3} s of wall time: more than one thread ran",
            seg.wall_s
        )
    });
}

/// `values` in the order BENCHMARK.json's `section` lists them, each with
/// its listed unit. A listed metric the workload does not produce reads
/// 0 when `absent_is_zero` and fails the checks otherwise; a produced one
/// that is not listed fails the checks.
fn select(
    section: &str,
    values: &[Metric],
    absent_is_zero: bool,
    checks: &mut Checks,
) -> Vec<Reported> {
    let listed = listed_metrics(BENCHMARK_JSON, section);
    checks.check(!listed.is_empty(), || {
        format!("BENCHMARK.json lists no {section} metrics")
    });
    for m in values {
        checks.check(listed.iter().any(|(n, _)| *n == m.name), || {
            format!(
                "metric {} is not in BENCHMARK.json's {section} list",
                m.name
            )
        });
    }
    listed
        .into_iter()
        .map(|(name, unit)| {
            let value = values.iter().find(|m| m.name == name).map(|m| m.value);
            checks.check(value.is_some() || absent_is_zero, || {
                format!("{section} metric {name} was not measured")
            });
            Reported {
                name,
                unit,
                value: value.unwrap_or(0.0),
            }
        })
        .collect()
}

/// Whole rounds until `budget` has passed (at least one), checking the
/// process after each.
fn run_rounds(
    w: &mut Workload,
    traced: bool,
    budget: Duration,
    checks: &mut Checks,
    nproc: usize,
) -> Totals {
    let start = Instant::now();
    let mut t = Totals::default();
    loop {
        let r = w.round(traced, checks);
        check_process(checks, nproc);
        for seg in &r.timed {
            check_one_thread(checks, seg);
        }
        t.rounds += 1;
        t.steps += r.steps;
        t.attempted += r.attempted;
        t.failed += r.failed;
        t.setups.extend(r.setup);
        t.timed.extend(r.timed);
        if start.elapsed() >= budget {
            return t;
        }
    }
}

#[derive(Default)]
struct Totals {
    rounds: u64,
    steps: u64,
    timed: Vec<Segment>,
    /// Set-up times at the reference speed, seconds.
    setups: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Totals {
    /// Steps per second at the reference host speed.
    fn steps_per_s(&self) -> f64 {
        self.steps as f64
            / self
                .timed
                .iter()
                .map(Segment::scaled_s)
                .sum::<f64>()
                .max(1e-12)
    }

    /// Steps per wall-clock second, unscaled.
    fn raw_steps_per_s(&self) -> f64 {
        self.steps as f64 / self.timed.iter().map(|s| s.wall_s).sum::<f64>().max(1e-12)
    }

    /// Process CPU per step at the reference host speed, milliseconds.
    fn cpu_ms_per_step(&self) -> f64 {
        self.per_step(self.timed.iter().map(Segment::scaled_cpu_ms).sum())
    }

    fn cpu(&self) -> ProcSample {
        let mut cpu = ProcSample::default();
        for s in &self.timed {
            cpu.add(&s.cpu);
        }
        cpu
    }

    /// Time-weighted probe speed over the timed segments, calls/s.
    fn probe_per_s(&self) -> f64 {
        let wall: f64 = self.timed.iter().map(|s| s.wall_s).sum();
        self.timed.iter().map(|s| s.wall_s * s.probe).sum::<f64>() / wall.max(1e-12)
    }

    fn per_step(&self, x: f64) -> f64 {
        x / self.steps.max(1) as f64
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("anor-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("anor-perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(1);
    }
    let prepared = match args.workload.as_str() {
        "emu16_dr" => Ok(Workload::Emu(emu::Emu::new())),
        "sim100k_dr" => Ok(Workload::Sim(Box::new(sim::Sim::new(args.seed)))),
        "fanin10k_quiet" => {
            fanin::FanIn::new(fanin::Kind::Quiet, args.seed, &work_dir).map(Workload::FanIn)
        }
        _ => fanin::FanIn::new(fanin::Kind::Step, args.seed, &work_dir).map(Workload::FanIn),
    };
    let mut w = match prepared {
        Ok(w) => w,
        Err(e) => {
            eprintln!("anor-perfbench: preparing {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut checks = Checks::default();
    // One untimed round first: the first pass over fresh memory runs
    // ~20% slower than every later one (page faults, cold caches), and
    // whether a run's timing includes it must not depend on how many
    // rounds fit. Its outputs are checked like every other round's.
    w.round(false, &mut checks);
    check_process(&mut checks, nproc);
    let budget = Duration::from_secs_f64(args.seconds);
    let (metrics, all) = if args.trace {
        let mut all = run_rounds(&mut w, false, budget / 2, &mut checks, nproc);
        let traced = run_rounds(&mut w, true, budget / 2, &mut checks, nproc);
        let cpu = traced.cpu();
        let mut values: Vec<Metric> = vec![
            Metric::new("proc.user_ms_per_step", traced.per_step(cpu.user_ms)),
            Metric::new("proc.sys_ms_per_step", traced.per_step(cpu.sys_ms)),
            Metric::new("proc.minflt_per_step", traced.per_step(cpu.minflt as f64)),
            Metric::new(
                "trace.overhead_pct",
                (all.steps_per_s() - traced.steps_per_s()) / all.steps_per_s() * 100.0,
            ),
            Metric::new("trace.steps_per_s", traced.steps_per_s()),
            Metric::new("host.raw_steps_per_s", traced.raw_steps_per_s()),
            Metric::new("host.probe_per_us", traced.probe_per_s() / 1e6),
        ];
        values.extend(w.layer_metrics());
        let metrics = select("per_layer", &values, true, &mut checks);
        all.rounds += traced.rounds;
        all.steps += traced.steps;
        all.attempted += traced.attempted;
        all.failed += traced.failed;
        (metrics, all)
    } else {
        let t = run_rounds(&mut w, false, budget, &mut checks, nproc);
        let values = [
            Metric::new("setup_s", median(&t.setups)),
            Metric::new("steps_per_s", t.steps_per_s()),
            Metric::new("cpu_ms_per_step", t.cpu_ms_per_step()),
            Metric::new("peak_rss_mb", procfs::peak_rss_mb()),
        ];
        let metrics = select("end_to_end", &values, false, &mut checks);
        let cpu = t.cpu();
        eprintln!(
            "unscaled: {:.4} steps/s, {:.6} cpu ms/step; probe {:.4} calls/us",
            t.raw_steps_per_s(),
            t.per_step(cpu.user_ms + cpu.sys_ms),
            t.probe_per_s() / 1e6
        );
        (metrics, t)
    };
    drop(w);
    for f in checks.failures() {
        eprintln!("check failed: {f}");
    }
    eprintln!(
        "{}: seed {}, {} round(s), {} step(s), {} check(s) passed, {} failed; {} of {} operation(s) failed",
        args.workload,
        args.seed,
        all.rounds,
        all.steps,
        checks.passed(),
        checks.failures().len(),
        all.failed,
        all.attempted
    );
    for m in &metrics {
        eprintln!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        result_json(checks.ok(), all.attempted.max(1), all.failed, &metrics)
    );
}
