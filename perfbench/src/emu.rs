//! `emu16_dr`: Fig. 10's one-hour demand-response schedule on the
//! 16-node emulated cluster, under the figure's four capping techniques
//! one after another, through `EmulatedCluster::run_demand_response` on
//! the default blocking loopback plane. A step is one emulator tick.
//!
//! The inputs are Fig. 10's own (seed 10, 95% utilisation, a 3200 ± 900 W
//! random-walk target) and do not depend on the benchmark seed: the
//! Adjusted technique's watts-conservation violations are a known fault
//! that this workload counts as failed pumps, and a count that is to
//! mean the same in every run needs the same inputs in every run.

use crate::hostspeed::measure;
use crate::report::{median, Checks, Metric, Round};
use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal, TrackingRecorder};
use anor_cluster::{BudgetPolicy, EmulatedCluster, EmulatorConfig, JobSetup, RunReport};
use anor_telemetry::Telemetry;
use anor_types::{Catalog, Seconds, Watts};
use std::time::Instant;

/// Fig. 10's schedule seed.
const SEED: u64 = 10;
const NODES: f64 = 16.0;
const IDLE_W: f64 = 90.0;
const MAX_CAP_W: f64 = 280.0;
const HORIZON_S: f64 = 3600.0;
const WARMUP_S: f64 = 180.0;
/// Repetitions of the input build per round; their median is one
/// set-up sample (a single build takes well under a millisecond).
const SETUP_REPS: usize = 256;

#[derive(Debug, Clone, Copy)]
enum Technique {
    Uniform,
    Characterized,
    Misclassified,
    Adjusted,
}

const TECHNIQUES: [Technique; 4] = [
    Technique::Uniform,
    Technique::Characterized,
    Technique::Misclassified,
    Technique::Adjusted,
];

impl Technique {
    fn label(self) -> &'static str {
        match self {
            Technique::Uniform => "uniform",
            Technique::Characterized => "characterized",
            Technique::Misclassified => "misclassified",
            Technique::Adjusted => "adjusted",
        }
    }

    /// (policy, job-tier feedback, BT announced as IS).
    fn setting(self) -> (BudgetPolicy, bool, bool) {
        match self {
            Technique::Uniform => (BudgetPolicy::Uniform, false, false),
            Technique::Characterized => (BudgetPolicy::EvenSlowdown, false, false),
            Technique::Misclassified => (BudgetPolicy::EvenSlowdown, false, true),
            Technique::Adjusted => (BudgetPolicy::EvenSlowdown, true, true),
        }
    }
}

/// Everything one technique's run needs, built before the first tick.
struct Inputs {
    catalog: Catalog,
    runs: Vec<(Technique, EmulatorConfig, Vec<JobSetup>, PowerTarget)>,
}

fn build_inputs() -> Inputs {
    let catalog = anor_types::standard_catalog();
    let types = catalog.long_running();
    let submissions = poisson_schedule(&catalog, &types, 0.95, 16, Seconds(HORIZON_S), SEED);
    let runs = TECHNIQUES
        .iter()
        .map(|&t| {
            let (policy, feedback, misclassify) = t.setting();
            let mut cfg = EmulatorConfig::paper(policy, feedback);
            cfg.seed = SEED;
            let jobs = submissions
                .iter()
                .map(|s| {
                    let mut j = JobSetup::known(&catalog[s.type_id].name).at(s.time);
                    if misclassify && j.true_type.starts_with("bt") {
                        j.announced = "is.D.32".to_string();
                    }
                    j
                })
                .collect();
            let target = PowerTarget {
                avg: Watts(3200.0),
                reserve: Watts(900.0),
                signal: RegulationSignal::random_walk(
                    Seconds(4.0),
                    0.35,
                    Seconds(2.0 * HORIZON_S),
                    SEED ^ 0x515,
                ),
            };
            (t, cfg, jobs, target)
        })
        .collect();
    Inputs { catalog, runs }
}

/// Per-technique telemetry read-outs, summed over traced rounds.
#[derive(Debug, Default, Clone)]
struct Layers {
    tick_p50_s: Vec<f64>,
    tick_p99_s: Vec<f64>,
    ticks: u64,
    tick_sum_s: f64,
    runtime_steps: u64,
    runtime_sum_s: f64,
    pump_sum_s: f64,
    pumps: u64,
    phase_p50_s: [Vec<f64>; 5],
    decide_p99_s: Vec<f64>,
    pump_p50_s: Vec<f64>,
    pump_p99_s: Vec<f64>,
    caps_tx: u64,
    retrains: u64,
    frames: u64,
    bytes: u64,
    rounds: u64,
}

const PHASES: [&str; 5] = [
    "decide",
    "actuate",
    "lease-audit",
    "invariant-audit",
    "ingest",
];

pub struct Emu {
    layers: Layers,
    /// Per technique: (tracking p90 %, worst per-type mean slowdown %),
    /// identical in every round.
    quality: Vec<(Technique, f64, f64)>,
}

impl Emu {
    pub fn new() -> Emu {
        Emu {
            layers: Layers::default(),
            quality: Vec::new(),
        }
    }

    pub fn round(&mut self, traced: bool, checks: &mut Checks) -> Round {
        let mut round = Round::default();
        let (builds, seg) = measure(|| {
            (0..SETUP_REPS)
                .map(|_| {
                    let t0 = Instant::now();
                    let inputs = std::hint::black_box(build_inputs());
                    let took = t0.elapsed().as_secs_f64();
                    drop(inputs);
                    took
                })
                .collect::<Vec<f64>>()
        });
        round.setup.push(median(&builds) * seg.factor());
        let inputs = build_inputs();
        self.quality.clear();
        for (technique, cfg, jobs, target) in &inputs.runs {
            let telemetry = Telemetry::new();
            let cfg = cfg.clone().with_telemetry(telemetry.clone());
            let cluster = EmulatedCluster::new(cfg);
            let (report, seg) = measure(|| cluster.run_demand_response(jobs, target.clone(), true));
            round.timed.push(seg);
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    checks.check(false, || format!("{}: run failed: {e}", technique.label()));
                    continue;
                }
            };
            let ticks = telemetry.histogram("emulator_tick_seconds", &[]).count();
            let pumps = telemetry.histogram("budgeter_pump_seconds", &[]).count();
            let violations: u64 = [
                "watts_conservation",
                "lease_double_count",
                "reclaim_gauge_drift",
                "stale_session",
            ]
            .iter()
            .map(|inv| {
                telemetry
                    .counter("anor_invariant_violations_total", &[("invariant", inv)])
                    .get()
            })
            .sum();
            round.steps += ticks;
            round.attempted += pumps;
            round.failed += violations;
            check_report(*technique, &inputs.catalog, jobs, &report, checks);
            checks.check(ticks == pumps, || {
                format!("{}: {ticks} ticks but {pumps} pumps", technique.label())
            });
            self.quality.push((
                *technique,
                tracking_p90_pct(&report, target.reserve),
                worst_slowdown_pct(&inputs.catalog, &report),
            ));
            if traced {
                self.read_layers(&telemetry);
            }
        }
        if traced {
            self.layers.rounds += 1;
        }
        round
    }

    fn read_layers(&mut self, t: &Telemetry) {
        let l = &mut self.layers;
        let tick = t.histogram("emulator_tick_seconds", &[]);
        l.tick_p50_s.push(tick.quantile(0.5));
        l.tick_p99_s.push(tick.quantile(0.99));
        l.ticks += tick.count();
        l.tick_sum_s += tick.sum();
        let step = t.histogram("runtime_step_seconds", &[]);
        l.runtime_steps += step.count();
        l.runtime_sum_s += step.sum();
        let pump = t.histogram("budgeter_pump_seconds", &[]);
        l.pumps += pump.count();
        l.pump_sum_s += pump.sum();
        l.pump_p50_s.push(pump.quantile(0.5));
        l.pump_p99_s.push(pump.quantile(0.99));
        for (i, phase) in PHASES.iter().enumerate() {
            let h = t.histogram("pump_phase_seconds", &[("phase", phase)]);
            l.phase_p50_s[i].push(h.quantile(0.5));
            if *phase == "decide" {
                l.decide_p99_s.push(h.quantile(0.99));
            }
        }
        let role = |r: &'static str| [("role", r)];
        l.caps_tx += t
            .counter("transport_frames_tx_total", &role("budgeter"))
            .get();
        for r in ["budgeter", "endpoint"] {
            l.frames += t.counter("transport_frames_tx_total", &role(r)).get();
            l.bytes += t.counter("transport_bytes_tx_total", &role(r)).get();
        }
        l.retrains += t.counter("model_retrains_total", &[]).get();
    }

    pub fn layer_metrics(&self) -> Vec<Metric> {
        let l = &self.layers;
        let ticks = l.ticks.max(1) as f64;
        let ms = 1e3;
        let us = 1e6;
        let mut out = vec![
            Metric::new("emulator.tick_p50_ms", median(&l.tick_p50_s) * ms),
            Metric::new("emulator.tick_p99_ms", median(&l.tick_p99_s) * ms),
            Metric::new(
                "geopm.runtime_step_us",
                l.runtime_sum_s / l.runtime_steps.max(1) as f64 * us,
            ),
            Metric::new(
                "budgeter.pump_us",
                l.pump_sum_s / l.pumps.max(1) as f64 * us,
            ),
            Metric::new(
                "endpoint.self_us_per_tick",
                (l.tick_sum_s - l.runtime_sum_s - l.pump_sum_s) / ticks * us,
            ),
            Metric::new("model.retrains", l.retrains as f64 / l.rounds.max(1) as f64),
            Metric::new("transport.frames_per_step", l.frames as f64 / ticks),
            Metric::new("transport.bytes_per_step", l.bytes as f64 / ticks),
            Metric::new("budgeter.pump_p50_ms", median(&l.pump_p50_s) * ms),
            Metric::new("budgeter.pump_p99_ms", median(&l.pump_p99_s) * ms),
            Metric::new("budgeter.decide_p99_ms", median(&l.decide_p99_s) * ms),
            Metric::new("budgeter.caps_per_step", l.caps_tx as f64 / ticks),
        ];
        let phase_names = [
            "budgeter.decide_p50_ms",
            "budgeter.actuate_p50_ms",
            "budgeter.lease_audit_p50_ms",
            "budgeter.invariant_audit_p50_ms",
            "budgeter.ingest_p50_ms",
        ];
        for (name, samples) in phase_names.iter().zip(&l.phase_p50_s) {
            out.push(Metric::new(name, median(samples) * ms));
        }
        for (t, tracking, worst) in &self.quality {
            out.push(Metric::new(
                &format!("quality.tracking_p90_pct.{}", t.label()),
                *tracking,
            ));
            out.push(Metric::new(
                &format!("quality.worst_slowdown_pct.{}", t.label()),
                *worst,
            ));
        }
        out
    }
}

/// The per-job and per-tick output checks of one technique's run.
fn check_report(
    technique: Technique,
    catalog: &Catalog,
    jobs: &[JobSetup],
    report: &RunReport,
    checks: &mut Checks,
) {
    let label = technique.label();
    checks.check(report.jobs.len() == jobs.len(), || {
        format!(
            "{label}: {} of {} jobs completed",
            report.jobs.len(),
            jobs.len()
        )
    });
    for j in &report.jobs {
        let Some(spec) = catalog.find(&j.true_type) else {
            checks.check(false, || format!("{label}: unknown type {}", j.true_type));
            continue;
        };
        // The catalog curve is T(P) = t0·(1 + s·((Pmax − P)/(Pmax − Pmin))²),
        // so T(Pmin)/T(Pmax) = 1 + s; noise widens both ends by 3σ.
        let three_sigma = 3.0 * spec.noise_sigma;
        let lo = 1.0 - three_sigma;
        let hi = (1.0 + spec.sensitivity) * (1.0 + three_sigma);
        checks.check(
            j.elapsed.value() > 0.0 && (lo..=hi).contains(&j.slowdown),
            || {
                format!(
                    "{label}: job {} ({}) slowdown {:.4} outside [{lo:.4}, {hi:.4}]",
                    j.job.0, j.true_type, j.slowdown
                )
            },
        );
    }
    let floor = NODES * IDLE_W;
    let ceiling = NODES * MAX_CAP_W;
    checks.check(!report.power_trace.is_empty(), || {
        format!("{label}: empty power trace")
    });
    for &(t, _, measured) in &report.power_trace {
        let w = measured.value();
        checks.check((floor - 1e-6..=ceiling + 1e-6).contains(&w), || {
            format!(
                "{label}: cluster power {w:.2} W at t={:.1} s outside [{floor}, {ceiling}]",
                t.value()
            )
        });
    }
}

/// Fig. 10's tracking figure: p90 error over the post-warm-up hour, as a
/// percentage of the reserve.
fn tracking_p90_pct(report: &RunReport, reserve: Watts) -> f64 {
    let mut rec = TrackingRecorder::new(reserve);
    for &(t, target, measured) in &report.power_trace {
        if (WARMUP_S..=HORIZON_S).contains(&t.value()) {
            rec.push(target, measured);
        }
    }
    rec.percentile_error(90.0) * 100.0
}

/// Worst per-type mean slowdown, percent.
fn worst_slowdown_pct(catalog: &Catalog, report: &RunReport) -> f64 {
    catalog
        .long_running()
        .iter()
        .filter_map(|&id| report.mean_slowdown(&catalog[id].name))
        .map(|s| (s - 1.0) * 100.0)
        .fold(0.0, f64::max)
}
