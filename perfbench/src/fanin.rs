//! `fanin10k_quiet` and `fanin10k_step`: the cluster budgeter at 10,000
//! one-node endpoints, driven through the flight-recorder replay path
//! that `anor-replay` uses. The benchmark writes a budgeter recording
//! itself (connection opens, hellos, samples, retrained models and one
//! budget per pump), reads it back with `read_recording` (the set-up)
//! and runs it through `replay` (the timed steps, one per pump). No
//! client socket and no kernel TCP is in the timed loop; the only socket
//! is the listener `replay` binds for its budgeter.

use crate::hostspeed::measure;
use crate::procfs;
use crate::report::{median, Checks, Metric, Round};
use crate::rng::SplitMix;
use anor_cluster::{
    describe_config, replay, BudgetPolicy, BudgeterConfig, LeaseConfig, ReplayOptions,
};
use anor_policy::{Budgeter, EvenSlowdownBudgeter, JobView};
use anor_telemetry::{read_recording, FlightRecorder, RecEvent, Recording, RecordingMeta};
use anor_types::msg::{ClusterToJob, EpochSample, JobToCluster};
use anor_types::{JobId, Joules, PowerCurve, Seconds, Watts};
use bytes::Bytes;
use std::path::PathBuf;
use std::time::Instant;

const ENDPOINTS: usize = 10_000;
/// Pumps per recording; one replay of the recording is one round.
const PUMPS: u64 = 100;
/// One in this many endpoints sends a retrained `Model` each pump.
const MODEL_EVERY: usize = 1_000;
/// A sample reports this share of the job's current cap as its draw:
/// inside the budgeter's feedback band (0.7–0.98 of the cap), so samples
/// never widen or shrink a believed power window.
const DRAW_SHARE: f64 = 0.85;
/// The budgeter's re-send threshold (`BudgeterConfig::recap_threshold`).
const RECAP_W: f64 = 1.0;
/// Budget random-walk step per pump (`fanin10k_step`), as a share of
/// the even-slowdown band.
const STEP_SHARE: f64 = 0.004;
/// Pumps whose budget `EvenSlowdownBudgeter::assign` is timed on, per
/// traced round.
const ASSIGN_PROBES: usize = 20;
/// `read_recording` calls per round; their median is one set-up sample
/// (a single read takes a few milliseconds).
const SETUP_READS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Constant budget; 1 in 50 endpoints samples per pump.
    Quiet,
    /// Budget moves every pump; 1 in 10 endpoints samples per pump.
    Step,
}

impl Kind {
    fn sample_every(self) -> usize {
        match self {
            Kind::Quiet => 50,
            Kind::Step => 10,
        }
    }
}

/// The generated recording plus what the generator knows about it: the
/// budget of every pump and each job's final believed view (the
/// catalog curve of its announced type, or the last model it sent).
pub struct FanIn {
    path: PathBuf,
    budgets: Vec<f64>,
    views: Vec<JobView>,
    inherited_sockets: usize,
    layers: Layers,
}

#[derive(Debug, Default)]
struct Layers {
    pump_p50_s: Vec<f64>,
    pump_p99_s: Vec<f64>,
    phase_p50_s: Vec<(String, f64)>,
    decide_p99_s: Vec<f64>,
    caps: u64,
    pumps: u64,
    rounds: u64,
    assign_s: Vec<f64>,
    decode_s: Vec<f64>,
    encode_s: Vec<f64>,
}

impl FanIn {
    /// Generate the recording for `seed` into `dir`.
    pub fn new(kind: Kind, seed: u64, dir: &std::path::Path) -> std::io::Result<FanIn> {
        let inherited_sockets = procfs::open_sockets();
        let mut rng = SplitMix::new(seed ^ 0xfa11_0000);
        let catalog = anor_types::standard_catalog();
        let types = catalog.long_running();
        let specs: Vec<_> = (0..ENDPOINTS)
            .map(|_| &catalog[types[rng.below(types.len())]])
            .collect();
        let mut views: Vec<JobView> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let mut v = JobView::from_spec(JobId(i as u64), spec);
                v.nodes = 1;
                v
            })
            .collect();
        let floor: f64 = views.iter().map(|v| v.p_min().value()).sum();
        let top: f64 = views.iter().map(|v| v.p_max().value()).sum();
        let span = top - floor;
        let mut budget = floor + span * (0.45 + 0.1 * rng.unit());

        let path = dir.join(format!(
            "fanin-{}-{seed}-{}.rec",
            if kind == Kind::Quiet { "quiet" } else { "step" },
            std::process::id()
        ));
        let cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, true);
        let rec = FlightRecorder::create(
            &path,
            RecordingMeta {
                seed,
                config: describe_config(&cfg, &LeaseConfig::default()),
                role: "budgeter".to_string(),
            },
        )?;
        let body = |msg: JobToCluster| msg.encode()[4..].to_vec();
        let policy = EvenSlowdownBudgeter::default();
        let mut last_cap: Vec<Option<f64>> = vec![None; ENDPOINTS];
        let mut epochs = vec![0u64; ENDPOINTS];
        let mut budgets = Vec::with_capacity(PUMPS as usize);
        for pump in 1..=PUMPS {
            if kind == Kind::Step && pump > 1 {
                let lo = floor + 0.2 * span;
                let hi = top - 0.2 * span;
                budget = (budget + span * STEP_SHARE * rng.normal()).clamp(lo, hi);
            }
            budgets.push(budget);
            rec.record(&RecEvent::PumpStart { pump, budget });
            if pump == 1 {
                for (i, spec) in specs.iter().enumerate() {
                    let conn = i as u32;
                    rec.record(&RecEvent::ConnOpen { conn });
                    rec.record(&RecEvent::FrameIn {
                        conn,
                        body: body(JobToCluster::Hello {
                            job: JobId(i as u64),
                            type_name: spec.name.clone(),
                            nodes: 1,
                        }),
                    });
                }
            } else {
                let every = kind.sample_every();
                let first = rng.below(every);
                for i in (first..ENDPOINTS).step_by(every) {
                    let cap = last_cap[i].expect("every job holds a cap after pump 1");
                    epochs[i] += 1;
                    let sample = EpochSample {
                        job: JobId(i as u64),
                        epoch_count: epochs[i],
                        energy: Joules(DRAW_SHARE * cap * pump as f64),
                        avg_power: Watts(DRAW_SHARE * cap),
                        avg_cap: Watts(cap),
                        timestamp: Seconds(pump as f64),
                        cause: 0,
                    };
                    rec.record(&RecEvent::FrameIn {
                        conn: i as u32,
                        body: body(JobToCluster::Sample(sample)),
                    });
                }
                let first = rng.below(MODEL_EVERY);
                for i in (first..ENDPOINTS).step_by(MODEL_EVERY) {
                    // A retrain that re-estimates the sensitivity within
                    // ±10% of the type's own: a well-formed, monotone
                    // per-epoch model over the platform cap range.
                    let spec = specs[i];
                    let curve = PowerCurve::from_anchor(
                        spec.epoch_time_uncapped(),
                        spec.sensitivity * (0.9 + 0.2 * rng.unit()),
                        spec.cap_range,
                    );
                    views[i] = views[i].clone().with_curve(curve);
                    rec.record(&RecEvent::FrameIn {
                        conn: i as u32,
                        body: body(JobToCluster::Model {
                            job: JobId(i as u64),
                            curve,
                            samples: 10 + pump as u32,
                            cause: 0,
                        }),
                    });
                }
            }
            // Follow the budgeter's decision so the next pump's samples
            // report a draw relative to the cap each job then holds.
            let caps = policy.assign(Watts(budget), &views);
            for (held, cap) in last_cap.iter_mut().zip(caps) {
                if held.is_none_or(|h| (h - cap.value()).abs() > RECAP_W) {
                    *held = Some(cap.value());
                }
            }
        }
        rec.flush()?;
        Ok(FanIn {
            path,
            budgets,
            views,
            inherited_sockets,
            layers: Layers::default(),
        })
    }

    pub fn round(&mut self, traced: bool, checks: &mut Checks) -> Round {
        let mut round = Round::default();
        let ((reads, rec), setup) = measure(|| {
            let mut reads = Vec::with_capacity(SETUP_READS);
            let mut rec = None;
            for _ in 0..SETUP_READS {
                // The previous read is freed first, so only one
                // recording is ever held.
                drop(rec.take());
                let t0 = Instant::now();
                rec = Some(read_recording(&self.path));
                reads.push(t0.elapsed().as_secs_f64());
            }
            (reads, rec)
        });
        let rec = match rec.expect("SETUP_READS > 0") {
            Ok(r) => r,
            Err(e) => {
                checks.check(false, || format!("read_recording failed: {e}"));
                return round;
            }
        };
        round.setup.push(median(&reads) * setup.factor());
        let (outcome, seg) = measure(|| replay(&rec, &ReplayOptions::default()));
        round.timed.push(seg);
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                checks.check(false, || format!("replay failed: {e}"));
                return round;
            }
        };
        round.steps = outcome.pumps_replayed;
        round.attempted = outcome.pumps_replayed;
        round.failed = outcome.invariant_violations;
        self.check(&outcome, checks);
        if traced {
            self.read_layers(&outcome, &rec);
        }
        round
    }

    fn check(&self, outcome: &anor_cluster::ReplayOutcome, checks: &mut Checks) {
        let snap = &outcome.snapshot;
        checks.check(outcome.pumps_replayed == PUMPS, || {
            format!(
                "replayed {} pumps of {PUMPS} recorded",
                outcome.pumps_replayed
            )
        });
        checks.check(outcome.invariant_violations == 0, || {
            format!(
                "auditor flagged {} violation(s)",
                outcome.invariant_violations
            )
        });
        // `replay` binds one listener for its budgeter and never accepts
        // on it; once it returns, the process holds no socket it did not
        // hold before (a descriptor inherited from the caller is not ours).
        let sockets = procfs::open_sockets();
        checks.check(sockets <= self.inherited_sockets, || {
            format!(
                "{sockets} socket(s) open after replay, {} before the run",
                self.inherited_sockets
            )
        });
        checks.check(snap.jobs.len() == ENDPOINTS, || {
            format!("{} jobs registered, expected {ENDPOINTS}", snap.jobs.len())
        });
        let budget = *self.budgets.last().expect("PUMPS > 0");
        checks.check((snap.budget - budget).abs() < 1e-9, || {
            format!(
                "last pump ran at {} W, recording says {budget} W",
                snap.budget
            )
        });
        let mut allocated = 0.0;
        let mut nodes = 0.0;
        let mut floor = 0.0;
        // Even slowdown: each job strictly inside its window pins the
        // common believed slowdown to the interval its cap allows, given
        // that a cap within the re-send threshold of its ideal is kept.
        let (mut s_lo, mut s_hi) = (f64::MIN, f64::MAX);
        let mut inside = 0usize;
        for (row, view) in snap.jobs.iter().zip(&self.views) {
            let Some(cap) = row.cap else {
                checks.check(false, || format!("job {} holds no cap", row.job));
                continue;
            };
            let (p_min, p_max) = (view.p_min().value(), view.p_max().value());
            checks.check(
                row.job == view.job.0 && (p_min - 1e-9..=p_max + 1e-9).contains(&cap),
                || format!("job {} cap {cap} W outside [{p_min}, {p_max}]", row.job),
            );
            let n = f64::from(row.nodes);
            allocated += cap * n;
            nodes += n;
            floor += p_min * n;
            if cap > p_min + RECAP_W && cap < p_max - RECAP_W {
                inside += 1;
                let c = &view.curve;
                let t = |p: f64| c.a * p * p + c.b * p + c.c;
                let t_ref = t(p_max);
                // T falls as the cap rises: the higher cap bounds the
                // slowdown from below.
                let lo = t((cap + RECAP_W + 1e-6).min(p_max)) / t_ref;
                let hi = t((cap - RECAP_W - 1e-6).max(p_min)) / t_ref;
                s_lo = s_lo.max(lo);
                s_hi = s_hi.min(hi);
            }
        }
        let allowed = budget.max(floor) + RECAP_W * nodes + 1e-6;
        checks.check(allocated <= allowed, || {
            format!("allocated {allocated:.2} W exceeds {allowed:.2} W (budget {budget:.2} W)")
        });
        checks.check(inside > 0 && s_lo <= s_hi, || {
            format!(
                "{inside} in-window jobs share no believed slowdown: need ≥ {s_lo:.6} and ≤ {s_hi:.6}"
            )
        });
    }

    fn read_layers(&mut self, outcome: &anor_cluster::ReplayOutcome, rec: &Recording) {
        let snap = &outcome.snapshot;
        let l = &mut self.layers;
        l.pump_p50_s.push(snap.pump_p50);
        l.pump_p99_s.push(snap.pump_p99);
        for p in &snap.phases {
            l.phase_p50_s.push((p.phase.clone(), p.p50));
            if p.phase == "decide" {
                l.decide_p99_s.push(p.p99);
            }
        }
        l.caps += outcome.decisions_checked;
        l.pumps += outcome.pumps_replayed;
        l.rounds += 1;

        let policy = EvenSlowdownBudgeter::default();
        let stride = (self.budgets.len() / ASSIGN_PROBES).max(1);
        for &b in self.budgets.iter().step_by(stride) {
            let t0 = Instant::now();
            let caps = policy.assign(Watts(b), &self.views);
            l.assign_s.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(caps);
        }

        let bodies: Vec<Bytes> = rec
            .events
            .iter()
            .filter_map(|e| match &e.event {
                RecEvent::FrameIn { body, .. } => Some(Bytes::from(body.clone())),
                _ => None,
            })
            .collect();
        let n = bodies.len();
        let t0 = Instant::now();
        let decoded = bodies
            .into_iter()
            .filter_map(|b| JobToCluster::decode(std::hint::black_box(b)).ok())
            .count();
        l.decode_s
            .push(t0.elapsed().as_secs_f64() / n.max(1) as f64);
        std::hint::black_box(decoded);
        let caps: Vec<f64> = snap.jobs.iter().filter_map(|j| j.cap).collect();
        let t0 = Instant::now();
        let mut bytes = 0usize;
        for &cap in &caps {
            bytes += ClusterToJob::SetPowerCap {
                cap: Watts(std::hint::black_box(cap)),
                cause: 0,
            }
            .encode()
            .len();
        }
        l.encode_s
            .push(t0.elapsed().as_secs_f64() / caps.len().max(1) as f64);
        std::hint::black_box(bytes);
    }

    pub fn layer_metrics(&self) -> Vec<Metric> {
        let l = &self.layers;
        let phase = |name: &str| {
            let xs: Vec<f64> = l
                .phase_p50_s
                .iter()
                .filter(|(p, _)| p == name)
                .map(|(_, v)| *v)
                .collect();
            median(&xs) * 1e3
        };
        vec![
            Metric::new("budgeter.pump_p50_ms", median(&l.pump_p50_s) * 1e3),
            Metric::new("budgeter.pump_p99_ms", median(&l.pump_p99_s) * 1e3),
            Metric::new("budgeter.decide_p50_ms", phase("decide")),
            Metric::new("budgeter.decide_p99_ms", median(&l.decide_p99_s) * 1e3),
            Metric::new("budgeter.actuate_p50_ms", phase("actuate")),
            Metric::new("budgeter.lease_audit_p50_ms", phase("lease-audit")),
            Metric::new("budgeter.invariant_audit_p50_ms", phase("invariant-audit")),
            Metric::new("budgeter.ingest_p50_ms", phase("ingest")),
            // The first pump of every replay hands each endpoint its first
            // cap; the rate after it is the one an optimisation moves.
            Metric::new(
                "budgeter.caps_per_step",
                l.caps.saturating_sub(l.rounds * ENDPOINTS as u64) as f64
                    / l.pumps.saturating_sub(l.rounds).max(1) as f64,
            ),
            Metric::new("policy.assign_ms", median(&l.assign_s) * 1e3),
            Metric::new("codec.decode_ns", median(&l.decode_s) * 1e9),
            Metric::new("codec.encode_ns", median(&l.encode_s) * 1e9),
        ]
    }
}

impl Drop for FanIn {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}
