//! `sim100k_dr`: the tabular simulator at 100,000 nodes with the
//! even-slowdown+qos policy, ±15% node variation, 75% utilisation and a
//! random-walk target, built the way `anorsim --nodes 100000` builds it.
//! Set-up is the table build plus the warm-up fill; a step is one
//! simulated second.

use crate::hostspeed::measure;
use crate::report::{median, quantile, Checks, Metric, Round};
use crate::rng::SplitMix;
use anor_aqa::{poisson_schedule, JobSubmission, PowerTarget, RegulationSignal};
use anor_platform::PerformanceVariation;
use anor_policy::JobView;
use anor_sim::{SimConfig, SimPowerPolicy, TabularSim};
use anor_types::{QosDegradation, Seconds, Watts};
use std::collections::HashMap;
use std::time::Instant;

const NODES: u32 = 100_000;
const UTILIZATION: f64 = 0.75;
const VARIATION_PCT: f64 = 15.0;
/// Simulated seconds of warm-up fill before the timed window.
const WARMUP_TICKS: u64 = 1200;
/// Timed steps per round.
const WINDOW_TICKS: u64 = 1200;
/// Steps per timed segment (each bracketed by host-speed probes).
const SEGMENT_TICKS: u64 = 300;

/// Set-ups per round, each on a fresh input set; the window runs on the
/// last. How fast 100,000 nodes fill during the warm-up hinges on the
/// first few dozen arrivals, so one input set's set-up time is more a
/// property of its seed than of the program: with one set per run, six
/// seeds' set-up times spread by 17% (Q3 − Q1 over the median). Each
/// set-up here draws its own set, and a run's median rests on a dozen or
/// more arrival patterns.
const SETUPS_PER_ROUND: usize = 2;

/// The seeded inputs of one set-up.
struct Inputs {
    target: PowerTarget,
    variation: PerformanceVariation,
    schedule: Vec<JobSubmission>,
}

pub struct Sim {
    cfg: SimConfig,
    /// The run seed, used for the first input set.
    first_seed: Option<u64>,
    /// Seeds of every later input set.
    seeds: SplitMix,
    tick_s: Vec<f64>,
    assign_s: Vec<f64>,
    busy_node_ticks: u64,
    tracking_p90_pct: f64,
    qos_p90: f64,
}

impl Sim {
    /// The first input set comes from `seed` itself (as `anorsim --seed`
    /// derives its inputs), every later one from a seed drawn from it.
    pub fn new(seed: u64) -> Sim {
        let scale = (f64::from(NODES) / 40.0).round().max(1.0) as u32;
        let catalog = anor_types::standard_catalog().scale_nodes(scale);
        let types = catalog.long_running();
        let cfg = SimConfig {
            total_nodes: NODES,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy: SimPowerPolicy::EvenSlowdownQosAware,
            qos: Default::default(),
            qos_risk_threshold: 0.8,
        };
        Sim {
            cfg,
            first_seed: Some(seed),
            seeds: SplitMix::new(seed),
            tick_s: Vec::new(),
            assign_s: Vec::new(),
            busy_node_ticks: 0,
            tracking_p90_pct: 0.0,
            qos_p90: 0.0,
        }
    }

    fn next_inputs(&mut self) -> Inputs {
        let seed = self
            .first_seed
            .take()
            .unwrap_or_else(|| self.seeds.next_u64());
        inputs(&self.cfg, seed)
    }

    /// Table build and warm-up fill, timed as segments of the window's
    /// length so the host-speed scaling follows the host as closely.
    /// Returns the simulator, its set-up time at the reference speed, and
    /// Σ measured power × tick over the warm-up.
    fn set_up(&self, inputs: &Inputs) -> (TabularSim, f64, f64) {
        let tick = self.cfg.tick.value();
        let mut energy = 0.0;
        let (mut sim, build) = measure(|| {
            let mut sim = TabularSim::new(
                self.cfg.clone(),
                inputs.target.clone(),
                &inputs.variation,
                inputs.schedule.clone(),
                None,
            );
            sim.set_recap_shards(1);
            sim.record_history_capped(0);
            sim
        });
        let mut setup_s = build.scaled_s();
        for _ in 0..WARMUP_TICKS / SEGMENT_TICKS {
            let ((), seg) = measure(|| {
                for _ in 0..SEGMENT_TICKS {
                    sim.step();
                    energy += sim.measured_power().value() * tick;
                }
            });
            setup_s += seg.scaled_s();
        }
        sim.reset_tracking();
        (sim, setup_s, energy)
    }

    pub fn round(&mut self, traced: bool, checks: &mut Checks) -> Round {
        let mut round = Round::default();
        // Energy is summed from outside over every tick of the last
        // set-up and the window, for the conservation check.
        let mut last: Option<(TabularSim, Inputs, f64)> = None;
        for _ in 0..SETUPS_PER_ROUND {
            let inputs = self.next_inputs();
            // The previous simulator is checked and freed first, so only
            // one is ever held.
            if let Some((sim, inputs, energy)) = last.take() {
                self.check(&sim, &inputs.schedule, energy, checks);
            }
            let (sim, setup_s, energy) = self.set_up(&inputs);
            round.setup.push(setup_s);
            last = Some((sim, inputs, energy));
        }
        let (mut sim, inputs, mut energy) = last.expect("SETUPS_PER_ROUND > 0");
        let tick = self.cfg.tick.value();

        // The window runs as a few host-probe-bracketed segments, so the
        // host-speed scaling follows the host more closely.
        if traced {
            self.busy_node_ticks = 0;
        }
        for _ in 0..WINDOW_TICKS / SEGMENT_TICKS {
            let ((), seg) = measure(|| {
                for _ in 0..SEGMENT_TICKS {
                    if traced {
                        let s0 = Instant::now();
                        sim.step();
                        self.tick_s.push(s0.elapsed().as_secs_f64());
                        self.busy_node_ticks += u64::from(NODES - sim.idle_nodes());
                    } else {
                        sim.step();
                    }
                    energy += sim.measured_power().value() * tick;
                }
            });
            round.timed.push(seg);
            // Between segments, so the job rows and views it builds count
            // in neither a segment's time nor its CPU and faults.
            if traced {
                self.time_policy_assign(&sim, &inputs.target);
            }
        }
        round.steps = WINDOW_TICKS;
        round.attempted = WINDOW_TICKS;
        self.check(&sim, &inputs.schedule, energy, checks);
        self.tracking_p90_pct = sim.tracking().percentile_error(90.0) * 100.0;
        let out = sim.outcome();
        let all: Vec<QosDegradation> = out
            .qos_by_type
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        self.qos_p90 = self.cfg.qos.percentile_degradation(&all).unwrap_or(0.0);
        round
    }

    /// Time `SimPowerPolicy::assign` on the running jobs' views at the
    /// current busy budget. At-risk flags are all clear: the projection
    /// that sets them is internal to the simulator.
    fn time_policy_assign(&mut self, sim: &TabularSim, target: &PowerTarget) {
        let jobs = sim.jobs();
        let views: Vec<JobView> = jobs
            .iter()
            .filter(|j| j.is_running())
            .map(|j| {
                let mut v = JobView::from_spec(j.id, &self.cfg.catalog[j.type_id]);
                v.nodes = j.nodes.len() as u32;
                v
            })
            .collect();
        let at_risk = vec![false; views.len()];
        let busy_budget = (target.at(sim.now())
            - self.cfg.idle_power * f64::from(sim.idle_nodes()))
        .max(Watts::ZERO);
        let t0 = Instant::now();
        let caps = self.cfg.policy.assign(busy_budget, &views, &at_risk);
        self.assign_s.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(caps);
    }

    /// Conservation and bookkeeping checks on the tables at the end of a
    /// round, recomputed here from the raw rows.
    fn check(
        &self,
        sim: &TabularSim,
        schedule: &[JobSubmission],
        energy: f64,
        checks: &mut Checks,
    ) {
        let reported = sim.energy().value();
        checks.check(
            (reported - energy).abs() <= 1e-9 * energy.abs().max(1.0),
            || format!("sim energy {reported} J but Σ measured power × tick = {energy} J"),
        );
        let nodes = sim.nodes();
        let jobs = sim.jobs();
        let mut owner: Vec<Option<u64>> = vec![None; nodes.len()];
        let mut double = 0usize;
        let mut running = 0u64;
        let mut queued = 0u64;
        let mut completed = 0u64;
        for j in &jobs {
            if j.is_running() {
                running += 1;
                for n in &j.nodes {
                    let slot = &mut owner[n.index()];
                    if slot.is_some() {
                        double += 1;
                    }
                    *slot = Some(j.id.0);
                }
            } else if j.is_done() {
                completed += 1;
            } else {
                queued += 1;
            }
        }
        checks.check(double == 0, || {
            format!("{double} node(s) held by two running jobs")
        });
        let mut busy = 0u32;
        let mut idle = 0u32;
        let mut bad_cap = 0usize;
        let mut mismatched = 0usize;
        let type_of: HashMap<u64, anor_types::JobTypeId> = jobs
            .iter()
            .filter(|j| j.is_running())
            .map(|j| (j.id.0, j.type_id))
            .collect();
        for (i, n) in nodes.iter().enumerate() {
            match n.job {
                Some(job) => {
                    busy += 1;
                    if owner[i] != Some(job.0) {
                        mismatched += 1;
                    }
                    let range = type_of.get(&job.0).map(|&t| self.cfg.catalog[t].cap_range);
                    match range {
                        Some(r)
                            if n.cap.value() >= r.min.value() && n.cap.value() <= r.max.value() => {
                        }
                        _ => bad_cap += 1,
                    }
                }
                None => idle += 1,
            }
        }
        checks.check(mismatched == 0, || {
            format!("{mismatched} busy node(s) not listed by their job")
        });
        checks.check(bad_cap == 0, || {
            format!("{bad_cap} busy node(s) capped outside their type's range")
        });
        checks.check(busy + idle == NODES && idle == sim.idle_nodes(), || {
            format!(
                "busy {busy} + idle {idle} != {NODES}, or idle != idle_nodes() = {}",
                sim.idle_nodes()
            )
        });
        let now = sim.now().value();
        let submitted = schedule.iter().filter(|s| s.time.value() <= now).count() as u64;
        checks.check(completed + running + queued == submitted, || {
            format!("completed {completed} + running {running} + queued {queued} != submitted {submitted}")
        });
    }

    pub fn layer_metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("sim.tick_p50_ms", median(&self.tick_s) * 1e3),
            Metric::new("sim.tick_p99_ms", quantile(&self.tick_s, 0.99) * 1e3),
            Metric::new("policy.sim_assign_us", median(&self.assign_s) * 1e6),
            Metric::new("sim.busy_node_ticks", self.busy_node_ticks as f64),
            Metric::new("quality.tracking_p90_pct", self.tracking_p90_pct),
            Metric::new("quality.qos_p90", self.qos_p90),
        ]
    }
}

/// One set-up's inputs from `seed`, derived as `anorsim --seed` derives
/// them.
fn inputs(cfg: &SimConfig, seed: u64) -> Inputs {
    let mean_draw: f64 = cfg
        .types
        .iter()
        .map(|&id| cfg.catalog[id].max_draw.value())
        .sum::<f64>()
        / cfg.types.len() as f64;
    let n = f64::from(NODES);
    let avg = Watts(0.88 * n * (UTILIZATION * mean_draw + (1.0 - UTILIZATION) * 90.0));
    let horizon = Seconds((WARMUP_TICKS + WINDOW_TICKS) as f64);
    Inputs {
        target: PowerTarget {
            avg,
            reserve: avg * 0.12,
            signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, horizon * 3.0, seed ^ 0x51),
        },
        variation: PerformanceVariation::with_level_percent(
            NODES as usize,
            VARIATION_PCT,
            seed ^ 0xfe,
        ),
        schedule: poisson_schedule(&cfg.catalog, &cfg.types, UTILIZATION, NODES, horizon, seed),
    }
}
