//! `train-msd`: Algorithm 2 (`MirasTrainer::try_run_iteration`) on the MSD
//! ensemble at `MirasConfig::msd_fast` scale, default rollout mode, a fixed
//! number of iterations from one fresh trainer.
//!
//! The traced run cannot put spans inside `run_iteration`, so after each
//! real iteration it replays the iteration's stages through their public
//! entry points — on the dataset, model and a clone of the agent that the
//! trainer held when the iteration began, with the iteration's own call
//! counts — and times those calls. The replay's real-environment steps
//! also give the simulator's counts (`desim.*`, `microsim.arrivals`), and
//! their event volume is replayed through a bare `desim::EventQueue`.

use std::sync::Arc;
use std::time::Instant;

use desim::{EventQueue, QueueKind, SimTime};
use microsim::{EnvConfig, MicroserviceEnv};
use miras_core::{
    ClusterEnvAdapter, DynamicsModel, IterationReport, MirasConfig, MirasTrainer, RefinedModel,
    SyntheticEnv, TransitionDataset,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rl::{Ddpg, Environment, TrainHealth};
use workflow::{BurstSpec, Ensemble};

use crate::stats::{fastest_stretch, median, Summary};
use crate::trace::{Counters, Stages, Tracer};
use crate::{Args, Outcome};

/// Wall seconds one iteration takes on a 2-vCPU host at one NN thread;
/// sizes the run to the budget.
const SECONDS_PER_ITERATION: f64 = 4.0;

/// Times the set-up is repeated; the median is reported.
const SETUP_REPEATS: usize = 31;

/// Consecutive iterations over which throughput is measured.
const THROUGHPUT_STRETCH: usize = 2;

/// Windows each auditor-on pass simulates.
const AUDIT_WINDOWS: usize = 20;

/// The training configuration: `msd_fast` with its full rollout budget.
///
/// The inner loop's early stop ends an iteration after anywhere from 34 to
/// 100 synthetic rollouts depending on the seed, and the iteration's wall
/// time follows the rollout count; without it every iteration does the
/// same work, so the timing measures the code rather than the seed.
pub(crate) fn config(seed: u64) -> MirasConfig {
    let mut config = MirasConfig::msd_fast(seed);
    config.inner_patience = 0;
    config
}

/// A real environment and a fresh trainer, built as `miras-cli train`
/// builds them.
pub(crate) fn build(seed: u64) -> (ClusterEnvAdapter, MirasTrainer) {
    let ensemble = Ensemble::msd();
    let env_config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
    let env = ClusterEnvAdapter::new(MicroserviceEnv::new(ensemble, env_config));
    let trainer = MirasTrainer::new(&env, config(seed));
    (env, trainer)
}

/// FNV-1a over the agent's serialized form, for cross-run comparison.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checks one iteration's report against the trainer's invariants.
fn check_report(
    out: &mut Outcome,
    report: &IterationReport,
    config: &MirasConfig,
    prev_size: usize,
    dataset_len: usize,
) {
    let finite = report.model_loss.is_finite()
        && report.synthetic_return_mean.is_finite()
        && report.eval_return.is_finite()
        && report.exploration_sigma.is_none_or(f64::is_finite);
    out.check(finite, || {
        format!("iteration report is not finite: {report:?}")
    });
    let grown = prev_size + config.real_steps_per_iter + config.eval_steps;
    out.check(report.dataset_size == grown && dataset_len == grown, || {
        format!(
            "dataset grew from {prev_size} to {} (trainer holds {dataset_len}), expected {grown}",
            report.dataset_size
        )
    });
}

/// Checks the final agent's allocations on states the trainer saw, and
/// prints its digest and last evaluation return.
fn check_agent(out: &mut Outcome, trainer: &MirasTrainer, budget: usize, last_eval: f64) {
    let agent = trainer.agent();
    for t in trainer.dataset().transitions().iter().step_by(25) {
        let alloc = agent.allocate(&t.state);
        let total: usize = alloc.iter().sum();
        out.check(total <= budget, || {
            format!("agent allocated {total} consumers over budget {budget}")
        });
    }
    let json = serde_json::to_string(&agent).unwrap_or_default();
    println!(
        "info: after {} iterations: agent digest {:016x}, eval_return {last_eval}",
        trainer.iterations_run(),
        digest(json.as_bytes())
    );
}

/// Per-iteration numbers collected by the traced run.
#[derive(Default)]
struct TracedIters {
    untraced_wall: Vec<f64>,
    traced_wall: Vec<f64>,
    stages: Vec<Stages>,
    gemm_calls: Vec<f64>,
    env_steps: Vec<f64>,
    lend_ratio: Vec<f64>,
    sim: Vec<SimCounts>,
    queue_s: Vec<f64>,
}

/// What the real-environment steps of one replayed iteration simulated.
#[derive(Debug, Default)]
struct SimCounts {
    events: u64,
    arrivals: u64,
    completions: u64,
    peak_pending: usize,
    cascades: u64,
}

impl SimCounts {
    /// Steps `env` inside a `microsim.collect_s` span and adds what the
    /// step simulated, read from the `Cluster` accessors and the window's
    /// metrics outside the span.
    fn step(&mut self, tracer: &Tracer, env: &mut ClusterEnvAdapter, a: &[f64]) -> Vec<f64> {
        let cluster = env.env().cluster();
        let (events, cascades) = (cluster.events_processed(), cluster.wheel_cascades());
        let s = tracer.span("microsim.collect_s", || env.step(a)).next_state;
        let cluster = env.env().cluster();
        self.events += cluster.events_processed() - events;
        self.cascades += cluster.wheel_cascades() - cascades;
        self.peak_pending = self.peak_pending.max(cluster.pending_events());
        if let Some(m) = env.last_metrics() {
            self.arrivals += m.arrivals.iter().map(|&a| a as u64).sum::<u64>();
            self.completions += m.completions.iter().map(|&c| c as u64).sum::<u64>();
        }
        s
    }
}

/// Replays an event volume through a bare queue of the cluster's backend:
/// `arrivals` pushes spread over `horizon_secs`, each fanning out into
/// `children` follow-ups one mean service time apart. Returns the events
/// popped.
fn queue_replay(
    kind: QueueKind,
    arrivals: u64,
    children: u64,
    service_secs: f64,
    horizon_secs: f64,
    rng: &mut SmallRng,
) -> u64 {
    let mut q: EventQueue<u64> = EventQueue::with_kind(kind);
    for i in 0..arrivals {
        q.push(SimTime::from_secs_f64(rng.gen_range(0.0..horizon_secs)), i);
    }
    let mut pops = 0u64;
    while let Some(ev) = q.pop() {
        pops += 1;
        if ev.event < arrivals {
            for c in 0..children {
                let at = ev.time + SimTime::from_secs_f64(service_secs * (c + 1) as f64);
                q.push(at, arrivals + c);
            }
        }
    }
    pops
}

/// Times [`queue_replay`] of what one iteration's real steps simulated.
fn time_queue_replay(sim: &SimCounts, steps: usize, seed: u64) -> f64 {
    let ensemble = Ensemble::msd();
    let kind = microsim::SimConfig::new(0).queue;
    let service_secs = ensemble
        .task_types()
        .iter()
        .map(|t| t.mean_service_secs)
        .sum::<f64>()
        / ensemble.task_types().len() as f64;
    let horizon = EnvConfig::for_ensemble(&ensemble).window().as_secs_f64() * steps.max(1) as f64;
    let children = (sim.events / sim.arrivals.max(1)).saturating_sub(1).max(1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = Instant::now();
    let pops = queue_replay(
        kind,
        sim.arrivals,
        children,
        service_secs,
        horizon,
        &mut rng,
    );
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(pops);
    secs
}

/// The auditor-on pass: the MSD environment under a uniform allocation,
/// with runtime invariant auditing, must report no violation, and two
/// builds of one seed must simulate exactly the same counts.
fn audit_check(out: &mut Outcome, seed: u64) {
    let pass = || {
        let ensemble = Ensemble::msd();
        let j = ensemble.num_task_types();
        let action = vec![(ensemble.default_consumer_budget() / j).max(1); j];
        let config = EnvConfig::for_ensemble(&ensemble).with_seed(seed);
        let config = config.clone().with_sim(config.sim().clone().with_audit());
        let mut env = MicroserviceEnv::new(ensemble, config);
        let counts: Vec<(u64, usize, usize)> = (0..AUDIT_WINDOWS)
            .map(|_| {
                let before = env.cluster().events_processed();
                let m = env.step(&action).metrics;
                (
                    env.cluster().events_processed() - before,
                    m.arrivals.iter().sum(),
                    m.completions.iter().sum(),
                )
            })
            .collect();
        (counts, env.take_audit_violations())
    };
    let (first, violations) = pass();
    out.check(violations.is_empty(), || {
        format!(
            "auditor reported {} violations, first: {:?}",
            violations.len(),
            violations.first()
        )
    });
    let (second, _) = pass();
    out.check(first == second, || {
        format!("simulated counts differ between two runs of seed {seed}: {first:?} vs {second:?}")
    });
    out.check(
        first.iter().any(|&(e, a, c)| e > 0 && a > 0 && c > 0),
        || "the auditor-on pass simulated no arrivals or completions".to_string(),
    );
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let tracing = args.trace.then(|| {
        let counters = Arc::new(Counters::default());
        nn::telemetry::set_global(telemetry::Telemetry::new(counters.clone()));
        (Tracer::default(), counters)
    });

    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        built = Some(build(args.seed));
        setup.push(t.elapsed().as_secs_f64());
    }
    setup.sort_by(f64::total_cmp);
    let (mut env, mut trainer) = built.expect("set up at least once");

    // A fixed amount of work per run: the iteration count follows from the
    // budget, not from the clock, so every run of a seed trains alike. A
    // traced iteration is followed by its stage replay, which takes as long.
    let per_iteration = SECONDS_PER_ITERATION * if args.trace { 2.0 } else { 1.0 };
    let iterations = ((args.seconds / per_iteration).ceil() as usize).max(2);
    let config = trainer.config().clone();
    let mut health = TrainHealth::default_policy();
    let mut walls = Vec::with_capacity(iterations);
    let mut traced = TracedIters::default();
    let mut last_eval = f64::NAN;
    for k in 0..iterations {
        let before = tracing.as_ref().map(|_| Before {
            dataset: trainer.dataset().clone(),
            model: trainer.model().clone(),
            agent: trainer.agent_mut().clone(),
            env: env.snapshot(),
        });
        let gemm0 = tracing.as_ref().map_or(0, |(_, c)| c.get("nn.gemm_calls"));
        let prev_size = trainer.dataset().len();
        out.attempted += 1;
        let ticks = crate::cpu_ticks();
        let t = Instant::now();
        let result = trainer.try_run_iteration(&mut env, &mut health);
        let wall = t.elapsed().as_secs_f64();
        let steal = crate::steal_since(ticks).unwrap_or(0.0);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.failed += 1;
                out.problems.push(format!("iteration {k} failed: {e}"));
                break;
            }
        };
        walls.push(wall);
        println!(
            "iteration {k}: {wall:.3} s at {:.1}% host steal, {} rollouts, dataset {}",
            100.0 * steal,
            report.rollouts_run,
            report.dataset_size
        );
        check_report(
            &mut out,
            &report,
            &config,
            prev_size,
            trainer.dataset().len(),
        );
        last_eval = report.eval_return;
        if let (Some((tracer, counters)), Some(before)) = (&tracing, before) {
            traced
                .gemm_calls
                .push((counters.get("nn.gemm_calls") - gemm0) as f64);
            let seed = args.seed ^ ((k as u64) << 32);
            let (wall_traced, env_steps, lend_ratio, sim) =
                replay_stages(tracer, &config, before, &report, seed);
            traced
                .queue_s
                .push(time_queue_replay(&sim, env_steps, seed));
            traced.sim.push(sim);
            traced.untraced_wall.push(wall);
            traced.traced_wall.push(wall_traced);
            traced.stages.push(tracer.take());
            traced.env_steps.push(env_steps as f64);
            traced.lend_ratio.push(lend_ratio);
        }
    }
    check_agent(&mut out, &trainer, env.consumer_budget(), last_eval);
    audit_check(&mut out, args.seed);

    let summary = Summary::of(&walls);
    println!("train_iter_s: {}", summary.render(1.0, "s"));
    // Other guests slow this host by up to 1.5x in phases of seconds to
    // minutes. The fastest iterations are the least slowed, so the median
    // of the fastest quarter repeats across runs better than the median of
    // all.
    let mut sorted = walls.clone();
    sorted.sort_by(f64::total_cmp);
    let quiet = &sorted[..(sorted.len() / 4).max(1)];
    let ends: Vec<f64> = std::iter::once(0.0)
        .chain(walls.iter().scan(0.0, |t, w| {
            *t += w;
            Some(*t)
        }))
        .collect();
    let rate = fastest_stretch(&ends, THROUGHPUT_STRETCH.min(walls.len()));
    println!(
        "quietest iterations: median {:.3} s of the fastest {}; {:.4} iterations/s \
         over the fastest {THROUGHPUT_STRETCH} consecutive",
        median(quiet),
        quiet.len(),
        rate.unwrap_or(f64::NAN)
    );
    println!(
        "setup_s: median {:.6} s of {SETUP_REPEATS} set-ups",
        median(&setup)
    );
    if tracing.is_some() {
        report_traced(&mut out, &traced);
    } else {
        out.metric("op_ms", median(quiet) * 1e3);
        out.metric("throughput_per_s", rate.unwrap_or(f64::NAN));
        out.metric("setup_s", median(&setup));
    }
    out
}

/// Trainer state when an iteration began.
struct Before {
    dataset: TransitionDataset,
    model: DynamicsModel,
    agent: Ddpg,
    env: miras_core::AdapterSnapshot,
}

/// Replays one iteration's stages with spans around each public call.
/// Returns the traced wall (s), the real-environment steps taken, the
/// Lend–Giveback triggers per synthetic step and what the real steps
/// simulated.
fn replay_stages(
    tracer: &Tracer,
    config: &MirasConfig,
    before: Before,
    report: &IterationReport,
    seed: u64,
) -> (f64, usize, f64, SimCounts) {
    let Before {
        mut dataset,
        mut model,
        mut agent,
        env,
    } = before;
    let mut env = ClusterEnvAdapter::from_snapshot(Ensemble::msd(), env);
    let mut rng = SmallRng::seed_from_u64(seed);
    let j = env.state_dim();
    let budget = env.consumer_budget();
    let burst = |rng: &mut SmallRng, env: &mut ClusterEnvAdapter| {
        if let Some(max) = &config.collect_burst_max {
            if rng.gen_bool(0.5) {
                let sizes = max.iter().map(|&m| rng.gen_range(0..=m)).collect();
                env.env_mut().inject_burst(&BurstSpec::new(sizes));
            }
        }
    };
    let collect = "microsim.collect_s";
    let mut steps = 0usize;
    let mut sim = SimCounts::default();
    let t0 = tracer.now();

    // 1. Real collection with the exploratory policy.
    let random_only = config.initial_random_collection && report.iteration == 0;
    let mut s = tracer.span(collect, || {
        let s = env.reset();
        burst(&mut rng, &mut env);
        s
    });
    let mut random = vec![1.0 / j as f64; j];
    for step in 0..config.real_steps_per_iter {
        if step > 0 && step % config.reset_every == 0 {
            s = tracer.span(collect, || {
                let s = env.reset();
                burst(&mut rng, &mut env);
                s
            });
            agent.resample_perturbation();
        }
        agent.observe_state(&s);
        if step % 4 == 0 {
            let raw: Vec<f64> = (0..j).map(|_| rng.gen_range(0.0..1.0)).collect();
            random = rl::policy::project_to_simplex(&raw);
        }
        let use_random = random_only || rng.gen_bool(config.random_action_fraction.clamp(0.0, 1.0));
        let a = if use_random {
            random.clone()
        } else {
            tracer.span("rl.act_s", || agent.act_exploratory(&s))
        };
        s = sim.step(tracer, &mut env, &a);
        steps += 1;
    }
    env.drain_into(&mut dataset);

    // 2. Model fit and 3. Lend–Giveback refinement.
    tracer.span("miras-core.model_fit_s", || {
        model.train(&dataset, config.model_epochs, config.model_batch)
    });
    let refined = tracer.span("miras-core.refine_fit_s", || {
        RefinedModel::fit(model, &dataset, config.refine_percentile)
    });

    // 4. The inner loop: as many synthetic rollouts as the iteration ran.
    let mut synth = SyntheticEnv::new(refined, dataset.clone(), budget, seed);
    let mut health = TrainHealth::default_policy();
    let mut synth_steps = 0u64;
    'rollouts: for _ in 0..report.rollouts_run {
        let mut s = synth.reset();
        agent.resample_perturbation();
        for _ in 0..config.rollout_len {
            let a = tracer.span("rl.act_s", || agent.act_exploratory(&s));
            let t = tracer.span("miras-core.synth_step_s", || synth.step(&a));
            synth_steps += 1;
            agent.observe(&s, &a, t.reward, &t.next_state);
            if let Err(e) = tracer.span("rl.train_step_s", || agent.try_train_step(&mut health)) {
                println!("note: stage replay stopped its rollouts: {e}");
                break 'rollouts;
            }
            s = t.next_state;
        }
    }

    // 5. Greedy evaluation on the real environment.
    let mut s = tracer.span(collect, || env.reset());
    for _ in 0..config.eval_steps {
        let a = tracer.span("rl.act_s", || agent.act(&s));
        s = sim.step(tracer, &mut env, &a);
        steps += 1;
    }
    let wall = (tracer.now() - t0) as f64 * 1e-9;
    let lend_ratio = synth.lend_triggers() as f64 / synth_steps.max(1) as f64;
    (wall, steps, lend_ratio, sim)
}

/// Per-layer metrics of the traced run: medians over iterations for
/// times, means for counts.
fn report_traced(out: &mut Outcome, t: &TracedIters) {
    let n = t.stages.len();
    let med = |f: &dyn Fn(&Stages) -> f64| {
        let mut v: Vec<f64> = t.stages.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        median(&v)
    };
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    for name in [
        "rl.train_step_s",
        "rl.act_s",
        "miras-core.model_fit_s",
        "miras-core.refine_fit_s",
        "miras-core.synth_step_s",
        "microsim.collect_s",
    ] {
        let v = med(&|s| s.total(name));
        println!("stage {name}: median {v:.4} s per iteration");
        out.metric(name, v);
    }
    let per_iter =
        |name: &str| t.stages.iter().map(|s| s.count(name) as f64).sum::<f64>() / n.max(1) as f64;
    out.metric("rl.train_steps", per_iter("rl.train_step_s"));
    out.metric(
        "miras-core.synth_steps",
        per_iter("miras-core.synth_step_s"),
    );
    out.metric(
        "miras-core.model_epochs",
        per_iter("miras-core.model_fit_s") * { config(0).model_epochs as f64 },
    );
    out.metric("miras-core.lend_trigger_ratio", mean(&t.lend_ratio));
    out.metric("nn.gemm_calls", mean(&t.gemm_calls));
    out.metric("microsim.steps", mean(&t.env_steps));
    let sim_mean = |f: fn(&SimCounts) -> f64| t.sim.iter().map(f).sum::<f64>() / n.max(1) as f64;
    out.metric("microsim.arrivals", sim_mean(|c| c.arrivals as f64));
    out.metric("microsim.completions", sim_mean(|c| c.completions as f64));
    out.metric("desim.events", sim_mean(|c| c.events as f64));
    out.metric(
        "desim.peak_pending",
        t.sim.iter().map(|c| c.peak_pending).max().unwrap_or(0) as f64,
    );
    out.metric("desim.wheel_cascades", sim_mean(|c| c.cascades as f64));
    let mut queue_s = t.queue_s.clone();
    queue_s.sort_by(f64::total_cmp);
    println!(
        "desim: per iteration {:.0} events over {:.0} real steps; bare queue replay median {:.6} s",
        sim_mean(|c| c.events as f64),
        mean(&t.env_steps),
        median(&queue_s)
    );
    out.metric("desim.queue_s", median(&queue_s));
    let stage_s: f64 = t.stages.iter().map(Stages::all_total).sum();
    let untraced: f64 = t.untraced_wall.iter().sum();
    let traced: f64 = t.traced_wall.iter().sum();
    out.metric(
        "train.unattributed_s",
        (untraced - stage_s) / n.max(1) as f64,
    );
    out.trace_summary(n, stage_s, traced, traced / untraced);
}
