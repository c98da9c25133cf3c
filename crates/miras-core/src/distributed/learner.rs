//! The central learner: ordered shard merge, DDPG updates, version
//! broadcast — plus the `workers = 1` lockstep loop, which runs on the
//! calling thread.

use std::sync::Arc;

use nn::Matrix;
use rl::{Ddpg, TrainError, TrainHealth};
use telemetry::{Telemetry, Value};

use super::replay_shard::{shard_channel, ShardReceiver};
use super::weights::{VersionSchedule, VersionStore, WaveEntry, WeightVersion};
use super::worker::{active_lanes, run_rollout_worker, total_waves, WorkerSpec};
use crate::{BatchedSyntheticEnv, RefinedModel, TransitionDataset};

/// Upper bound on worker respawns per inner loop before the learner gives
/// up — a worker that keeps dying at the same wave is a bug, not a crash.
const MAX_WORKER_RESTARTS: u64 = 8;

/// Chaos hook: make worker `worker` silently exit right before generating
/// global wave `at_wave`, so crash/restart recovery can be exercised
/// deterministically in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerFault {
    /// Worker index to kill.
    pub worker: usize,
    /// Global wave index the worker dies at (it never generates this wave).
    pub at_wave: usize,
}

/// Everything one distributed inner loop needs, minus the mutable learner
/// state ([`run_distributed_rollouts`] borrows the agent and watchdog).
#[derive(Debug, Clone, Default)]
pub struct DistributedParams {
    /// Rollout worker count: `1` runs the lockstep loop on the calling
    /// thread (the trainer's `Lockstep(lanes)` mode), `≥ 2` the async
    /// frozen-version path.
    pub workers: usize,
    /// Lockstep lanes per worker.
    pub lanes: usize,
    /// Steps per synthetic rollout.
    pub rollout_len: usize,
    /// Rollout budget for the loop.
    pub rollouts: usize,
    /// Early-stop patience on completed-rollout returns (0 = off).
    pub patience: usize,
    /// Consumer budget `C`.
    pub consumer_budget: usize,
    /// The iteration's synthetic-rollout seed.
    pub synth_seed: u64,
    /// When false, transitions are observed but no gradient updates run —
    /// the pure rollout-throughput regime the benches measure.
    pub train: bool,
    /// Replay a recorded manifest instead of adopting fresh versions.
    pub schedule: Option<VersionSchedule>,
    /// Inject a worker crash (see [`WorkerFault`]).
    pub fault: Option<WorkerFault>,
}

/// What one distributed inner loop produced.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// Per-rollout returns, in merge (= lane-within-wave) order.
    pub returns: Vec<f64>,
    /// Rollouts completed (early stop may cut the budget short).
    pub rollouts_run: usize,
    /// Lend–Giveback triggers across all waves.
    pub lend_triggers: u64,
    /// The recorded run manifest (replaying it reproduces this outcome
    /// bit for bit).
    pub schedule: VersionSchedule,
    /// Total environment steps taken (`Σ waves steps × active`).
    pub env_steps: u64,
    /// Worker respawns the learner performed.
    pub worker_restarts: u64,
}

/// Runs one inner policy loop of Algorithm 2 across `params.workers`
/// rollout workers, returning per-rollout returns plus the recorded
/// version-schedule manifest. See the [module docs](super) for the
/// architecture and determinism contract.
///
/// # Errors
///
/// Returns the [`TrainError`] raised by the first unhealthy DDPG update.
///
/// # Panics
///
/// Panics if `params` is structurally invalid (zero workers/lanes, a
/// schedule recorded under different workers/lanes, or a schedule that
/// fails [`VersionSchedule::validate`]), if a worker thread panics, or if
/// workers keep dying past the respawn budget.
pub fn run_distributed_rollouts(
    agent: &mut Ddpg,
    refined: RefinedModel,
    dataset: &TransitionDataset,
    params: &DistributedParams,
    health: &mut TrainHealth,
    telemetry: &Telemetry,
) -> Result<DistributedOutcome, TrainError> {
    assert!(params.workers > 0, "need at least one worker");
    assert!(params.lanes > 0, "need at least one lane");
    if let Some(schedule) = &params.schedule {
        assert_eq!(
            schedule.workers, params.workers,
            "schedule was recorded with a different worker count"
        );
        assert_eq!(
            schedule.lanes, params.lanes,
            "schedule was recorded with a different lane count"
        );
        schedule
            .validate()
            .unwrap_or_else(|e| panic!("invalid version schedule: {e}"));
        assert!(
            schedule.entries.len() <= total_waves(params.rollouts, params.lanes),
            "schedule is longer than the rollout budget"
        );
    }
    if params.workers == 1 {
        lockstep_rollouts(agent, refined, dataset, params, health, telemetry)
    } else {
        async_rollouts(agent, refined, dataset, params, health, telemetry)
    }
}

/// The `workers = 1` path, which is also the trainer's `Lockstep(lanes)`
/// loop: the live agent acts on a `lanes`-wide [`BatchedSyntheticEnv`]
/// stepped on the calling thread — normaliser updates, parameter noise
/// ticking and adapting mid-wave — and runs one train step per active lane
/// per environment step. Early-stop patience is applied to completed-lane
/// returns in lane order. With one lane every RNG stream is consumed in
/// the order of a one-rollout-at-a-time loop over a
/// [`SyntheticEnv`](crate::SyntheticEnv).
fn lockstep_rollouts(
    agent: &mut Ddpg,
    refined: RefinedModel,
    dataset: &TransitionDataset,
    params: &DistributedParams,
    health: &mut TrainHealth,
    telemetry: &Telemetry,
) -> Result<DistributedOutcome, TrainError> {
    let mut env = BatchedSyntheticEnv::new(
        refined,
        dataset.clone(),
        params.consumer_budget,
        params.synth_seed,
        params.lanes,
    );
    env.set_telemetry(telemetry.clone());
    let mut returns = Vec::new();
    let mut best = f64::NEG_INFINITY;
    let mut stale = 0usize;
    let mut rollouts_run = 0usize;
    let mut remaining = params.rollouts;
    let mut env_steps = 0u64;
    let mut schedule = VersionSchedule {
        workers: 1,
        lanes: params.lanes,
        entries: Vec::new(),
    };
    // The step swaps the env's state buffers, so the pre-step states the
    // replay transitions need are copied out first.
    let mut states = Matrix::zeros(0, 0);
    let mut totals: Vec<f64> = Vec::with_capacity(params.lanes);
    'waves: while remaining > 0 {
        let active = params.lanes.min(remaining);
        env.reset(active);
        agent.resample_perturbation();
        totals.clear();
        totals.resize(active, 0.0);
        for _ in 0..params.rollout_len {
            states.resize(active, env.state_dim());
            states
                .as_mut_slice()
                .copy_from_slice(env.states().as_slice());
            let actions = agent.act_exploratory_batch(&states);
            env.step(&actions);
            agent.observe_batch(&states, &actions, env.rewards(), env.states());
            for (t, &r) in totals.iter_mut().zip(env.rewards()) {
                *t += r;
            }
            if params.train {
                for _ in 0..active {
                    let _ = agent.try_train_step(health)?;
                }
            }
        }
        env_steps += (params.rollout_len * active) as u64;
        // One worker has nothing to lag behind: every wave uses the
        // freshest weights, recorded as version = wave for the manifest.
        let wave = schedule.entries.len();
        schedule.entries.push(WaveEntry {
            worker: 0,
            wave,
            version: wave as u64,
        });
        if telemetry.is_enabled() {
            record_wave_telemetry(
                telemetry,
                0,
                wave,
                wave as u64,
                0,
                params.rollout_len * active,
            );
        }
        for &total in &totals {
            returns.push(total);
            rollouts_run += 1;
            remaining -= 1;
            if params.patience > 0 {
                if total > best {
                    best = total;
                    stale = 0;
                } else {
                    stale += 1;
                    if stale >= params.patience {
                        break 'waves;
                    }
                }
            }
        }
    }
    if telemetry.is_enabled() {
        telemetry.counter("train.worker_restarts", 0);
    }
    Ok(DistributedOutcome {
        returns,
        rollouts_run,
        lend_triggers: env.lend_triggers(),
        schedule,
        env_steps,
        worker_restarts: 0,
    })
}

/// The `workers ≥ 2` path: spawn one rollout worker per shard, merge waves
/// in fixed global order, train after each merged wave, publish the next
/// weight version, and respawn workers that die mid-plan.
fn async_rollouts(
    agent: &mut Ddpg,
    refined: RefinedModel,
    dataset: &TransitionDataset,
    params: &DistributedParams,
    health: &mut TrainHealth,
    telemetry: &Telemetry,
) -> Result<DistributedOutcome, TrainError> {
    let workers = params.workers;
    let planned = match &params.schedule {
        Some(s) => s.entries.len(),
        None => total_waves(params.rollouts, params.lanes),
    };
    let store = Arc::new(VersionStore::new(
        WeightVersion {
            version: 0,
            policy: agent.policy_weights(),
            dynamics: Arc::new(refined),
        },
        params.schedule.is_some(),
    ));
    // All versions of one inner loop share the iteration's dynamics model.
    let dynamics = store.latest().dynamics.clone();
    let dataset = Arc::new(dataset.clone());
    let schedule_in = params.schedule.as_ref();

    std::thread::scope(|scope| {
        let spawn = |first_wave: usize, fault_at: Option<usize>| -> ShardReceiver {
            let (tx, rx) = shard_channel();
            let spec = WorkerSpec {
                worker: first_wave % workers,
                workers,
                lanes: params.lanes,
                rollout_len: params.rollout_len,
                rollouts: params.rollouts,
                synth_seed: params.synth_seed,
                consumer_budget: params.consumer_budget,
                first_wave,
                fault_at,
            };
            let store = Arc::clone(&store);
            let dataset = Arc::clone(&dataset);
            let telemetry = telemetry.clone();
            scope.spawn(move || {
                run_rollout_worker(&spec, schedule_in, &store, &dataset, &telemetry, &tx);
            });
            rx
        };
        let mut shards: Vec<ShardReceiver> = (0..workers)
            .map(|w| {
                let fault_at = params
                    .fault
                    .as_ref()
                    .filter(|f| f.worker == w)
                    .map(|f| f.at_wave);
                spawn(w, fault_at)
            })
            .collect();

        let mut merge = || -> Result<DistributedOutcome, TrainError> {
            let mut returns = Vec::new();
            let mut best = f64::NEG_INFINITY;
            let mut stale = 0usize;
            let mut rollouts_run = 0usize;
            let mut env_steps = 0u64;
            let mut lend_triggers = 0u64;
            let mut restarts = 0u64;
            let mut schedule = VersionSchedule {
                workers,
                lanes: params.lanes,
                entries: Vec::new(),
            };
            let mut totals: Vec<f64> = Vec::with_capacity(params.lanes);
            'merge: for g in 0..planned {
                let w = g % workers;
                let wave = loop {
                    match shards[w].recv() {
                        Ok(wave) => break wave,
                        Err(_) => {
                            // The worker died before producing wave g (its
                            // shard drained everything it did finish).
                            // Respawn it exactly at the gap: waves are pure
                            // functions of (weights, seed), so nothing
                            // before g needs replaying.
                            restarts += 1;
                            assert!(
                                restarts <= MAX_WORKER_RESTARTS,
                                "worker {w} keeps dying at wave {g}; giving up after {restarts} respawns"
                            );
                            shards[w] = spawn(g, None);
                        }
                    }
                };
                assert_eq!(
                    (wave.worker, wave.wave),
                    (w, g),
                    "shard produced a wave out of order"
                );
                let active = active_lanes(g, params.rollouts, params.lanes);
                assert_eq!(wave.active, active, "wave width mismatch");
                schedule.entries.push(WaveEntry {
                    worker: w,
                    wave: g,
                    version: wave.version,
                });
                if telemetry.is_enabled() {
                    record_wave_telemetry(
                        telemetry,
                        w,
                        g,
                        wave.version,
                        shards[w].depth(),
                        wave.steps * wave.active,
                    );
                }

                // Ordered reduction: transitions enter the agent in
                // step-major, lane-minor order — the same order the
                // lockstep loop feeds observe_batch.
                let j = wave.state_dim;
                totals.clear();
                totals.resize(active, 0.0);
                for s in 0..wave.steps {
                    let base = s * active * j;
                    for (l, total) in totals.iter_mut().enumerate() {
                        let off = base + l * j;
                        let reward = wave.rewards[s * active + l];
                        agent.observe(
                            &wave.states[off..off + j],
                            &wave.actions[off..off + j],
                            reward,
                            &wave.next_states[off..off + j],
                        );
                        *total += reward;
                    }
                    if params.train {
                        for _ in 0..active {
                            let _ = agent.try_train_step(health)?;
                        }
                    }
                }
                env_steps += (wave.steps * active) as u64;
                lend_triggers += wave.lend_triggers;
                for &total in &totals {
                    returns.push(total);
                    rollouts_run += 1;
                    if params.patience > 0 {
                        if total > best {
                            best = total;
                            stale = 0;
                        } else {
                            stale += 1;
                            if stale >= params.patience {
                                break 'merge;
                            }
                        }
                    }
                }
                store.publish(WeightVersion {
                    version: g as u64 + 1,
                    policy: agent.policy_weights(),
                    dynamics: Arc::clone(&dynamics),
                });
            }
            if telemetry.is_enabled() {
                telemetry.counter("train.worker_restarts", restarts);
            }
            Ok(DistributedOutcome {
                returns,
                rollouts_run,
                lend_triggers,
                schedule,
                env_steps,
                worker_restarts: restarts,
            })
        };
        let result = merge();
        // Unblock and drain the workers: closing wakes replay waiters,
        // dropping the receivers fails their pending sends.
        store.close();
        drop(shards);
        result
    })
}

/// Emits the per-merged-wave telemetry the `--require-distributed` check
/// validates: worker-step throughput, weight-version lag, and the merged
/// shard's fill level, plus a structured `distributed.wave` event.
fn record_wave_telemetry(
    telemetry: &Telemetry,
    worker: usize,
    wave: usize,
    version: u64,
    shard_depth: usize,
    steps: usize,
) {
    telemetry.counter("train.worker_steps", steps as u64);
    telemetry.gauge("train.weight_version_lag", wave as f64 - version as f64);
    telemetry.gauge("train.replay_shard_depth", shard_depth as f64);
    telemetry.event(
        "distributed.wave",
        &[
            ("worker", Value::UInt(worker as u64)),
            ("wave", Value::UInt(wave as u64)),
            ("version", Value::UInt(version)),
        ],
    );
}
