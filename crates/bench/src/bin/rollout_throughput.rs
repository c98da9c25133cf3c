//! Rollout-engine throughput: sequential vs batched lockstep.
//!
//! Measures synthetic-environment steps per second for the inner policy
//! loop's hot path — exploratory action, model step, replay observe — in
//! a one-rollout-at-a-time `SyntheticEnv` loop and in the trainer's
//! lockstep loop at several lane counts. Writes `BENCH_rollout.json` at
//! the repository root (next to `BENCH_nn.json`) and a telemetry stream
//! to `results/rollout_throughput.jsonl`.
//!
//! Usage: `rollout_throughput [--seed N] [--smoke] [--steps N]`
//! (`--steps` is the per-mode environment-step budget).

use std::time::Instant;

use miras_bench::{drain_dataset, init_telemetry, time_sequential_rollouts};
use miras_core::distributed::{run_distributed_rollouts, DistributedParams};
use miras_core::{DynamicsModel, MirasConfig, RefinedModel, TransitionDataset};
use rl::{Ddpg, TrainHealth};
use serde::Serialize;
use telemetry::Value;

/// Lane counts exercised by the lockstep sweep.
const LANE_SWEEP: [usize; 4] = [1, 4, 16, 64];

#[derive(Debug, Serialize)]
struct ModeResult {
    mode: String,
    lanes: usize,
    env_steps: usize,
    secs: f64,
    steps_per_sec: f64,
    /// This row's throughput over the sequential baseline's (1.0 for the
    /// baseline itself); filled in after the sweep completes.
    speedup_vs_sequential: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    bench: String,
    config: String,
    state_dim: usize,
    rollout_len: usize,
    nn_threads: usize,
    results: Vec<ModeResult>,
    speedup_lockstep16_vs_sequential: f64,
}

/// Times the sequential rollout path via the shared
/// [`time_sequential_rollouts`] harness.
fn run_sequential(
    refined: &RefinedModel,
    data: &TransitionDataset,
    budget: usize,
    agent: &mut Ddpg,
    rollout_len: usize,
    env_steps: usize,
    telemetry: &telemetry::Telemetry,
) -> ModeResult {
    let (steps, secs) = time_sequential_rollouts(
        refined,
        data,
        budget,
        agent,
        rollout_len,
        env_steps,
        telemetry,
    );
    ModeResult {
        mode: "sequential".to_string(),
        lanes: 1,
        env_steps: steps,
        secs,
        steps_per_sec: steps as f64 / secs,
        speedup_vs_sequential: 1.0,
    }
}

/// Times the trainer's lockstep loop — `run_distributed_rollouts` at one
/// worker with updates off, so each step is `act_exploratory_batch` →
/// `BatchedSyntheticEnv::step` → `observe_batch` — over `params.rollouts`
/// rollouts, after a one-wave warm-up.
fn run_lockstep(
    refined: &RefinedModel,
    data: &TransitionDataset,
    agent: &mut Ddpg,
    params: &DistributedParams,
    telemetry: &telemetry::Telemetry,
) -> ModeResult {
    let mut health = TrainHealth::default_policy();
    let warm_up = DistributedParams {
        rollouts: params.lanes,
        ..params.clone()
    };
    run_distributed_rollouts(
        agent,
        refined.clone(),
        data,
        &warm_up,
        &mut health,
        &telemetry::Telemetry::noop(),
    )
    .expect("warm-up rollouts never train, so they cannot trip the watchdog");
    let start = Instant::now();
    let outcome =
        run_distributed_rollouts(agent, refined.clone(), data, params, &mut health, telemetry)
            .expect("observe-only rollouts cannot trip the watchdog");
    let secs = start.elapsed().as_secs_f64();
    let steps = outcome.env_steps as usize;
    ModeResult {
        mode: "lockstep".to_string(),
        lanes: params.lanes,
        env_steps: steps,
        secs,
        steps_per_sec: steps as f64 / secs,
        speedup_vs_sequential: 0.0, // filled in once the baseline is known
    }
}

/// Writes `BENCH_rollout.json`, carrying over the `distributed` rows that
/// `train_throughput` may have merged into an earlier report — the two
/// benches share the file, and either should be re-runnable without
/// clobbering the other's section.
fn write_report(report: &BenchReport) {
    use serde::value::Value as Json;
    let path = "BENCH_rollout.json";
    let mut fields = match serde::value::to_value(report) {
        Ok(Json::Object(fields)) => fields,
        Ok(_) => unreachable!("a struct serialises to an object"),
        Err(e) => {
            eprintln!("[rollout] could not serialise report: {e}");
            return;
        }
    };
    if let Some(Json::Object(old)) = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Json>(&text).ok())
    {
        for (k, v) in old {
            if k == "distributed" || k == "speedup_workers4_vs_workers1" {
                fields.push((k, v));
            }
        }
    }
    match serde_json::to_string(&Json::Object(fields)) {
        Ok(json) => {
            if let Err(e) = std::fs::write(path, json + "\n") {
                eprintln!("[rollout] could not write {path}: {e}");
            } else {
                eprintln!("[rollout] wrote {path}");
            }
        }
        Err(e) => eprintln!("[rollout] could not serialise report: {e}"),
    }
}

fn main() {
    let mut seed = 42u64;
    let mut smoke = false;
    let mut steps_override: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--steps" => {
                steps_override = Some(
                    it.next()
                        .expect("--steps needs a value")
                        .parse()
                        .expect("steps must be an integer"),
                );
            }
            "--smoke" => smoke = true,
            other => panic!("unknown flag {other}; usage: [--seed N] [--smoke] [--steps N]"),
        }
    }

    let (telemetry, sink) = init_telemetry("rollout_throughput");
    let config = MirasConfig::msd_fast(seed);
    let j = 4usize;
    let budget = 14usize;
    let rollout_len = config.rollout_len;
    let env_steps = steps_override.unwrap_or(if smoke { 3_200 } else { 32_000 });

    eprintln!("[rollout] training environment model ({j}-dim drain dynamics)");
    let data = drain_dataset(j, seed);
    let mut model = DynamicsModel::new(j, &config);
    let loss = model.train(&data, 10, config.model_batch);
    eprintln!("[rollout] model loss {loss:.5}; timing {env_steps} env steps per mode");
    let refined = RefinedModel::fit(model, &data, config.refine_percentile);

    let mut results = Vec::new();
    {
        let mut agent = Ddpg::new(j, j, config.ddpg.clone());
        let r = run_sequential(
            &refined,
            &data,
            budget,
            &mut agent,
            rollout_len,
            env_steps,
            &telemetry,
        );
        eprintln!(
            "[rollout] {:>10} lanes={:<3} {:>9.0} steps/s",
            r.mode, r.lanes, r.steps_per_sec
        );
        results.push(r);
    }
    for lanes in LANE_SWEEP {
        let mut agent = Ddpg::new(j, j, config.ddpg.clone());
        let params = DistributedParams {
            workers: 1,
            lanes,
            rollout_len,
            rollouts: (env_steps / (lanes * rollout_len)).max(1) * lanes,
            consumer_budget: budget,
            synth_seed: 99,
            ..DistributedParams::default()
        };
        let r = run_lockstep(&refined, &data, &mut agent, &params, &telemetry);
        eprintln!(
            "[rollout] {:>10} lanes={:<3} {:>9.0} steps/s",
            r.mode, r.lanes, r.steps_per_sec
        );
        results.push(r);
    }

    let sequential_sps = results[0].steps_per_sec;
    for r in &mut results {
        r.speedup_vs_sequential = r.steps_per_sec / sequential_sps;
    }
    let lockstep16_sps = results
        .iter()
        .find(|r| r.mode == "lockstep" && r.lanes == 16)
        .map_or(0.0, |r| r.steps_per_sec);
    let speedup = lockstep16_sps / sequential_sps;
    println!("\nrollout throughput (steps/sec), {env_steps} env steps per mode:");
    for r in &results {
        println!(
            "  {:>10} lanes={:<3} {:>10.0} steps/s  ({:>5.2}x vs sequential)",
            r.mode, r.lanes, r.steps_per_sec, r.speedup_vs_sequential
        );
    }
    println!("  lockstep(16) vs sequential: {speedup:.2}x");

    for r in &results {
        telemetry.event(
            "rollout.bench",
            &[
                ("mode", Value::String(r.mode.clone())),
                ("lanes", Value::UInt(r.lanes as u64)),
                ("env_steps", Value::UInt(r.env_steps as u64)),
                ("steps_per_sec", Value::Float(r.steps_per_sec)),
                (
                    "speedup_vs_sequential",
                    Value::Float(r.speedup_vs_sequential),
                ),
            ],
        );
    }

    let report = BenchReport {
        bench: "rollout_throughput".to_string(),
        config: "msd_fast".to_string(),
        state_dim: j,
        rollout_len,
        nn_threads: nn::threads::configured_threads(),
        results,
        speedup_lockstep16_vs_sequential: speedup,
    };
    write_report(&report);
    telemetry.flush();
    drop(sink);
}
