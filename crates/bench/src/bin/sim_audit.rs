//! Simulator correctness audit: invariant sweep + analytic differential.
//!
//! Two independent checks of the emulator, exercised from the outside:
//!
//! 1. **Invariant sweep** — runs the resilience benchmark's scenario suite
//!    (healthy plus consumer crashes, correlated node outages, stragglers,
//!    delivery-delay spikes) with runtime auditing enabled
//!    ([`SimConfig::with_audit`]) and reports every recorded
//!    [`microsim::AuditViolation`]. A healthy simulator reports zero across
//!    all scenarios.
//! 2. **Analytic differential** — drives a single-task workflow under
//!    Poisson arrivals (an M/G/c queue; at service CV 1 the Allen–Cunneen
//!    correction is exactly 1) to steady state and compares mean response
//!    time, mean work-in-progress, and throughput against the Erlang-C
//!    predictions in `baselines::queueing`. Tolerances: 10% on times and
//!    populations, 5% on throughput.
//!
//! Usage: `sim_audit [--smoke] [--seed N] [--windows N] [--workload SPEC]`.
//! `--workload` shapes the invariant sweep's background traffic (stationary,
//! diurnal, trending, flash-crowd, or trace:<path>), so the audit covers the
//! non-stationary arrival paths too. Exits non-zero on any violation or
//! out-of-tolerance differential, so CI can gate on it.

use std::process::ExitCode;

use baselines::{by_name, queueing, Observation, PolicyConfig};
use desim::SimTime;
use microsim::{EnvConfig, MicroserviceEnv, SimConfig, WorkloadSpec};
use miras_bench::{fault_scenarios, init_telemetry};
use workflow::{Dag, Ensemble, TaskTypeDef, TaskTypeId, WorkflowDef};

struct Args {
    seed: u64,
    /// Decision windows per invariant-sweep scenario.
    windows: usize,
    smoke: bool,
    /// Background-traffic shape for the invariant sweep.
    workload: WorkloadSpec,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 42,
        windows: 0, // resolved after flags are read
        smoke: false,
        workload: WorkloadSpec::Stationary,
    };
    let mut windows = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--windows" => {
                windows = Some(
                    it.next()
                        .expect("--windows needs a value")
                        .parse()
                        .expect("windows must be an integer"),
                );
            }
            "--workload" => {
                let v = it.next().expect("--workload needs a value");
                args.workload = WorkloadSpec::parse(&v).expect(
                    "workload must be stationary, diurnal, trending, flash-crowd or trace:<path>",
                );
            }
            "--smoke" => args.smoke = true,
            other => panic!(
                "unknown flag {other}; usage: [--smoke] [--seed N] [--windows N] \
                 [--workload stationary|diurnal|trending|flash-crowd|trace:<path>]"
            ),
        }
    }
    args.windows = windows.unwrap_or(if args.smoke { 8 } else { 50 });
    args
}

/// Runs one fault scenario with auditing on; returns the violation count,
/// or the error from loading a trace-replay workload's file.
fn run_scenario(
    name: &str,
    sim: SimConfig,
    windows: usize,
    workload: &WorkloadSpec,
    telemetry: &telemetry::Telemetry,
) -> std::io::Result<usize> {
    let ensemble = Ensemble::msd();
    let mut policy =
        by_name("uniform", &PolicyConfig::new(&ensemble)).expect("uniform is registered");
    let config = EnvConfig::for_ensemble(&ensemble)
        .with_sim(sim.with_audit())
        .with_workload(workload.clone());
    let mut env = MicroserviceEnv::new(ensemble, config);
    env.set_telemetry(telemetry.clone());
    let _ = env.reset();
    let _ = env.load_workload_trace()?;
    let mut previous = None;
    for window in 0..windows {
        let wip = env.state();
        let decision = policy.decide(&Observation::new(&wip, previous.as_ref(), window));
        let out = env.step(&decision.allocations);
        previous = Some(out.metrics);
    }
    let violations = env.take_audit_violations();
    for v in &violations {
        eprintln!("  [{name}] {v}");
    }
    Ok(violations.len())
}

struct DifferentialRow {
    lambda: f64,
    mu: f64,
    c: usize,
    observed_response: f64,
    predicted_response: f64,
    observed_wip: f64,
    predicted_wip: f64,
    observed_throughput: f64,
    violations: usize,
    pass: bool,
}

const RESPONSE_TOLERANCE: f64 = 0.10;
const WIP_TOLERANCE: f64 = 0.10;
const THROUGHPUT_TOLERANCE: f64 = 0.05;

/// Steady-state measurement of a single-task M/G/c system, audited.
///
/// Always runs the full 1000-window measurement (even under `--smoke`): the
/// whole differential costs about a second of wall clock, and shorter
/// horizons leave too much sampling noise for the 10% tolerances — at
/// λ = 0.5, μ = 1, c = 1 the WIP estimator's standard error over 200
/// windows is already ~10% of the predicted mean.
fn run_differential(lambda: f64, mu: f64, c: usize, seed: u64) -> DifferentialRow {
    let (warmup, measure) = (30, 1000);
    let window_secs = 30u64;
    let ensemble = Ensemble::new(
        "mmc",
        vec![TaskTypeDef::new("S", 1.0 / mu, 1.0)],
        vec![WorkflowDef {
            name: "single".into(),
            dag: Dag::chain(vec![TaskTypeId::new(0)]).expect("one-node chain"),
        }],
        c,
        vec![lambda],
    );
    let config = EnvConfig::for_ensemble(&ensemble)
        .with_window(SimTime::from_secs(window_secs))
        .with_sim(
            SimConfig::new(0)
                .with_startup_delay(SimTime::ZERO, SimTime::ZERO)
                .with_audit(),
        )
        .with_seed(seed);
    let mut env = MicroserviceEnv::new(ensemble, config);
    let _ = env.reset();
    let action = vec![c];
    for _ in 0..warmup {
        let _ = env.step(&action);
    }
    let mut weighted_response = 0.0;
    let mut completions = 0usize;
    let mut wip_sum = 0usize;
    for _ in 0..measure {
        let m = env.step(&action).metrics;
        if let Some(r) = m.overall_mean_response_secs() {
            let done: usize = m.completions.iter().sum();
            weighted_response += r * done as f64;
            completions += done;
        }
        wip_sum += m.total_wip();
    }
    let violations = env.take_audit_violations().len();
    let observed_response = weighted_response / completions.max(1) as f64;
    let observed_wip = wip_sum as f64 / measure as f64;
    let observed_throughput = completions as f64 / (measure as u64 * window_secs) as f64;
    let predicted_response = queueing::mmc_mean_response(lambda, mu, c);
    let predicted_wip = queueing::mmc_mean_in_system(lambda, mu, c);
    let within = |obs: f64, pred: f64, tol: f64| (obs - pred).abs() / pred <= tol;
    let pass = violations == 0
        && within(observed_response, predicted_response, RESPONSE_TOLERANCE)
        && within(observed_wip, predicted_wip, WIP_TOLERANCE)
        && within(observed_throughput, lambda, THROUGHPUT_TOLERANCE);
    DifferentialRow {
        lambda,
        mu,
        c,
        observed_response,
        predicted_response,
        observed_wip,
        predicted_wip,
        observed_throughput,
        violations,
        pass,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let (telemetry, sink) = init_telemetry("sim_audit");
    let mut failures = 0usize;

    println!(
        "=== invariant sweep (MSD, {} windows per scenario, seed {}, workload {}) ===",
        args.windows,
        args.seed,
        args.workload.name()
    );
    println!("{:>12} {:>12}", "scenario", "violations");
    for scenario in fault_scenarios() {
        let sim = scenario.apply(SimConfig::new(args.seed));
        let count = match run_scenario(scenario.name, sim, args.windows, &args.workload, &telemetry)
        {
            Ok(count) => count,
            Err(e) => {
                eprintln!("sim_audit: cannot load the workload trace: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!("{:>12} {:>12}", scenario.name, count);
        failures += count;
    }

    println!(
        "\n=== analytic differential (M/M/c steady state, tolerance {:.0}%/{:.0}%/{:.0}%) ===",
        RESPONSE_TOLERANCE * 100.0,
        WIP_TOLERANCE * 100.0,
        THROUGHPUT_TOLERANCE * 100.0
    );
    println!(
        "{:>6} {:>4} {:>3} {:>10} {:>10} {:>9} {:>9} {:>8} {:>8} {:>6}",
        "lambda", "mu", "c", "W_obs(s)", "W_pred(s)", "L_obs", "L_pred", "thru", "viol", "pass"
    );
    let loads: [(f64, f64, usize); 3] = [(0.5, 1.0, 1), (2.0, 1.0, 3), (2.5, 1.0, 3)];
    for (i, &(lambda, mu, c)) in loads.iter().enumerate() {
        let row = run_differential(lambda, mu, c, args.seed.wrapping_add(i as u64));
        println!(
            "{:>6.2} {:>4.1} {:>3} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>8.3} {:>8} {:>6}",
            row.lambda,
            row.mu,
            row.c,
            row.observed_response,
            row.predicted_response,
            row.observed_wip,
            row.predicted_wip,
            row.observed_throughput,
            row.violations,
            if row.pass { "ok" } else { "FAIL" }
        );
        if !row.pass {
            failures += 1;
        }
    }

    telemetry.flush();
    drop(sink);
    if failures == 0 {
        println!("\nsim_audit: all checks passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nsim_audit: {failures} check(s) FAILED");
        ExitCode::FAILURE
    }
}
