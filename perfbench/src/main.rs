//! The MIRAS repository benchmark.
//!
//! ```text
//! perfbench --workload <train-msd|serve-msd> --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from the seed, measures for about `S`
//! seconds, checks the program's outputs outside the timed region and
//! prints a human-readable report followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the run is repeated
//! with spans around each layer's public entry points and the metrics are
//! the per-layer ones. The exit code is nonzero when a check fails.

mod serve_msd;
mod stats;
mod trace;
mod train_msd;

use std::fmt::Write as _;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("op_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The serving ladder's offered rates, windows per second.
pub const LADDER: [u32; 7] = [250, 500, 1000, 2000, 4000, 8000, 16000];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer a workload does not exercise reads 0.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 38] = [
        ("rl.train_step_s", "s"),
        ("rl.act_s", "s"),
        ("rl.train_steps", "count"),
        ("nn.gemm_calls", "count"),
        ("miras-core.model_fit_s", "s"),
        ("miras-core.model_epochs", "count"),
        ("miras-core.refine_fit_s", "s"),
        ("miras-core.synth_step_s", "s"),
        ("miras-core.synth_steps", "count"),
        ("miras-core.lend_trigger_ratio", "ratio"),
        ("microsim.collect_s", "s"),
        ("microsim.steps", "count"),
        ("microsim.arrivals", "count"),
        ("microsim.completions", "count"),
        ("desim.events", "count"),
        ("desim.peak_pending", "count"),
        ("desim.wheel_cascades", "count"),
        ("desim.queue_s", "s"),
        ("serve.watcher_poll_us", "us"),
        ("serve.parse_us", "us"),
        ("serve.admit_wait_us", "us"),
        ("serve.queue_depth", "count"),
        ("serve.handle_us", "us"),
        ("baselines.decide_us", "us"),
        ("serve.reply_us", "us"),
        ("serve.shed", "count"),
        ("serve.degraded", "count"),
        ("serve.dropped_replies", "count"),
        ("serve.wire_rejected", "count"),
        ("serve.gen_lag_us", "us"),
        ("serve.wire_us", "us"),
        ("train.unattributed_s", "s"),
        ("trace.stage_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace_overhead", "ratio"),
        ("trace.ops", "count"),
    ];
    let mut names: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for rate in LADDER {
        names.push((format!("serve.r{rate}.admit_wait_us"), "us"));
        names.push((format!("serve.r{rate}.gen_lag_us"), "us"));
        names.push((format!("serve.r{rate}.failed"), "count"));
    }
    names
}

/// Seconds after which a run gives up without printing a result.
const WATCHDOG_SECS: u64 = 170;

/// Share of the traced wall the stage self times may leave unexplained.
pub const COVERAGE_BOUND: f64 = 0.05;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (iterations, sent windows).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// Metric values by name (units come from the metric tables).
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Records a metric value.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Records a correctness problem unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Fills the per-layer trace summary shared by every workload: stage
    /// self time against the traced wall, and traced over untraced wall.
    pub fn trace_summary(&mut self, ops: usize, stage_s: f64, wall_s: f64, overhead: f64) {
        let per_op = |v: f64| v / ops.max(1) as f64;
        let coverage = if wall_s > 0.0 { stage_s / wall_s } else { 0.0 };
        println!(
            "trace: stage self time {:.6} s of traced wall {:.6} s per op \
             (coverage {:.3}, bound ±{COVERAGE_BOUND}: {}), traced/untraced wall {:.3}",
            per_op(stage_s),
            per_op(wall_s),
            coverage,
            if (1.0 - coverage).abs() <= COVERAGE_BOUND {
                "within"
            } else {
                "OUTSIDE"
            },
            overhead
        );
        self.metric("trace.stage_s", per_op(stage_s));
        self.metric("trace.wall_s", per_op(wall_s));
        self.metric("trace.unattributed_s", per_op(wall_s - stage_s));
        self.metric("trace.coverage", coverage);
        self.metric("trace_overhead", overhead);
        self.metric("trace.ops", ops as f64);
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Per-layer tracing on.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process, in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of the host, from `/proc/stat`.
/// Steal is time the hypervisor ran something else on this machine's
/// virtual CPUs; it slows every timing here.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Share of the host's CPU time stolen since `start` (from [`cpu_ticks`]).
#[must_use]
pub fn steal_since(start: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (start?, cpu_ticks()?);
    Some((s1 - s0) as f64 / (t1 - t0).max(1) as f64)
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l.split(' ').next().unwrap_or("").to_string())
            })
            .map_or_else(|| "unknown".to_string(), |c| c.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

/// One line naming the host, build and thread settings behind a result.
fn stamp(args: &Args, threads_pinned: bool) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".to_string());
    let host = std::env::var("HOSTNAME")
        .ok()
        .or_else(|| std::fs::read_to_string("/proc/sys/kernel/hostname").ok())
        .map_or_else(|| "unknown".to_string(), |h| h.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    format!(
        "stamp: workload={} seed={} seconds={} trace={} host={host} nproc={nproc} commit={} \
         rustflags=\"{}\" NN_NUM_THREADS={} ({}) MIRAS_GRID_THREADS={} queue={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        commit(),
        env!("PERFBENCH_RUSTFLAGS"),
        env("NN_NUM_THREADS"),
        if threads_pinned {
            "set by the benchmark"
        } else {
            "from the environment"
        },
        env("MIRAS_GRID_THREADS"),
        microsim::SimConfig::new(0).queue,
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line the benchmark ends with.
fn result_line(outcome: &Outcome, names: &[(String, &'static str)]) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload train-msd|serve-msd --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Two NN threads fork and join on every large product. On a virtual
    // machine whose CPUs are shared, each join waits for whichever CPU the
    // hypervisor took away, and iterations varied 2-4x between runs. One
    // thread keeps the timing about the code; set the variable to measure
    // another count.
    let threads_pinned = std::env::var_os("NN_NUM_THREADS").is_none();
    if threads_pinned {
        std::env::set_var("NN_NUM_THREADS", "1");
    }
    // A stuck run ends without a result rather than hanging.
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_SECS));
        eprintln!("perfbench: no result after {WATCHDOG_SECS} s, giving up");
        std::process::exit(3);
    });
    println!("{}", stamp(&args, threads_pinned));
    let ticks = cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "train-msd" => train_msd::run(&args),
        "serve-msd" => serve_msd::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        let rss = peak_rss_mb();
        println!("peak_rss_mb: {rss:.1} MB");
        outcome.metric("peak_rss_mb", rss);
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, value) in &outcome.metrics {
        if !names.iter().any(|(n, _)| n == name) {
            outcome
                .problems
                .push(format!("metric {name} is not declared"));
        }
        if !value.is_finite() {
            outcome
                .problems
                .push(format!("metric {name} is not finite"));
        }
    }
    if let Some(share) = steal_since(ticks) {
        println!(
            "info: host steal {:.1}% of CPU time during the run",
            100.0 * share
        );
    }
    println!(
        "fail_ratio: {}/{} = {:.4}",
        outcome.failed,
        outcome.attempted,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    if outcome.attempted == 0 {
        outcome
            .problems
            .push("no operation was attempted".to_string());
    }
    for p in &outcome.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", result_line(&outcome, &names));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here must match `BENCHMARK.json` at the repository
    /// root, name for name and unit for unit.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let listed = |key: &str| -> Vec<(String, String)> {
            let v: serde::value::Value = serde_json::from_str(&text).expect("valid JSON");
            let serde::value::Value::Object(fields) = v else {
                panic!("top level is an object")
            };
            let (_, serde::value::Value::Array(items)) =
                fields.into_iter().find(|(k, _)| k == key).expect(key)
            else {
                panic!("{key} is an array")
            };
            items
                .into_iter()
                .map(|item| {
                    let serde::value::Value::Object(f) = item else {
                        panic!("metric is an object")
                    };
                    let get = |k: &str| match f.iter().find(|(n, _)| n == k) {
                        Some((_, serde::value::Value::String(s))) => s.clone(),
                        _ => panic!("metric has {k}"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
            v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
    }

    #[test]
    fn result_line_fills_undeclared_metrics_with_zero() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric("a", 1.5);
        let line = result_line(&o, &[("a".to_string(), "s"), ("b".to_string(), "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
    }
}
