//! `serve-msd`: an open loop over one client connection per rung into
//! `serve::serve_clients` on a Unix socket, as `miras-serve --checkpoint`
//! serves by default: checkpoint watcher armed, 1000 µs decision deadline,
//! `wip-proportional` fallback, admission bound 64 with rejection.
//!
//! Set-up trains one fast-scale MSD iteration at the workload seed, writes
//! the agent file `miras-cli train` would write, and records the observation
//! stream with `record_stream`. Each rung of the rate ladder sends that
//! stream on a fixed schedule; a window's latency runs from when it was due
//! to when its reply line arrived.
//!
//! The traced run first serves a short reference rung through the real
//! server, then runs the ladder through a replica of its pipeline built from
//! the same public pieces (`LineReader`, `parse_observation_line`,
//! `AdmissionQueue`, `CheckpointWatcher::poll`, `DecisionService::handle`,
//! `DecisionRecord::to_line`), with a span around each.

use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use baselines::{Decision, Observation, Policy, PolicyConfig};
use rl::TrainHealth;
use serve::{
    load_policy, parse_observation_line, record_stream, replay_stream, serve_clients,
    AdmissionConfig, AdmissionQueue, CheckpointWatcher, DecisionRecord, DecisionService, LineRead,
    LineReader, Listener, PushOutcome, ServeCounters, ServerConfig,
};
use telemetry::Telemetry;
use workflow::Ensemble;

use crate::stats::{
    self, backlog_growing, fastest_stretch, max_qualifying_rate, median, Rung, Summary,
};
use crate::trace::{Stages, Tracer};
use crate::{Args, Outcome, LADDER};

/// Times the set-up is repeated; the median is reported.
const SETUP_REPEATS: usize = 5;

/// The paper's per-decision budget, and the service's live deadline.
const BUDGET_US: f64 = 1000.0;

/// Scratch directory for the agent file and socket, inside the checkout.
const WORK_DIR: &str = ".perfbench_work";

/// How long a client waits for a reply line before counting the rest
/// missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// A rung is valid when the generator reached this share of its rate.
const MIN_ACHIEVED: f64 = 0.9;

/// Consecutive decisions over which capacity is measured.
const CAPACITY_STRETCH: usize = 200;

/// Consecutive chunks each slice of the lightest rung is cut into when
/// looking for its quietest stretch: host slowdowns come in phases of a
/// few seconds, shorter than a slice at long budgets.
const SLICE_CHUNKS: usize = 4;

/// Everything set-up produces.
struct Setup {
    agent: PathBuf,
    stream: Vec<String>,
    service: DecisionService,
}

fn policy_config() -> PolicyConfig {
    PolicyConfig::new(&Ensemble::msd())
}

/// The service `miras-serve --checkpoint` builds for live serving.
fn service(policy: Box<dyn Policy>) -> DecisionService {
    DecisionService::new(policy, Telemetry::noop())
        .with_expected_dims(Ensemble::msd().num_task_types())
        .with_deadline(Duration::from_micros(BUDGET_US as u64))
        .with_fallback(baselines::fallback(&policy_config()))
}

fn set_up(seed: u64, windows: usize, agent: &Path) -> Result<Setup, String> {
    let (mut env, mut trainer) = crate::train_msd::build(seed);
    trainer
        .try_run_iteration(&mut env, &mut TrainHealth::default_policy())
        .map_err(|e| format!("training the served agent: {e}"))?;
    let json = serde_json::to_string(&trainer.agent()).map_err(|e| e.to_string())?;
    std::fs::write(agent, json).map_err(|e| format!("writing {}: {e}", agent.display()))?;
    let mut driver = baselines::by_name("uniform", &policy_config()).map_err(|e| e.to_string())?;
    let stream = record_stream(&Ensemble::msd(), seed, windows, None, driver.as_mut())
        .iter()
        .map(|obs| serde_json::to_string(obs).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let (policy, _) = load_policy(agent).map_err(|e| e.to_string())?;
    let service = service(policy).with_watcher(CheckpointWatcher::new_deployed(agent.into()));
    Ok(Setup {
        agent: agent.into(),
        stream,
        service,
    })
}

/// What the client saw on one rung.
struct RungRun {
    rate: u32,
    due: Vec<Instant>,
    sent: Vec<Instant>,
    outstanding: Vec<f64>,
    replies: Vec<(Instant, String)>,
    error: Option<String>,
}

/// Sends `lines` at `rate` windows per second over one connection and
/// collects every reply line with its arrival time.
fn drive_rung(socket: &str, lines: &[String], rate: u32) -> RungRun {
    let mut run = RungRun {
        rate,
        due: Vec::with_capacity(lines.len()),
        sent: Vec::with_capacity(lines.len()),
        outstanding: Vec::with_capacity(lines.len()),
        replies: Vec::new(),
        error: None,
    };
    let connected = UnixStream::connect(socket).and_then(|s| {
        s.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let w = s.try_clone()?;
        Ok((s, w))
    });
    let (stream, mut writer) = match connected {
        Ok(halves) => halves,
        Err(e) => {
            run.error = Some(format!("connecting to {socket}: {e}"));
            return run;
        }
    };
    let payload: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| format!("{l}\n").into_bytes())
        .collect();
    let received = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut reader = BufReader::new(stream);
            let mut replies = Vec::with_capacity(lines.len());
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) => return (replies, None),
                    Ok(_) => {
                        replies.push((Instant::now(), line.trim_end().to_string()));
                        received.fetch_add(1, Ordering::Release);
                    }
                    Err(e) => return (replies, Some(format!("reading replies: {e}"))),
                }
            }
        });
        let interval = 1.0 / f64::from(rate);
        let start = Instant::now() + Duration::from_millis(2);
        for (i, bytes) in payload.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 * interval);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            run.outstanding
                .push((i - received.load(Ordering::Acquire)) as f64);
            let at = Instant::now();
            if let Err(e) = writer.write_all(bytes) {
                run.error = Some(format!("sending window {i}: {e}"));
                break;
            }
            run.due.push(due);
            run.sent.push(at);
        }
        let _ = writer.shutdown(std::net::Shutdown::Write);
        let (replies, error) = receiver.join().expect("receiver thread");
        run.replies = replies;
        if run.error.is_none() {
            run.error = error;
        }
    });
    run
}

/// The expected replies: the agent's and the fallback's batch replay of
/// the stream.
struct Expected {
    normal: Vec<String>,
    fallback: Vec<Vec<usize>>,
}

impl Expected {
    fn of(agent: &Path, stream: &[String]) -> Result<Expected, String> {
        let text = stream.join("\n");
        let (mut policy, _) = load_policy(agent).map_err(|e| e.to_string())?;
        let normal = replay_stream(policy.as_mut(), &text)
            .iter()
            .map(DecisionRecord::to_line)
            .collect();
        let fallback = replay_stream(baselines::fallback(&policy_config()).as_mut(), &text)
            .into_iter()
            .map(|r| r.allocations)
            .collect();
        Ok(Expected { normal, fallback })
    }
}

/// What the client saw on one connection, checked against the replay.
struct Part {
    sent: usize,
    ok: usize,
    shed: usize,
    degraded: usize,
    /// Missing, duplicated, unparseable or wrong replies.
    broken: usize,
    /// Latency from when each window was due; infinite when it got no
    /// normal or degraded reply.
    latency_us: Vec<f64>,
    /// `(window, latency from the actual send)` of answered windows.
    from_send_us: Vec<(usize, f64)>,
    gen_lag_us: Vec<f64>,
    backlog_growing: bool,
    achieved: f64,
    completion_rate: f64,
    /// Decisions per second over the fastest [`CAPACITY_STRETCH`]
    /// consecutive replies, when there were that many.
    peak_rate: f64,
    /// Share of the host's CPU time stolen while the connection ran.
    steal: f64,
}

/// Matches a connection's replies to the windows it sent (`windows` of
/// the stream) and checks them against the batch replay.
fn analyze(run: &RungRun, windows: Range<usize>, expected: &Expected, out: &mut Outcome) -> Part {
    let sent = run.sent.len();
    let mut replies = vec![0usize; sent];
    let mut latency = vec![f64::INFINITY; sent];
    let mut from_send = Vec::with_capacity(sent);
    let (mut ok, mut shed, mut degraded, mut wrong) = (0, 0, 0, 0);
    let mut last_reply = run.sent.first().copied();
    let mut answered = Vec::with_capacity(sent);
    for (at, line) in &run.replies {
        let record = match serde_json::from_str::<DecisionRecord>(line) {
            Ok(r) if (windows.start..windows.start + sent).contains(&r.window) => r,
            _ => {
                wrong += 1;
                continue;
            }
        };
        let w = record.window;
        let i = w - windows.start;
        replies[i] += 1;
        if replies[i] > 1 {
            continue;
        }
        let correct = if record.status.is_some() {
            shed += 1;
            record.allocations.is_empty()
        } else if record.degraded {
            degraded += 1;
            record.allocations == expected.fallback[w]
        } else {
            *line == expected.normal[w]
        };
        if !correct {
            wrong += 1;
        } else if record.status.is_none() {
            ok += 1;
            latency[i] = at.duration_since(run.due[i]).as_secs_f64() * 1e6;
            from_send.push((w, at.duration_since(run.sent[i]).as_secs_f64() * 1e6));
            last_reply = last_reply.max(Some(*at));
            answered.push(at.duration_since(run.due[0]).as_secs_f64());
        }
    }
    let missing = replies.iter().filter(|&&n| n == 0).count();
    let duplicated = replies.iter().filter(|&&n| n > 1).count();
    let rate = run.rate;
    out.check(missing == 0 && duplicated == 0, || {
        format!("rung {rate}/s: {missing} windows without a reply, {duplicated} with several")
    });
    out.check(wrong == 0, || {
        format!("rung {rate}/s: {wrong} replies differ from the batch replay of the stream")
    });
    out.check(sent == windows.len(), || {
        format!("rung {rate}/s: sent {sent} of {} windows", windows.len())
    });
    if let Some(e) = &run.error {
        out.problems.push(format!("rung {rate}/s: {e}"));
    }
    let span = |end: Option<Instant>| match (run.due.first(), end) {
        (Some(&a), Some(b)) if b > a => b.duration_since(a).as_secs_f64(),
        _ => f64::INFINITY,
    };
    Part {
        sent,
        ok,
        shed,
        degraded,
        broken: missing + duplicated + wrong,
        latency_us: latency,
        from_send_us: from_send,
        gen_lag_us: run
            .sent
            .iter()
            .zip(&run.due)
            .map(|(s, d)| s.saturating_duration_since(*d).as_secs_f64() * 1e6)
            .collect(),
        backlog_growing: backlog_growing(&run.outstanding),
        achieved: sent.saturating_sub(1) as f64 / span(run.sent.last().copied()),
        completion_rate: ok as f64 / span(last_reply),
        peak_rate: fastest_stretch(&answered, CAPACITY_STRETCH).unwrap_or(0.0),
        steal: 0.0,
    }
}

/// One rung's verdict, pooled over the connections that sent at its rate.
struct RungStats {
    rung: Rung,
    sent: usize,
    ok: usize,
    shed: usize,
    degraded: usize,
    broken: usize,
    latency_us: Summary,
    from_send_us: Vec<(usize, f64)>,
    gen_lag_us: Summary,
    /// The slowest send rate any of the rung's connections reached.
    achieved: f64,
    completion_rate: f64,
    /// `(median latency, steal share)` of each connection, in send order.
    slices: Vec<(f64, f64)>,
    /// The lowest median latency over [`SLICE_CHUNKS`] consecutive chunks
    /// of any connection.
    best_slice_us: f64,
    /// The fastest stretch of decisions on any of the connections.
    peak_rate: f64,
}

impl RungStats {
    fn pool(rate: u32, parts: &[&Part]) -> RungStats {
        let sum = |f: fn(&Part) -> usize| parts.iter().map(|p| f(p)).sum::<usize>();
        let mut latency: Vec<f64> = parts
            .iter()
            .flat_map(|p| p.latency_us.iter().copied())
            .collect();
        latency.sort_by(f64::total_cmp);
        let lag: Vec<f64> = parts
            .iter()
            .flat_map(|p| p.gen_lag_us.iter().copied())
            .collect();
        let achieved = parts
            .iter()
            .map(|p| p.achieved)
            .fold(f64::INFINITY, f64::min);
        let sent = sum(|p| p.sent);
        RungStats {
            rung: Rung {
                rate: f64::from(rate),
                valid: sent > 1 && achieved >= MIN_ACHIEVED * f64::from(rate),
                p99_us: if latency.is_empty() {
                    f64::INFINITY
                } else {
                    stats::nearest_rank(&latency, 99.0)
                },
                backlog_growing: parts.iter().any(|p| p.backlog_growing),
            },
            sent,
            ok: sum(|p| p.ok),
            shed: sum(|p| p.shed),
            degraded: sum(|p| p.degraded),
            broken: sum(|p| p.broken),
            latency_us: Summary::of(&latency),
            from_send_us: parts
                .iter()
                .flat_map(|p| p.from_send_us.iter().copied())
                .collect(),
            gen_lag_us: Summary::of(&lag),
            achieved,
            completion_rate: parts.iter().map(|p| p.completion_rate).fold(0.0, f64::max),
            slices: parts
                .iter()
                .map(|p| (Summary::of(&p.latency_us).median, p.steal))
                .collect(),
            best_slice_us: parts
                .iter()
                .filter(|p| !p.latency_us.is_empty())
                .map(|p| {
                    stats::best_chunk_median(&p.latency_us, SLICE_CHUNKS.min(p.latency_us.len()))
                })
                .fold(f64::INFINITY, f64::min),
            peak_rate: parts.iter().map(|p| p.peak_rate).fold(0.0, f64::max),
        }
    }

    fn failed(&self) -> usize {
        self.sent - self.ok
    }
}

/// The ladder's connections in order. The lightest rate's windows are cut
/// into slices placed before, between and after the other rungs, so its
/// latency samples the whole run: on a shared host, a noisy stretch then
/// shifts every rung a little instead of one rung a lot.
fn schedule(windows: usize) -> Vec<(u32, Range<usize>)> {
    let (&base, rest) = LADDER.split_first().expect("the ladder has rungs");
    let slices = rest.len() + 1;
    let cut = |i: usize| i * windows / slices;
    let mut plan = Vec::with_capacity(slices + rest.len());
    for i in 0..slices {
        plan.push((base, cut(i)..cut(i + 1)));
        if let Some(&rate) = rest.get(i) {
            plan.push((rate, 0..windows));
        }
    }
    plan
}

/// Pools the connections of each ladder rate, in ladder order.
fn by_rate<'a, T>(plan: &[(u32, Range<usize>)], items: &'a [T]) -> Vec<(u32, Vec<&'a T>)> {
    LADDER
        .iter()
        .map(|&rate| {
            let of_rate = plan
                .iter()
                .zip(items)
                .filter(|((r, _), _)| *r == rate)
                .map(|(_, item)| item)
                .collect();
            (rate, of_rate)
        })
        .collect()
}

/// Sends each planned connection in turn.
fn drive_plan(
    socket: &str,
    stream: &[String],
    plan: &[(u32, Range<usize>)],
    expected: &Expected,
    out: &mut Outcome,
) -> Vec<Part> {
    plan.iter()
        .map(|(rate, windows)| {
            let ticks = crate::cpu_ticks();
            let run = drive_rung(socket, &stream[windows.clone()], *rate);
            let steal = crate::steal_since(ticks).unwrap_or(0.0);
            Part {
                steal,
                ..analyze(&run, windows.clone(), expected, out)
            }
        })
        .collect()
}

/// Pools the parts of each ladder rate into rung verdicts.
fn rungs(plan: &[(u32, Range<usize>)], parts: &[Part]) -> Vec<RungStats> {
    by_rate(plan, parts)
        .into_iter()
        .filter(|(_, p)| !p.is_empty())
        .map(|(rate, p)| RungStats::pool(rate, &p))
        .collect()
}

fn print_rung(s: &RungStats) {
    println!(
        "rung {:>5}/s: sent {} succeeded {} failed {} (shed {}, degraded {}, broken {}); \
         latency {}; p99 {:.1} us; gen_lag {}; achieved {:.0}/s{}; backlog {}; completed {:.0}/s",
        s.rung.rate,
        s.sent,
        s.ok,
        s.failed(),
        s.shed,
        s.degraded,
        s.broken,
        s.latency_us.render(1.0, "us"),
        s.rung.p99_us,
        s.gen_lag_us.render(1.0, "us"),
        s.achieved,
        if s.rung.valid {
            ""
        } else {
            " (INVALID: generator fell behind)"
        },
        if s.rung.backlog_growing {
            "growing"
        } else {
            "flat"
        },
        s.completion_rate
    );
    if s.slices.len() > 1 {
        let slices: Vec<String> = s
            .slices
            .iter()
            .map(|(p50, steal)| format!("{p50:.0} us @ {:.1}% steal", 100.0 * steal))
            .collect();
        println!(
            "  slices (median latency @ host steal): {}",
            slices.join(", ")
        );
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = Path::new(WORK_DIR);
    if let Err(e) = std::fs::create_dir_all(dir) {
        out.problems.push(format!("creating {WORK_DIR}: {e}"));
        return out;
    }
    let pid = std::process::id();
    let agent = dir.join(format!("agent-{pid}.json"));
    let socket = format!("{WORK_DIR}/serve-{pid}.sock");
    // Windows per rung, so that the ladder takes about the budget.
    let per_rung: f64 = LADDER.iter().map(|&r| 1.0 / f64::from(r)).sum();
    let windows = ((args.seconds / per_rung).round() as usize).max(100);

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        // The previous listener removes its socket path when dropped.
        drop(setup.take());
        let t = Instant::now();
        let built = set_up(args.seed, windows, &agent).and_then(|s| {
            Ok((
                s,
                Listener::bind(&format!("unix:{socket}")).map_err(|e| e.to_string())?,
            ))
        });
        setup_s.push(t.elapsed().as_secs_f64());
        match built {
            Ok(s) => setup = Some(s),
            Err(e) => {
                out.problems.push(format!("set-up: {e}"));
                let _ = std::fs::remove_file(&agent);
                return out;
            }
        }
    }
    setup_s.sort_by(f64::total_cmp);
    let (setup, listener) = setup.expect("set up at least once");
    let expected = match Expected::of(&setup.agent, &setup.stream) {
        Ok(e) => e,
        Err(e) => {
            out.problems.push(format!("batch replay: {e}"));
            return out;
        }
    };

    if args.trace {
        run_traced(&mut out, setup, &listener, &socket, &expected);
    } else {
        run_ladder(
            &mut out,
            setup,
            &listener,
            &socket,
            &expected,
            median(&setup_s),
        );
    }
    drop(listener);
    let _ = std::fs::remove_file(&agent);
    let _ = std::fs::remove_dir(dir);
    out
}

fn server_config(clients: usize) -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig::default(),
        clients,
        ..ServerConfig::default()
    }
}

/// Drives the planned connections through the real server.
fn real_server(
    out: &mut Outcome,
    service: &mut DecisionService,
    listener: &Listener,
    socket: &str,
    stream: &[String],
    expected: &Expected,
    plan: &[(u32, Range<usize>)],
) -> Vec<RungStats> {
    std::thread::scope(|s| {
        let server = s.spawn(|| serve_clients(listener, service, &server_config(plan.len())));
        let parts = drive_plan(socket, stream, plan, expected, out);
        if let Err(e) = server.join().expect("server thread") {
            out.problems.push(format!("server: {e}"));
        }
        rungs(plan, &parts)
    })
}

/// The untraced run: the whole ladder through `serve_clients`.
fn run_ladder(
    out: &mut Outcome,
    mut setup: Setup,
    listener: &Listener,
    socket: &str,
    expected: &Expected,
    setup_s: f64,
) {
    let plan = schedule(setup.stream.len());
    let rungs = real_server(
        out,
        &mut setup.service,
        listener,
        socket,
        &setup.stream,
        expected,
        &plan,
    );
    for r in &rungs {
        print_rung(r);
        out.attempted += r.sent as u64;
        out.failed += r.broken as u64;
    }
    let base = &rungs[0];
    let shed_or_broken: usize = rungs.iter().map(RungStats::failed).sum();
    println!(
        "serve_p50_us: {} at {}/s",
        base.latency_us.render(1.0, "us"),
        base.rung.rate
    );
    println!(
        "serve_p99_us: {:.1} us at {}/s (n={})",
        base.rung.p99_us, base.rung.rate, base.sent
    );
    let ladder: Vec<Rung> = rungs.iter().map(|r| r.rung).collect();
    println!(
        "serve_max_rate: {} windows/s (highest valid rung with p99 <= {BUDGET_US} us and a flat backlog)",
        max_qualifying_rate(&ladder, BUDGET_US)
    );
    println!(
        "fail_ratio with shed windows counted: {shed_or_broken}/{} = {:.4}",
        out.attempted,
        shed_or_broken as f64 / out.attempted.max(1) as f64
    );
    println!("setup_s: median {setup_s:.4} s of {SETUP_REPEATS} set-ups");
    if let Some(stats) = setup.service.latency_stats() {
        println!(
            "info: service-reported decision latency p50 {:.1} us p99 {:.1} us over {} decisions",
            stats.p50_us, stats.p99_us, stats.count
        );
    }
    let capacity = rungs.iter().map(|r| r.peak_rate).fold(0.0, f64::max);
    println!(
        "serve_p50_us in the best of the {} slices' {SLICE_CHUNKS} chunks at {}/s: {:.3} us",
        base.slices.len(),
        base.rung.rate,
        base.best_slice_us
    );
    println!(
        "capacity: {capacity:.0} decisions/s over the fastest {CAPACITY_STRETCH} consecutive replies"
    );
    out.metric("op_ms", base.best_slice_us / 1e3);
    out.metric("throughput_per_s", capacity);
    out.metric("setup_s", setup_s);
}

/// A policy whose decisions are timed as `baselines.decide_us` spans.
struct TimedPolicy {
    inner: Box<dyn Policy>,
    tracer: Arc<Tracer>,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn consumer_budget(&self) -> usize {
        self.inner.consumer_budget()
    }
    fn policy_version(&self) -> u64 {
        self.inner.policy_version()
    }
    fn decide(&mut self, obs: &Observation) -> Decision {
        let tracer = Arc::clone(&self.tracer);
        tracer.span("baselines.decide_us", || self.inner.decide(obs))
    }
}

/// One admitted window in the replica's queue.
struct Entry {
    obs: serve::WindowObservation,
    arrived: u64,
    pushed: u64,
}

/// What the replica recorded while serving one client.
#[derive(Default)]
struct ServedRung {
    stages: Stages,
    depths: Vec<f64>,
    /// `(window, first byte parsed, reply written)` in trace ns.
    residence: Vec<(usize, u64, u64)>,
}

/// The replica of `serve_clients` with spans at each layer boundary: one
/// reader thread per client feeding the admission queue, decisions on the
/// calling thread.
fn traced_server(
    listener: &Listener,
    service: &mut DecisionService,
    watcher: &mut CheckpointWatcher,
    tracer: &Tracer,
    clients: usize,
) -> Result<Vec<ServedRung>, String> {
    let counters = service.counters();
    let noop = Telemetry::noop();
    let policy_name = service.policy_name().to_string();
    let max_line = service.max_line_bytes();
    let dims = service.expected_dims();
    let mut served = Vec::with_capacity(clients);
    for _ in 0..clients {
        let (reader, writer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
        let writer = Mutex::new(writer);
        let reply = |record: &DecisionRecord| {
            let mut w = writer.lock().expect("writer lock");
            let line = record.to_line();
            let ok = w
                .write_all(line.as_bytes())
                .and_then(|()| w.write_all(b"\n"))
                .and_then(|()| w.flush())
                .is_ok();
            if !ok {
                ServeCounters::bump(&counters.dropped_replies, 1, &noop, "serve.dropped_replies");
            }
        };
        let queue: AdmissionQueue<Entry> = AdmissionQueue::new(AdmissionConfig::default());
        let mut rung = ServedRung::default();
        std::thread::scope(|s| {
            let reader_thread = s.spawn(|| {
                let mut lines = LineReader::new(reader, max_line);
                let mut depths = Vec::new();
                while let Ok(Some(read)) = lines.next_line() {
                    let LineRead::Line(line) = read else {
                        ServeCounters::bump(
                            &counters.wire_rejected,
                            1,
                            &noop,
                            "serve.wire_rejected",
                        );
                        continue;
                    };
                    let arrived = tracer.now();
                    let parsed = tracer.span("serve.parse_us", || {
                        parse_observation_line(&line, max_line, dims)
                    });
                    let obs = match parsed {
                        Ok(Some(obs)) => obs,
                        Ok(None) => continue,
                        Err(_) => {
                            ServeCounters::bump(
                                &counters.wire_rejected,
                                1,
                                &noop,
                                "serve.wire_rejected",
                            );
                            continue;
                        }
                    };
                    depths.push(queue.len() as f64);
                    let window = obs.window;
                    match queue.push(Entry {
                        obs,
                        arrived,
                        pushed: tracer.now(),
                    }) {
                        PushOutcome::Admitted => {}
                        PushOutcome::ShedNew => {
                            ServeCounters::bump(&counters.shed, 1, &noop, "serve.shed");
                            reply(&DecisionRecord::shed(window, &policy_name));
                        }
                        PushOutcome::ShedOldest(victim) => {
                            ServeCounters::bump(&counters.shed, 1, &noop, "serve.shed");
                            reply(&DecisionRecord::shed(victim.obs.window, &policy_name));
                        }
                    }
                }
                queue.close();
                depths
            });
            while let Some(entry) = queue.pop_wait() {
                tracer.record("serve.admit_wait_us", entry.pushed, tracer.now());
                if tracer
                    .span("serve.watcher_poll_us", || watcher.poll())
                    .is_some()
                {
                    println!("note: the watcher reported a change to the agent file");
                }
                let record = tracer.span("serve.handle_us", || service.handle(&entry.obs));
                tracer.span("serve.reply_us", || reply(&record));
                rung.residence
                    .push((entry.obs.window, entry.arrived, tracer.now()));
            }
            rung.depths = reader_thread.join().expect("reader thread");
        });
        rung.stages = tracer.take();
        served.push(rung);
    }
    Ok(served)
}

/// The traced run: a reference rung through the real server, then the
/// ladder through the traced replica.
fn run_traced(
    out: &mut Outcome,
    mut setup: Setup,
    listener: &Listener,
    socket: &str,
    expected: &Expected,
) {
    let reference_plan = [(LADDER[0], 0..(setup.stream.len() / 4).max(1))];
    let untraced = real_server(
        out,
        &mut setup.service,
        listener,
        socket,
        &setup.stream,
        expected,
        &reference_plan,
    );
    println!("reference (untraced) rung:");
    print_rung(&untraced[0]);

    let tracer = Arc::new(Tracer::default());
    let (policy, _) = match load_policy(&setup.agent) {
        Ok(p) => p,
        Err(e) => {
            out.problems.push(format!("loading the agent: {e}"));
            return;
        }
    };
    let mut service = service(Box::new(TimedPolicy {
        inner: policy,
        tracer: Arc::clone(&tracer),
    }));
    let mut watcher = CheckpointWatcher::new_deployed(setup.agent.clone());
    let plan = schedule(setup.stream.len());
    let (parts, served) = std::thread::scope(|s| {
        let server =
            s.spawn(|| traced_server(listener, &mut service, &mut watcher, &tracer, plan.len()));
        let parts = drive_plan(socket, &setup.stream, &plan, expected, out);
        (parts, server.join().expect("server thread"))
    });
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            out.problems.push(format!("traced server: {e}"));
            return;
        }
    };
    let rungs = rungs(&plan, &parts);
    for r in &rungs {
        print_rung(r);
        out.attempted += r.sent as u64;
        out.failed += r.broken as u64;
    }
    // The replica's records pooled per ladder rate, like the rungs.
    let served: Vec<ServedRung> = by_rate(&plan, &served)
        .into_iter()
        .map(|(_, parts)| {
            let mut pooled = ServedRung::default();
            for p in parts {
                pooled.stages.merge(&p.stages);
                pooled.depths.extend_from_slice(&p.depths);
                pooled.residence.extend_from_slice(&p.residence);
            }
            pooled
        })
        .collect();

    let us = |name: &str, all: &[&ServedRung]| {
        let mut v: Vec<f64> = all
            .iter()
            .flat_map(|r| r.stages.samples(name).iter().map(|s| s * 1e6))
            .collect();
        v.sort_by(f64::total_cmp);
        median(&v)
    };
    let all: Vec<&ServedRung> = served.iter().collect();
    for name in [
        "serve.watcher_poll_us",
        "serve.parse_us",
        "serve.admit_wait_us",
        "serve.handle_us",
        "serve.reply_us",
    ] {
        let v = us(name, &all);
        println!("stage {name}: median self {v:.2} us per window");
        out.metric(name, v);
    }
    let depths: Vec<f64> = served
        .iter()
        .flat_map(|r| r.depths.iter().copied())
        .collect();
    out.metric(
        "serve.queue_depth",
        depths.iter().sum::<f64>() / depths.len().max(1) as f64,
    );
    if let Some(stats) = service.latency_stats() {
        out.metric("baselines.decide_us", stats.p50_us);
    }
    let c = service.counters().snapshot();
    out.metric("serve.shed", c.shed as f64);
    out.metric("serve.degraded", c.degraded as f64);
    out.metric("serve.dropped_replies", c.dropped_replies as f64);
    out.metric("serve.wire_rejected", c.wire_rejected as f64);
    let mut worst_lag = 0.0f64;
    for (r, s) in rungs.iter().zip(&served) {
        let rate = r.rung.rate;
        let lag = r.gen_lag_us.tail.map_or(r.gen_lag_us.median, |t| t.1);
        worst_lag = worst_lag.max(lag);
        out.metric(
            format!("serve.r{rate}.admit_wait_us"),
            us("serve.admit_wait_us", &[s]),
        );
        out.metric(format!("serve.r{rate}.gen_lag_us"), lag);
        out.metric(format!("serve.r{rate}.failed"), r.failed() as f64);
    }
    out.metric("serve.gen_lag_us", worst_lag);

    // Accounting on the lightest rung: the stages against each window's
    // time in the server, and the rest of the client's wait (socket
    // transfer and wake-ups) beside it.
    let (base, base_served) = (&rungs[0], &served[0]);
    let in_server: std::collections::HashMap<usize, f64> = base_served
        .residence
        .iter()
        .map(|&(w, a, b)| (w, (b - a) as f64 * 1e-3))
        .collect();
    let mut wire: Vec<f64> = base
        .from_send_us
        .iter()
        .filter_map(|(w, client)| Some(client - in_server.get(w)?))
        .collect();
    wire.sort_by(f64::total_cmp);
    out.metric("serve.wire_us", median(&wire));
    println!(
        "serve.wire_us: median {:.1} us per window between client and server at {}/s",
        median(&wire),
        base.rung.rate
    );
    out.trace_summary(
        base_served.residence.len(),
        base_served.stages.all_total(),
        in_server.values().sum::<f64>() * 1e-6,
        base.latency_us.median / untraced[0].latency_us.median,
    );
}
