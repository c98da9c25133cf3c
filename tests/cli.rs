//! `miras-cli` driven as a user drives it: generating a trace file and
//! replaying it, and rejecting trace files it cannot replay.

use std::process::Output;

/// Runs `miras-cli` with whitespace-separated `args`.
fn cli(args: &str) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_miras-cli"))
        .args(args.split_whitespace())
        .output()
        .expect("miras-cli starts")
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("miras_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_trace_output_replays_through_simulate() {
    let dir = scratch_dir("gen");
    let path = dir.join("gen.jsonl").display().to_string();
    let gen = cli(&format!(
        "gen-trace --ensemble msd --workload diurnal --horizon 120 --out {path}"
    ));
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let lines = std::fs::read_to_string(&path).unwrap().lines().count();
    assert!(lines > 0, "the diurnal trace has arrivals");

    let sim = cli(&format!(
        "simulate --ensemble msd --trace {path} --windows 2"
    ));
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let stdout = String::from_utf8_lossy(&sim.stdout);
    assert!(
        stdout.contains(&format!("replaying {lines} arrivals")),
        "{stdout}"
    );

    // The retired modulation flags are refused, not silently ignored.
    let old = cli(&format!("gen-trace --out {path} --pattern sine"));
    assert_eq!(old.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&old.stderr).contains("--pattern"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSON-array trace, garbage, or an out-of-range workflow type is a clean
/// error exit (status 1) naming the problem; a panic would exit with 101.
#[test]
fn simulate_rejects_bad_trace_files_without_panicking() {
    let dir = scratch_dir("bad");
    for (i, (text, needle)) in [
        ("{\"arrivals\":[]}", "line 1"),
        (
            "{\"time_micros\":1,\"workflow_type\":0}\ngarbage\n",
            "line 2",
        ),
        (
            "{\"time_micros\":1,\"workflow_type\":9}\n",
            "workflow type 9",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.jsonl"));
        std::fs::write(&path, text).unwrap();
        let out = cli(&format!(
            "simulate --ensemble msd --trace {} --windows 1",
            path.display()
        ));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{text:?}: {stderr}");
        assert!(stderr.contains(needle), "{text:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
