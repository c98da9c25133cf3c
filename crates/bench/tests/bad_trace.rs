//! A `--workload trace:FILE` that cannot be replayed ends a bench binary
//! with an error naming the problem, before any training; a panic would
//! exit with status 101.

use std::process::Command;

#[test]
fn bench_binaries_reject_bad_trace_files_without_panicking() {
    let dir = std::env::temp_dir().join(format!("miras_bench_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, (text, needle)) in [
        ("{\"arrivals\":[]}", "line 1"),
        (
            "{\"time_micros\":1,\"workflow_type\":7}\n",
            "workflow type 7",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.jsonl"));
        std::fs::write(&path, text).unwrap();
        let workload = format!("trace:{}", path.display());
        for (bin, status) in [
            (env!("CARGO_BIN_EXE_fig7_msd_comparison"), 2),
            (env!("CARGO_BIN_EXE_sim_audit"), 1),
        ] {
            let out = Command::new(bin)
                .args(["--smoke", "--workload", &workload])
                .current_dir(&dir)
                .output()
                .expect("bench binary starts");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(status), "{bin}: {stderr}");
            assert!(stderr.contains(needle), "{bin}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
