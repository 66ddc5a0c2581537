//! Process-level check that the parallel pipeline touches no
//! filesystem: `reproduce --jobs 2` must succeed with an unusable
//! `TMPDIR` and print exactly what it prints with the default one.

use std::process::{Command, Output};

fn reproduce_fig2(tmpdir: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    cmd.args(["fig2", "--quick", "--jobs", "2"]);
    if let Some(dir) = tmpdir {
        cmd.env("TMPDIR", dir);
    }
    cmd.output().expect("failed to launch reproduce")
}

#[test]
fn parallel_run_ignores_unusable_tmpdir() {
    let baseline = reproduce_fig2(None);
    assert!(
        baseline.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&baseline.stderr)
    );
    // `/dev/null` is not a directory, so nothing can be created under it.
    let hostile = reproduce_fig2(Some("/dev/null"));
    assert!(
        hostile.status.success(),
        "run with TMPDIR=/dev/null exited with {}: {}",
        hostile.status,
        String::from_utf8_lossy(&hostile.stderr)
    );
    assert!(!baseline.stdout.is_empty(), "fig2 printed nothing");
    assert_eq!(
        hostile.stdout, baseline.stdout,
        "stdout changed with TMPDIR=/dev/null"
    );
}
