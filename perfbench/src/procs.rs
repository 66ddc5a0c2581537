//! Child processes: the server and the reproduction each run in a
//! process of their own (this binary, re-executed in a child mode), so
//! their peak memory is theirs alone. Parent and child talk through
//! `key value` lines on the child's standard output.

use std::io::{BufRead, BufReader, Read};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};

/// Scratch directory for child processes (`TMPDIR`): beside this
/// executable in the build directory, so a run writes nothing outside
/// it.
fn scratch_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(std::path::Path::parent)
        .ok_or("executable has no build directory")?
        .join("perfbench-tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A running child; killed and reaped on drop if still alive. Its
/// standard input stays open for as long as the parent holds it, which
/// is how the child notices a parent that died (see
/// [`exit_with_parent`]).
pub struct Child {
    child: Option<std::process::Child>,
    lines: BufReader<ChildStdout>,
    _stdin: ChildStdin,
}

impl Child {
    /// Starts this executable with `args`.
    pub fn spawn(args: &[String]) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .env("TMPDIR", scratch_dir()?)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take().expect("stdin is piped");
        Ok(Child {
            child: Some(child),
            lines: BufReader::new(stdout),
            _stdin: stdin,
        })
    }

    /// Reads the child's next line, which must be `key value`, and
    /// returns the value.
    pub fn expect(&mut self, key: &str) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .lines
            .read_line(&mut line)
            .map_err(|e| format!("reading child output: {e}"))?;
        if n == 0 {
            return Err(format!("child exited before reporting `{key}`"));
        }
        match line.trim_end().split_once(' ') {
            Some((k, v)) if k == key => Ok(v.to_string()),
            _ => Err(format!("child said {line:?}, expected `{key}`")),
        }
    }

    /// Like [`expect`](Child::expect), parsed.
    pub fn expect_parse<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        let v = self.expect(key)?;
        v.parse()
            .map_err(|_| format!("child's `{key}` value {v:?} does not parse"))
    }

    /// Waits for the child to exit and checks that it succeeded.
    pub fn wait(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("waited once");
        let status = child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("child failed: {status}"))
        }
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Called first in a child mode: exits the child when its standard
/// input closes, i.e. when the parent is gone, so a killed benchmark
/// leaves no server behind. The watcher thread lives as long as the
/// process and is never joined.
pub fn exit_with_parent() {
    std::thread::spawn(|| {
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut buf), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
}

/// Peak resident set of the calling process in KiB (`VmHWM`), 0 where
/// `/proc` does not report it.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}
