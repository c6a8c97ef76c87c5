//! Child processes: timed runs with their peak resident set size.

use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How often a running child is polled for exit and peak RSS.
const POLL: Duration = Duration::from_millis(2);
/// A child still running after this long is killed and counted as hung.
const HANG: Duration = Duration::from_secs(60);

/// The child's peak resident set size (`VmHWM`) in kB, while it lives.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// One finished child run.
pub struct Timed {
    pub status: ExitStatus,
    pub wall: Duration,
    /// The last peak RSS read before it exited, in kB.
    pub peak_rss_kb: u64,
}

/// Runs `command` with its standard output written to `stdout_path`, timing
/// spawn to exit and reading its peak RSS while it runs.
pub fn run_timed(command: &mut Command, stdout_path: &Path) -> Result<Timed, String> {
    let out = std::fs::File::create(stdout_path)
        .map_err(|e| format!("cannot create {}: {e}", stdout_path.display()))?;
    let start = Instant::now();
    let mut child = command
        .stdin(Stdio::null())
        .stdout(out)
        .spawn()
        .map_err(|e| format!("cannot spawn {command:?}: {e}"))?;
    let mut peak = 0;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                return Ok(Timed {
                    status,
                    wall: start.elapsed(),
                    peak_rss_kb: peak,
                })
            }
            Ok(None) if start.elapsed() > HANG => {
                stop(&mut child);
                return Err(format!("{command:?} still running after {HANG:?}"));
            }
            Ok(None) => {}
            Err(e) => {
                stop(&mut child);
                return Err(format!("waiting for {command:?}: {e}"));
            }
        }
        // The peak grows until the end of a solve, so read it every poll.
        peak = peak_rss_kb(child.id()).unwrap_or(0).max(peak);
        std::thread::sleep(POLL);
    }
}

/// Kills and reaps a child that must not outlive the run.
pub fn stop(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}
