//! The program's own worker binary, and what the kernel reports about
//! the child processes this process starts.

use std::collections::BTreeSet;
use std::ffi::{c_int, c_long};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

extern "C" {
    fn syscall(number: c_long, ...) -> c_long;
    fn getrlimit(resource: c_int, limit: *mut [u64; 2]) -> c_int;
    fn setrlimit(resource: c_int, limit: *const [u64; 2]) -> c_int;
}

#[cfg(target_arch = "x86_64")]
const SYS_WAITID: c_long = 247;
#[cfg(target_arch = "aarch64")]
const SYS_WAITID: c_long = 95;
const P_PID: c_long = 1;
const WEXITED: c_long = 4;
const WNOWAIT: c_long = 0x0100_0000;
const RLIMIT_CORE: c_int = 4;
/// `ru_maxrss` in a `struct rusage` viewed as 64-bit words.
const RU_MAXRSS: usize = 4;

/// Build the repository's `provmark-shard` binary (release, offline)
/// with the workspace manifest in the working directory, and return the
/// path cargo reports for it.
pub fn build_worker() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--message-format=json",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "provshard",
            "--bin",
            "provmark-shard",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !out.status.success() {
        return Err(format!("cargo build of provmark-shard: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| serde_json::from_str::<serde_json::Value>(line).ok())
        .find(|msg| {
            msg["reason"].as_str() == Some("compiler-artifact")
                && msg["target"]["name"].as_str() == Some("provmark-shard")
        })
        .and_then(|msg| msg["executable"].as_str().map(PathBuf::from))
        .ok_or_else(|| "cargo reported no provmark-shard executable".to_owned())
}

/// Set this process's soft core-file limit to 0. Child processes
/// inherit it, so a worker that aborts on an injected crash leaves no
/// core file behind.
pub fn disable_core_dumps() -> Result<(), String> {
    let mut limit = [0u64; 2];
    // SAFETY: `limit` is a valid `struct rlimit` (two `rlim_t`) for both calls.
    let ok = unsafe {
        getrlimit(RLIMIT_CORE, &mut limit) == 0 && {
            limit[0] = 0;
            setrlimit(RLIMIT_CORE, &limit) == 0
        }
    };
    ok.then_some(())
        .ok_or_else(|| format!("core limit: {}", std::io::Error::last_os_error()))
}

/// Peak resident set (KiB) of child process `pid`, read when it exits
/// without reaping it (`waitid` with `WNOWAIT`), so whoever started it
/// still reaps it. `None` if it was reaped before this call.
fn exit_peak_kib(pid: u32) -> Option<u64> {
    let mut info = [0u64; 16];
    let mut usage = [0i64; 18];
    loop {
        // SAFETY: `info` and `usage` are large enough for `siginfo_t` (128
        // bytes) and `struct rusage` (144 bytes); the kernel writes nothing
        // else.
        let r = unsafe {
            syscall(
                SYS_WAITID,
                P_PID,
                c_long::from(pid),
                info.as_mut_ptr(),
                WEXITED | WNOWAIT,
                usage.as_mut_ptr(),
            )
        };
        if r == 0 {
            return u64::try_from(usage[RU_MAXRSS]).ok();
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return None;
        }
    }
}

/// Pids of every child process of every thread of this process.
fn child_pids() -> Vec<u32> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("children")).ok())
        .flat_map(|text| {
            text.split_whitespace()
                .filter_map(|pid| pid.parse().ok())
                .collect::<Vec<u32>>()
        })
        .collect()
}

/// Watches for child processes and takes each one's peak resident set
/// as it exits.
pub struct ChildPeaks {
    stop: Arc<AtomicBool>,
    scanner: JoinHandle<Vec<JoinHandle<Option<u64>>>>,
}

impl ChildPeaks {
    /// Start watching: every millisecond, look for new children and wait
    /// for each one's exit on a thread of its own.
    pub fn watch() -> ChildPeaks {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let scanner = std::thread::spawn(move || {
            let mut seen = BTreeSet::new();
            let mut waiters = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                for pid in child_pids() {
                    if seen.insert(pid) {
                        waiters.push(std::thread::spawn(move || exit_peak_kib(pid)));
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            waiters
        });
        ChildPeaks { stop, scanner }
    }

    /// Stop watching, once every child has been reaped. Returns each
    /// child's peak in KiB, `None` for one whose exit was missed.
    pub fn finish(self) -> Vec<Option<u64>> {
        self.stop.store(true, Ordering::Relaxed);
        let waiters = self.scanner.join().unwrap_or_default();
        waiters
            .into_iter()
            .map(|w| w.join().ok().flatten())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_peaks_sees_every_child() {
        let watch = ChildPeaks::watch();
        let mut children: Vec<_> = (0..2)
            .map(|_| Command::new("sleep").arg("0.05").spawn().unwrap())
            .collect();
        // Reap by polling, as `drive_elastic`'s process pool does.
        for child in &mut children {
            while child.try_wait().unwrap().is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        let peaks = watch.finish();
        assert_eq!(peaks.len(), 2);
        assert!(peaks.iter().all(|p| p.is_some_and(|kib| kib > 0)));
    }
}
