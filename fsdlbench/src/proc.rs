//! The serving process and what is measured from outside it: peak RSS
//! from `/proc/<pid>/status`, store bytes on disk, and the generator's
//! own CPU time.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fsdl_server::{Client, Endpoint};

/// How long the server may take to come up or to drain.
const START_TIMEOUT: Duration = Duration::from_secs(150);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs `fsdl <args>` to completion, discarding its standard output.
///
/// # Errors
///
/// A message when the command cannot start or exits unsuccessfully.
pub fn run(fsdl: &Path, args: &[&str]) -> Result<(), String> {
    let out = Command::new(fsdl)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", fsdl.display()))?;
    if !out.status.success() {
        return Err(format!("fsdl {} failed: {}", args.join(" "), out.status));
    }
    Ok(())
}

/// A running `fsdl serve`. Dropping it kills and reaps the process.
pub struct Served {
    child: Child,
    socket: PathBuf,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl Served {
    /// Starts `fsdl <args>` and waits until it prints its `serving` line.
    ///
    /// # Errors
    ///
    /// A message when the process cannot start, exits early or does not
    /// come up in time.
    pub fn start(fsdl: &Path, args: &[&str], socket: &Path) -> Result<Served, String> {
        let mut child = Command::new(fsdl)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", fsdl.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let served = Served {
            child,
            socket: socket.to_path_buf(),
            lines,
            reader: Some(reader),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match served.lines.recv_timeout(left) {
                Ok(line) if line.starts_with("serving ") => return Ok(served),
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("fsdl {} did not come up", args.join(" ")))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("fsdl {} exited before serving", args.join(" ")))
                }
            }
        }
    }

    /// The serving process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the serving process, in MB.
    ///
    /// # Errors
    ///
    /// A message when `/proc/<pid>/status` cannot be read or parsed.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("cannot read the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb * 1024.0 / 1e6)
            .ok_or_else(|| "no VmHWM line in the server's status".to_string())
    }

    /// Sends a shutdown frame and waits for the process to drain and exit;
    /// returns the lines it printed while serving (its drain report).
    ///
    /// # Errors
    ///
    /// A message when the shutdown is refused or the drain stalls (the
    /// process is then killed).
    pub fn shutdown(mut self) -> Result<Vec<String>, String> {
        Client::connect(&Endpoint::Unix(self.socket.clone()))
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown refused: {e}"))?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(None) => return Err("server did not drain in time".into()),
                Err(e) => return Err(format!("cannot wait for the server: {e}")),
            }
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        Ok(self.lines.try_iter().collect())
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Total size of the regular files under `dir`, in bytes.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// User plus system CPU seconds of this process so far (all threads),
/// from `/proc/self/stat` in clock ticks of 1/100 s.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // Fields 14 and 15 of stat(5): utime and stime.
    (ticks(11) + ticks(12)) / 100.0
}

/// A host fingerprint: core count and CPU model.
pub fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|m| m.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={cores} cpu=\"{model}\"")
}
