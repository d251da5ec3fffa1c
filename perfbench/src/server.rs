//! The `serve` child processes: training runs with a deadline, and
//! listening servers that are stopped with SIGTERM on every exit path.

use crate::client::Conn;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// Longest a `serve --train` run may take before it counts as hung.
const TRAIN_DEADLINE: Duration = Duration::from_secs(120);
/// Longest a server may take to answer `/healthz` after spawning.
const START_DEADLINE: Duration = Duration::from_secs(60);
/// Longest a server may take to drain and exit after SIGTERM.
const STOP_DEADLINE: Duration = Duration::from_secs(10);

/// Waits for `child` until `deadline`; kills it when the deadline passes.
fn wait_until(child: &mut Child, deadline: Instant) -> std::io::Result<Option<ExitStatus>> {
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(Some(status));
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Runs `serve --train …` to completion and returns its wall time.
/// `log` receives the child's stderr.
pub fn train(bin: &Path, args: &[String], log: &Path) -> Result<Duration, String> {
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(log).map_err(|e| e.to_string())?)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    match wait_until(&mut child, started + TRAIN_DEADLINE).map_err(|e| e.to_string())? {
        Some(status) if status.success() => Ok(started.elapsed()),
        Some(status) => Err(format!(
            "serve --train failed ({status}); see {}",
            log.display()
        )),
        None => Err(format!(
            "serve --train still running after {TRAIN_DEADLINE:?}"
        )),
    }
}

/// A free loopback port (bound, read and released).
fn free_addr() -> std::io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

/// A listening `serve` process. Dropping it stops the process.
pub struct Server {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `serve --listen` with `args` and waits until `/healthz`
    /// answers 200.
    pub fn start(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let addr = free_addr().map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .args(args)
            .arg("--listen")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(log).map_err(|e| e.to_string())?)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = Server {
            child: Some(child),
            addr,
        };
        let deadline = Instant::now() + START_DEADLINE;
        loop {
            if let Ok(mut conn) = Conn::open(addr) {
                if let Ok(reply) = conn.call("GET", "/healthz", b"") {
                    if reply.status == 200 {
                        return Ok(server);
                    }
                }
            }
            let exited = server
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten());
            if let Some(status) = exited {
                return Err(format!(
                    "serve exited during start-up ({status}); see {}",
                    log.display()
                ));
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "serve did not answer /healthz within {START_DEADLINE:?}"
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Peak resident set (`VmHWM`) of the server so far, in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
    }

    /// CPU time the server has used so far, user + system, in clock ticks
    /// (`utime` + `stime` of `/proc/<pid>/stat`; the Linux ABI fixes the
    /// tick at 10 ms). Time the hypervisor stole is not in it.
    pub fn cpu_ticks(&self) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        crate::host::cpu_ticks(&stat, false)
    }

    /// Sends SIGTERM, waits for the drain, and returns the exit status
    /// (`None` when the server had to be killed).
    pub fn stop(mut self) -> Option<ExitStatus> {
        self.terminate()
    }

    fn terminate(&mut self) -> Option<ExitStatus> {
        let mut child = self.child.take()?;
        if let Ok(Some(status)) = child.try_wait() {
            return Some(status);
        }
        // `kill` is a process of its own: wait for it too
        let _ = Command::new("kill")
            .arg("-TERM")
            .arg(child.id().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        wait_until(&mut child, Instant::now() + STOP_DEADLINE)
            .ok()
            .flatten()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.terminate();
    }
}
