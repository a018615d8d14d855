//! One `sild` child process, started with default flags.

use sil_engine::service::{RemoteService, Request, Response, Service};
use silobs::MetricsSnapshot;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to accept its first connection.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long the control connection waits on any one reply.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Daemon {
    child: Child,
    socket: PathBuf,
    control: RemoteService,
}

impl Daemon {
    /// Start `sild` listening on `socket` and wait until it answers a
    /// protocol handshake.
    pub fn spawn(sild: &Path, socket: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(&socket);
        let addr = format!("unix:{}", socket.display());
        let mut child = Command::new(sild)
            .arg("--listen")
            .arg(&addr)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sild.display()))?;
        let started = Instant::now();
        loop {
            if let Ok(control) = RemoteService::connect_with_timeout(&addr, Some(CONTROL_TIMEOUT)) {
                if control.handshake().is_ok() {
                    return Ok(Daemon {
                        child,
                        socket,
                        control,
                    });
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("sild exited before it was ready: {status}"));
            }
            if started.elapsed() > READY_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("sild did not become ready in time".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    pub fn call(&self, request: Request) -> Response {
        self.control.call(request)
    }

    /// The daemon's whole metrics registry, `server.*` included.
    pub fn metrics(&self) -> Result<MetricsSnapshot, String> {
        self.control
            .service_metrics()
            .map_err(|e| format!("metrics: {e}"))
    }

    /// Peak resident set (VmHWM) of the daemon process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the daemon's /proc status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kib / 1024.0)
    }

    /// Ask the daemon to exit and wait for it; kill it if it lingers.
    pub fn shutdown(mut self) -> Result<(), String> {
        let answered = matches!(
            self.control.call(Request::shutdown()),
            Response::ShuttingDown { .. }
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return if answered {
                    Ok(())
                } else {
                    Err("sild exited without acknowledging shutdown".to_string())
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("sild did not exit after shutdown".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}
