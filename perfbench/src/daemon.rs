//! A `pi3d serve` child process on a unix socket, with one persistent
//! client connection. Stopped on every exit path: `shutdown` first, then
//! SIGKILL; the socket and pid file are removed either way.

use pi3d_telemetry::json::{read_json_line, write_json_line};
use pi3d_telemetry::Json;
use std::io::BufReader;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const START_TIMEOUT: Duration = Duration::from_secs(30);
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Daemon {
    child: Child,
    socket: PathBuf,
    pid_file: PathBuf,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    stopped: bool,
}

impl Daemon {
    /// Spawns the daemon (one worker, one thread) in `run_dir`, connects,
    /// and waits until `health` reports ready.
    pub fn spawn(pi3d: &str, run_dir: &str, cache_bytes: usize) -> Result<Daemon, String> {
        let socket = PathBuf::from(run_dir).join("pi3d.sock");
        let pid_file = PathBuf::from(run_dir).join("daemon.pid");
        let _ = std::fs::remove_file(&socket);
        let log = std::fs::File::create(PathBuf::from(run_dir).join("daemon.log"))
            .map_err(|e| format!("daemon log: {e}"))?;
        let cache = cache_bytes.to_string();
        let listen = format!("unix:{}", socket.display());
        let mut child = Command::new(pi3d)
            .args([
                "serve",
                "--listen",
                &listen,
                "--threads",
                "1",
                "--workers",
                "1",
            ])
            .args(["--cache-bytes", &cache])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {pi3d}: {e}"))?;
        if let Err(e) = std::fs::write(&pid_file, child.id().to_string()) {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("pid file: {e}"));
        }
        let start = Instant::now();
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(s) => break Ok(s),
                Err(_) if start.elapsed() < START_TIMEOUT => {
                    if let Ok(Some(status)) = child.try_wait() {
                        break Err(format!("daemon exited at start-up: {status}"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => break Err(format!("connect {}: {e}", socket.display())),
            }
        };
        let streams = stream.and_then(|s| {
            let reader = s.try_clone().map_err(|e| format!("clone socket: {e}"))?;
            Ok((s, reader))
        });
        let (writer, reader) = match streams {
            Ok(pair) => pair,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&socket);
                let _ = std::fs::remove_file(&pid_file);
                return Err(e);
            }
        };
        let mut d = Daemon {
            child,
            socket,
            pid_file,
            writer,
            reader: BufReader::new(reader),
            stopped: false,
        };
        loop {
            let health = d.call(&Json::obj([("cmd", Json::str("health"))]))?;
            let state = health.get("result").and_then(|r| r.get("state"));
            if state.and_then(Json::as_str) == Some("ready") {
                return Ok(d);
            }
            if start.elapsed() > START_TIMEOUT {
                return Err(format!("daemon not ready: {health:?}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request, one response, over the persistent connection.
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        write_json_line(&mut self.writer, request).map_err(|e| format!("send: {e}"))?;
        read_json_line(&mut self.reader)
            .map_err(|e| format!("receive: {e}"))?
            .ok_or_else(|| "daemon closed the connection".to_owned())
    }

    /// Sends `shutdown` and waits for a clean exit, killing the daemon if
    /// it does not exit in time.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.call(&Json::obj([("cmd", Json::str("shutdown"))]));
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if start.elapsed() < STOP_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        self.stop();
        asked?;
        match status {
            Some(s) if s.success() => Ok(()),
            Some(s) => Err(format!("daemon exited with {s}")),
            None => Err("daemon ignored shutdown; killed".into()),
        }
    }

    fn stop(&mut self) {
        if !self.stopped {
            self.stopped = true;
            let _ = self.writer.shutdown(std::net::Shutdown::Both);
            if let Ok(None) = self.child.try_wait() {
                let _ = self.child.kill();
            }
            let _ = self.child.wait();
            let _ = std::fs::remove_file(&self.socket);
            let _ = std::fs::remove_file(&self.pid_file);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}
