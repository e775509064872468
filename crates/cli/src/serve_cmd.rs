//! `pi3d serve` / `pi3d call` — the daemon transport.
//!
//! The daemon speaks newline-delimited JSON (one compact document per
//! line, see `pi3d_telemetry::json::FrameReader`) over a unix socket by
//! default or TCP with `--listen tcp:host:port`. Everything that decides
//! what a request *means* lives in [`pi3d_core::serve`]; this module
//! owns only sockets, connection reader threads, and the worker pool
//! draining the shared admission queue.
//!
//! Robustness at the transport layer (PR 9):
//!
//! * Frames are capped at `--max-frame-bytes` (default 16 MiB); an
//!   oversized frame gets one typed error response and the connection is
//!   closed.
//! * Connection readers poll with a 1s socket read deadline instead of
//!   blocking forever, so they observe drain promptly and reap
//!   connections idle past `--idle-timeout` (a peer stalled mid-frame
//!   gets a `frame`-stage error first).
//! * Workers come from [`pi3d_core::serve::WorkerPool`]: a panic kills
//!   only its thread and the accept loop respawns replacements.
//! * Queue depth drives the engine's load shedding: shed requests get an
//!   `admission` outcome with a `retry_after_ms` hint.
//!
//! Shutdown: SIGINT or SIGTERM (or `--cancel-file`) stops accepting,
//! closes the queue, drains in-flight requests (each answers quickly
//! with a `cancelled`/`terminated` outcome via the shared
//! [`CancelToken`]), and exits 130 (SIGINT) or 143 (SIGTERM). A
//! `shutdown` request does the same drain but exits 0.

use pi3d_core::serve::{
    error_response, RequestQueue, ServeOptions, ServeState, WorkerPool, DEFAULT_CACHE_BYTES,
};
use pi3d_core::CoreError;
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::json::{
    frame_too_large, read_json_line, write_json_line, FrameReader, DEFAULT_MAX_FRAME_BYTES,
};
use pi3d_telemetry::rng::{jittered_backoff, SplitMix64};
use pi3d_telemetry::{CancelToken, Json};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::Args;

/// Socket read deadline for connection readers: long enough to be off
/// the hot path, short enough that drain and idle reaping are prompt.
const READ_POLL: Duration = Duration::from_secs(1);

/// Where the daemon listens, from `--listen`.
enum ListenAddr {
    Unix(PathBuf),
    Tcp(String),
}

/// Default unix-socket path: under the per-user temp dir so unprivileged
/// runs work out of the box; override with `--listen unix:PATH`.
fn default_socket_path() -> PathBuf {
    std::env::temp_dir().join("pi3d").join("pi3d-serve.sock")
}

fn parse_listen(spec: Option<&str>) -> ListenAddr {
    match spec {
        None => ListenAddr::Unix(default_socket_path()),
        Some(s) => {
            if let Some(host_port) = s.strip_prefix("tcp:") {
                ListenAddr::Tcp(host_port.to_owned())
            } else if let Some(path) = s.strip_prefix("unix:") {
                ListenAddr::Unix(PathBuf::from(path))
            } else {
                // A bare path is a unix socket; keeps the common case short.
                ListenAddr::Unix(PathBuf::from(s))
            }
        }
    }
}

/// One admitted request: the parsed document plus the (shared, locked)
/// writer of the connection it arrived on. Workers may finish requests
/// from one connection out of order — that is what the echoed `id` field
/// is for.
struct QueuedRequest {
    request: Json,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
}

fn lock_writer(
    writer: &Arc<Mutex<Box<dyn Write + Send>>>,
) -> std::sync::MutexGuard<'_, Box<dyn Write + Send>> {
    match writer.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Shared context for connection readers.
struct ReaderCtx {
    state: Arc<ServeState>,
    queue: Arc<RequestQueue<QueuedRequest>>,
    /// Set by the accept loop at drain time so readers exit instead of
    /// lingering until their next idle deadline.
    draining: Arc<AtomicBool>,
    max_frame_bytes: usize,
    idle_timeout: Duration,
}

fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Reads frames off one connection and enqueues them. The socket has a
/// [`READ_POLL`] read deadline, so the loop wakes regularly to notice
/// drain and to reap idle connections; partial frames survive the polls
/// inside the [`FrameReader`] buffer.
fn reader_loop<R: Read>(read: R, writer: Arc<Mutex<Box<dyn Write + Send>>>, ctx: Arc<ReaderCtx>) {
    let mut frames = FrameReader::new(BufReader::new(read));
    let mut last_frame = Instant::now();
    loop {
        if ctx.draining.load(Ordering::Acquire) {
            return;
        }
        match frames.read_frame(ctx.max_frame_bytes) {
            Ok(Some(request)) => {
                last_frame = Instant::now();
                ctx.state.note_queue_depth(ctx.queue.depth());
                if ctx.state.should_shed(&request) {
                    let response = ctx.state.shed_response(&request);
                    let mut w = lock_writer(&writer);
                    if write_json_line(&mut *w, &response).is_err() {
                        return;
                    }
                    continue;
                }
                let item = QueuedRequest {
                    request,
                    writer: Arc::clone(&writer),
                };
                if let Err(rejected) = ctx.queue.push(item) {
                    let response = error_response(
                        Some(&rejected.request),
                        "admission",
                        "server busy: request queue is full (or shutting down)",
                    );
                    let mut w = lock_writer(&rejected.writer);
                    if write_json_line(&mut *w, &response).is_err() {
                        return;
                    }
                }
                ctx.state.note_queue_depth(ctx.queue.depth());
            }
            Ok(None) => return, // clean EOF
            Err(e) if is_read_timeout(&e) => {
                // No complete frame arrived within the poll window. Reap
                // the connection once it has been quiet too long; a peer
                // stalled mid-frame is told why before the close.
                if last_frame.elapsed() >= ctx.idle_timeout {
                    if frames.buffered() > 0 {
                        let response = error_response(
                            None,
                            "frame",
                            &format!(
                                "closing connection: read stalled mid-frame ({} bytes buffered, \
                                 idle {:?})",
                                frames.buffered(),
                                ctx.idle_timeout
                            ),
                        );
                        let mut w = lock_writer(&writer);
                        let _ = write_json_line(&mut *w, &response);
                    }
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Framing is lost after a malformed or oversized line:
                // answer once with a typed outcome, then drop the
                // connection.
                let stage = if frame_too_large(&e).is_some() {
                    "frame"
                } else {
                    "request"
                };
                let response = error_response(None, stage, &e.to_string());
                let mut w = lock_writer(&writer);
                let _ = write_json_line(&mut *w, &response);
                return;
            }
            Err(_) => return,
        }
    }
}

fn spawn_connection<R, W>(read: R, write: W, ctx: &Arc<ReaderCtx>)
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(Box::new(write)));
    let ctx = Arc::clone(ctx);
    std::thread::spawn(move || reader_loop(read, writer, ctx));
}

fn bind_unix(path: &PathBuf) -> Result<UnixListener, Box<dyn std::error::Error>> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            // A stale socket file from a crashed daemon: if nothing
            // answers a connect, reclaim the address.
            if UnixStream::connect(path).is_ok() {
                return Err(
                    format!("another daemon is already listening on {}", path.display()).into(),
                );
            }
            std::fs::remove_file(path)?;
            Ok(UnixListener::bind(path)?)
        }
        Err(e) => Err(format!("cannot bind {}: {e}", path.display()).into()),
    }
}

fn parse_usize_flag(
    args: &Args,
    name: &str,
    default: usize,
    min: usize,
) -> Result<usize, Box<dyn std::error::Error>> {
    match args.flag(name) {
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("--{name} must be an integer, got {v}"))?;
            if n < min {
                return Err(format!("--{name} must be at least {min}").into());
            }
            Ok(n)
        }
        None => Ok(default),
    }
}

fn parse_seconds_flag(
    args: &Args,
    name: &str,
) -> Result<Option<Duration>, Box<dyn std::error::Error>> {
    match args.flag(name) {
        Some(secs) => {
            let s: f64 = secs
                .parse()
                .map_err(|_| format!("--{name} must be a number of seconds, got {secs}"))?;
            if !s.is_finite() || s <= 0.0 {
                return Err(format!("--{name} must be a positive number of seconds").into());
            }
            Ok(Some(Duration::from_secs_f64(s)))
        }
        None => Ok(None),
    }
}

/// `pi3d serve`: bind, spawn the worker pool, accept until SIGINT,
/// SIGTERM, or a `shutdown` request, then drain and exit (130 for
/// SIGINT, 143 for SIGTERM, 0 for `shutdown`).
pub fn serve_command(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let mesh = crate::mesh_options_from(args, MeshOptions::default())?;
    let cache_bytes = parse_usize_flag(args, "cache-bytes", DEFAULT_CACHE_BYTES, 1)?;
    // For the daemon, `--deadline` is the default *per-request* budget
    // (a request's own `deadline` field overrides it), not a whole-run
    // budget — the whole run is open-ended by design.
    let deadline = parse_seconds_flag(args, "deadline")?;
    let workers = parse_usize_flag(
        args,
        "workers",
        std::thread::available_parallelism()
            .map(|n| n.get().min(4))
            .unwrap_or(2),
        1,
    )?;
    if workers > 256 {
        return Err("--workers must be between 1 and 256".into());
    }
    let queue_limit = parse_usize_flag(args, "queue-limit", 64, 1)?;
    let max_frame_bytes = parse_usize_flag(args, "max-frame-bytes", DEFAULT_MAX_FRAME_BYTES, 64)?;
    let idle_timeout =
        parse_seconds_flag(args, "idle-timeout")?.unwrap_or(Duration::from_secs(300));

    let cancel = CancelToken::global();
    let state = Arc::new(ServeState::new(ServeOptions {
        mesh,
        cache_bytes,
        deadline,
        cancel: cancel.clone(),
        // Shedding watermarks track the admission queue bound: shed when
        // the queue is 3/4 full, recover once it drains to 1/4.
        shed_high_watermark: (queue_limit * 3 / 4).max(1),
        shed_low_watermark: queue_limit / 4,
        ..ServeOptions::default()
    }));
    let queue: Arc<RequestQueue<QueuedRequest>> = Arc::new(RequestQueue::new(queue_limit));
    let draining = Arc::new(AtomicBool::new(false));
    let ctx = Arc::new(ReaderCtx {
        state: Arc::clone(&state),
        queue: Arc::clone(&queue),
        draining: Arc::clone(&draining),
        max_frame_bytes,
        idle_timeout,
    });

    let mut pool = {
        let state = Arc::clone(&state);
        let queue = Arc::clone(&queue);
        WorkerPool::new(workers, Arc::clone(&queue), move |item: QueuedRequest| {
            let response = state.handle_request(&item.request);
            let mut w = lock_writer(&item.writer);
            let _ = write_json_line(&mut *w, &response);
            drop(w);
            state.note_queue_depth(queue.depth());
        })
    };

    // The accept loop polls at 25ms so signals and `shutdown` requests
    // are noticed promptly without a dedicated wakeup mechanism; each
    // idle poll also reaps and respawns any panicked workers.
    let poll = Duration::from_millis(25);
    let mut unix_socket_path = None;
    match parse_listen(args.flag("listen")) {
        ListenAddr::Unix(path) => {
            let listener = bind_unix(&path)?;
            listener.set_nonblocking(true)?;
            eprintln!("pi3d serve: listening on unix:{}", path.display());
            unix_socket_path = Some(path);
            while !cancel.is_cancelled() && !state.shutdown_requested() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_read_timeout(Some(READ_POLL))?;
                        let write = stream.try_clone()?;
                        spawn_connection(stream, write, &ctx);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        pool.maintain();
                        std::thread::sleep(poll);
                    }
                    Err(e) => return Err(format!("accept failed: {e}").into()),
                }
            }
        }
        ListenAddr::Tcp(host_port) => {
            let listener = TcpListener::bind(&host_port)
                .map_err(|e| format!("cannot bind tcp:{host_port}: {e}"))?;
            listener.set_nonblocking(true)?;
            eprintln!(
                "pi3d serve: listening on tcp:{}",
                listener.local_addr().map_or(host_port, |a| a.to_string())
            );
            while !cancel.is_cancelled() && !state.shutdown_requested() {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_read_timeout(Some(READ_POLL))?;
                        let write = stream.try_clone()?;
                        spawn_connection(stream, write, &ctx);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        pool.maintain();
                        std::thread::sleep(poll);
                    }
                    Err(e) => return Err(format!("accept failed: {e}").into()),
                }
            }
        }
    }

    // Drain: no new admissions, readers exit at their next poll, workers
    // finish what is queued (cancelled requests answer quickly with a
    // typed outcome), then exit.
    draining.store(true, Ordering::Release);
    queue.close();
    pool.join();
    if let Some(path) = unix_socket_path {
        let _ = std::fs::remove_file(path);
    }
    let stats = state.cache_stats();
    let breaker = state.breaker_stats();
    eprintln!(
        "pi3d serve: served {} requests (cache: {} hits, {} misses, {} evictions; breaker: {} \
         opens, {} short-circuits; shed: {}; panics caught: {})",
        state.served(),
        stats.hits,
        stats.misses,
        stats.evictions,
        breaker.opens,
        breaker.short_circuits,
        state.shed_count(),
        state.panics_caught()
    );
    if cancel.is_cancelled() {
        let served = state.served() as usize;
        return Err(CoreError::Cancelled {
            completed: served,
            total: served,
        }
        .into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

struct Connection {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

fn connect_once(
    addr: &str,
    read_timeout: Option<Duration>,
) -> Result<Connection, Box<dyn std::error::Error>> {
    if let Some(host_port) = addr.strip_prefix("tcp:") {
        let stream = TcpStream::connect(host_port)
            .map_err(|e| format!("cannot connect to tcp:{host_port}: {e}"))?;
        stream.set_read_timeout(read_timeout)?;
        let write = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(write),
        })
    } else {
        let path = addr.strip_prefix("unix:").unwrap_or(addr);
        let stream =
            UnixStream::connect(path).map_err(|e| format!("cannot connect to unix:{path}: {e}"))?;
        stream.set_read_timeout(read_timeout)?;
        let write = stream.try_clone()?;
        Ok(Connection {
            reader: BufReader::new(Box::new(stream)),
            writer: Box::new(write),
        })
    }
}

/// The client's retry backoff stops doubling after this many attempts
/// (at 1024× `--retry-base-ms`).
const RETRY_MAX_DOUBLINGS: u32 = 10;

/// The daemon's own retry hint on a load-shed response: an `admission`
/// stage outcome carrying `result.retry_after_ms`. Such a response is
/// not a transport failure — the connection stays valid — but the client
/// honors the hint and retries instead of failing the request.
fn shed_retry_hint(response: &Json) -> Option<Duration> {
    let stage = response
        .get("outcome")
        .and_then(|o| o.get("stage"))
        .and_then(Json::as_str);
    if stage != Some("admission") {
        return None;
    }
    response
        .get("result")
        .and_then(|r| r.get("retry_after_ms"))
        .and_then(Json::as_num)
        .filter(|ms| *ms >= 0.0 && ms.is_finite())
        .map(|ms| Duration::from_secs_f64(ms / 1000.0))
}

/// Sends one request and reads one response over `conn`. Any transport
/// error (including a read timeout) invalidates the connection.
fn send_and_recv(conn: &mut Connection, request: &Json) -> std::io::Result<Json> {
    write_json_line(&mut conn.writer, request)?;
    match read_json_line(&mut conn.reader)? {
        Some(response) => Ok(response),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection before responding",
        )),
    }
}

/// `pi3d call`: a resilient client. Connects to the daemon (with bounded
/// seeded-backoff retries — covers the window where a just-started
/// server is still binding its socket), sends each positional argument
/// (or each stdin line when none are given) as one request, prints each
/// response line to stdout in lockstep. A transport failure mid-request
/// reconnects and resends the *identical* document (same `id`, so the
/// retry is observably idempotent to log consumers). Exits nonzero if
/// any response carries a failed outcome.
pub fn call_command(args: &Args) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args
        .positional
        .get(1)
        .ok_or("call needs an address (unix:PATH or tcp:host:port)")?;
    let retries = parse_usize_flag(args, "retries", 5, 0)? as u32;
    let retry_base = match args.flag("retry-base-ms") {
        Some(ms) => {
            let v: f64 = ms
                .parse()
                .map_err(|_| format!("--retry-base-ms must be a number, got {ms}"))?;
            if !v.is_finite() || v <= 0.0 {
                return Err("--retry-base-ms must be positive".into());
            }
            Duration::from_secs_f64(v / 1000.0)
        }
        None => Duration::from_millis(50),
    };
    let retry_seed = match args.flag("retry-seed") {
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("--retry-seed must be an integer, got {s}"))?,
        None => 0x5EED,
    };
    let read_timeout = parse_seconds_flag(args, "timeout")?;

    let requests: Vec<Json> = if args.positional.len() > 2 {
        args.positional[2..]
            .iter()
            .map(|text| Json::parse(text).map_err(|e| format!("bad request document: {e}")))
            .collect::<Result<_, _>>()?
    } else {
        let mut docs = Vec::new();
        let mut stdin = std::io::stdin().lock();
        while let Some(doc) = read_json_line(&mut stdin)? {
            docs.push(doc);
        }
        docs
    };
    if requests.is_empty() {
        return Err("call needs at least one request (argument or stdin line)".into());
    }

    let mut rng = SplitMix64::new(retry_seed);
    let mut conn: Option<Connection> = None;
    let mut failures = 0usize;
    let mut first_error = String::new();
    for request in &requests {
        let mut attempt: u32 = 0;
        let response = loop {
            let established = match conn.as_mut() {
                Some(c) => Ok(c),
                None => match connect_once(addr, read_timeout) {
                    Ok(c) => Ok(conn.insert(c)),
                    Err(e) => Err(e.to_string()),
                },
            };
            let error = match established {
                Ok(c) => match send_and_recv(c, request) {
                    Ok(response) => {
                        // A shed response is a complete, well-framed reply:
                        // keep the connection and retry after the daemon's
                        // own hint (never sooner than our backoff would).
                        if let Some(hint) = shed_retry_hint(&response) {
                            if attempt < retries {
                                let wait = hint.max(jittered_backoff(
                                    retry_base,
                                    attempt,
                                    RETRY_MAX_DOUBLINGS,
                                    &mut rng,
                                ));
                                std::thread::sleep(wait);
                                attempt += 1;
                                continue;
                            }
                        }
                        break response;
                    }
                    Err(e) => {
                        conn = None; // framing is unknown; reconnect
                        e.to_string()
                    }
                },
                Err(e) => e,
            };
            if attempt >= retries {
                return Err(
                    format!("request failed after {} attempt(s): {error}", attempt + 1).into(),
                );
            }
            std::thread::sleep(jittered_backoff(
                retry_base,
                attempt,
                RETRY_MAX_DOUBLINGS,
                &mut rng,
            ));
            attempt += 1;
        };
        println!("{}", response.to_compact_string());
        let failed = response
            .get("outcome")
            .and_then(|o| o.get("exit_code"))
            .and_then(Json::as_num)
            .is_some_and(|code| code != 0.0);
        if failed {
            failures += 1;
            if first_error.is_empty() {
                first_error = response
                    .get("outcome")
                    .and_then(|o| o.get("error"))
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_owned();
            }
        }
    }
    if failures > 0 {
        return Err(format!(
            "{failures} of {} requests failed (first error: {first_error})",
            requests.len()
        )
        .into());
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn shed_response(retry_after_ms: f64) -> Json {
        Json::obj([
            (
                "outcome",
                Json::obj([
                    ("stage", Json::str("admission")),
                    ("exit_code", Json::num(11.0)),
                ]),
            ),
            (
                "result",
                Json::obj([("retry_after_ms", Json::num(retry_after_ms))]),
            ),
        ])
    }

    #[test]
    fn shed_responses_carry_a_retry_hint() {
        assert_eq!(
            shed_retry_hint(&shed_response(250.0)),
            Some(Duration::from_millis(250))
        );
        assert_eq!(shed_retry_hint(&shed_response(0.0)), Some(Duration::ZERO));
    }

    #[test]
    fn non_shed_responses_have_no_retry_hint() {
        // Completed request: different stage, no retry_after_ms.
        let done = Json::obj([(
            "outcome",
            Json::obj([("stage", Json::str("run")), ("exit_code", Json::num(0.0))]),
        )]);
        assert_eq!(shed_retry_hint(&done), None);

        // Admission failure without a hint (e.g. breaker open with no ETA).
        let bare = Json::obj([("outcome", Json::obj([("stage", Json::str("admission"))]))]);
        assert_eq!(shed_retry_hint(&bare), None);

        // A negative or non-finite hint is ignored rather than honored.
        assert_eq!(shed_retry_hint(&shed_response(-5.0)), None);
        assert_eq!(shed_retry_hint(&shed_response(f64::NAN)), None);
    }
}
