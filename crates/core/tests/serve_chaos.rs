//! Deterministic chaos harness for the serve engine (PR 9).
//!
//! Every test here drives seeded faults — torn frames, stalled reads,
//! injected worker panics, forced build failures, malformed protocol
//! fuzz — through the transport-free engine and asserts the three serve
//! invariants: the server never panics, every accepted request gets
//! exactly one response with a well-formed `outcome` block, and warm
//! responses remain byte-identical to cold ones after the chaos clears.

use pi3d_core::serve::{
    error_response, FaultPlan, RequestQueue, ServeOptions, ServeState, WorkerPool,
};
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::json::{write_json_line, FrameReader, DEFAULT_MAX_FRAME_BYTES};
use pi3d_telemetry::rng::SplitMix64;
use pi3d_telemetry::Json;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const QUICK_CFG: &str = "benchmark = ddr3-off\n";

fn quick_options() -> ServeOptions {
    let mut mesh = MeshOptions::coarse();
    mesh.dram_nx = 8;
    mesh.dram_ny = 8;
    mesh.logic_nx = 10;
    mesh.logic_ny = 8;
    ServeOptions {
        mesh,
        ..ServeOptions::default()
    }
}

fn solve_request(id: f64) -> Json {
    Json::obj([
        ("cmd", Json::str("solve")),
        ("id", Json::num(id)),
        ("config", Json::str(QUICK_CFG)),
    ])
}

/// Asserts the serve response envelope: schema marker plus a complete
/// `outcome{status,stage,exit_code,error}` block of the right types.
fn assert_well_formed(response: &Json) {
    assert_eq!(
        response.get("schema").and_then(Json::as_str),
        Some("pi3d.serve.v1"),
        "missing schema: {response:?}"
    );
    let outcome = response
        .get("outcome")
        .unwrap_or_else(|| panic!("missing outcome: {response:?}"));
    let status = outcome
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("outcome.status not a string: {response:?}"));
    assert!(
        [
            "ok",
            "error",
            "cancelled",
            "terminated",
            "deadline",
            "panic"
        ]
        .contains(&status),
        "unknown status {status:?}"
    );
    outcome
        .get("stage")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("outcome.stage not a string: {response:?}"));
    let exit_code = outcome
        .get("exit_code")
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("outcome.exit_code not a number: {response:?}"));
    assert!(exit_code.fract() == 0.0 && (0.0..=255.0).contains(&exit_code));
    outcome
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("outcome.error not a string: {response:?}"));
    assert_eq!((exit_code == 0.0), (status == "ok"));
}

/// Runs `f` with its injected panics kept off stderr; any other panic,
/// a failing assertion included, still reaches the previous hook, and
/// that hook is back in place however `f` ends. Serialized, since the
/// hook is process-global.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = match HOOK_LOCK.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    let previous = Arc::new(std::panic::take_hook());
    let forward = Arc::clone(&previous);
    std::panic::set_hook(Box::new(move |info| {
        let injected = info.payload_as_str().is_some_and(|message| {
            message == "injected worker panic (chaos plan)" || message.starts_with("poison item ")
        });
        if !injected {
            forward(info);
        }
    }));
    // A panicking thread cannot swap the hook, so a panic in `f` is
    // caught and resumed only after the previous hook is back.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(Box::new(move |info| previous(info)));
    outcome.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

// ---------------------------------------------------------------------------
// Fault class 1: torn frames (seeded chunking, interrupts, torn tail).
// ---------------------------------------------------------------------------

/// A reader that delivers its wire bytes in seeded chunks, injecting
/// `Interrupted` errors between chunks and optionally tearing off the
/// final bytes (a peer that died mid-frame).
struct ChaosReader {
    wire: Vec<u8>,
    pos: usize,
    rng: SplitMix64,
    interrupt_prob: f64,
}

impl ChaosReader {
    fn new(wire: Vec<u8>, seed: u64) -> ChaosReader {
        ChaosReader {
            wire,
            pos: 0,
            rng: SplitMix64::new(seed),
            interrupt_prob: 0.3,
        }
    }
}

impl Read for ChaosReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.wire.len() {
            return Ok(0);
        }
        if self.rng.chance(self.interrupt_prob) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let chunk = 1 + self.rng.next_below(7) as usize;
        let n = chunk.min(self.wire.len() - self.pos).min(out.len());
        out[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn torn_frames_reassemble_across_seeded_chunking() {
    let docs: Vec<Json> = (0..20)
        .map(|i| {
            Json::obj([
                ("cmd", Json::str("ping")),
                ("id", Json::num(f64::from(i))),
                ("pad", Json::str("x".repeat(17 + (i as usize * 13) % 100))),
            ])
        })
        .collect();
    let mut wire = Vec::new();
    for doc in &docs {
        write_json_line(&mut wire, doc).expect("write frame");
    }
    for seed in [1u64, 7, 42, 1234] {
        let reader = ChaosReader::new(wire.clone(), seed);
        let mut frames = FrameReader::new(std::io::BufReader::with_capacity(8, reader));
        let mut got = Vec::new();
        while let Some(frame) = frames
            .read_frame(DEFAULT_MAX_FRAME_BYTES)
            .expect("chunked frames must reassemble")
        {
            got.push(frame);
        }
        assert_eq!(got, docs, "seed {seed}: frames corrupted by chunking");
    }
}

#[test]
fn torn_final_frame_is_an_error_not_a_panic() {
    let mut wire = Vec::new();
    write_json_line(&mut wire, &solve_request(1.0)).expect("write frame");
    // Tear the final frame: drop the last 9 bytes (newline included).
    wire.truncate(wire.len() - 9);
    let reader = ChaosReader::new(wire, 99);
    let mut frames = FrameReader::new(std::io::BufReader::with_capacity(8, reader));
    let err = loop {
        match frames.read_frame(DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(_)) => panic!("torn frame must not parse"),
            Ok(None) => panic!("torn frame must not read as clean EOF"),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => break e,
        }
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    // The transport answers a torn frame with a typed outcome.
    let response = error_response(None, "request", &err.to_string());
    assert_well_formed(&response);
}

// ---------------------------------------------------------------------------
// Fault class 2: stalled reads (peer goes quiet mid-frame).
// ---------------------------------------------------------------------------

/// Delivers a prefix of one frame, then times out forever — a stalled
/// peer behind a socket read deadline.
struct StalledReader {
    prefix: Vec<u8>,
    pos: usize,
}

impl Read for StalledReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.prefix.len() {
            let n = (self.prefix.len() - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        } else {
            Err(std::io::ErrorKind::WouldBlock.into())
        }
    }
}

#[test]
fn stalled_read_is_detectable_and_preserves_the_partial_frame() {
    let mut wire = Vec::new();
    write_json_line(&mut wire, &solve_request(5.0)).expect("write frame");
    let cut = wire.len() / 2;
    let reader = StalledReader {
        prefix: wire[..cut].to_vec(),
        pos: 0,
    };
    let mut frames = FrameReader::new(std::io::BufReader::new(reader));
    // Every poll times out; the partial frame stays buffered, which is
    // exactly the signal the reaper keys on (`buffered() > 0` plus an
    // exceeded idle deadline = stalled mid-frame).
    for _ in 0..5 {
        let err = frames
            .read_frame(DEFAULT_MAX_FRAME_BYTES)
            .expect_err("stalled read must surface the timeout");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(frames.buffered(), cut, "partial frame must survive polls");
    }
}

// ---------------------------------------------------------------------------
// Fault classes 3 + 4: injected worker panics and forced build failures,
// driven through the full queue + worker pool + engine pipeline.
// ---------------------------------------------------------------------------

struct PipelineOutcome {
    responses: Vec<(f64, Json)>,
    state: Arc<ServeState>,
    plan: Arc<FaultPlan>,
    pool_respawns: u64,
}

/// Runs `total` solve/ping requests through a bounded queue and a
/// [`WorkerPool`] against a chaos-injected [`ServeState`], collecting
/// every response tagged by request id.
fn run_chaos_pipeline(seed: u64, total: usize, workers: usize) -> PipelineOutcome {
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_worker_panics(0.25)
            .with_build_failures(0.5)
            .with_budget(total as u64 / 2),
    );
    let state = Arc::new(ServeState::new(ServeOptions {
        fault_plan: Some(Arc::clone(&plan)),
        breaker_threshold: 3,
        breaker_cooldown: Duration::from_millis(10),
        ..quick_options()
    }));
    let queue: Arc<RequestQueue<Json>> = Arc::new(RequestQueue::new(total));
    let responses: Arc<Mutex<Vec<(f64, Json)>>> = Arc::new(Mutex::new(Vec::new()));
    let mut pool = {
        let state = Arc::clone(&state);
        let responses = Arc::clone(&responses);
        WorkerPool::new(workers, Arc::clone(&queue), move |request: Json| {
            let id = request
                .get("id")
                .and_then(Json::as_num)
                .expect("test requests carry numeric ids");
            let response = state.handle_request(&request);
            responses
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push((id, response));
        })
    };
    for i in 0..total {
        let request = if i % 3 == 2 {
            Json::obj([("cmd", Json::str("ping")), ("id", Json::num(i as f64))])
        } else {
            solve_request(i as f64)
        };
        // The queue is sized for the whole batch; every request is
        // accepted, so every request must get exactly one response.
        queue
            .push(request)
            .unwrap_or_else(|_| panic!("admission failed"));
    }
    // Maintain the pool while the batch drains; handle_request confines
    // panics, so respawns here would mean a panic escaped the engine.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        pool.maintain();
        let done = responses.lock().unwrap_or_else(|p| p.into_inner()).len();
        if done == total || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    queue.close();
    let pool_respawns = pool.respawned();
    pool.join();
    let collected = match Arc::try_unwrap(responses) {
        Ok(mutex) => mutex.into_inner().unwrap_or_else(|p| p.into_inner()),
        Err(arc) => arc.lock().unwrap_or_else(|p| p.into_inner()).clone(),
    };
    PipelineOutcome {
        responses: collected,
        state,
        plan,
        pool_respawns,
    }
}

#[test]
fn chaos_pipeline_answers_every_request_exactly_once() {
    with_quiet_panics(|| {
        let total = 60;
        let outcome = run_chaos_pipeline(0xC4A05, total, 4);
        assert_eq!(
            outcome.responses.len(),
            total,
            "every accepted request answers exactly once"
        );
        let mut seen = vec![0usize; total];
        for (id, response) in &outcome.responses {
            assert_well_formed(response);
            seen[*id as usize] += 1;
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "duplicate or missing responses: {seen:?}"
        );
        // The chaos actually happened: panics were confined to typed
        // outcomes (no pool respawns — nothing escaped the engine).
        assert!(outcome.plan.injected_panics() > 0, "no panics injected");
        assert!(
            outcome.plan.injected_build_failures() > 0,
            "no build failures injected"
        );
        assert_eq!(
            outcome.state.panics_caught(),
            outcome.plan.injected_panics()
        );
        assert_eq!(
            outcome.pool_respawns, 0,
            "engine must confine panics before the pool sees them"
        );
        let panic_responses = outcome
            .responses
            .iter()
            .filter(|(_, r)| {
                r.get("outcome")
                    .and_then(|o| o.get("status"))
                    .and_then(Json::as_str)
                    == Some("panic")
            })
            .count() as u64;
        assert_eq!(panic_responses, outcome.plan.injected_panics());
    });
}

#[test]
fn chaos_pipeline_replays_identically_from_one_seed() {
    with_quiet_panics(|| {
        let digest = |outcome: &PipelineOutcome| -> Vec<(u64, String)> {
            let mut d: Vec<(u64, String)> = outcome
                .responses
                .iter()
                .map(|(id, r)| {
                    let status = r
                        .get("outcome")
                        .and_then(|o| o.get("status"))
                        .and_then(Json::as_str)
                        .unwrap_or("?")
                        .to_owned();
                    (*id as u64, status)
                })
                .collect();
            d.sort();
            d
        };
        // Single-worker pipelines consume the fault stream in request
        // order, so one seed must replay the exact same fault schedule.
        let a = run_chaos_pipeline(7, 24, 1);
        let b = run_chaos_pipeline(7, 24, 1);
        assert_eq!(a.plan.injected_panics(), b.plan.injected_panics());
        assert_eq!(
            a.plan.injected_build_failures(),
            b.plan.injected_build_failures()
        );
        assert_eq!(digest(&a), digest(&b), "same seed must replay identically");
    });
}

#[test]
fn warm_responses_stay_byte_identical_after_chaos() {
    with_quiet_panics(|| {
        // A pristine server's cold response is the reference.
        let pristine = ServeState::new(quick_options());
        let reference = pristine
            .handle_request(&solve_request(999.0))
            .to_compact_string();

        // A chaos-battered server: injected panics and build failures,
        // breaker trips, then the fault budget runs dry.
        let plan = Arc::new(
            FaultPlan::new(31)
                .with_worker_panics(0.5)
                .with_build_failures(0.5)
                .with_budget(10),
        );
        let battered = ServeState::new(ServeOptions {
            fault_plan: Some(plan),
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(5),
            ..quick_options()
        });
        for i in 0..30 {
            let response = battered.handle_request(&solve_request(f64::from(i)));
            assert_well_formed(&response);
            if battered.breaker_stats().open_now > 0 {
                std::thread::sleep(Duration::from_millis(6)); // let the breaker half-open
            }
        }
        // Post-chaos: the battered server's warm responses must be
        // byte-identical to the pristine cold reference.
        let warm_a = battered
            .handle_request(&solve_request(999.0))
            .to_compact_string();
        let warm_b = battered
            .handle_request(&solve_request(999.0))
            .to_compact_string();
        assert_eq!(warm_a, reference, "chaos must not change response bytes");
        assert_eq!(warm_b, reference, "warm hit must not change response bytes");
    });
}

// ---------------------------------------------------------------------------
// Protocol fuzz corpus: seeded malformed NDJSON.
// ---------------------------------------------------------------------------

/// Generates one malformed (or adversarial) request line per corpus
/// class, parameterized by a seeded RNG so the corpus grows with draws.
fn fuzz_line(rng: &mut SplitMix64) -> Vec<u8> {
    let class = rng.next_below(8);
    match class {
        // Truncated JSON document.
        0 => b"{\"cmd\":\"solve\",\"config\":\"benchma".to_vec(),
        // Non-object top level.
        1 => format!("[1,2,{}]", rng.next_below(100)).into_bytes(),
        // Unknown op.
        2 => format!("{{\"cmd\":\"frobnicate-{}\"}}", rng.next_below(1000)).into_bytes(),
        // Wrong-typed fields.
        3 => b"{\"cmd\":42,\"config\":true,\"deadline\":\"soon\"}".to_vec(),
        4 => b"{\"cmd\":\"solve\",\"config\":[],\"id\":{}}".to_vec(),
        // Embedded NUL byte.
        5 => b"{\"cmd\":\"so\x00lve\"}".to_vec(),
        // Invalid UTF-8 in the middle of the line.
        6 => {
            let mut line = b"{\"cmd\":\"".to_vec();
            line.extend_from_slice(&[0xff, 0xfe, 0x80]);
            line.extend_from_slice(b"\"}");
            line
        }
        // Bare garbage.
        _ => format!("!!! not json {} ###", rng.next_u64()).into_bytes(),
    }
}

#[test]
fn protocol_fuzz_always_yields_a_typed_outcome_and_never_panics() {
    let state = ServeState::new(quick_options());
    let mut rng = SplitMix64::new(0xF022);
    for round in 0..200 {
        let mut line = fuzz_line(&mut rng);
        line.push(b'\n');
        let mut frames = FrameReader::new(std::io::BufReader::new(line.as_slice()));
        // Transport layer: a parsed frame goes to the engine; a framing
        // error gets the one-shot error response. Either way the client
        // sees exactly one well-formed outcome block.
        let response = match frames.read_frame(DEFAULT_MAX_FRAME_BYTES) {
            Ok(Some(request)) => state.handle_request(&request),
            Ok(None) => panic!("round {round}: fuzz line read as empty"),
            Err(e) => error_response(None, "request", &e.to_string()),
        };
        assert_well_formed(&response);
        let status = response
            .get("outcome")
            .and_then(|o| o.get("status"))
            .and_then(Json::as_str);
        assert_eq!(
            status,
            Some("error"),
            "round {round}: fuzz must not succeed"
        );
    }
    // The engine also never panics on structurally-valid-but-bizarre
    // documents thrown straight at it (no framing layer).
    let weird = [
        Json::Null,
        Json::num(7.0),
        Json::Arr(vec![Json::Bool(true)]),
        Json::obj([("deadline", Json::num(-1.0))]),
        Json::obj([("cmd", Json::str("simulate")), ("config", Json::num(0.0))]),
    ];
    for doc in &weird {
        assert_well_formed(&state.handle_request(doc));
    }
}

// ---------------------------------------------------------------------------
// Oversized frames through the serve admission path.
// ---------------------------------------------------------------------------

#[test]
fn oversized_frame_is_rejected_with_a_frame_stage_outcome() {
    let cap = 4096;
    let doc = Json::obj([
        ("cmd", Json::str("solve")),
        ("config", Json::str("x".repeat(2 * cap))),
    ]);
    let mut wire = Vec::new();
    write_json_line(&mut wire, &doc).expect("write frame");
    let mut frames = FrameReader::new(std::io::BufReader::new(wire.as_slice()));
    let err = frames
        .read_frame(cap)
        .expect_err("over-cap frame must be rejected");
    let typed = pi3d_telemetry::json::frame_too_large(&err).expect("typed oversized-frame error");
    assert_eq!(typed.limit, cap);
    let response = error_response(None, "frame", &err.to_string());
    assert_well_formed(&response);
    assert_eq!(
        response
            .get("outcome")
            .and_then(|o| o.get("stage"))
            .and_then(Json::as_str),
        Some("frame")
    );
}

// ---------------------------------------------------------------------------
// Partial writes: the response writer retries short writes to a flaky sink.
// ---------------------------------------------------------------------------

/// A writer that accepts at most a few bytes per call and injects
/// `Interrupted` errors — `write_all`'s contract must still deliver the
/// whole frame.
struct ChoppyWriter {
    sink: Vec<u8>,
    rng: SplitMix64,
    calls: AtomicU64,
}

impl std::io::Write for ChoppyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.rng.chance(0.3) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = (1 + self.rng.next_below(3) as usize).min(buf.len());
        self.sink.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn partial_writes_still_deliver_whole_frames() {
    let state = ServeState::new(quick_options());
    let response = state.handle_request(&Json::obj([("cmd", Json::str("ping"))]));
    let mut writer = ChoppyWriter {
        sink: Vec::new(),
        rng: SplitMix64::new(0xD00D),
        calls: AtomicU64::new(0),
    };
    write_json_line(&mut writer, &response).expect("write_all must absorb short writes");
    assert!(
        writer.calls.load(Ordering::Relaxed) > 10,
        "the chop actually happened"
    );
    let mut frames = FrameReader::new(std::io::BufReader::new(writer.sink.as_slice()));
    let back = frames
        .read_frame(DEFAULT_MAX_FRAME_BYTES)
        .expect("reassemble")
        .expect("one frame");
    assert_eq!(back, response, "choppy transport must not corrupt frames");
}
