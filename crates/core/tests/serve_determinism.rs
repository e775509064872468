//! Serve-cache determinism: the daemon's core guarantee is that a
//! response is byte-identical whether it was served from a cold build, a
//! warm cache hit, or concurrently from many client threads — the same
//! bar `--resume` holds for journaled sweeps.

use pi3d_core::serve::{ServeOptions, ServeState};
use pi3d_mesh::MeshOptions;
use pi3d_telemetry::Json;
use std::sync::Arc;

const QUICK_CFG: &str = "benchmark = ddr3-off\n";

fn quick_state(cache_bytes: usize) -> ServeState {
    ServeState::new(ServeOptions {
        mesh: MeshOptions::coarse().with_grid(8),
        cache_bytes,
        ..ServeOptions::default()
    })
}

fn solve_request(cfg: &str, state: &str) -> Json {
    Json::obj([
        ("cmd", Json::str("solve")),
        ("config", Json::str(cfg)),
        ("state", Json::str(state)),
    ])
}

#[test]
fn cold_warm_and_concurrent_solves_are_byte_identical() {
    let server = Arc::new(quick_state(usize::MAX));
    let request = solve_request(QUICK_CFG, "0-0-0-2");

    // Cold: first request builds the mesh.
    let cold = server.handle_request(&request).to_compact_string();
    assert_eq!(server.cache_stats().misses, 1);

    // Warm: second request hits the cache.
    let warm = server.handle_request(&request).to_compact_string();
    assert_eq!(server.cache_stats().hits, 1);
    assert_eq!(cold, warm, "cache hit must not change response bytes");

    // Concurrent: 8 client threads, 4 requests each, against a fresh
    // server so the very first builds race through the single-flight
    // latch. Every response must equal the cold baseline.
    let fresh = Arc::new(quick_state(usize::MAX));
    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let fresh = Arc::clone(&fresh);
                let request = request.clone();
                scope.spawn(move || {
                    (0..4)
                        .map(|_| fresh.handle_request(&request).to_compact_string())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(responses.len(), 32);
    for response in &responses {
        assert_eq!(response, &cold, "concurrent response diverged");
    }
    // Single-flight: 32 racing requests build the design exactly once.
    let stats = fresh.cache_stats();
    assert_eq!(stats.misses, 1, "racing threads must share one build");
    assert_eq!(stats.hits, 31);
}

#[test]
fn simulate_responses_are_identical_cold_and_warm() {
    let server = quick_state(usize::MAX);
    let request = Json::obj([
        ("cmd", Json::str("simulate")),
        ("config", Json::str(QUICK_CFG)),
        ("policy", Json::str("distr")),
        ("reads", Json::num(200.0)),
    ]);
    let cold = server.handle_request(&request).to_compact_string();
    let warm = server.handle_request(&request).to_compact_string();
    assert_eq!(cold, warm);
    assert!(cold.contains("\"bandwidth_reads_per_clk\""), "{cold}");
    // Cold pass misses twice (design + LUT); warm pass hits twice.
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 2);
}

#[test]
fn eviction_under_tiny_budget_preserves_responses() {
    let tiny = quick_state(1);
    let roomy = quick_state(usize::MAX);
    let configs = [
        "benchmark = ddr3-off\n",
        "benchmark = ddr3-off\ntsv_count = 60\n",
        "benchmark = ddr3-off\ntsv_count = 72\n",
    ];
    for round in 0..2 {
        for cfg in configs {
            let request = solve_request(cfg, "0-0-0-1");
            let a = tiny.handle_request(&request).to_compact_string();
            let b = roomy.handle_request(&request).to_compact_string();
            assert_eq!(a, b, "round {round}: evicting cache changed bytes");
        }
    }
    let tiny_stats = tiny.cache_stats();
    assert_eq!(tiny_stats.entries, 1, "1-byte budget keeps only the newest");
    assert_eq!(
        tiny_stats.misses, 6,
        "every request rebuilds under eviction"
    );
    assert_eq!(tiny_stats.evictions, 5);
    let roomy_stats = roomy.cache_stats();
    assert_eq!(roomy_stats.misses, 3, "roomy cache builds each design once");
    assert_eq!(roomy_stats.hits, 3);
}
