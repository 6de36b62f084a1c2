//! End-to-end service tests over localhost TCP (ephemeral ports).

use nomad_serve::proto::{JobSpec, Response};
use nomad_serve::{serve, Client, ServerConfig};
use nomad_sim::runner::{self, Cell};
use nomad_sim::{SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;
use std::time::Duration;

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled(2);
    cfg.dc_capacity = 8 * 1024 * 1024;
    cfg
}

fn job(spec: SchemeSpec, workload: WorkloadProfile, seed: u64) -> JobSpec {
    JobSpec {
        cfg: small_cfg(),
        spec,
        profile: workload,
        instructions: 8_000,
        warmup: 1_000,
        seed,
    }
}

fn test_server(workers: usize, queue_capacity: usize) -> nomad_serve::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        job_timeout: Duration::from_secs(60),
        retry_budget: 2,
        cache_dir: None,
        overload: Default::default(),
    })
    .expect("bind ephemeral port")
}

/// The headline acceptance test: four concurrent clients each submit
/// the same cell twice. Exactly one simulation runs; every other
/// submission is served from the cache or coalesced (verified via the
/// `/stats` hit counter), and the returned report is byte-identical to
/// an in-process `run_one`.
#[test]
fn concurrent_identical_submissions_run_once_and_match_in_process() {
    let handle = test_server(2, 32);
    let addr = handle.local_addr();
    let spec = job(SchemeSpec::Nomad, WorkloadProfile::tc(), 7);

    let jsons: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut out = Vec::new();
                    for _ in 0..2 {
                        match client.submit(&spec).expect("submit") {
                            Response::Report { report, .. } => out.push(report.to_json()),
                            other => panic!("expected report, got {other:?}"),
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Byte-identical to running the same job in-process.
    let local = spec.run_local().to_json();
    assert_eq!(jsons.len(), 8);
    for j in &jsons {
        assert_eq!(j, &local, "served report must be byte-identical");
    }

    // Exactly one execution; the other seven submissions hit.
    let mut client = Client::connect(addr).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_submitted, 8);
    assert_eq!(stats.cache_misses, 1, "only the first submission runs");
    assert_eq!(stats.cache_hits, 7, "stats: {stats:?}");
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.worker_utilization.len(), 2);

    // The registry-backed rows agree with the convenience fields and
    // use the documented `serve.*` names.
    assert_eq!(stats.counter("serve.jobs.submitted"), Some(8));
    assert_eq!(stats.counter("serve.jobs.completed"), Some(1));
    assert_eq!(stats.counter("serve.cache.hits"), Some(7));
    assert_eq!(stats.counter("serve.cache.misses"), Some(1));
    assert_eq!(stats.counter("serve.cache.entries"), Some(1));
    assert!(
        stats.counter("serve.job.latency_ms.count").is_some(),
        "histogram rows expand into .count/.p50/.p99"
    );

    // The executed job left a span exportable as a Chrome trace.
    let trace = handle.trace_json();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"name\":\"job\""));
    handle.shutdown();
}

/// A job that panics inside the simulator is retried up to the budget,
/// reported as `Failed`, and must not take the service down.
#[test]
fn panicking_job_fails_cleanly_and_service_survives() {
    let handle = test_server(1, 8);
    let addr = handle.local_addr();

    // An inconsistent profile: `derive()` asserts on it inside
    // `run_one`, on the worker's attempt thread.
    let mut poisoned = job(SchemeSpec::Nomad, WorkloadProfile::tc(), 1);
    poisoned.profile.spatial_run = 1_000_000;

    let mut client = Client::connect(addr).expect("connect");
    match client.submit(&poisoned).expect("submit") {
        Response::Failed { error, attempts } => {
            assert_eq!(attempts, 3, "1 attempt + 2 retries");
            assert!(error.contains("panicked"), "{error}");
        }
        other => panic!("expected Failed, got {other:?}"),
    }

    // Failures are not cached: submitting again re-runs (and fails
    // again), rather than replaying a cached failure.
    match client.submit(&poisoned).expect("second submit") {
        Response::Failed { attempts, .. } => assert_eq!(attempts, 3),
        other => panic!("expected Failed, got {other:?}"),
    }

    // The service is still healthy for other work.
    client.ping().expect("ping after failures");
    let healthy = job(SchemeSpec::Baseline, WorkloadProfile::tc(), 1);
    match client.submit(&healthy).expect("healthy submit") {
        Response::Report { cached, report } => {
            assert!(!cached);
            assert!(report.cycles > 0);
        }
        other => panic!("expected report, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.jobs_failed, 2);
    assert_eq!(stats.jobs_completed, 1);
    handle.shutdown();
}

/// With no workers draining, the queue fills and further submissions
/// are rejected with a retry hint; shutdown answers the stuck jobs.
#[test]
fn full_queue_rejects_with_backpressure() {
    let handle = test_server(0, 2);
    let addr = handle.local_addr();

    // Two distinct jobs occupy the whole queue (no workers run them);
    // their submitters block awaiting results.
    let blocked: Vec<_> = (0..2)
        .map(|i| {
            let j = job(SchemeSpec::Baseline, WorkloadProfile::tc(), 100 + i);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.submit(&j).expect("submit")
            })
        })
        .collect();

    // Wait until both jobs are queued.
    let mut client = Client::connect(addr).expect("connect");
    loop {
        let stats = client.stats().expect("stats");
        if stats.queue_depth == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // A third distinct job must be rejected, with a backoff hint.
    let extra = job(SchemeSpec::Baseline, WorkloadProfile::tc(), 999);
    match client.submit(&extra).expect("submit") {
        Response::Overloaded { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(client.stats().expect("stats").jobs_rejected, 1);

    // Shutdown fails the queued jobs instead of leaving their
    // submitters hanging.
    handle.shutdown();
    for h in blocked {
        match h.join().expect("blocked client thread") {
            Response::Failed { error, attempts } => {
                assert_eq!(attempts, 0, "job never started");
                assert!(error.contains("shutting down"), "{error}");
            }
            other => panic!("expected Failed on shutdown, got {other:?}"),
        }
    }
}

/// `run_grid_via` is a drop-in for the in-process `run_grid`: same
/// reports, same (input) order.
#[test]
fn grid_via_service_matches_in_process_grid() {
    let handle = test_server(3, 32);
    let addr = handle.local_addr().to_string();

    let cells: Vec<Cell> = [SchemeSpec::Baseline, SchemeSpec::Tid, SchemeSpec::Nomad]
        .into_iter()
        .flat_map(|spec| {
            [WorkloadProfile::tc(), WorkloadProfile::mcf()]
                .into_iter()
                .map(move |profile| Cell {
                    cfg: small_cfg(),
                    spec: spec.clone(),
                    profile,
                    instructions: 6_000,
                    warmup: 500,
                    seed: 11,
                })
        })
        .collect();

    let local = runner::run_grid(cells.clone());
    let served = nomad_serve::run_grid_via(&addr, cells).expect("grid via service");

    assert_eq!(local.len(), served.len());
    for (l, s) in local.iter().zip(&served) {
        assert_eq!(l.workload, s.workload);
        assert_eq!(l.scheme, s.scheme);
        assert_eq!(l.to_json(), s.to_json(), "reports must be byte-identical");
    }
    handle.shutdown();
}

/// Run `f` on its own thread; fail the test if it has not returned
/// within `limit` (a hung shutdown fails instead of hanging the suite).
fn returns_within(limit: Duration, what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    if rx.recv_timeout(limit).is_err() {
        panic!("{what} did not return within {limit:?}");
    }
    worker.join().expect("shutdown thread");
}

/// The accept loop blocks in `accept`; shutdown must wake it at once
/// whichever way it arrives: through the handle, through a client
/// `Shutdown` request, and on a server bound to an unspecified
/// address (woken through loopback). After a handle shutdown the port
/// accepts no more work.
#[test]
fn shutdown_returns_promptly_both_ways() {
    let prompt = Duration::from_secs(2);

    let handle = test_server(1, 4);
    let addr = handle.local_addr();
    returns_within(prompt, "handle shutdown", move || handle.shutdown());
    assert!(
        Client::connect(addr).and_then(|mut c| c.ping()).is_err(),
        "a shut-down server must not serve new connections"
    );

    let handle = test_server(1, 4);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.ping().expect("ping");
    client.shutdown_server().expect("ShuttingDown");
    returns_within(prompt, "client shutdown", move || handle.join());

    let handle = serve(ServerConfig {
        addr: "0.0.0.0:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind unspecified address");
    returns_within(prompt, "wildcard shutdown", move || handle.shutdown());
}
