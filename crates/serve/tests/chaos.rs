//! Chaos suite: seeded fault injection against a live server, holding
//! the ISSUE's acceptance bar — under a fixed `NOMAD_FAULTS` seed the
//! sweep either fails identically or **recovers to byte-identical
//! results**, and with no plan installed nothing is ever injected.
//!
//! Fault plans are process-global (`nomad_faults::install`), so every
//! test runs under one mutex and clears the plan before returning.

use nomad_serve::proto::JobSpec;
use nomad_serve::{run_grid_via_jobs_with, serve, ClientConfig, ServerConfig};
use nomad_sim::runner::{self, Cell};
use nomad_sim::{SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;
use nomad_types::CancelToken;
use std::sync::Mutex;
use std::time::Duration;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Install `plan`, run `f`, and always clear the plan afterwards —
/// even when `f` panics, so one failing test cannot leak chaos into
/// the next.
fn with_plan<Ret>(plan: Option<&str>, f: impl FnOnce() -> Ret) -> Ret {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    nomad_faults::install(plan.map(|s| nomad_faults::FaultPlan::parse(s).expect("valid plan")));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    nomad_faults::install(None);
    match out {
        Ok(ret) => ret,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn small_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::scaled(2);
    cfg.dc_capacity = 8 * 1024 * 1024;
    cfg
}

fn grid(seeds: &[u64]) -> Vec<Cell> {
    seeds
        .iter()
        .map(|&seed| Cell {
            cfg: small_cfg(),
            spec: SchemeSpec::Nomad,
            profile: WorkloadProfile::tc(),
            instructions: 6_000,
            warmup: 1_000,
            seed,
        })
        .collect()
}

/// The in-process oracle: what every recovered run must match
/// byte-for-byte.
fn expected_jsons(cells: &[Cell]) -> Vec<String> {
    cells
        .iter()
        .map(|c| {
            runner::run_one(
                &c.cfg,
                &c.spec,
                &c.profile,
                c.instructions,
                c.warmup,
                c.seed,
            )
            .to_json()
        })
        .collect()
}

fn test_server(cache_dir: Option<std::path::PathBuf>) -> nomad_serve::ServerHandle {
    serve(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 32,
        job_timeout: Duration::from_secs(60),
        retry_budget: 2,
        cache_dir,
        overload: Default::default(),
    })
    .expect("bind ephemeral port")
}

/// Fast recovery budgets so injected failures cost milliseconds, not
/// the production backoff schedule.
fn fast_cfg() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        io_timeout: Some(Duration::from_millis(10_000)),
        reconnect_attempts: 16,
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(20),
    }
}

/// A scratch directory under the system temp dir, unique per call.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "nomad-chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn no_plan_injects_nothing() {
    with_plan(None, || {
        let cells = grid(&[1, 2]);
        let expected = expected_jsons(&cells);
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let before = nomad_faults::injected_total();
        let reports = run_grid_via_jobs_with(&addr, cells, 2, &CancelToken::new(), &fast_cfg())
            .expect("clean grid");
        handle.shutdown();
        assert_eq!(nomad_faults::injected_total(), before, "no injections");
        let got: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        assert_eq!(got, expected);
    });
}

/// Mid-frame connection drops on both protocol directions: the client
/// reconnects and resubmits (idempotent, content-addressed), and the
/// grid completes byte-identical to the in-process oracle — at one and
/// at four client connections.
#[test]
fn mid_frame_drops_recover_byte_identical() {
    let cells = grid(&[10, 11, 12, 13]);
    let expected = expected_jsons(&cells);
    for jobs in [1usize, 4] {
        let got = with_plan(
            Some("42:serve.proto.write_frame=torn@0.2,serve.proto.read_frame=io@0.1"),
            || {
                let handle = test_server(None);
                let addr = handle.local_addr().to_string();
                let reports = run_grid_via_jobs_with(
                    &addr,
                    cells.clone(),
                    jobs,
                    &CancelToken::new(),
                    &fast_cfg(),
                )
                .expect("grid recovers");
                handle.shutdown();
                reports.iter().map(|r| r.to_json()).collect::<Vec<_>>()
            },
        );
        assert_eq!(got, expected, "jobs={jobs} must recover byte-identical");
        assert!(
            nomad_faults::injected_total() > 0,
            "the plan must actually have fired"
        );
    }
}

/// Worker attempts that always panic exhaust the server's retry budget
/// and come back `Failed`; the client's one local retry still delivers
/// the correct rows.
#[test]
fn worker_panics_past_budget_fall_back_locally() {
    with_plan(Some("7:serve.worker.execute=panic"), || {
        let cells = grid(&[20, 21]);
        let expected = expected_jsons(&cells);
        let before = nomad_obs::resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.local_fallbacks")
            .expect("counter registered")
            .1;
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let reports = run_grid_via_jobs_with(&addr, cells, 2, &CancelToken::new(), &fast_cfg())
            .expect("local fallback saves the grid");
        handle.shutdown();
        let got: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        assert_eq!(got, expected);
        let after = nomad_obs::resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.local_fallbacks")
            .expect("counter registered")
            .1;
        assert!(after >= before + 2, "both cells ran locally");
    });
}

/// A crash mid-spill leaves a torn `.json` in the cache directory; the
/// next server start must skip it (not crash, not serve garbage) and
/// re-run the job on resubmission.
#[test]
fn torn_cache_spill_is_skipped_on_reload() {
    let dir = scratch_dir("torn-spill");
    let cells = grid(&[30]);
    let expected = expected_jsons(&cells);
    let job = JobSpec::from_cell(&cells[0]);

    with_plan(Some("9:serve.cache.spill=torn"), || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        match client.submit(&job).expect("submit") {
            nomad_serve::proto::Response::Report { report, .. } => {
                assert_eq!(report.to_json(), expected[0]);
            }
            other => panic!("expected report, got {other:?}"),
        }
        handle.shutdown();
    });
    // The spill was torn: whatever is on disk must not round-trip.
    let spilled: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .collect();
    assert!(!spilled.is_empty(), "torn spill still writes a file");

    with_plan(None, || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        match client.submit(&job).expect("submit") {
            nomad_serve::proto::Response::Report { cached, report } => {
                assert!(!cached, "torn entry must not be reloaded as a hit");
                assert_eq!(report.to_json(), expected[0], "re-run is byte-identical");
            }
            other => panic!("expected report, got {other:?}"),
        }
        handle.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Injected reload failures make a *good* spill file invisible; the
/// server starts clean and still answers correctly.
#[test]
fn injected_reload_failure_degrades_to_rerun() {
    let dir = scratch_dir("reload");
    let cells = grid(&[40]);
    let expected = expected_jsons(&cells);
    let job = JobSpec::from_cell(&cells[0]);

    with_plan(None, || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        client.submit(&job).expect("seed the spill");
        handle.shutdown();
    });

    with_plan(Some("5:serve.cache.reload=io"), || {
        let handle = test_server(Some(dir.clone()));
        let addr = handle.local_addr().to_string();
        let mut client = nomad_serve::Client::connect(&*addr).expect("connect");
        match client.submit(&job).expect("submit") {
            nomad_serve::proto::Response::Report { cached, report } => {
                assert!(!cached, "reload was skipped, so this is a fresh run");
                assert_eq!(report.to_json(), expected[0]);
            }
            other => panic!("expected report, got {other:?}"),
        }
        handle.shutdown();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Nothing listening at the address: the grid pays one reconnect
/// budget, degrades, and every cell still comes back byte-identical
/// from local execution.
#[test]
fn dead_server_degrades_to_local_execution() {
    with_plan(None, || {
        // Bind-then-drop guarantees the port is currently closed.
        let dead_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let cells = grid(&[50, 51, 52]);
        let expected = expected_jsons(&cells);
        let cfg = ClientConfig {
            connect_timeout: Duration::from_millis(100),
            reconnect_attempts: 1,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            ..ClientConfig::default()
        };
        let reports = run_grid_via_jobs_with(&dead_addr, cells, 2, &CancelToken::new(), &cfg)
            .expect("degraded grid still completes");
        let got: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        assert_eq!(got, expected);
        let fallbacks = nomad_obs::resilience()
            .rows()
            .into_iter()
            .find(|(n, _)| n == "resilience.local_fallbacks")
            .expect("counter registered")
            .1;
        assert!(fallbacks >= 3, "all three cells fell back locally");
    });
}

// ---------------------------------------------------------------------------
// Fleet chaos matrix: the same oracle — byte-identical recovery under a
// seeded plan — with the grid sharded across several nodes by the
// nomad-fleet router.
// ---------------------------------------------------------------------------

/// A pool of live test nodes plus their addresses.
fn test_fleet(n: usize) -> (Vec<nomad_serve::ServerHandle>, Vec<String>) {
    let handles: Vec<_> = (0..n).map(|_| test_server(None)).collect();
    let addrs = handles.iter().map(|h| h.local_addr().to_string()).collect();
    (handles, addrs)
}

/// Fast fleet budgets: the chaos ladder from [`fast_cfg`] per node,
/// plus a tight heartbeat so failover detection costs milliseconds.
fn fast_fleet_cfg() -> nomad_fleet::FleetConfig {
    nomad_fleet::FleetConfig {
        client: fast_cfg(),
        heartbeat_interval: Duration::from_millis(5),
        heartbeat_misses: 1,
        ..nomad_fleet::FleetConfig::default()
    }
}

fn fleet_metric(name: &str) -> u64 {
    nomad_obs::fleet()
        .value(name)
        .expect("fleet metric registered")
}

/// The ring owner of each cell under an all-alive fleet of `n` nodes —
/// placement is a pure function of stable slot labels, so tests can
/// assert which node owns what before ever starting a server.
fn owners(cells: &[Cell], n: usize) -> Vec<usize> {
    let slots: Vec<usize> = (0..n).collect();
    let ring = nomad_fleet::HashRing::new(&slots, nomad_fleet::FleetConfig::default().vnodes);
    cells
        .iter()
        .map(|c| {
            ring.route(JobSpec::from_cell(c).content_key())
                .expect("route")
        })
        .collect()
}

/// A node dead before the sweep even starts: the router's per-node
/// ladder declares it dead, its arc reassigns to the survivors, and
/// the grid completes byte-identical — with the failover observable.
#[test]
fn fleet_dead_node_arc_reassigned() {
    with_plan(None, || {
        let cells = grid(&[60, 100, 110, 130, 150, 40]);
        let expected = expected_jsons(&cells);
        // Deterministic placement guard: the node we kill must own at
        // least one cell, or the test would prove nothing.
        assert!(
            owners(&cells, 3).contains(&1),
            "seed choice: node 1 must own part of this grid"
        );
        let (mut handles, addrs) = test_fleet(3);
        handles.remove(1).shutdown();
        let failovers_before = fleet_metric("fleet.failovers");
        let cfg = nomad_fleet::FleetConfig {
            client: ClientConfig {
                reconnect_attempts: 2,
                ..fast_cfg()
            },
            ..fast_fleet_cfg()
        };
        let reports =
            nomad_fleet::run_grid_via_fleet_with(&addrs, cells, 3, &CancelToken::new(), cfg)
                .expect("failover saves the grid");
        let got: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        assert_eq!(got, expected, "failover must be byte-identical");
        assert!(
            fleet_metric("fleet.failovers") > failovers_before,
            "the dead node's arc was reassigned exactly through mark_dead"
        );
        for h in handles {
            h.shutdown();
        }
    });
}

/// The ladder, not the heartbeat, declares a worker's *home* node
/// dead: the worker popped the cell from that node's queue, and
/// failover drains the same queue. The pop must have released the
/// queue's lock by then, or the worker deadlocks and the grid never
/// finishes. A heartbeat too slow to fire leaves the ladder as the only
/// detector, and one router worker makes the dead node 0 its home.
#[test]
fn fleet_ladder_fails_over_the_home_node() {
    with_plan(None, || {
        let cells = grid(&[60, 100, 110, 130, 150, 40]);
        assert!(
            owners(&cells, 2).contains(&0),
            "seed choice: node 0 must own part of this grid"
        );
        let expected = expected_jsons(&cells);
        // Bind-then-drop guarantees the port is currently closed.
        let dead_addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        };
        let live = test_server(None);
        let addrs = vec![dead_addr, live.local_addr().to_string()];
        let cfg = nomad_fleet::FleetConfig {
            client: ClientConfig {
                reconnect_attempts: 1,
                ..fast_cfg()
            },
            heartbeat_interval: Duration::from_secs(3600),
            ..fast_fleet_cfg()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let router = std::thread::spawn(move || {
            let out =
                nomad_fleet::run_grid_via_fleet_with(&addrs, cells, 1, &CancelToken::new(), cfg);
            let _ = tx.send(out);
        });
        let reports = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("router deadlocked failing over its home node")
            .expect("failover saves the grid");
        router.join().expect("router thread");
        let got: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        assert_eq!(got, expected, "failover must be byte-identical");
        live.shutdown();
    });
}

/// A node killed *mid-sweep* (after it completed at least one job):
/// heartbeats and the ladder race to declare it dead, its remaining
/// cells re-route, and the rows still come back byte-identical.
#[test]
fn fleet_mid_sweep_node_kill_fails_over() {
    with_plan(None, || {
        let cells = grid(&[70, 100, 110, 130, 150, 90, 20, 160]);
        let expected = expected_jsons(&cells);
        assert!(
            owners(&cells, 3).iter().filter(|&&o| o == 1).count() >= 2,
            "seed choice: node 1 must own at least two cells so some are \
             still pending when it dies"
        );
        let (mut handles, addrs) = test_fleet(3);
        let failovers_before = fleet_metric("fleet.failovers");
        let victim = handles.remove(1);
        let victim_stats = victim.stats();
        std::thread::scope(|scope| {
            // Killer: wait for the victim to finish one job, then pull
            // the plug under the rest of the sweep (bounded wait, so a
            // starved victim cannot deadlock the test).
            scope.spawn(move || {
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                while victim_stats.completed.get() == 0 && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(2));
                }
                victim.shutdown();
            });
            let reports = nomad_fleet::run_grid_via_fleet_with(
                &addrs,
                cells,
                2,
                &CancelToken::new(),
                fast_fleet_cfg(),
            )
            .expect("mid-sweep failover saves the grid");
            let got: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
            assert_eq!(got, expected, "mid-sweep failover must be byte-identical");
        });
        assert!(
            fleet_metric("fleet.failovers") > failovers_before,
            "killing a node mid-sweep must register a failover"
        );
        for h in handles {
            h.shutdown();
        }
    });
}

/// Torn/failing protocol frames under a two-node fleet: probes error
/// out (treated as cache misses, never as node deaths), submissions
/// ride the reconnect ladder, and the grid recovers byte-identical.
#[test]
fn fleet_torn_probe_frames_recover_byte_identical() {
    let cells = grid(&[80, 81, 50, 51]);
    let expected = expected_jsons(&cells);
    let got = with_plan(
        Some("21:serve.proto.write_frame=torn@0.15,serve.proto.read_frame=io@0.1"),
        || {
            let (handles, addrs) = test_fleet(2);
            let cfg = nomad_fleet::FleetConfig {
                // Keep the heartbeat out of the torn-frame blast radius:
                // this test is about probe/submit recovery, not spurious
                // heartbeat deaths (those are fine, just a different test).
                heartbeat_interval: Duration::from_millis(200),
                heartbeat_misses: 8,
                client: fast_cfg(),
                ..nomad_fleet::FleetConfig::default()
            };
            let reports =
                nomad_fleet::run_grid_via_fleet_with(&addrs, cells, 2, &CancelToken::new(), cfg)
                    .expect("torn frames recover");
            for h in handles {
                h.shutdown();
            }
            reports.iter().map(|r| r.to_json()).collect::<Vec<_>>()
        },
    );
    assert_eq!(
        got, expected,
        "torn fleet frames must recover byte-identical"
    );
    assert!(
        nomad_faults::injected_total() > 0,
        "the plan must have fired"
    );
}

/// Faults at the fleet's own sites — corrupted routing decisions and
/// abandoned steal attempts — are harmless by construction (jobs are
/// content-addressed; any node computes the same bytes), and the rows
/// prove it.
#[test]
fn fleet_route_and_steal_faults_stay_byte_identical() {
    let cells = grid(&[90, 91, 100, 101, 160, 161]);
    let expected = expected_jsons(&cells);
    let got = with_plan(Some("33:fleet.route=io@0.5,fleet.steal=io@0.5"), || {
        let (handles, addrs) = test_fleet(3);
        let reports = nomad_fleet::run_grid_via_fleet_with(
            &addrs,
            cells,
            4,
            &CancelToken::new(),
            fast_fleet_cfg(),
        )
        .expect("fleet-site faults are harmless");
        for h in handles {
            h.shutdown();
        }
        reports.iter().map(|r| r.to_json()).collect::<Vec<_>>()
    });
    assert_eq!(got, expected, "fleet-site faults must not change the rows");
    assert!(
        nomad_faults::injected_total() > 0,
        "the plan must have fired"
    );
}

// ---------------------------------------------------------------------------
// Overload chaos: the `serve.admit` and `fleet.breaker` fault sites —
// forced rejections and forced breaker failures must degrade goodput
// gracefully, never correctness.
// ---------------------------------------------------------------------------

/// Injected admission rejections (`serve.admit=io`) force `Overloaded`
/// answers as if the server were saturated; the client's backpressure
/// retry loop heals them, the grid recovers byte-identical, and every
/// forced rejection is witnessed by `overload.admit_shed`.
#[test]
fn overload_injected_admit_rejections_heal_byte_identical() {
    let cells = grid(&[200, 201, 202]);
    let expected = expected_jsons(&cells);
    let (got, shed_delta) = with_plan(Some("13:serve.admit=io@0.5"), || {
        let before = nomad_obs::overload()
            .value("overload.admit_shed")
            .expect("counter registered");
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let reports = run_grid_via_jobs_with(&addr, cells, 2, &CancelToken::new(), &fast_cfg())
            .expect("backpressure retries heal the grid");
        handle.shutdown();
        let after = nomad_obs::overload()
            .value("overload.admit_shed")
            .expect("counter registered");
        (
            reports.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
            after - before,
        )
    });
    assert_eq!(got, expected, "forced rejections must heal byte-identical");
    assert!(shed_delta > 0, "the plan must actually have rejected work");
}

/// Admission panics (`serve.admit=panic`) kill the connection handler
/// mid-admission; the client sees a dropped connection, rides its
/// reconnect ladder, and the grid still recovers byte-identical.
#[test]
fn overload_admit_panics_heal_byte_identical() {
    let cells = grid(&[210, 211, 212]);
    let expected = expected_jsons(&cells);
    let (got, injected) = with_plan(Some("17:serve.admit=panic@0.6"), || {
        let before = nomad_faults::injected_total();
        let handle = test_server(None);
        let addr = handle.local_addr().to_string();
        let reports = run_grid_via_jobs_with(&addr, cells, 2, &CancelToken::new(), &fast_cfg())
            .expect("reconnect ladder heals admission panics");
        handle.shutdown();
        (
            reports.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
            nomad_faults::injected_total() - before,
        )
    });
    assert_eq!(got, expected, "admission panics must heal byte-identical");
    assert!(injected > 0, "the plan must have fired");
}

/// Injected breaker failures (`fleet.breaker=io`) poison the routers'
/// rolling outcome windows until breakers trip; traffic reroutes
/// around the "unhealthy" nodes without declaring them dead, and the
/// grid — jobs themselves are healthy — stays byte-identical.
#[test]
fn overload_injected_breaker_failures_reroute_byte_identical() {
    let cells = grid(&[220, 221, 222, 223]);
    let expected = expected_jsons(&cells);
    let (got, trips_delta) = with_plan(Some("19:fleet.breaker=io@0.8"), || {
        let before = nomad_obs::overload()
            .value("overload.breaker_trips")
            .expect("counter registered");
        let (handles, addrs) = test_fleet(2);
        let cfg = nomad_fleet::FleetConfig {
            breaker: nomad_fleet::BreakerConfig {
                window: 8,
                fail_threshold: 2,
                cooldown: Duration::from_millis(20),
                latency_threshold: Duration::ZERO,
            },
            ..fast_fleet_cfg()
        };
        let reports =
            nomad_fleet::run_grid_via_fleet_with(&addrs, cells, 2, &CancelToken::new(), cfg)
                .expect("breaker reroutes are harmless to correctness");
        for h in handles {
            h.shutdown();
        }
        let after = nomad_obs::overload()
            .value("overload.breaker_trips")
            .expect("counter registered");
        (
            reports.iter().map(|r| r.to_json()).collect::<Vec<_>>(),
            after - before,
        )
    });
    assert_eq!(got, expected, "breaker reroutes must stay byte-identical");
    assert!(
        trips_delta > 0,
        "an 80% forced-failure rate over a 2-of-8 window must trip a breaker"
    );
}

/// Injected heartbeat misses (`fleet.member`) past the threshold kill
/// a perfectly healthy node: its arc reassigns, the grid survives, and
/// both the misses and the failover are observable.
#[test]
fn fleet_injected_heartbeat_misses_fail_over() {
    let cells = grid(&[100, 101, 0, 1]);
    let expected = expected_jsons(&cells);
    let misses_before = fleet_metric("fleet.heartbeat_misses");
    let failovers_before = fleet_metric("fleet.failovers");
    let got = with_plan(Some("11:fleet.member=io"), || {
        let (handles, addrs) = test_fleet(2);
        let reports = nomad_fleet::run_grid_via_fleet_with(
            &addrs,
            cells,
            2,
            &CancelToken::new(),
            fast_fleet_cfg(),
        )
        .expect("injected member faults are survivable");
        for h in handles {
            h.shutdown();
        }
        reports.iter().map(|r| r.to_json()).collect::<Vec<_>>()
    });
    assert_eq!(
        got, expected,
        "heartbeat-driven failover must be byte-identical"
    );
    assert!(
        fleet_metric("fleet.heartbeat_misses") > misses_before,
        "injected member faults must register as missed heartbeats"
    );
    assert!(
        fleet_metric("fleet.failovers") >= failovers_before,
        "failover count never regresses"
    );
}
