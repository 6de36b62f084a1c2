//! The served workload: an in-process `nomad_serve::serve` with two
//! workers and a spill directory, driven closed-loop by one client
//! connection per host thread with a seeded stream of small 2-core
//! cells, half of which repeat an earlier job of the same client.

use crate::cell::{self, Traced};
use crate::check::{self, Digests};
use crate::spans::Recorder;
use crate::{stats, Outcome, Rng, SETUP_REPS};
use nomad_serve::proto::{read_frame, write_frame};
use nomad_serve::{serve, Client, ClientConfig, JobSpec, Response, ServerConfig, ServerHandle};
use nomad_sim::runner::{self, Cell};
use nomad_sim::{SchemeSpec, SystemConfig};
use nomad_trace::WorkloadProfile;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CORES: usize = 2;
const INSTRUCTIONS: u64 = 5_000;
const WARMUP: u64 = 1_000;
/// Fresh jobs come from a pool of every Fig. 9 cell at this many
/// simulation seeds; `--record` stores one digest per pool job.
const POOL_SEEDS: usize = 4;
const DIGESTS: &str = "served";

/// The Fig. 9 (scheme, workload) pairs; pool job `i` is pair
/// `i % pairs()` at simulation seed `i / pairs() + 1`.
fn pairs() -> usize {
    SchemeSpec::fig9_set().len() * WorkloadProfile::all().len()
}

fn pool_size() -> usize {
    pairs() * POOL_SEEDS
}

fn pool_cell(i: usize, specs: &[SchemeSpec], workloads: &[WorkloadProfile]) -> Cell {
    let pair = i % (specs.len() * workloads.len());
    Cell {
        cfg: SystemConfig::scaled(CORES),
        spec: specs[pair / workloads.len()].clone(),
        profile: workloads[pair % workloads.len()].clone(),
        instructions: INSTRUCTIONS,
        warmup: WARMUP,
        seed: (i / (specs.len() * workloads.len())) as u64 + 1,
    }
}

fn clients() -> usize {
    crate::nproc().clamp(1, 2)
}

/// Span id of request `i` of client `c`: ids stay unique per pass.
fn request_id(c: usize, i: usize) -> u64 {
    (c * 2 * pairs() + i) as u64
}

/// One request of a client's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Req {
    /// Pool index of the job.
    job: usize,
    /// Whether this client already sent the job in this pass.
    repeat: bool,
}

/// Pass `pass` of seed `seed`: per client, its requests in order. Each
/// client sends every Fig. 9 pair once as a fresh job, so every pass
/// does the same mix of work, at a seeded simulation seed that differs
/// between clients, so no fresh job is sent twice. Half of a client's
/// requests repeat one of its own earlier jobs: each repeat is a
/// completed cache entry, never a coalesced in-flight one.
fn stream(seed: u64, pass: u64) -> Vec<Vec<Req>> {
    let mut rng = Rng::new(seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f));
    let offsets: Vec<usize> = (0..pairs()).map(|_| rng.below(POOL_SEEDS)).collect();
    (0..clients())
        .map(|c| {
            let mut fresh: Vec<usize> = offsets
                .iter()
                .enumerate()
                .map(|(pair, off)| pair + pairs() * ((off + c) % POOL_SEEDS))
                .collect();
            rng.shuffle(&mut fresh);
            let mut pattern: Vec<bool> = (0..2 * fresh.len()).map(|i| i % 2 == 1).collect();
            rng.shuffle(&mut pattern);
            let first_fresh = pattern.iter().position(|r| !r).expect("some fresh jobs");
            pattern.swap(0, first_fresh);
            let mut sent = 0;
            pattern
                .into_iter()
                .map(|repeat| {
                    let job = if repeat {
                        fresh[rng.below(sent)]
                    } else {
                        sent += 1;
                        fresh[sent - 1]
                    };
                    Req { job, repeat }
                })
                .collect()
        })
        .collect()
}

/// How one reply counts.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok { cached: bool },
    Failed(String),
}

/// A reply passes when it is a report whose digest matches the
/// reference and whose `cached` flag says what the stream expects. A
/// refusal (`Overloaded`), a shed (`Expired`), a failure, an error or a
/// transport error counts as failed.
fn judge(reply: &io::Result<Response>, req: Req, expect: &Digests) -> Verdict {
    match reply {
        Ok(Response::Report { cached, report }) => {
            let want = expect.get(&req.job.to_string());
            if want != Some(&check::digest(&report.to_json())) {
                Verdict::Failed(format!("job {} report differs from its digest", req.job))
            } else if *cached != req.repeat {
                Verdict::Failed(format!("job {} answered cached = {cached}", req.job))
            } else {
                Verdict::Ok { cached: *cached }
            }
        }
        Ok(other) => Verdict::Failed(format!("job {}: {other:?}", req.job)),
        Err(e) => Verdict::Failed(format!("job {}: transport: {e}", req.job)),
    }
}

/// A server and its connected clients, ready for a pass.
struct Rig {
    jobs: Vec<Vec<JobSpec>>,
    server: ServerHandle,
    spill: PathBuf,
    clients: Vec<Client>,
}

/// Set-up: build the pass's jobs, bind the server, spawn its workers
/// and connect the clients. Each client pings once, so the server has
/// accepted every connection before the first timed request.
fn rig(stream: &[Vec<Req>], tag: usize) -> io::Result<Rig> {
    let (specs, workloads) = (SchemeSpec::fig9_set(), WorkloadProfile::all());
    let jobs = stream
        .iter()
        .map(|reqs| {
            reqs.iter()
                .map(|r| JobSpec::from_cell(&pool_cell(r.job, &specs, &workloads)))
                .collect()
        })
        .collect();
    let spill = crate::out_dir().join(format!("spill-{}-{tag}", std::process::id()));
    let server = serve(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        cache_dir: Some(spill.clone()),
        ..ServerConfig::default()
    })?;
    let cfg = ClientConfig::default();
    let clients = (0..stream.len())
        .map(|_| {
            let mut client = Client::connect_with(server.local_addr(), &cfg)?;
            client.ping()?;
            Ok(client)
        })
        .collect::<io::Result<_>>();
    match clients {
        Ok(clients) => Ok(Rig {
            jobs,
            server,
            spill,
            clients,
        }),
        Err(e) => {
            server.shutdown();
            let _ = std::fs::remove_dir_all(&spill);
            Err(e)
        }
    }
}

/// One finished request.
struct Sample {
    id: u64,
    req: Req,
    ms: f64,
    reply: io::Result<Response>,
}

/// Counters read from the server and its spill directory after a pass.
#[derive(Default)]
struct PassStats {
    hits: u64,
    misses: u64,
    rejected: u64,
    failed: u64,
    latency_p50_ms: u64,
    utilization: f64,
    shed: u64,
    spill_files: u64,
    spill_bytes: u64,
}

/// Run one pass on `rig`; return its samples, wall seconds and stats.
/// Spans go to `rec` when tracing.
fn pass(
    mut rig: Rig,
    stream: &[Vec<Req>],
    rec: Option<&Recorder>,
) -> io::Result<(Vec<Sample>, f64, PassStats)> {
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = rig
            .clients
            .iter_mut()
            .zip(stream.iter().zip(&rig.jobs))
            .enumerate()
            .map(|(c, (client, (reqs, jobs)))| s.spawn(move || drive(client, c, reqs, jobs, rec)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();

    let snap = rig.clients[0].stats()?;
    let shed = ["admit_shed", "queue_shed", "exec_shed", "codel_shed"]
        .iter()
        .filter_map(|n| snap.counter(&format!("overload.{n}")))
        .sum();
    drop(rig.clients);
    rig.server.shutdown();
    let mut stats = PassStats {
        hits: snap.cache_hits,
        misses: snap.cache_misses,
        rejected: snap.jobs_rejected,
        failed: snap.jobs_failed,
        latency_p50_ms: snap.latency_p50_ms,
        utilization: snap.worker_utilization.iter().sum::<f64>()
            / snap.worker_utilization.len().max(1) as f64,
        shed,
        ..PassStats::default()
    };
    for entry in std::fs::read_dir(&rig.spill)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(".json") {
            stats.spill_files += 1;
            stats.spill_bytes += entry.metadata()?.len();
        }
    }
    std::fs::remove_dir_all(&rig.spill)?;
    Ok((samples, wall, stats))
}

/// One client's closed loop: send, wait for the reply, send the next.
/// After a transport error the rest of its requests fail unsent.
fn drive(
    client: &mut Client,
    c: usize,
    reqs: &[Req],
    jobs: &[JobSpec],
    rec: Option<&Recorder>,
) -> Vec<Sample> {
    let mut out: Vec<Sample> = Vec::with_capacity(reqs.len());
    for (i, (&req, job)) in reqs.iter().zip(jobs).enumerate() {
        let id = request_id(c, i);
        if out.last().is_some_and(|s| s.reply.is_err()) {
            let reply = Err(io::Error::other("connection lost"));
            out.push(Sample {
                id,
                req,
                ms: 0.0,
                reply,
            });
            continue;
        }
        let span = rec.map(|r| r.open(id, "serve", "served.request", None));
        let start = Instant::now();
        let reply = client.submit(job);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if let (Some(r), Some(span)) = (rec, span) {
            r.close(span);
        }
        out.push(Sample { id, req, ms, reply });
    }
    out
}

pub fn run(seed: u64, seconds: Duration, trace: bool) -> io::Result<Outcome> {
    let mut setups = Vec::new();
    let mut expect = Digests::new();
    let mut timed_setup = |stream: &[Vec<Req>], tag: usize| -> io::Result<Rig> {
        let start = Instant::now();
        expect = check::load(DIGESTS)?;
        if expect.len() != pool_size() {
            return Err(io::Error::other("served digests do not cover the job pool"));
        }
        let rig = rig(stream, tag)?;
        setups.push(start.elapsed().as_secs_f64());
        Ok(rig)
    };
    // Rehearse the set-up so its median has several samples.
    for tag in 0..SETUP_REPS {
        let rig = timed_setup(&stream(seed, 0), tag)?;
        rig.server.shutdown();
        std::fs::remove_dir_all(&rig.spill)?;
    }

    let mut samples = Vec::new();
    // Each pass's first sample and wall seconds.
    let mut walls: Vec<(usize, f64)> = Vec::new();
    let mut first_pass = None;
    let start = Instant::now();
    let rec = trace.then(Recorder::new);
    let mut p = 0;
    // Whole passes until `seconds` have passed; a traced run makes one.
    while p == 0 || (!trace && start.elapsed() < seconds) {
        let s = stream(seed, p as u64);
        let rig = timed_setup(&s, SETUP_REPS + p)?;
        let (mut got, w, st) = pass(rig, &s, rec.as_ref())?;
        walls.push((samples.len(), w));
        samples.append(&mut got);
        first_pass.get_or_insert(st);
        p += 1;
    }
    let mut out = Outcome::default();
    out.set("setup_s", stats::median(&setups).expect("set-up ran"));
    out.attempted = samples.len() as u64;
    let verdicts: Vec<Verdict> = samples
        .iter()
        .map(|s| judge(&s.reply, s.req, &expect))
        .collect();
    for v in &verdicts {
        if let Verdict::Failed(why) = v {
            out.failed += 1;
            if out.failed <= 5 {
                out.notes.push(format!("failed: {why}"));
            }
        }
    }
    let lat = |cached: bool| -> Vec<f64> {
        samples
            .iter()
            .zip(&verdicts)
            .filter(|(_, v)| **v == Verdict::Ok { cached })
            .map(|(s, _)| s.ms)
            .collect()
    };
    let (fresh, cached) = (lat(false), lat(true));
    // The median pass's rate, so a burst of host noise in one pass does
    // not move it.
    let rates: Vec<f64> = walls
        .iter()
        .enumerate()
        .map(|(i, &(first, w))| {
            let end = walls.get(i + 1).map_or(samples.len(), |n| n.0);
            let ok = verdicts[first..end]
                .iter()
                .filter(|v| matches!(v, Verdict::Ok { .. }));
            ok.count() as f64 / w
        })
        .collect();
    out.set("cells_per_s", stats::median(&rates).expect("one pass ran"));
    let wall: f64 = walls.iter().map(|w| w.1).sum();
    out.notes.push(format!(
        "{p} pass(es) of {} jobs from {} clients to {WORKERS} workers, {wall:.3} s",
        clients() * 2 * pairs(),
        clients()
    ));
    out.notes.push(stats::describe("fresh round trip", &fresh));
    out.notes
        .push(stats::describe("cached round trip", &cached));
    if let Some(rec) = rec {
        out.set("served_fresh_p50_ms", stats::median(&fresh).unwrap_or(0.0));
        out.set(
            "served_fresh_tail_ms",
            stats::tail(&fresh).map_or(0.0, |t| t.1),
        );
        out.set(
            "served_cached_p50_ms",
            stats::median(&cached).unwrap_or(0.0),
        );
        out.set(
            "served_cached_tail_ms",
            stats::tail(&cached).map_or(0.0, |t| t.1),
        );
        let st = first_pass.expect("one pass ran");
        traced(&mut out, rec, &samples, wall, &st, seed)?;
    }
    Ok(out)
}

/// The traced run's per-layer split: each fresh job re-run stage by
/// stage and through `runner::run_one`, both required to equal the
/// served report; server counters from the pass; frame codec costs.
fn traced(
    out: &mut Outcome,
    rec: Recorder,
    samples: &[Sample],
    traced_wall: f64,
    st: &PassStats,
    seed: u64,
) -> io::Result<()> {
    let (specs, workloads) = (SchemeSpec::fig9_set(), WorkloadProfile::all());
    let mut cells = Vec::new();
    let mut served = Vec::new();
    for s in samples {
        if let Ok(Response::Report {
            cached: false,
            report,
        }) = &s.reply
        {
            cells.push((s.id, pool_cell(s.req.job, &specs, &workloads)));
            served.push((s, report.to_json()));
        }
    }
    let (_, plain) = cell::run_pass(&cells, 1, &rec, false);
    let (_, profiled) = cell::run_pass(&cells, 1, &Recorder::new(), true);
    let (mut exec_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let mut first_report = None;
    for (((s, served), (_, c)), (staged, hot)) in
        served.iter().zip(&cells).zip(plain.iter().zip(&profiled))
    {
        let span = rec.open(s.id, "sim", "runner.run_one", None);
        let local = runner::run_one(
            &c.cfg,
            &c.spec,
            &c.profile,
            c.instructions,
            c.warmup,
            c.seed,
        );
        let ms = rec.close(span) as f64 * 1e-6;
        exec_ms.push(ms);
        overhead_ms.push(s.ms - ms);
        out.attempted += 1;
        let json = local.to_json();
        if json != *served || staged.report.to_json() != json || hot.report.to_json() != json {
            out.failed += 1;
            out.notes.push(format!(
                "job {}: served, staged and run_one reports differ",
                s.req.job
            ));
        }
        first_report.get_or_insert(local);
    }
    let plain: Vec<(Cell, Traced)> = cells.into_iter().map(|(_, c)| c).zip(plain).collect();
    let spans = rec.into_spans();
    cell::sim_metrics(out, &spans, &plain, &profiled);
    out.set("serve.exec_p50_ms", stats::median(&exec_ms).unwrap_or(0.0));
    out.set(
        "serve.overhead_p50_ms",
        stats::median(&overhead_ms).unwrap_or(0.0),
    );
    out.set("serve.server_latency_p50_ms", st.latency_p50_ms as f64);
    out.set(
        "serve.cache_hit_ratio",
        st.hits as f64 / (st.hits + st.misses).max(1) as f64,
    );
    out.set("serve.worker_utilization", st.utilization);
    out.set("serve.jobs_rejected", st.rejected as f64);
    out.set("serve.jobs_failed", st.failed as f64);
    out.set("overload.shed", st.shed as f64);
    out.set("serve.spill_files", st.spill_files as f64);
    out.set("serve.spill_bytes", st.spill_bytes as f64);
    if let Some(report) = first_report {
        let (enc, dec) = codec_us(&Response::Report {
            cached: false,
            report,
        })?;
        out.set("serve.proto.encode_us", enc);
        out.set("serve.proto.decode_us", dec);
    }

    // The same pass untraced, for the cost of tracing.
    let s = stream(seed, 0);
    let (_, untraced_wall, _) = pass(rig(&s, usize::MAX)?, &s, None)?;
    out.set(
        "bench.trace_overhead_share",
        traced_wall / untraced_wall - 1.0,
    );
    crate::spans::write_trace(&format!("served-seed{seed}"), &spans, out);
    Ok(())
}

/// Median microseconds to `write_frame` a reply into memory and to
/// `read_frame` it back.
fn codec_us(reply: &Response) -> io::Result<(f64, f64)> {
    const REPS: usize = 201;
    let (mut enc, mut dec) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        let mut buf = Vec::new();
        let t = Instant::now();
        write_frame(&mut buf, reply)?;
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let back: Option<Response> = read_frame(&mut buf.as_slice())?;
        dec.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(back);
    }
    Ok((
        stats::median(&enc).unwrap_or(0.0),
        stats::median(&dec).unwrap_or(0.0),
    ))
}

/// Record one report digest per pool job from the current code.
pub fn record() -> io::Result<()> {
    let (specs, workloads) = (SchemeSpec::fig9_set(), WorkloadProfile::all());
    let entries: Vec<(String, u64)> = (0..pool_size())
        .map(|i| {
            let j = pool_cell(i, &specs, &workloads);
            let r = runner::run_one(
                &j.cfg,
                &j.spec,
                &j.profile,
                j.instructions,
                j.warmup,
                j.seed,
            );
            (i.to_string(), check::digest(&r.to_json()))
        })
        .collect();
    check::save(
        DIGESTS,
        "FNV-1a 64 of each served pool job's RunReport JSON: 2 cores, 5k + 1k instructions",
        &entries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_with_a_fixed_repeat_share() {
        let a = stream(9, 0);
        assert_eq!(a, stream(9, 0));
        assert_ne!(a, stream(9, 1));
        assert_eq!(a.len(), clients());
        let mut fresh = std::collections::HashSet::new();
        for reqs in &a {
            assert_eq!(reqs.len(), 2 * pairs());
            assert!(!reqs[0].repeat);
            let mut pairs_sent = std::collections::HashSet::new();
            for (i, r) in reqs.iter().enumerate() {
                if r.repeat {
                    assert!(reqs[..i].iter().any(|e| !e.repeat && e.job == r.job));
                } else {
                    assert!(fresh.insert(r.job), "fresh jobs are distinct");
                    assert!(pairs_sent.insert(r.job % pairs()), "each pair once");
                }
            }
            assert_eq!(pairs_sent.len(), pairs());
        }
    }

    /// Refused, shed, failed and undeliverable requests all count as
    /// failed; so does a report that fails its digest.
    #[test]
    fn refused_or_expired_requests_fail() {
        let req = Req {
            job: 0,
            repeat: false,
        };
        let expect = Digests::new();
        for reply in [
            Ok(Response::Overloaded { retry_after_ms: 5 }),
            Ok(Response::Expired {
                error: "deadline expired".into(),
            }),
            Ok(Response::Failed {
                error: "panic".into(),
                attempts: 3,
            }),
            Err(io::Error::other("reset")),
        ] {
            assert!(matches!(judge(&reply, req, &expect), Verdict::Failed(_)));
        }
        let cell = pool_cell(0, &SchemeSpec::fig9_set(), &WorkloadProfile::all());
        let report = JobSpec::from_cell(&Cell {
            instructions: 500,
            warmup: 0,
            ..cell
        })
        .run_local();
        let ok: Digests = [("0".to_string(), check::digest(&report.to_json()))].into();
        let reply = Ok(Response::Report {
            cached: false,
            report,
        });
        assert_eq!(judge(&reply, req, &ok), Verdict::Ok { cached: false });
        assert!(matches!(judge(&reply, req, &expect), Verdict::Failed(_)));
        let repeat = Req {
            job: 0,
            repeat: true,
        };
        assert!(matches!(judge(&reply, repeat, &ok), Verdict::Failed(_)));
    }
}
