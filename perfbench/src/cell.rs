//! One simulation cell run stage by stage through the public `System`
//! API, the same steps `runner::run_one` takes, with a span around each
//! stage and, on request, the hot-path profile armed for the measured
//! window.

use crate::spans::{self, Recorder, Span};
use crate::Outcome;
use nomad_sim::runner::Cell;
use nomad_sim::{RunReport, System};
use nomad_trace::{SyntheticTrace, TraceRecord, TraceSource};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Passes records through and counts them.
struct Counted {
    inner: SyntheticTrace,
    records: Arc<AtomicU64>,
}

impl TraceSource for Counted {
    fn next_record(&mut self) -> TraceRecord {
        self.records.fetch_add(1, Ordering::Relaxed);
        self.inner.next_record()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn resident_pages(&self) -> Vec<nomad_types::Vpn> {
        self.inner.resident_pages()
    }

    fn aged_pages(&self, n: usize) -> Vec<(nomad_types::Vpn, bool)> {
        self.inner.aged_pages(n)
    }
}

/// Core `i`'s trace, seeded the way `runner::run_one` seeds it.
fn trace_for(c: &Cell, core: usize) -> SyntheticTrace {
    SyntheticTrace::with_scale(
        &c.profile,
        c.seed.wrapping_add(core as u64).wrapping_mul(0x9e37_79b9),
        c.cfg.pages_per_gb,
        c.cfg.l3_reach_pages(),
    )
}

/// Build and prewarm `c`'s system, then drop it: the allocator growth
/// and first-touch page faults a run's first cells would otherwise pay.
pub fn warm_up_allocator(c: &Cell) {
    let traces = (0..c.cfg.cores)
        .map(|i| Box::new(trace_for(c, i)) as Box<dyn TraceSource>)
        .collect();
    let mut sys = System::new(c.cfg.clone(), c.spec.build(&c.cfg), traces);
    sys.prewarm();
}

/// What the per-layer split needs from one traced cell.
pub struct Traced {
    pub report: RunReport,
    /// The measured window's hot-path profile, when it was armed.
    hot: Option<nomad_sim::HotProfileReport>,
    /// Wall nanoseconds of the measured window.
    run_ns: u64,
    /// Trace records each core consumed.
    records: Vec<u64>,
}

/// Run `c` with a span per stage; all spans carry `id`. With `hot`,
/// the hot-path profile is armed for the measured window only; its
/// clock reads slow that window, so stage times come from unprofiled
/// runs.
pub fn run_traced(rec: &Recorder, id: u64, c: &Cell, hot: bool) -> Traced {
    let cell = rec.open(id, "bench", "cell", None);
    let parent = Some(cell);
    let counters: Vec<Arc<AtomicU64>> = (0..c.cfg.cores).map(|_| Arc::default()).collect();
    let traces = rec.time(id, "trace", "trace.build", parent, || {
        counters
            .iter()
            .enumerate()
            .map(|(i, n)| {
                Box::new(Counted {
                    inner: trace_for(c, i),
                    records: Arc::clone(n),
                }) as Box<dyn TraceSource>
            })
            .collect()
    });
    let mut sys = rec.time(id, "sim", "sim.new", parent, || {
        System::new(c.cfg.clone(), c.spec.build(&c.cfg), traces)
    });
    rec.time(id, "sim", "sim.prewarm", parent, || sys.prewarm());
    if c.warmup > 0 {
        rec.time(id, "sim", "sim.warmup", parent, || sys.warm_up(c.warmup));
    }
    if hot {
        sys.enable_hot_profile();
    }
    let run = rec.open(id, "sim", "sim.run", parent);
    sys.run(c.instructions);
    let run_ns = rec.close(run);
    let report = rec.time(id, "sim", "sim.report", parent, || {
        sys.report(&c.profile.name)
    });
    rec.close(cell);
    Traced {
        report,
        hot: sys.hot_profile(),
        run_ns,
        records: counters.iter().map(|n| n.load(Ordering::Relaxed)).collect(),
    }
}

/// Run `cells` (span id, inputs) on `jobs` threads, as the sweep
/// executor does; return the wall seconds and the results in input
/// order.
pub fn run_pass(
    cells: &[(u64, Cell)],
    jobs: usize,
    rec: &Recorder,
    hot: bool,
) -> (f64, Vec<Traced>) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(cells.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..jobs.max(1) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((id, c)) = cells.get(i) else { return };
                let t = run_traced(rec, *id, c, hot);
                done.lock().expect("results lock").push((i, t));
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("results lock");
    done.sort_by_key(|(i, _)| *i);
    (wall, done.into_iter().map(|(_, t)| t).collect())
}

/// Wall nanoseconds to draw the records `t` consumed from fresh traces
/// of the same profile and seeds.
fn replay_ns(c: &Cell, t: &Traced) -> u64 {
    let mut ns = 0;
    for (i, &n) in t.records.iter().enumerate() {
        let mut trace = trace_for(c, i);
        let start = Instant::now();
        for _ in 0..n {
            std::hint::black_box(trace.next_record());
        }
        ns += start.elapsed().as_nanos() as u64;
    }
    ns
}

/// Record the per-layer metrics into `out`: stage times from the
/// spans' self times and the records drawn, from the unprofiled `cells`;
/// the measured window's split and kernel counts from `profiled`, the
/// same cells run again with the hot-path profile; exact work counts
/// from the reports.
pub fn sim_metrics(
    out: &mut Outcome,
    spans: &[Span],
    cells: &[(Cell, Traced)],
    profiled: &[Traced],
) {
    let self_ns = spans::self_times_ns(spans);
    for (metric, span) in [
        ("sim.new_s", "sim.new"),
        ("sim.prewarm_s", "sim.prewarm"),
        ("sim.warmup_s", "sim.warmup"),
        ("sim.run_s", "sim.run"),
        ("sim.report_s", "sim.report"),
    ] {
        out.set(metric, spans::self_total_s(spans, &self_ns, span));
    }
    let hot: Vec<nomad_sim::HotProfileReport> = profiled.iter().filter_map(|t| t.hot).collect();
    let hot_sum =
        |f: fn(&nomad_sim::HotProfileReport) -> u64| hot.iter().map(f).sum::<u64>() as f64;
    let laps = [
        ("cpu.tick_s", hot_sum(|h| h.cpu_nanos) * 1e-9),
        ("cache.tick_s", hot_sum(|h| h.cache_nanos) * 1e-9),
        ("dcache.tick_s", hot_sum(|h| h.dcache_nanos) * 1e-9),
        ("dram.tick_s", hot_sum(|h| h.dram_nanos) * 1e-9),
    ];
    let profiled_run_s = profiled.iter().map(|t| t.run_ns).sum::<u64>() as f64 * 1e-9;
    out.set(
        "sim.kernel_s",
        profiled_run_s - laps.iter().map(|(_, s)| s).sum::<f64>(),
    );
    for (name, s) in laps {
        out.set(name, s);
    }
    let sum =
        |f: &dyn Fn(&RunReport) -> u64| cells.iter().map(|(_, t)| f(&t.report)).sum::<u64>() as f64;
    let cycles = sum(&|r| r.cycles);
    let skipped = hot_sum(|h| h.skipped_cycles);
    out.set("sim.dense_ticks", hot_sum(|h| h.dense_ticks));
    out.set("sim.skips", hot_sum(|h| h.skips));
    out.set("sim.skipped_cycles", skipped);
    out.set("sim.burst_ticks", hot_sum(|h| h.burst_ticks));
    out.set("sim.skip_share", skipped / cycles.max(1.0));
    out.set("sim.cycles", cycles);
    let run_s = spans::self_total_s(spans, &self_ns, "sim.run");
    out.set("sim.run_ns_per_cycle", run_s * 1e9 / cycles.max(1.0));
    out.set("cpu.instructions", sum(&|r| r.instructions()));
    out.set("cache.l3_misses", sum(&|r| r.l3_misses));
    let bytes = |d: &nomad_dram::DramStats| d.class_bytes.iter().map(|c| c.total()).sum::<u64>();
    out.set("dram.hbm_bytes", sum(&|r| bytes(&r.hbm)));
    out.set("dram.ddr_bytes", sum(&|r| bytes(&r.ddr)));
    out.set("dcache.fills", sum(&|r| r.scheme_stats.fills.get()));
    out.set("dcache.evictions", sum(&|r| r.scheme_stats.evictions.get()));

    let records: u64 = cells.iter().flat_map(|(_, t)| &t.records).sum();
    let ns: u64 = cells.iter().map(|(c, t)| replay_ns(c, t)).sum();
    out.set("trace.ns_per_record", ns as f64 / records.max(1) as f64);
}
