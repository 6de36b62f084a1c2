//! The Fig. 9 grid workloads: 5 schemes × 15 Table I workloads, run
//! through `figs::sweep` at figure scale.

use crate::cell::{self, Traced};
use crate::check::{self, Digests};
use crate::spans::{self, Recorder};
use crate::{stats, Outcome, Rng, SETUP_REPS};
use nomad_bench::figs::{self, Row};
use nomad_bench::Scale;
use nomad_sim::runner::Cell;
use nomad_sim::SchemeSpec;
use nomad_trace::WorkloadProfile;
use std::io;
use std::time::{Duration, Instant};

pub struct Grid {
    pub name: &'static str,
    pub cores: usize,
}

pub const GRID_8C: Grid = Grid {
    name: "grid-8c",
    cores: 8,
};
pub const GRID_2C: Grid = Grid {
    name: "grid-2c",
    cores: 2,
};

/// Figure scale: the `Scale` defaults every figure harness runs at.
const INSTRUCTIONS: u64 = 150_000;
const WARMUP: u64 = 120_000;
const SIM_SEED: u64 = 42;

struct Inputs {
    scale: Scale,
    specs: Vec<SchemeSpec>,
    workloads: Vec<WorkloadProfile>,
    expect: Digests,
}

impl Inputs {
    fn cells(&self) -> usize {
        self.specs.len() * self.workloads.len()
    }

    /// Sweep `sweep` of seed `seed`: the scheme and workload axes in a
    /// seeded order. Every order runs the same 75 cells against the same
    /// reference; a new order per sweep varies which cells finish last,
    /// so the idle tail averages out.
    fn order(&self, seed: u64, sweep: u64) -> (Vec<SchemeSpec>, Vec<WorkloadProfile>) {
        let mut rng = Rng::new(seed ^ sweep.wrapping_mul(0xa076_1d64_78bd_642f));
        let (mut specs, mut workloads) = (self.specs.clone(), self.workloads.clone());
        rng.shuffle(&mut specs);
        rng.shuffle(&mut workloads);
        (specs, workloads)
    }
}

/// The grid's cells and the expected row digests: the committed
/// `results/fig_headtohead.json` rows at 8 cores, the recorded digests
/// otherwise. Ends by warming the allocator with the grid's first cell.
fn setup(grid: &Grid) -> io::Result<Inputs> {
    let specs = SchemeSpec::fig9_set();
    let workloads = WorkloadProfile::all();
    let expect = match grid.cores {
        8 => {
            let labels: Vec<&str> = SchemeSpec::fig9_set().iter().map(|s| s.label()).collect();
            check::artifact_rows("fig_headtohead", &labels)?
        }
        _ => check::load(grid.name)?,
    };
    if expect.len() != specs.len() * workloads.len() {
        return Err(io::Error::other(format!(
            "{} reference has {} rows, the grid {}",
            grid.name,
            expect.len(),
            specs.len() * workloads.len()
        )));
    }
    let scale = Scale {
        instructions: INSTRUCTIONS,
        warmup: WARMUP,
        cores: grid.cores,
        seed: SIM_SEED,
        jobs: crate::nproc(),
    };
    cell::warm_up_allocator(&Cell {
        cfg: scale.config(),
        spec: specs[0].clone(),
        profile: workloads[0].clone(),
        instructions: INSTRUCTIONS,
        warmup: WARMUP,
        seed: SIM_SEED,
    });
    Ok(Inputs {
        scale,
        specs,
        workloads,
        expect,
    })
}

/// One `figs::sweep` of the grid in the order `axes`: wall seconds,
/// completed cells, and failed cells. A panicking cell fails the whole
/// sweep (the executor discards its siblings' rows).
fn sweep(inputs: &Inputs, axes: &(Vec<SchemeSpec>, Vec<WorkloadProfile>)) -> (f64, u64, u64) {
    let start = Instant::now();
    let rows = std::panic::catch_unwind(|| figs::sweep(&inputs.scale, &axes.0, &axes.1));
    let wall = start.elapsed().as_secs_f64();
    match rows {
        Ok(rows) => (
            wall,
            rows.len() as u64,
            check::row_failures(&inputs.expect, &rows),
        ),
        Err(_) => (wall, 0, inputs.cells() as u64),
    }
}

pub fn run(grid: &Grid, seed: u64, seconds: Duration, trace: bool) -> io::Result<Outcome> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        inputs = Some(setup(grid)?);
        setups.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let mut out = Outcome::default();
    out.set("setup_s", stats::median(&setups).expect("set-up ran"));
    if trace {
        traced(grid, seed, &inputs, &mut out);
        return Ok(out);
    }
    // Whole sweeps until `seconds` have passed; the rate is the median
    // sweep's, so a burst of host noise in one sweep does not move it.
    let (mut rates, mut walls) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while rates.is_empty() || start.elapsed() < seconds {
        let (w, completed, failed) = sweep(&inputs, &inputs.order(seed, rates.len() as u64));
        rates.push(completed as f64 / w);
        walls.push(format!("{w:.3}"));
        out.attempted += inputs.cells() as u64;
        out.failed += failed;
        if completed == 0 {
            // A panic latches the process-wide sweep token; stop here.
            break;
        }
    }
    out.set("cells_per_s", stats::median(&rates).expect("one sweep ran"));
    out.notes.push(format!(
        "{} sweep(s) of {} cells at {} cores, jobs {}: {} s",
        rates.len(),
        inputs.cells(),
        grid.cores,
        inputs.scale.jobs,
        walls.join(", ")
    ));
    Ok(out)
}

/// The traced run: one untraced sweep for reference; the same cells
/// run stage by stage on `jobs` threads with spans; and again with the
/// hot-path profile for the split of the measured window. Every pass is
/// checked against the same reference.
fn traced(grid: &Grid, seed: u64, inputs: &Inputs, out: &mut Outcome) {
    let axes = inputs.order(seed, 0);
    let (untraced_wall, _, failed) = sweep(inputs, &axes);
    out.attempted += inputs.cells() as u64;
    out.failed += failed;

    let mut classes = Vec::new();
    let mut cells = Vec::new();
    for w in &axes.1 {
        for spec in &axes.0 {
            classes.push(w.class.label());
            let c = Cell {
                cfg: inputs.scale.config(),
                spec: spec.clone(),
                profile: w.clone(),
                instructions: INSTRUCTIONS,
                warmup: WARMUP,
                seed: SIM_SEED,
            };
            cells.push((cells.len() as u64, c));
        }
    }
    let jobs = inputs.scale.jobs;
    let rec = Recorder::new();
    let (traced_wall, plain) = cell::run_pass(&cells, jobs, &rec, false);
    let (_, profiled) = cell::run_pass(&cells, jobs, &Recorder::new(), true);
    for pass in [&plain, &profiled] {
        let rows: Vec<Row> = pass
            .iter()
            .zip(&classes)
            .map(|(t, class)| Row::from_report(&t.report, class))
            .collect();
        out.attempted += rows.len() as u64;
        out.failed += check::row_failures(&inputs.expect, &rows);
    }

    let spans = rec.into_spans();
    let plain: Vec<(Cell, Traced)> = cells.into_iter().map(|(_, c)| c).zip(plain).collect();
    cell::sim_metrics(out, &spans, &plain, &profiled);
    let cell_s: f64 = spans
        .iter()
        .filter(|s| s.name == "cell")
        .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
        .sum();
    out.set(
        "bench.overhead_share",
        1.0 - cell_s / (jobs as f64 * untraced_wall),
    );
    out.set(
        "bench.trace_overhead_share",
        traced_wall / untraced_wall - 1.0,
    );
    out.notes.push(format!(
        "untraced sweep {untraced_wall:.3} s, traced pass {traced_wall:.3} s, {} spans",
        spans.len()
    ));
    spans::write_trace(&format!("{}-seed{seed}", grid.name), &spans, out);
}

/// Record the 2-core grid's row digests from the current code.
pub fn record() -> io::Result<()> {
    let scale = Scale {
        instructions: INSTRUCTIONS,
        warmup: WARMUP,
        cores: GRID_2C.cores,
        seed: SIM_SEED,
        jobs: crate::nproc(),
    };
    let rows = figs::sweep(&scale, &SchemeSpec::fig9_set(), &WorkloadProfile::all());
    let entries: Vec<(String, u64)> = rows
        .iter()
        .map(|r| (check::row_key(r), check::row_digest(r)))
        .collect();
    check::save(
        GRID_2C.name,
        "FNV-1a 64 of each Fig. 9 row's JSON at 2 cores, 150k + 120k instructions, seed 42",
        &entries,
    )
}
