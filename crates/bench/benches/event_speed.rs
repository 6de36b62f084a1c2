// Event-kernel speed harness: simulated cycles per wall-clock second,
// dense tick loop vs next-event kernel.
//
// Runs every scheme on one low-RMHB workload (`tc`, mostly
// cache-resident) and one high-RMHB workload (`mcf`, heavy miss
// traffic), timing the measured phase of each run under both
// [`System::run_dense`] and the event-driven [`System::run`]. The
// OS-blocking schemes (Baseline, TDC) are where skipping pays most:
// their fault handlers stall cores for thousands of cycles with the
// DRAM devices idle. The two paths must land on the same final cycle
// (the skip-parity suite checks full report equality; this harness
// re-asserts the cheap invariant so a speed number is never reported
// for a divergent run).
//
// ```text
// cargo run --release -p nomad-bench --bin event_speed
// ```
//
// Scale knobs: `NOMAD_INSTR` (default 200 000 measured instructions),
// `NOMAD_WARMUP` (default 20 000), `NOMAD_SEED` (default 42),
// `NOMAD_REPS` (default 3 — each mode is timed that many times and
// the best time kept, to shed scheduler/frequency noise); one core,
// the 4 MiB DRAM-cache configuration the parity suite uses.

use nomad_bench::{apply_perf_gate, load_json, measure, save_json};
use nomad_sim::{SchemeSpec, System, SystemConfig};
use nomad_trace::{SyntheticTrace, TraceSource, WorkloadProfile};
use nomad_types::env::u64_or;
use serde::{Deserialize, Serialize};
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct Row {
    workload: String,
    scheme: String,
    instructions: u64,
    simulated_cycles: u64,
    dense_secs: f64,
    dense_cycles_per_sec: f64,
    event_secs: f64,
    event_cycles_per_sec: f64,
    speedup: f64,
}

fn build(cfg: &SystemConfig, spec: &SchemeSpec, profile: &WorkloadProfile, seed: u64) -> System {
    let traces: Vec<Box<dyn TraceSource>> = (0..cfg.cores)
        .map(|i| {
            Box::new(SyntheticTrace::with_scale(
                profile,
                seed.wrapping_add(i as u64).wrapping_mul(0x9e37_79b9),
                cfg.pages_per_gb,
                cfg.l3_reach_pages(),
            )) as Box<dyn TraceSource>
        })
        .collect();
    let mut sys = System::new(cfg.clone(), spec.build(cfg), traces);
    sys.prewarm();
    sys
}

/// Warm up, reset stats, then time the measured phase. Returns the
/// simulated cycles of the measured phase and the wall seconds spent.
fn timed_run(sys: &mut System, dense: bool, warmup: u64, instructions: u64) -> (u64, f64) {
    if dense {
        sys.run_dense(warmup);
    } else {
        sys.run(warmup);
    }
    sys.reset_stats();
    let start_cycle = sys.cycle();
    let t0 = Instant::now();
    if dense {
        sys.run_dense(instructions);
    } else {
        sys.run(instructions);
    }
    (sys.cycle() - start_cycle, t0.elapsed().as_secs_f64())
}

fn main() {
    nomad_bench::harness_init();
    let instructions = u64_or("NOMAD_INSTR", 200_000);
    let warmup = u64_or("NOMAD_WARMUP", 20_000);
    let seed = u64_or("NOMAD_SEED", 42);
    let reps = u64_or("NOMAD_REPS", 3).max(1);
    let mut cfg = SystemConfig::scaled(1);
    cfg.dc_capacity = 4 * 1024 * 1024;

    let mut rows = Vec::new();
    println!(
        "event-kernel speed ({} instr, {} warmup, seed {}, best of {})",
        instructions, warmup, seed, reps
    );
    println!(
        "{:<10} {:<10} {:>14} {:>12} {:>12} {:>8}",
        "scheme", "workload", "sim cycles", "dense c/s", "event c/s", "speedup"
    );
    for (spec, profile) in [
        SchemeSpec::Baseline,
        SchemeSpec::Tid,
        SchemeSpec::Tdc,
        SchemeSpec::Nomad,
    ]
    .into_iter()
    .flat_map(|s| {
        [WorkloadProfile::tc(), WorkloadProfile::mcf()].map(|profile| (s.clone(), profile))
    }) {
        // Interleaved best-of-reps (see `nomad_bench::measure`): dense
        // and event mode alternate so frequency scaling and scheduler
        // noise hit both sides evenly. A cell that panics (e.g. a
        // scheme wedging into the simulator's deadlock detector at
        // very large NOMAD_INSTR) is reported and skipped, not fatal
        // to the rest of the matrix.
        let measured = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut dense_mode = || {
                let mut sys = build(&cfg, &spec, &profile, seed);
                let (cycles, secs) = timed_run(&mut sys, true, warmup, instructions);
                (secs, cycles)
            };
            let mut event_mode = || {
                let mut sys = build(&cfg, &spec, &profile, seed);
                let (cycles, secs) = timed_run(&mut sys, false, warmup, instructions);
                (secs, cycles)
            };
            let best = measure::best_of(reps, &mut [&mut dense_mode, &mut event_mode]);
            let [(dense_secs, dense_cycles), (event_secs, event_cycles)] = best[..] else {
                unreachable!("two modes in, two out");
            };
            (dense_cycles, event_cycles, dense_secs, event_secs)
        }));
        let Ok((dense_cycles, event_cycles, dense_secs, event_secs)) = measured else {
            println!(
                "{:<10} {:<10} {:>14}",
                spec.label(),
                profile.name,
                "panicked (skipped)"
            );
            continue;
        };

        assert_eq!(
            dense_cycles, event_cycles,
            "event kernel diverged from dense loop on {}",
            profile.name
        );

        let dense_cps = dense_cycles as f64 / dense_secs;
        let event_cps = event_cycles as f64 / event_secs;
        println!(
            "{:<10} {:<10} {:>14} {:>12.0} {:>12.0} {:>7.2}x",
            spec.label(),
            profile.name,
            dense_cycles,
            dense_cps,
            event_cps,
            dense_secs / event_secs
        );
        rows.push(Row {
            workload: profile.name.clone(),
            scheme: spec.label().to_string(),
            instructions,
            simulated_cycles: dense_cycles,
            dense_secs,
            dense_cycles_per_sec: dense_cps,
            event_secs,
            event_cycles_per_sec: event_cps,
            speedup: dense_secs / event_secs,
        });
    }
    // Comparison against the committed baseline artifact (if any):
    // wall-clock numbers are host-dependent, so by default the delta
    // is informational. With `NOMAD_PERF_GATE_PCT` set (CI: 25), a
    // drop past the threshold fails the run — a soft gate wide enough
    // for runner noise but narrow enough to catch real regressions.
    let mut deltas = Vec::new();
    if let Some(baseline) = load_json::<Vec<Row>>("event_speed") {
        println!("\ncycles/sec vs committed results/event_speed.json (event kernel):");
        for row in &rows {
            let Some(base) = baseline
                .iter()
                .find(|b| b.workload == row.workload && b.scheme == row.scheme)
            else {
                continue;
            };
            let delta = (row.event_cycles_per_sec / base.event_cycles_per_sec - 1.0) * 100.0;
            println!(
                "  {:<10} {:<10} {:>12.0} -> {:>12.0}  ({delta:+.1}%)",
                row.scheme, row.workload, base.event_cycles_per_sec, row.event_cycles_per_sec,
            );
            deltas.push((format!("event {}/{}", row.scheme, row.workload), delta));
        }
    }
    save_json("event_speed", &rows);
    apply_perf_gate(&deltas);
}
