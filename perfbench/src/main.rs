//! The repository benchmark: Fig. 9 grids at 8 and 2 simulated cores
//! and a closed-loop served workload, with a traced per-layer split.
//!
//! ```text
//! setarch -R cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-8c|grid-2c|served --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last is for people; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). `--record` rewrites the reference digests
//! under `perfbench/digests/` from the current code. See
//! `perfbench/README.md` for why each workload and metric exists.

mod cell;
mod check;
mod grid;
mod served;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics as `(name, unit)`; every workload reports all of
/// them, and they must match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics as `(name, unit)`, reported by traced runs. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ns_per_record", "ns"),
    ("sim.new_s", "s"),
    ("sim.prewarm_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.run_s", "s"),
    ("sim.report_s", "s"),
    ("cpu.tick_s", "s"),
    ("cache.tick_s", "s"),
    ("dcache.tick_s", "s"),
    ("dram.tick_s", "s"),
    ("sim.kernel_s", "s"),
    ("sim.dense_ticks", "count"),
    ("sim.skips", "count"),
    ("sim.skipped_cycles", "cycles"),
    ("sim.burst_ticks", "count"),
    ("sim.skip_share", "ratio"),
    ("sim.cycles", "cycles"),
    ("cpu.instructions", "count"),
    ("cache.l3_misses", "count"),
    ("dram.hbm_bytes", "bytes"),
    ("dram.ddr_bytes", "bytes"),
    ("dcache.fills", "count"),
    ("dcache.evictions", "count"),
    ("sim.run_ns_per_cycle", "ns"),
    ("bench.overhead_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("served_fresh_p50_ms", "ms"),
    ("served_fresh_tail_ms", "ms"),
    ("served_cached_p50_ms", "ms"),
    ("served_cached_tail_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.server_latency_p50_ms", "ms"),
    ("serve.proto.encode_us", "us"),
    ("serve.proto.decode_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.worker_utilization", "ratio"),
    ("serve.jobs_rejected", "count"),
    ("serve.jobs_failed", "count"),
    ("overload.shed", "count"),
    ("serve.spill_files", "count"),
    ("serve.spill_bytes", "bytes"),
];

/// How many times a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPS: usize = 15;

/// What one run measured: operations attempted and failed (a failed
/// operation is a panic, a refused or failed request, a transport
/// error, or an output that fails its correctness check), the metrics
/// by name, and lines for people.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: `metrics` holds exactly the names in `names`,
    /// in that order; a name the run did not set reads 0.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// SplitMix64: the benchmark's seeded input generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// The benchmark's own directory (`perfbench/` in the checkout).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Scratch output (traces, spill directories), ignored by git.
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Worker threads for the grids: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every `NOMAD_*` variable changes what the program runs (obs, hot
/// profile, arena, local cache, faults, journal, resume, serve and
/// fleet budgets, scale, jobs). Clear them all before any library code
/// reads one; jobs and workers are set explicitly instead.
fn pin_environment() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NOMAD_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    if !knobs.is_empty() {
        eprintln!("perfbench: cleared {}", knobs.join(", "));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameter capping glibc's malloc arenas.
const M_ARENA_MAX: i32 = -8;

/// With a malloc arena per thread, which arena a new server thread
/// picks up after the last pass's threads exit depends on scheduling,
/// and the peak resident set of identical served runs falls into two
/// modes about 25% apart. One arena makes `peak_rss_mib` repeat.
fn pin_allocator() {
    // SAFETY: `mallopt` takes two plain integers and is called before
    // this process starts any thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } != 1 {
        eprintln!("perfbench: could not limit malloc arenas; peak_rss_mib will be noisier");
    }
}

fn main() {
    pin_allocator();
    pin_environment();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.record {
        if let Err(e) = grid::record().and_then(|()| served::record()) {
            eprintln!("perfbench: recording digests failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let seconds = Duration::from_secs(args.seconds.max(1));
    let result = match args.workload.as_str() {
        "grid-8c" => grid::run(&grid::GRID_8C, args.seed, seconds, args.trace),
        "grid-2c" => grid::run(&grid::GRID_2C, args.seed, seconds, args.trace),
        "served" => served::run(args.seed, seconds, args.trace),
        other => Err(std::io::Error::other(format!("unknown workload {other:?}"))),
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    outcome.set("peak_rss_mib", peak_rss_mib());
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed {} ({} host threads): {} attempted, {} failed, failed_ratio {}",
        args.workload,
        args.seed,
        nproc(),
        outcome.attempted,
        outcome.failed,
        outcome.failed_ratio()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, unit) in names {
        let v = outcome.metrics.get(name).copied().unwrap_or(0.0);
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    println!("{}", outcome.json_line(names));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must not drift.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json beside perfbench/");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(serde_json::Value::Array(list)) = doc.get_field(key) else {
                panic!("{key} is a list")
            };
            let text = |m: &serde_json::Value, k: &str| match m.get_field(k) {
                Some(serde_json::Value::Str(s)) => s.clone(),
                _ => panic!("metric without {k}"),
            };
            list.iter()
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn json_line_has_every_named_metric_and_counts() {
        let mut o = Outcome {
            attempted: 4,
            failed: 1,
            ..Outcome::default()
        };
        o.set("cells_per_s", 2.5);
        let line = o.json_line(END_TO_END);
        let doc: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        let text = serde_json::to_string(&doc).expect("serializes");
        assert!(text.contains("\"correct\":false"), "{text}");
        assert!(text.contains("\"cells_per_s\":{\"value\":2.5"), "{text}");
        assert!(text.contains("\"setup_s\":{\"value\":0"), "{text}");
        assert_eq!(o.failed_ratio(), 0.25);
    }

    #[test]
    fn rng_is_seeded_and_shuffles_a_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        let mut c: Vec<u32> = (0..20).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}
