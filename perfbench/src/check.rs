//! Correctness references: FNV-1a digests of each output's JSON, keyed
//! by the output's identity.

use nomad_bench::figs::Row;
use std::collections::HashMap;
use std::io;

/// Expected output digest by key (`workload/scheme` for grid rows, the
/// pool index for served jobs).
pub type Digests = HashMap<String, u64>;

pub fn digest(json: &str) -> u64 {
    nomad_types::hash::fnv1a(json.as_bytes())
}

pub fn row_key(row: &Row) -> String {
    format!("{}/{}", row.workload, row.scheme)
}

pub fn row_digest(row: &Row) -> u64 {
    digest(&serde_json::to_string(row).expect("rows serialize"))
}

fn digest_path(name: &str) -> std::path::PathBuf {
    crate::bench_dir()
        .join("digests")
        .join(format!("{name}.txt"))
}

/// Digests recorded by `--record`, one `key hex` pair a line.
pub fn load(name: &str) -> io::Result<Digests> {
    let text = std::fs::read_to_string(digest_path(name))?;
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.split_once(' ').unwrap_or((l, ""));
            u64::from_str_radix(hex.trim(), 16)
                .map(|d| (key.to_string(), d))
                .map_err(|_| io::Error::other(format!("bad digest line {l:?}")))
        })
        .collect()
}

pub fn save(name: &str, header: &str, entries: &[(String, u64)]) -> io::Result<()> {
    let mut text = format!("# {header}\n");
    for (key, d) in entries {
        text.push_str(&format!("{key} {d:016x}\n"));
    }
    std::fs::write(digest_path(name), text)
}

/// The rows of the committed head-to-head artifact whose scheme is one
/// of `schemes`.
pub fn artifact_rows(artifact: &str, schemes: &[&str]) -> io::Result<Digests> {
    let path = crate::bench_dir()
        .join("../results")
        .join(format!("{artifact}.json"));
    let rows: Vec<Row> = serde_json::from_str(&std::fs::read_to_string(path)?)
        .map_err(|e| io::Error::other(format!("{artifact}.json: {e}")))?;
    Ok(rows
        .iter()
        .filter(|r| schemes.contains(&r.scheme.as_str()))
        .map(|r| (row_key(r), row_digest(r)))
        .collect())
}

/// Expected outputs that are missing from `rows` or differ from their
/// reference, plus rows no reference expects.
pub fn row_failures(expect: &Digests, rows: &[Row]) -> u64 {
    let got: HashMap<String, u64> = rows.iter().map(|r| (row_key(r), row_digest(r))).collect();
    let wrong = expect
        .iter()
        .filter(|(k, d)| got.get(*k) != Some(d))
        .count();
    let unexpected = got.keys().filter(|k| !expect.contains_key(*k)).count();
    (wrong + unexpected) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(workload: &str, scheme: &str, ipc: f64) -> Row {
        Row {
            workload: workload.into(),
            class: "Few".into(),
            scheme: scheme.into(),
            ipc,
            dc_access_time: 1.5,
            tag_mgmt_latency: 0.0,
            os_stall_ratio: 0.0,
            mem_stall_ratio: 0.25,
            rmhb_gbps: 0.0,
            llc_mpms: 3.0,
            hbm_gbps: [0.0, 1.0, 0.0, 0.0, 0.0],
            hbm_row_hit: 0.5,
            ddr_gbps: 2.0,
            buffer_hit_rate: 0.0,
        }
    }

    /// A forced mismatch in one output raises the failure count, and so
    /// the run's `failed_ratio`.
    #[test]
    fn forced_digest_mismatch_counts_as_failed() {
        let rows = vec![row("mcf", "NOMAD", 0.75), row("tc", "TDC", 0.5)];
        let expect: Digests = rows.iter().map(|r| (row_key(r), row_digest(r))).collect();
        assert_eq!(row_failures(&expect, &rows), 0);

        let mut bad = rows.clone();
        bad[1].ipc = 0.5000000000000001;
        let mut outcome = crate::Outcome {
            attempted: 2,
            failed: row_failures(&expect, &bad),
            ..crate::Outcome::default()
        };
        assert_eq!(outcome.failed, 1);
        assert_eq!(outcome.failed_ratio(), 0.5);
        assert!(outcome
            .json_line(crate::END_TO_END)
            .contains("\"correct\": false"));

        outcome.failed = row_failures(&expect, &rows[..1]);
        assert_eq!(outcome.failed, 1, "a missing row fails too");
    }

    /// JSON round-trips a row exactly, so a parsed reference row has the
    /// digest of the row it was written from.
    #[test]
    fn digest_survives_a_json_round_trip() {
        let r = row("bwav", "Ideal", 0.1 + 0.2);
        let back: Row = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(row_digest(&back), row_digest(&r));
    }
}
