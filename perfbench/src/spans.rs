//! In-memory spans recorded by the traced run around calls into each
//! layer, their self times, and their export as a Chrome trace.

use std::sync::Mutex;
use std::time::Instant;

/// One timed call. All spans of one cell or one served request share
/// `id`; `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub cat: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Spans kept in memory until the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`close`](Self::close).
    pub fn open(
        &self,
        id: u64,
        cat: &'static str,
        name: &'static str,
        parent: Option<usize>,
    ) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder lock");
        spans.push(Span {
            id,
            cat,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        spans.len() - 1
    }

    /// Close span `idx` and return its duration in nanoseconds.
    pub fn close(&self, idx: usize) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder lock");
        spans[idx].end_ns = end_ns;
        end_ns - spans[idx].start_ns
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        id: u64,
        cat: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.open(id, cat, name, parent);
        let r = f();
        self.close(idx);
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder lock")
    }
}

/// Each span's self time: its duration minus the part of it that its
/// child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Total self time, in seconds, of the spans named `name`.
pub fn self_total_s(spans: &[Span], self_ns: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 * 1e-9)
        .sum()
}

/// The spans as Chrome Trace Event JSON, in the format the simulator's
/// own traces use. Each cell or request is one track (`tid` = its id),
/// so its spans nest by time in Perfetto; timestamps are host
/// microseconds since the run started.
pub fn chrome_json(process: &str, spans: &[Span]) -> String {
    let ring = nomad_obs::SpanRing::new(spans.len());
    for s in spans {
        let ts = s.start_ns / 1000;
        let dur = (s.end_ns / 1000).saturating_sub(ts);
        ring.push(nomad_obs::Span::complete(
            s.name,
            s.cat,
            ts,
            dur,
            s.id as u32,
        ));
    }
    nomad_obs::trace::chrome_trace(process, &[], &ring, None, &[])
}

/// Write the traced run's spans under `perfbench/out/`.
pub fn write_trace(stem: &str, spans: &[Span], out: &mut crate::Outcome) {
    let path = crate::out_dir().join(format!("{stem}.trace.json"));
    let written = std::fs::create_dir_all(crate::out_dir())
        .and_then(|()| std::fs::write(&path, chrome_json(stem, spans)));
    match written {
        Ok(()) => out.notes.push(format!("trace: {}", path.display())),
        Err(e) => out.notes.push(format!("trace not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            id: 1,
            cat: "t",
            name: "s",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),
            span(90, 120, Some(0)),
            span(12, 18, Some(1)),
        ];
        // The parent's children cover [10, 40) and [90, 100).
        assert_eq!(self_times_ns(&spans), vec![60, 14, 20, 30, 6]);
        let ns = self_times_ns(&spans);
        assert!((self_total_s(&spans, &ns, "s") - 130e-9).abs() < 1e-18);
    }

    #[test]
    fn recorder_nests_and_exports_chrome_trace() {
        let rec = Recorder::new();
        let outer = rec.open(3, "bench", "cell", None);
        rec.time(3, "sim", "sim.run", Some(outer), || {
            std::hint::black_box(1 + 1)
        });
        rec.close(outer);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_json("test", &spans);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"sim.run\""));
        assert!(json.contains("\"tid\":3"));
        serde_json::from_str::<serde_json::Value>(&json).expect("valid JSON");
    }
}
