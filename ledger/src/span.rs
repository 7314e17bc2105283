//! In-memory spans around every call the benchmark makes into a layer.
//! Recorded only on traced runs, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one operation share its id.
    pub op: u32,
}

/// Span store. A recorder that is off runs the closure and records
/// nothing, so traced and untraced runs execute the same benchmark code.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The instant span timestamps count nanoseconds from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adds a span from timestamps taken elsewhere (another thread's
    /// clock readings, counted from [`epoch`](Self::epoch)).
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<u32>,
        f: impl FnOnce(&mut Recorder, Option<u32>) -> T,
    ) -> T {
        if !self.on {
            return f(self, None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        let out = f(self, Some(id));
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: name, start, end, parent, op.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id": {i}, "name": "{}", "start_ns": {}, "end_ns": {}, "parent": {parent}, "op": {}}}"#,
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Total duration and self time per span name. A span's self time is
/// its duration minus the part of that interval its children cover
/// (children are clipped to the parent and overlapping children are
/// counted once).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = 0u64;
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` by 10 and runs 20 past the parent's end.
            span("b", 30, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        let t = totals_by_name(&spans);
        // Children cover [10,100) of the parent: self = 10.
        assert_eq!(t["op"].self_ns, 10);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["a"].self_ns, 30 - 8);
        assert_eq!(t["b"].self_ns, 90);
        assert_eq!(
            t["leaf"],
            NameTotals {
                count: 1,
                total_ns: 8,
                self_ns: 8
            }
        );
    }

    #[test]
    fn recorder_nests_and_orders() {
        let mut r = Recorder::new(true);
        r.span("op", 7, None, |r, id| {
            r.span("child", 7, id, |_, _| std::hint::black_box(1));
        });
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].op), ("op", None, 7));
        assert_eq!((s[1].name, s[1].parent), ("child", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let mut off = Recorder::new(false);
        assert_eq!(off.span("op", 0, None, |_, id| id), None);
        assert!(off.spans().is_empty());
    }
}
