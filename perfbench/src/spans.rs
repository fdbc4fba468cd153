//! In-memory span log: the traced run records where each request's wall
//! time went, computes self and unattributed time from it, and writes the
//! spans out as JSON lines at the end.

use std::io::Write;
use std::time::Instant;

/// One timed interval, in nanoseconds since the log's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed (`request`, `engine.run`, `net.send`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (≥ `start`).
    pub end: u64,
    /// Index of the parent span in the log, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to (`None` for set-up and teardown).
    pub request: Option<usize>,
}

/// Total length of the union of `intervals` clipped to `[lo, hi)`:
/// overlapping intervals are counted once.
pub fn union_len(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match &mut current {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = current {
                    total += ce - cs;
                }
                current = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Self time of a `[start, end)` span: its length minus the time any of
/// its children covers, overlapping children counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - union_len(start, end, children)
}

/// Append-only span log with a shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The log's epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span between two instants, returning its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent,
            request,
        };
        self.push(span)
    }

    /// Appends an already-converted span, returning its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Parent [0, 100); children overlap on [20, 30).
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        // Nested child inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 50), (20, 30)]), 60);
        // Adjacent children merge without double counting.
        assert_eq!(self_time(0, 100, &[(10, 20), (20, 30)]), 80);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time(50, 100, &[(0, 10), (120, 130)]), 50);
        assert_eq!(self_time(0, 10, &[]), 10);
    }

    #[test]
    fn union_handles_unsorted_and_empty_intervals() {
        assert_eq!(
            union_len(0, 100, &[(60, 70), (5, 5), (10, 20), (65, 90)]),
            40
        );
        assert_eq!(union_len(0, 100, &[]), 0);
    }

    #[test]
    fn log_writes_one_json_line_per_span() {
        let mut log = SpanLog::new();
        let t = log.epoch();
        let root = log.record("request", t, t, None, Some(0));
        log.record("engine.run", t, t, Some(root), Some(0));
        let mut out = Vec::new();
        log.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"engine.run\""));
        assert!(text.contains("\"parent\":0"));
    }
}
