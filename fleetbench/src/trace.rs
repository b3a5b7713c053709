//! In-memory span recording around the public calls the benchmark makes.
//!
//! A span is `(name, start, end, parent, slot)` with times in nanoseconds
//! since the tracer's epoch. Spans are recorded by the benchmark's own code
//! around calls into each layer; the program itself is not instrumented.
//! A disabled tracer records nothing and costs one branch per call, so the
//! untraced and traced runs execute the same code.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] when the tracer is disabled.
pub type SpanId = usize;

/// The id a disabled tracer hands out.
pub const NO_SPAN: SpanId = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer call the span covers (`ingest.route`, `engine.step`, …).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The provisioning slot the span belongs to.
    pub slot: usize,
}

impl Span {
    /// The span's wall time, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory; written out once at the end of a run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    pub fn enabled() -> Self {
        Self {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::enabled()
        }
    }

    /// Switches recording on or off (spans already recorded are kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, slot: usize) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.filter(|&p| p != NO_SPAN),
            slot,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN {
            return;
        }
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded so far (a mark for [`Tracer::truncate`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Forgets every span recorded after `mark`, bounding memory on long
    /// runs once their figures have been folded into the totals.
    pub fn truncate(&mut self, mark: usize) {
        self.spans.truncate(mark);
    }
}

/// Self time of every span in `spans`: its duration minus the durations of
/// its direct children. Children are found through `parent` ids relative to
/// the start of the whole trace, so `spans` must be a suffix of a trace
/// starting at index `offset`. Children that overrun their parent saturate
/// the parent's self time at zero.
pub fn self_times(spans: &[Span], offset: usize) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| p.checked_sub(offset)) {
            if let Some(slot) = own.get_mut(parent) {
                *slot = slot.saturating_sub(span.duration_ns());
            }
        }
    }
    own
}

/// Whether every span with a parent lies inside its parent's interval.
pub fn well_nested(spans: &[Span], offset: usize) -> bool {
    spans.iter().all(|span| match span.parent {
        None => true,
        Some(parent) => match parent.checked_sub(offset).and_then(|p| spans.get(p)) {
            Some(p) => p.start_ns <= span.start_ns && span.end_ns <= p.end_ns,
            None => false,
        },
    })
}

/// Serializes spans as a JSON document:
/// `{"spans": [{"name", "start_ns", "end_ns", "parent", "slot"}, …]}` plus
/// the caller's `header` fields (already-escaped `"key": value` pairs).
pub fn to_json(header: &[(String, String)], spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push('{');
    for (key, value) in header {
        let _ = write!(out, "\"{key}\": {value}, ");
    }
    out.push_str("\"spans\": [");
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\": {index}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"slot\": {}}}",
            span.name, span.start_ns, span.end_ns, span.slot
        );
    }
    out.push_str("]}");
    out
}
