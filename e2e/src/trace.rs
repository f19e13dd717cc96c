//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around every call it makes into a
//! layer of the stack (spans *inside* the program are a later change).
//! Spans live in a buffer allocated before the first timed round and
//! are only written out, if asked, after the last one. A disabled
//! tracer costs one predictable branch per call, so the untraced run —
//! the one every end-to-end metric comes from — is not perturbed.

use std::time::Instant;

/// The layers of the stack, named after the workspace crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Matrix,
    Features,
    Learn,
    Kernels,
    Pool,
    Core,
    Amg,
    Service,
    /// The benchmark's own work (frame building, verification, the
    /// client side of a socket).
    Harness,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Matrix,
        Layer::Features,
        Layer::Learn,
        Layer::Kernels,
        Layer::Pool,
        Layer::Core,
        Layer::Amg,
        Layer::Service,
        Layer::Harness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Matrix => "matrix",
            Layer::Features => "features",
            Layer::Learn => "learn",
            Layer::Kernels => "kernels",
            Layer::Pool => "pool",
            Layer::Core => "core",
            Layer::Amg => "amg",
            Layer::Service => "service",
            Layer::Harness => "harness",
        }
    }
}

/// One recorded interval. `parent` is the span that was open when this
/// one began (`u32::MAX` for a root); `request` groups the spans of one
/// operation of the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub layer: Layer,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Token returned by [`Tracer::begin`]; hand it back to
/// [`Tracer::end`]. `None` inside means tracing is off.
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    enabled: bool,
    request: u32,
    /// Spans refused because the preallocated buffer was full; they
    /// are counted rather than letting the buffer grow mid-round.
    pub dropped: u64,
}

impl Tracer {
    /// A tracer with room for `capacity` spans; recording starts off.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(16),
            enabled: false,
            request: 0,
            dropped: 0,
        }
    }

    /// Turns recording on or off (between rounds, never mid-span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled with a span open");
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next operation of the script: spans recorded until
    /// the next call share its identifier.
    pub fn next_request(&mut self) {
        self.request = self.request.wrapping_add(1);
    }

    pub fn begin(&mut self, layer: Layer, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            layer,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Records a span around `f`.
    pub fn span<R>(&mut self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(layer, name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds of self time per layer, in [`Layer::ALL`] order.
    pub fn self_seconds_by_layer(&self) -> [f64; Layer::ALL.len()] {
        let mut out = [0.0; Layer::ALL.len()];
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let slot = Layer::ALL
                .iter()
                .position(|&l| l == span.layer)
                .expect("every layer is listed in Layer::ALL");
            out[slot] += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes the spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.request,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of that
/// interval its direct children cover. Children of one parent are
/// recorded by one thread and never overlap, so their durations add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let child = s.end_ns.saturating_sub(s.start_ns);
            let slot = &mut own[s.parent as usize];
            *slot = slot.saturating_sub(child);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            layer,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // request 0..100 { prepare 10..70 { features 20..40 } write 80..95 }
        let spans = [
            span(0, NO_PARENT, Layer::Harness, 0, 100),
            span(1, 0, Layer::Core, 10, 70),
            span(2, 1, Layer::Features, 20, 40),
            span(3, 0, Layer::Service, 80, 95),
        ];
        assert_eq!(self_times(&spans), vec![100 - 60 - 15, 60 - 20, 20, 15]);
    }

    #[test]
    fn self_times_sum_to_the_root_durations() {
        let spans = [
            span(0, NO_PARENT, Layer::Harness, 0, 50),
            span(1, 0, Layer::Core, 5, 45),
            span(2, 1, Layer::Matrix, 6, 20),
            span(3, 1, Layer::Kernels, 20, 44),
            span(4, NO_PARENT, Layer::Harness, 60, 90),
        ];
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 50 + 30);
    }

    #[test]
    fn tracer_nests_and_attributes_layers() {
        let mut t = Tracer::with_capacity(8);
        t.set_enabled(true);
        t.next_request();
        let outer = t.begin(Layer::Core, "prepare");
        t.span(Layer::Features, "extract", || std::hint::black_box(1 + 1));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[0].request, spans[1].request);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let by_layer = t.self_seconds_by_layer();
        let total: f64 = by_layer.iter().sum();
        let root = (spans[0].end_ns - spans[0].start_ns) as f64 * 1e-9;
        assert!((total - root).abs() < 1e-12);
    }

    #[test]
    fn disabled_or_full_tracer_records_nothing() {
        let mut t = Tracer::with_capacity(1);
        t.span(Layer::Core, "off", || ());
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span(Layer::Core, "kept", || ());
        t.span(Layer::Core, "dropped", || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
