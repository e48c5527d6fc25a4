//! In-memory span recorder for the traced replay.
//!
//! A span covers one call into a layer: name, start, end, parent span and
//! generation id, plus the recording thread. Spans stay in memory and are
//! written out once, when the run ends.

use std::cell::Cell;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Sentinel parent of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call the span covers, e.g. `species.assign`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// Generation the span belongs to.
    pub generation: u64,
    /// Small id of the recording thread.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the trace epoch (the first call in the process).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small, stable id for the calling thread.
pub fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static ID: Cell<u32> = const { Cell::new(u32::MAX) };
    }
    ID.with(|id| {
        if id.get() == u32::MAX {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

/// The span log of one run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, generation: u64) -> u32 {
        let start_ns = now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            generation,
            thread: thread_id(),
        })
    }

    /// Closes a span opened with [`Tracer::open`]; returns its duration.
    pub fn close(&mut self, index: u32) -> u64 {
        let span = &mut self.spans[index as usize];
        span.end_ns = now_ns();
        span.ns()
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `index`: its duration minus the part covered by
    /// its children on the same thread (children on worker threads run
    /// concurrently and are accounted as busy time, not subtracted).
    pub fn self_ns(&self, index: u32) -> u64 {
        let span = self.spans[index as usize];
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == index && s.thread == span.thread)
            .map(Span::ns)
            .sum();
        span.ns().saturating_sub(covered)
    }

    /// Writes the log as tab-separated lines
    /// `index name start_ns end_ns parent generation thread`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "index\tname\tstart_ns\tend_ns\tparent\tgeneration\tthread"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.generation, s.thread
            )?;
        }
        out.flush()
    }
}
