//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's calls into each module (and
//! around model passes, via [`TimedLayer`]), kept in memory, and written out
//! when the run ends. A span's parent is the innermost span open on the same
//! thread when it started; spans belonging to one request carry its id.
//! Recording is off unless [`enable`] was called, and then costs one branch.

use appeal_tensor::{Layer, Param, Tensor};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished (or still open, `end_ns == u64::MAX`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request id, or `u64::MAX` for spans that belong to no one request.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Marks spans that belong to no single request.
pub const NO_ID: u64 = u64::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn origin() -> Instant {
    *ORIGIN.get_or_init(Instant::now)
}

fn nanos(at: Instant) -> u64 {
    at.saturating_duration_since(origin()).as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
}

/// Starts recording spans (and drops any recorded earlier).
pub fn enable() {
    origin();
    spans().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and hands back every span recorded since [`enable`].
pub fn take() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *spans())
}

/// The position the next recorded span will take.
pub fn mark() -> usize {
    spans().len()
}

/// A copy of the spans recorded since `mark`, with parents renumbered to
/// positions in the copy (a parent recorded before `mark` is dropped).
pub fn since(mark: usize) -> Vec<Span> {
    let store = spans();
    store
        .get(mark..)
        .unwrap_or_default()
        .iter()
        .map(|s| Span {
            parent: s.parent.and_then(|p| p.checked_sub(mark)),
            ..s.clone()
        })
        .collect()
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<usize>);

/// Opens a span that closes when the returned guard drops.
pub fn span(name: &'static str, id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard(None);
    }
    let start_ns = nanos(Instant::now());
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let index = {
        let mut store = spans();
        store.push(Span {
            name,
            id,
            start_ns,
            end_ns: u64::MAX,
            parent,
        });
        store.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    SpanGuard(Some(index))
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            let end_ns = nanos(Instant::now());
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(pos) = open.iter().rposition(|&i| i == index) {
                    open.remove(pos);
                }
            });
            if let Ok(mut store) = SPANS.lock() {
                if let Some(s) = store.get_mut(index) {
                    s.end_ns = end_ns;
                }
            }
        }
    }
}

/// Records a span whose start and end were taken elsewhere (for example a
/// request timed from its due time to its answer on another thread).
pub fn record(name: &'static str, id: u64, start: Instant, end: Instant) {
    if enabled() {
        spans().push(Span {
            name,
            id,
            start_ns: nanos(start),
            end_ns: nanos(end),
            parent: None,
        });
    }
}

/// Per-name totals: span count, summed duration, and summed self time
/// (duration minus the part covered by direct children).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Aggregates closed spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let closed = |s: &Span| s.end_ns != u64::MAX;
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| closed(s)) {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        if !closed(s) {
            continue;
        }
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ms += dur as f64 / 1e6;
        t.self_ms += dur.saturating_sub(children) as f64 / 1e6;
    }
    out
}

/// Writes one tab-separated line per span: name, id, start, end, parent.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tid\tstart_ns\tend_ns\tparent")?;
    for (i, s) in spans.iter().enumerate() {
        let id = if s.id == NO_ID {
            "-".to_string()
        } else {
            s.id.to_string()
        };
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{i}\t{}\t{id}\t{}\t{}\t{parent}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// A layer that records a span around every forward and backward pass of
/// the layer it wraps and otherwise delegates to it unchanged, so the
/// numerics are those of the wrapped layer.
pub struct TimedLayer {
    name: &'static str,
    inner: Box<dyn Layer>,
}

impl TimedLayer {
    pub fn wrap(name: &'static str, inner: Box<dyn Layer>) -> Box<dyn Layer> {
        Box::new(Self { name, inner })
    }
}

impl Layer for TimedLayer {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let _span = span(self.name, NO_ID);
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let _span = span(self.name, NO_ID);
        self.inner.backward(grad_output)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        self.inner.output_shape(input_shape)
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        self.inner.flops(input_shape)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Self {
            name: self.name,
            inner: self.inner.clone_box(),
        })
    }

    fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            id: NO_ID,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut spans = vec![at(0, 10_000_000, None), at(1_000_000, 4_000_000, Some(0))];
        spans.push(at(2_000_000, 3_000_000, Some(1)));
        spans[1].name = "child";
        spans[2].name = "grandchild";
        let t = totals(&spans);
        assert_eq!(t["x"].self_ms, 7.0);
        assert_eq!(t["child"].self_ms, 2.0);
        assert_eq!(t["grandchild"].self_ms, 1.0);
        assert_eq!(t["x"].total_ms, 10.0);
    }
}
