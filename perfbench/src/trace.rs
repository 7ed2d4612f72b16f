//! In-memory spans around each layer call, and the arithmetic the
//! ledger takes from them.
//!
//! Spans are recorded from the benchmark's own files only: around the
//! client, transport and read-port calls on the generator thread, and
//! inside the storage wrappers on whatever thread the server stores
//! from. A storage span carries no explicit parent; it belongs to the
//! pump whose interval contains it, which is how store calls on other
//! threads (a replica group's members, the engine's group-commit
//! writer) are charged to the round that waited for them.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The layer boundary a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Op generation and output check (harness cost).
    Gen,
    /// `KvsClient::invoke_wire` / `LcmClient::read_for`.
    Encode,
    /// `KvsClient::complete` / `LcmClient::handle_read_reply`.
    Verify,
    /// `ReadPort::serve_read`.
    ServerRead,
    /// `Deployment::process_all`.
    Pump,
    /// A store into the delta-log engine (`DeltaLogStorage::store`).
    Commit,
    /// A store into the device under the engine.
    Device,
    /// A load from the engine (replica shipping of the leader state).
    Load,
}

impl Layer {
    /// Span name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Gen => "bench.gen",
            Layer::Encode => "client.encode",
            Layer::Verify => "client.verify",
            Layer::ServerRead => "server.read",
            Layer::Pump => "transport.pump",
            Layer::Commit => "storage.commit",
            Layer::Device => "storage.device_write",
            Layer::Load => "storage.load",
        }
    }
}

/// Op id of spans that belong to no single operation.
pub const NO_OP: u64 = u64::MAX;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary.
    pub layer: Layer,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Operation id (pump round id for pumps, [`NO_OP`] for storage).
    pub op: u64,
    /// Small per-process id of the recording thread.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The span recorder. Off by default; while off, `begin` returns
/// `None` and nothing is timed or stored.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Tracer {
    /// Turns recording on or off.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    /// Start stamp of a span, or `None` while tracing is off.
    pub fn begin(&self) -> Option<u64> {
        self.on.load(Ordering::Relaxed).then(|| self.now())
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, layer: Layer, start: Option<u64>, op: u64) {
        if let Some(start) = start {
            let span = Span {
                layer,
                start,
                end: self.now(),
                op,
                thread: thread_id(),
            };
            self.spans.lock().expect("span buffer lock").push(span);
        }
    }

    /// Removes and returns every recorded span, ordered by start.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer lock"));
        spans.sort_by_key(|s| (s.start, s.end));
        spans
    }
}

/// Writes spans as tab-separated `id name start_ns end_ns parent op
/// thread`, where `parent` is the id of the pump containing a storage
/// span (by time) or of the engine commit containing a device write
/// (same thread, by time), and `-` otherwise.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let parents = parents(spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\top\tthread")?;
    for (i, (s, p)) in spans.iter().zip(&parents).enumerate() {
        let parent = p.map_or("-".to_string(), |p| p.to_string());
        let op = if s.op == NO_OP {
            "-".to_string()
        } else {
            s.op.to_string()
        };
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{op}\t{}",
            s.layer.name(),
            s.start,
            s.end,
            s.thread
        )?;
    }
    out.flush()
}

/// The parent of each span of a start-ordered list: a device write's
/// innermost enclosing commit on its own thread, a commit's or load's
/// enclosing pump.
pub fn parents(spans: &[Span]) -> Vec<Option<usize>> {
    let contains = |p: &Span, c: &Span| p.start <= c.start && c.end <= p.end;
    let pumps: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].layer == Layer::Pump)
        .collect();
    let mut open_commits: Vec<usize> = Vec::new();
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| match s.layer {
            Layer::Commit | Layer::Load => {
                if s.layer == Layer::Commit {
                    open_commits.push(i);
                }
                let at = pumps.partition_point(|&p| spans[p].start <= s.start);
                at.checked_sub(1)
                    .map(|k| pumps[k])
                    .filter(|&p| contains(&spans[p], s))
            }
            Layer::Device => {
                open_commits.retain(|&c| spans[c].end >= s.start);
                open_commits
                    .iter()
                    .rev()
                    .copied()
                    .find(|&c| spans[c].thread == s.thread && contains(&spans[c], s))
            }
            _ => None,
        })
        .collect()
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (each clipped to the interval). Children may overlap one another.
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut total, mut reach) = (0, start);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of each parent interval: its length minus the part its
/// children cover. `parents` must be disjoint and sorted by start.
pub fn self_times(parents: &[(u64, u64)], children: &[(u64, u64)]) -> Vec<u64> {
    let mut children = children.to_vec();
    children.sort_unstable();
    // Children starting up to one longest child before a parent can
    // still reach into it.
    let longest = children.iter().map(|c| c.1 - c.0).max().unwrap_or(0);
    parents
        .iter()
        .map(|&(s, e)| {
            let lo = children.partition_point(|c| c.0 + longest <= s);
            let hi = children.partition_point(|c| c.0 < e);
            (e - s) - covered(s, e, &children[lo..hi.max(lo)])
        })
        .collect()
}

/// A percentile of a sample, with the rule that makes it reportable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (nearest rank).
    pub value: f64,
    /// Samples the value was taken from.
    pub samples: usize,
}

/// The `q`-quantile (0 < q < 1) of `sorted` by nearest rank, or `None`
/// unless at least ten samples lie above it — the highest percentile a
/// sample of `n` supports is the one with `n·(1 − q) ≥ 10`.
pub fn percentile(sorted: &[f64], q: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n == 0 || (n as f64) * (1.0 - q) < 10.0 - 1e-9 {
        return None;
    }
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
    })
}

/// Sorts a sample for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let p = percentile(&ramp(1000), 0.5).unwrap();
        assert_eq!((p.value, p.samples), (500.0, 1000));
        assert_eq!(percentile(&ramp(1000), 0.99).unwrap().value, 990.0);
        assert_eq!(percentile(&ramp(2001), 0.99).unwrap().value, 1981.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(percentile(&ramp(999), 0.99).is_none());
        assert!(percentile(&ramp(1000), 0.99).is_some());
        assert!(percentile(&ramp(19), 0.5).is_none());
        assert!(percentile(&ramp(20), 0.5).is_some());
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn coverage_is_the_union_of_clipped_children() {
        // Overlapping children count once; parts outside the parent
        // do not count.
        assert_eq!(covered(100, 200, &[(90, 120), (110, 130), (150, 160)]), 40);
        assert_eq!(covered(100, 200, &[(50, 250)]), 100);
        assert_eq!(covered(100, 200, &[(0, 50), (200, 300)]), 0);
        assert_eq!(covered(100, 200, &[(120, 180), (130, 140), (170, 190)]), 70);
    }

    #[test]
    fn self_time_subtracts_child_coverage_per_parent() {
        let parents = [(0, 100), (200, 300), (400, 500)];
        // A child straddling two parents is charged to each only for
        // its part inside; two overlapping children on other threads
        // count once.
        let children = [(50, 250), (420, 460), (440, 480)];
        assert_eq!(self_times(&parents, &children), vec![50, 50, 40]);
    }

    #[test]
    fn storage_spans_nest_in_pumps_and_devices_in_commits() {
        let s = |layer, start, end, thread| Span {
            layer,
            start,
            end,
            op: NO_OP,
            thread,
        };
        let spans = vec![
            s(Layer::Pump, 0, 100, 0),
            s(Layer::Commit, 10, 60, 1),
            s(Layer::Commit, 20, 50, 2),
            s(Layer::Device, 25, 45, 2),
            s(Layer::Device, 30, 40, 1),
            s(Layer::Commit, 150, 160, 1),
        ];
        assert_eq!(
            parents(&spans),
            vec![None, Some(0), Some(0), Some(2), Some(1), None]
        );
    }
}
