//! In-memory spans around the benchmark's calls into each crate, written
//! out as JSONL when the run ends.

use crate::report::Report;
use crate::stats::median;
use chiplet_traffic::{PacketRequest, Workload};
use hetero_if::sim::{run, RunOutcome, RunSpec};
use hetero_if::Network;
use simkit::metrics::{MetricValue, MetricsSnapshot};
use simkit::Cycle;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval, or a total accumulated over many short calls
/// (`calls > 1`) that would be too many to keep one by one.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    calls: u64,
}

/// The span recorder of a traced run. Spans nest: a span begun while
/// another is open records that one as its parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) {
        let id = self.spans.len();
        let now = Instant::now();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|&(p, _)| p),
            name,
            start_ns: (now - self.origin).as_nanos() as u64,
            dur_ns: 0,
            calls: 1,
        });
        self.open.push((id, now));
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (unbalanced begin/end is a bug).
    pub fn end(&mut self) {
        let (id, started) = self.open.pop().expect("end() without an open span");
        self.spans[id].dur_ns = started.elapsed().as_nanos() as u64;
    }

    /// Records `total` spent over `calls` calls of `name` under the
    /// innermost open span.
    pub fn add_total(&mut self, name: &'static str, total: Duration, calls: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().map(|&(p, _)| p),
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: total.as_nanos() as u64,
            calls,
        });
    }

    /// A mark from which [`Tracer::seconds`] sums.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds of the spans named `name` recorded since `mark`.
    pub fn seconds(&self, name: &str, mark: usize) -> f64 {
        self.durations(name, mark).iter().fold(0.0, |a, b| a + b)
    }

    /// The durations, in seconds, of the spans named `name` since `mark`.
    pub fn durations(&self, name: &str, mark: usize) -> Vec<f64> {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"dur_ns\": {}, \"calls\": {}}}",
                s.id, s.name, s.start_ns, s.dur_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// A workload wrapper that times every `poll` and `observe` call into the
/// wrapped generator (the only host time `chiplet-traffic` spends inside
/// a run).
#[derive(Debug)]
pub struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    /// Host time spent in `poll` and `observe`.
    pub busy: Duration,
    /// Calls timed.
    pub calls: u64,
}

impl<'a> TimedWorkload<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn Workload) -> Self {
        Self {
            inner,
            busy: Duration::ZERO,
            calls: 0,
        }
    }
}

impl Workload for TimedWorkload<'_> {
    fn poll(&mut self, now: Cycle, out: &mut Vec<PacketRequest>) {
        let t = Instant::now();
        self.inner.poll(now, out);
        self.busy += t.elapsed();
        self.calls += 1;
    }

    fn done(&self) -> bool {
        self.inner.done()
    }

    fn observe(&mut self, now: Cycle, delivered_by_tag: &[u64]) {
        let t = Instant::now();
        self.inner.observe(now, delivered_by_tag);
        self.busy += t.elapsed();
        self.calls += 1;
    }
}

/// Runs `net` on `workload` under `spec` with the workload's calls timed
/// and the run itself recorded as a `hetero-if.run` span.
pub fn traced_run(
    tr: &mut Tracer,
    net: &mut Network,
    workload: &mut dyn Workload,
    spec: RunSpec,
) -> RunOutcome {
    let mut w = TimedWorkload::new(workload);
    let out = tr.span("hetero-if.run", || run(net, &mut w, spec));
    tr.add_total("chiplet-traffic.workload", w.busy, w.calls);
    out
}

/// Totals of the engine's layers over the traced rounds of a run, from
/// the counters the program already exposes after each run.
#[derive(Debug, Default)]
pub struct EngineLayers {
    builds: f64,
    phases: f64,
    link_flits: f64,
    sim_cycles: f64,
    flits_allocated: f64,
    dispatch_parallel: f64,
    dispatch_serial: f64,
    rob_max: f64,
    barrier_wait_s: f64,
    active_max: f64,
    active_min: f64,
}

impl EngineLayers {
    /// Adds one finished run of `net` (built once, driving `phases`
    /// workload phases), given its metrics snapshot.
    pub fn add(&mut self, net: &Network, snap: &MetricsSnapshot, phases: usize) {
        let dispatch = |phy| {
            snap.scalar("phy_dispatch_total", &[("phy", phy)])
                .unwrap_or(0) as f64
        };
        let rob = snap
            .entries()
            .iter()
            .filter(|e| e.spec.name == "rob_occupancy_max")
            .filter_map(|e| match e.value {
                MetricValue::Scalar(v) => Some(v as f64),
                _ => None,
            })
            .fold(0.0, f64::max);
        let active = net.shard_active_cycles();
        self.builds += 1.0;
        self.phases += phases as f64;
        self.link_flits += net.link_flits().iter().sum::<u64>() as f64;
        self.sim_cycles += net.now() as f64;
        self.flits_allocated += net.flits_allocated_total() as f64;
        self.dispatch_parallel += dispatch("parallel");
        self.dispatch_serial += dispatch("serial");
        self.rob_max = self.rob_max.max(rob);
        self.barrier_wait_s += snap.scalar_sum("barrier_wait_ns_total") as f64 * 1e-9;
        self.active_max += active.iter().copied().max().unwrap_or(0) as f64;
        self.active_min += active.iter().copied().min().unwrap_or(0) as f64;
    }

    /// Sets the engine's per-layer metrics, per traced round, from these
    /// totals and the spans recorded since `mark` over `rounds` rounds.
    pub fn report(&self, report: &mut Report, tr: &Tracer, mark: usize, rounds: usize) {
        let per_round = |v: f64| v / rounds as f64;
        let span = |name| per_round(tr.seconds(name, mark));
        let run_s = tr.seconds("hetero-if.run", mark);
        for (name, value) in [
            ("hetero-if.build_s", span("hetero-if.build")),
            ("hetero-if.build_count", per_round(self.builds)),
            ("chiplet-topo.topology_s", span("chiplet-topo.topology")),
            ("hetero-if.run_s", per_round(run_s)),
            (
                "hetero-if.run_ns_per_link_flit",
                run_s * 1e9 / self.link_flits.max(1.0),
            ),
            ("hetero-if.sim_cycles", per_round(self.sim_cycles)),
            ("hetero-if.flits_allocated", per_round(self.flits_allocated)),
            (
                "chiplet-phy.dispatch_parallel",
                per_round(self.dispatch_parallel),
            ),
            (
                "chiplet-phy.dispatch_serial",
                per_round(self.dispatch_serial),
            ),
            ("chiplet-phy.rob_occupancy_max", self.rob_max),
            (
                "chiplet-traffic.workload_s",
                span("chiplet-traffic.workload"),
            ),
            (
                "chiplet-traffic.dnn_build_s",
                span("chiplet-traffic.dnn_build"),
            ),
            ("chiplet-traffic.phases", per_round(self.phases)),
            ("hetero-if.barrier_wait_s", per_round(self.barrier_wait_s)),
            (
                "hetero-if.shard_active_cycles_max",
                per_round(self.active_max),
            ),
            (
                "hetero-if.shard_active_cycles_min",
                per_round(self.active_min),
            ),
            (
                "hetero-if.metrics_snapshot_s",
                span("hetero-if.metrics_snapshot"),
            ),
        ] {
            report.set(name, value);
        }
    }
}

/// Sets the tracing overhead: the median traced round's wall time minus
/// the median untraced round's, in seconds and as a share of the latter.
pub fn report_overhead(report: &mut Report, traced_walls: &[f64], walls: &[f64]) {
    let overhead = median(traced_walls) - median(walls);
    report.set("trace.overhead_s", overhead);
    report.set("trace.overhead_pct", 100.0 * overhead / median(walls));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut t = Tracer::default();
        t.begin("round");
        let mark = t.mark();
        t.span("build", || std::thread::sleep(Duration::from_millis(2)));
        t.span("build", || ());
        t.add_total("poll", Duration::from_millis(3), 10);
        t.end();
        assert_eq!(t.durations("build", mark).len(), 2);
        assert!(t.seconds("build", mark) >= 0.002);
        assert!((t.seconds("poll", mark) - 0.003).abs() < 1e-12);
        assert!(t.seconds("round", 0) >= t.seconds("build", mark));
        assert!(t.spans[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(t.seconds("build", t.mark()), 0.0);
    }
}
