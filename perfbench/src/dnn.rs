//! `dnn-allreduce`: a series of DNN training steps (`PhaseGraph::dnn`,
//! ring and tree all-reduce, several layer counts and compute scales) on
//! the hetero-channel network at PARSEC scale, run by the sharded engine
//! on two threads with idle-skip on and the metrics registry armed. Each
//! step exports its per-phase series. Release on ejection, idle-skip and
//! the shard barriers at low average load do most of the work here.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{report_overhead, traced_run, EngineLayers, Tracer};
use crate::{peak_rss_mib, repeat, Ops, Opts, Rng};
use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::{DnnSpec, PhaseGraph};
use hetero_if::network::TagStats;
use hetero_if::presets::parsec_system;
use hetero_if::sim::{self, RunSpec};
use hetero_if::{Network, NetworkKind, SchedulingProfile, SimConfig, SimResults};
use simkit::json::{parse, Json};
use simkit::Cycle;
use std::collections::HashMap;
use std::time::Instant;

const KIND: NetworkKind = NetworkKind::HeteroChannelFull;

/// Shard threads of the timed steps (never more than the two cores the
/// reference host has).
const THREADS: usize = 2;

/// One training step: a `dnn:` spec, its compute scale, and the
/// measurement window every packet must be created in, with a margin
/// over the cycles the step needs on this network.
struct Step {
    spec: &'static str,
    scale: f64,
    window: Cycle,
}

/// Seven steps, so that the median step time falls inside one step's
/// own distribution rather than in the gap between two.
const STEPS: [Step; 7] = [
    Step {
        spec: "layers=2,allreduce=ring",
        scale: 1.0,
        window: 40_000,
    },
    Step {
        spec: "layers=4,allreduce=ring",
        scale: 0.5,
        window: 80_000,
    },
    Step {
        spec: "layers=3,allreduce=tree",
        scale: 1.0,
        window: 12_000,
    },
    Step {
        spec: "layers=1,allreduce=tree,grad=512",
        scale: 2.0,
        window: 8_000,
    },
    Step {
        spec: "layers=2,allreduce=ring,fwd=128,compute=64",
        scale: 1.0,
        window: 40_000,
    },
    Step {
        spec: "layers=6,allreduce=tree,grad=128",
        scale: 1.0,
        window: 14_000,
    },
    Step {
        spec: "layers=2,allreduce=tree",
        scale: 0.5,
        window: 8_000,
    },
];

fn run_spec(window: Cycle) -> RunSpec {
    RunSpec {
        warmup: 0,
        measure: window,
        drain: 10_000,
        watchdog: 5_000,
        drain_offers: true,
    }
}

fn config(seed: u64, threads: usize) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_shard_threads(threads)
        .with_idle_skip(true)
}

/// The seeded inputs of a run: the rank-to-node mapping (ranks rotated
/// by whole chiplets) and the order of the steps.
fn inputs(seed: u64, geom: Geometry) -> (Vec<NodeId>, Vec<usize>) {
    let mut rng = Rng::new(seed, 2);
    let mut nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let per_chiplet = (geom.chip_w() * geom.chip_h()) as usize;
    nodes.rotate_left(rng.below(geom.chiplets() as usize) * per_chiplet);
    let mut order: Vec<usize> = (0..STEPS.len()).collect();
    rng.shuffle(&mut order);
    (nodes, order)
}

/// What one finished step leaves behind for the checks.
struct Outcome {
    results: SimResults,
    drained: bool,
    complete: bool,
    released: Vec<Option<Cycle>>,
    by_tag: Vec<TagStats>,
    measured_flits: u64,
}

fn outcome(net: &Network, graph: &PhaseGraph, results: SimResults, drained: bool) -> Outcome {
    Outcome {
        results,
        drained,
        complete: graph.all_complete(),
        released: (0..graph.phases().len())
            .map(|i| graph.released_at(i))
            .collect(),
        by_tag: net.collector().by_tag.clone(),
        measured_flits: net.collector().measured_flits,
    }
}

/// The `phase_flits_measured_total` series of an exported JSONL
/// snapshot, by `phase` label.
fn exported_phase_flits(series: &[u8]) -> Result<HashMap<String, u64>, String> {
    let text = std::str::from_utf8(series).map_err(|e| e.to_string())?;
    let mut out = HashMap::new();
    for line in text.lines() {
        let entry = parse(line).map_err(|e| format!("exported line does not parse: {e}"))?;
        if entry.get("name").and_then(Json::as_str) != Some("phase_flits_measured_total") {
            continue;
        }
        let phase = entry.get("labels").and_then(|l| l.get("phase"));
        match (
            phase.and_then(Json::as_str),
            entry.get("value").and_then(Json::as_u64),
        ) {
            (Some(phase), Some(v)) => {
                out.insert(phase.to_string(), v);
            }
            _ => return Err(format!("malformed exported line {line}")),
        }
    }
    Ok(out)
}

/// Checks a step against the phase-graph contract: the step completes
/// inside its window, every phase delivers exactly the flits it offered
/// (read back from the exported JSONL series), and no phase is released
/// before each dependency's release plus its own compute window.
fn check_step(graph: &PhaseGraph, out: &Outcome, series: &[u8]) -> Vec<String> {
    let mut problems = Vec::new();
    if !(out.complete && out.drained) {
        problems.push("the step did not complete inside its window".into());
    }
    let exported = exported_phase_flits(series).unwrap_or_else(|e| {
        problems.push(e);
        HashMap::new()
    });
    for (idx, p) in graph.phases().iter().enumerate() {
        let offered: u64 = p.events.iter().map(|(_, r)| u64::from(r.len)).sum();
        let tag = PhaseGraph::tag_of(idx).to_string();
        let delivered = exported.get(&tag).copied().unwrap_or(0);
        if delivered != offered {
            problems.push(format!(
                "phase {} delivered {delivered} of {offered} flits",
                p.name
            ));
        }
        let Some(at) = out.released[idx] else {
            problems.push(format!("phase {} never released", p.name));
            continue;
        };
        for &d in &p.deps {
            match out.released[d] {
                Some(dep) if at >= dep + p.compute => {}
                dep => problems.push(format!(
                    "phase {} released at {at}, dependency {d} at {dep:?} + compute {}",
                    p.name, p.compute
                )),
            }
        }
    }
    problems
}

/// Runs the workload for `opts.seconds` (at least one whole round; a
/// traced run alternates untraced and traced rounds, at least one each).
pub fn run(opts: &Opts, tr: &mut Tracer) -> Report {
    let geom = parsec_system();
    let profile = SchedulingProfile::balanced();
    let (nodes, order) = inputs(opts.seed, geom);
    let sharded = config(
        opts.seed,
        THREADS.min(std::thread::available_parallelism().map_or(1, usize::from)),
    );
    let serial = config(opts.seed, 1);

    let mut ops = Ops::default();
    let (mut setups, mut walls, mut traced_walls, mut step_secs) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut flits_per_s = Vec::new();
    let (mut lat_sum, mut packets, mut energy, mut flits) = (0.0, 0.0, 0.0, 0.0);
    let mut layers = EngineLayers::default();
    let mut traced_mark = None;
    repeat(opts.seconds, if opts.trace { 2 } else { 1 }, |round| {
        let traced = opts.trace && round % 2 == 1;
        if traced {
            tr.begin("dnn.round");
            traced_mark.get_or_insert(tr.mark());
        }
        // Set-up: generate every step's graph and build its network.
        let t = Instant::now();
        let mut steps: Vec<(PhaseGraph, Network)> = order
            .iter()
            .map(|&i| {
                let s = &STEPS[i];
                let spec = DnnSpec::parse(s.spec).expect("the step specs are valid");
                let build_graph = || PhaseGraph::dnn(&spec, &nodes).with_compute_scale(s.scale);
                let build_net = || KIND.build(geom, sharded, profile);
                let (graph, mut net) = if traced {
                    tr.span("chiplet-topo.topology", || KIND.topology(geom));
                    (
                        tr.span("chiplet-traffic.dnn_build", build_graph),
                        tr.span("hetero-if.build", build_net),
                    )
                } else {
                    (build_graph(), build_net())
                };
                net.enable_metrics();
                (graph, net)
            })
            .collect();
        setups.push(t.elapsed().as_secs_f64());

        // Timed work: run each step and export its per-phase series.
        let mut wall = 0.0;
        let mut outcomes = Vec::new();
        for (j, (graph, net)) in steps.iter_mut().enumerate() {
            let step = &STEPS[order[j]];
            let t = Instant::now();
            let out = if traced {
                traced_run(tr, net, graph, run_spec(step.window))
            } else {
                sim::run(net, graph, run_spec(step.window))
            };
            let export = || {
                let snap = net.metrics_snapshot();
                let mut series = Vec::new();
                snap.to_jsonl(&mut series)
                    .expect("writing to a Vec cannot fail");
                (snap, series)
            };
            let (snap, series) = if traced {
                tr.span("hetero-if.metrics_snapshot", export)
            } else {
                export()
            };
            let secs = t.elapsed().as_secs_f64();
            wall += secs;
            let o = outcome(net, graph, out.results, out.drained);
            ops.record(
                &format!("step {}", step.spec),
                &check_step(graph, &o, &series),
            );
            if traced {
                layers.add(net, &snap, graph.phases().len());
            } else {
                step_secs.push(secs);
            }
            outcomes.push(o);
        }
        if traced {
            tr.end();
            traced_walls.push(wall);
        } else {
            walls.push(wall);
        }
        (lat_sum, packets, energy, flits) = (0.0, 0.0, 0.0, 0.0);
        for o in &outcomes {
            let r = &o.results;
            lat_sum += r.avg_latency * r.packets as f64;
            packets += r.packets as f64;
            energy += r.avg_energy_pj * r.packets as f64;
            flits += o.measured_flits as f64;
        }
        flits_per_s.push(flits / wall);

        // Outside the timed work: one step (a different one each round)
        // rerun on the serial engine must give identical results.
        let k = round % STEPS.len();
        let (graph, _) = &steps[k];
        let mut replay = graph.clone();
        replay.reset();
        let mut net = KIND.build(geom, serial, profile);
        net.enable_metrics();
        let out = sim::run(&mut net, &mut replay, run_spec(STEPS[order[k]].window));
        let o = outcome(&net, &replay, out.results, out.drained);
        let mut problems = Vec::new();
        let s = &outcomes[k];
        if o.results != s.results || o.released != s.released || o.by_tag != s.by_tag {
            problems.push(format!(
                "step {} differs between {} shard threads and the serial engine",
                STEPS[order[k]].spec, sharded.shard_threads
            ));
        }
        ops.record("serial rerun", &problems);
    });

    let mut report = Report::new(&ops);
    if opts.trace {
        let mark = traced_mark.expect("a traced run has a traced round");
        layers.report(&mut report, tr, mark, traced_walls.len());
        report_overhead(&mut report, &traced_walls, &walls);
        report.zero_layer("hetero-serve.");
    } else {
        report.set("wall_s", median(&walls));
        report.set("setup_s", median(&setups));
        report.set("sim_flits_per_s", median(&flits_per_s));
        report.set("op_p50_ms", median(&step_secs) * 1e3);
        report.set("peak_rss_mb", peak_rss_mib(None));
        report.set("sim_latency_cycles", lat_sum / packets);
        report.set("sim_pj_per_flit", energy / flits);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exported_phase_flits_reads_only_the_phase_flit_series() {
        let series = concat!(
            r#"{"name":"phase_flits_measured_total","kind":"counter","volatile":false,"labels":{"phase":"1"},"value":48}"#,
            "\n",
            r#"{"name":"phase_packets_measured_total","kind":"counter","volatile":false,"labels":{"phase":"1"},"value":3}"#,
            "\n",
            r#"{"name":"phase_flits_measured_total","kind":"counter","volatile":false,"labels":{"phase":"2"},"value":0}"#,
            "\n",
        );
        let flits = exported_phase_flits(series.as_bytes()).expect("valid series");
        assert_eq!(flits.len(), 2);
        assert_eq!(flits["1"], 48);
        assert_eq!(flits["2"], 0);
        let broken = r#"{"name":"phase_flits_measured_total","labels":{},"value":1}"#;
        assert!(exported_phase_flits(broken.as_bytes()).is_err());
        assert!(exported_phase_flits(b"{\"name\":").is_err());
    }
}
