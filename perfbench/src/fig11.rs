//! `fig11-uniform`: the uniform-traffic panel of Fig. 11 — the four
//! hetero-PHY presets swept on the 256-node medium system with the quick
//! schedule and the figure's rate ladder, one after another on one
//! thread. The serial router, the hetero-PHY adapter and the link media
//! do nearly all the work, and every point rebuilds its network.

use crate::report::Report;
use crate::stats::median;
use crate::trace::{report_overhead, traced_run, EngineLayers, Tracer};
use crate::{peak_rss_mib, repeat, Ops, Opts};
use chiplet_topo::{Geometry, NodeId};
use chiplet_traffic::{SyntheticWorkload, TrafficPattern};
use hetero_if::presets::medium_system;
use hetero_if::sim::RunSpec;
use hetero_if::sweep::{latency_sweep_parallel, saturation_rate, SweepPoint};
use hetero_if::{NetworkKind, SchedulingProfile, SimConfig};
use std::sync::Mutex;
use std::time::Instant;

/// The Fig. 11 rate ladder of the repository's default (not `--full`)
/// figure run, in flits/cycle/node.
pub const RATES: [f64; 7] = [0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.8];

/// `sim_latency_cycles` covers the unsaturated points up to this rate,
/// below every preset's knee: a point near the knee can still deliver 85%
/// of its packets, and its latency then depends more on the seed than on
/// the model.
const LATENCY_RATE_MAX: f64 = 0.3;

/// One preset's curve, the host time of each of its points (from its
/// network build's end to the next build's start) and of each build.
struct Curve {
    kind: NetworkKind,
    points: Vec<SweepPoint>,
    point_secs: Vec<f64>,
    build_secs: Vec<f64>,
}

fn config(seed: u64) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_shard_threads(1)
        .with_idle_skip(true)
}

/// Measured flits of one point (the results store them as a rate).
fn measured_flits(p: &SweepPoint) -> f64 {
    (p.results.throughput * p.results.cycles as f64 * p.results.nodes as f64).round()
}

/// The untraced round: per preset, `latency_sweep_parallel` on one
/// thread, the call `preset_sweep` makes, with every network build
/// stamped from inside the build closure.
fn sweep(geom: Geometry, config: SimConfig) -> Vec<Curve> {
    let profile = SchedulingProfile::balanced();
    NetworkKind::HETERO_PHY_SET
        .iter()
        .map(|&kind| {
            let builds = Mutex::new(Vec::new());
            let points = latency_sweep_parallel(
                || {
                    let start = Instant::now();
                    let net = kind.build(geom, config, profile);
                    builds
                        .lock()
                        .expect("build stamps")
                        .push((start, Instant::now()));
                    net
                },
                TrafficPattern::Uniform,
                &RATES,
                config.packet_len,
                RunSpec::quick(),
                config.seed,
                1,
            );
            let end = Instant::now();
            let builds = builds.into_inner().expect("build stamps");
            let next_starts = builds.iter().skip(1).map(|(start, _)| start).chain([&end]);
            Curve {
                kind,
                points,
                point_secs: builds
                    .iter()
                    .zip(next_starts)
                    .map(|((_, built), next)| (*next - *built).as_secs_f64())
                    .collect(),
                build_secs: builds
                    .iter()
                    .map(|(start, built)| (*built - *start).as_secs_f64())
                    .collect(),
            }
        })
        .collect()
}

/// The traced round: the loop of [`sweep`] written out (same points,
/// same early exit; every round checks the points are identical), so that
/// each call into the engine's crates can be timed and the metrics
/// registry armed for the PHY counters.
fn traced_sweep(
    geom: Geometry,
    config: SimConfig,
    tr: &mut Tracer,
    layers: &mut EngineLayers,
) -> Vec<Curve> {
    let profile = SchedulingProfile::balanced();
    let nodes: Vec<NodeId> = (0..geom.nodes()).map(NodeId).collect();
    let mut curves = Vec::new();
    for kind in NetworkKind::HETERO_PHY_SET {
        tr.span("chiplet-topo.topology", || kind.topology(geom));
        let mut points = Vec::new();
        let mut point_secs = Vec::new();
        let mut build_secs = Vec::new();
        let mut past_saturation = 0;
        for rate in RATES {
            let t = Instant::now();
            let mut net = tr.span("hetero-if.build", || kind.build(geom, config, profile));
            build_secs.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            net.enable_metrics();
            let mut w = SyntheticWorkload::new(
                nodes.clone(),
                TrafficPattern::Uniform,
                rate,
                config.packet_len,
                config.seed,
            );
            let out = traced_run(tr, &mut net, &mut w, RunSpec::quick());
            let snap = tr.span("hetero-if.metrics_snapshot", || net.metrics_snapshot());
            point_secs.push(t.elapsed().as_secs_f64());
            layers.add(&net, &snap, 0);
            let point = SweepPoint {
                rate,
                results: out.results,
                drained: out.drained,
            };
            let saturated = point.results.is_saturated();
            points.push(point);
            if saturated {
                past_saturation += 1;
                if past_saturation >= 2 {
                    break;
                }
            }
        }
        curves.push(Curve {
            kind,
            points,
            point_secs,
            build_secs,
        });
    }
    curves
}

/// Checks one point against properties of the model: no packet beats
/// its hop count plus serialization, and an unsaturated run drains.
fn check_point(p: &SweepPoint, packet_len: u16) -> Vec<String> {
    let mut problems = Vec::new();
    let r = &p.results;
    if r.packets == 0 {
        problems.push("no measured packets".into());
    }
    let floor = r.avg_hops + f64::from(packet_len) - 1.0;
    if r.avg_latency < floor {
        problems.push(format!(
            "mean latency {:.2} below hops + packet_len - 1 = {floor:.2}",
            r.avg_latency
        ));
    }
    if !r.is_saturated() && !p.drained {
        problems.push("unsaturated point did not drain".into());
    }
    problems
}

/// Checks the figure's comparisons across presets.
fn check_figure(curves: &[Curve]) -> Vec<String> {
    let mut problems = Vec::new();
    let by = |k: NetworkKind| curves.iter().find(|c| c.kind == k).expect("every preset");
    let full = by(NetworkKind::HeteroPhyFull);
    let mesh = by(NetworkKind::UniformParallelMesh);
    let torus = by(NetworkKind::UniformSerialTorus);
    let lat0 = |c: &Curve| {
        c.points
            .first()
            .map_or(f64::INFINITY, |p| p.results.avg_latency)
    };
    if !(lat0(full) < lat0(mesh) && lat0(full) < lat0(torus)) {
        problems.push(format!(
            "at the lowest rate hetero-phy-full ({:.2}) is not below both baselines ({:.2}, {:.2})",
            lat0(full),
            lat0(mesh),
            lat0(torus)
        ));
    }
    let sat = |c: &Curve| saturation_rate(&c.points).unwrap_or(0.0);
    if sat(full) < sat(mesh) {
        problems.push(format!(
            "hetero-phy-full saturates at {} below uni-parallel-mesh at {}",
            sat(full),
            sat(mesh)
        ));
    }
    // Energy per packet at every rate where no preset is saturated.
    for (i, rate) in RATES.iter().enumerate() {
        let at: Vec<(NetworkKind, f64)> = curves
            .iter()
            .filter_map(|c| {
                c.points
                    .get(i)
                    .filter(|p| !p.results.is_saturated())
                    .map(|p| (c.kind, p.results.avg_energy_pj))
            })
            .collect();
        if at.len() < curves.len() {
            continue;
        }
        let serial = at
            .iter()
            .find(|(k, _)| *k == NetworkKind::UniformSerialTorus)
            .map(|&(_, e)| e)
            .unwrap_or(0.0);
        if at
            .iter()
            .any(|&(k, e)| k != NetworkKind::UniformSerialTorus && e >= serial)
        {
            problems.push(format!(
                "at rate {rate} uni-serial-torus ({serial:.1} pJ) is not the costliest: {at:?}"
            ));
        }
    }
    problems
}

/// Runs whole rounds of the workload for `opts.seconds` (at least one;
/// a traced run alternates untraced and traced rounds, at least one
/// each). Set-up is the round's network builds, made inside the sweep;
/// the round's wall time excludes them.
pub fn run(opts: &Opts, tr: &mut Tracer) -> Report {
    let geom = medium_system();
    let config = config(opts.seed);
    let mut ops = Ops::default();
    let (mut walls, mut traced_walls, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut point_secs = Vec::new();
    let mut last: Option<Vec<Curve>> = None;
    let (mut flits, mut lat_sum, mut lat_packets, mut energy) = (0.0, 0.0, 0.0, 0.0);
    let mut layers = EngineLayers::default();
    let mut traced_mark = None;
    repeat(opts.seconds, if opts.trace { 2 } else { 1 }, |i| {
        let traced = opts.trace && i % 2 == 1;
        let t = Instant::now();
        let curves = if traced {
            tr.begin("fig11.round");
            traced_mark.get_or_insert(tr.mark());
            let c = traced_sweep(geom, config, tr, &mut layers);
            tr.end();
            c
        } else {
            sweep(geom, config)
        };
        let setup: f64 = curves.iter().flat_map(|c| &c.build_secs).sum();
        let wall = t.elapsed().as_secs_f64() - setup;
        if traced {
            traced_walls.push(wall);
        } else {
            walls.push(wall);
            setups.push(setup);
            point_secs.extend(curves.iter().flat_map(|c| c.point_secs.iter().copied()));
        }
        (flits, lat_sum, lat_packets, energy) = (0.0, 0.0, 0.0, 0.0);
        for c in &curves {
            for p in &c.points {
                ops.record(
                    &format!("{} @ {}", c.kind, p.rate),
                    &check_point(p, config.packet_len),
                );
                let r = &p.results;
                flits += measured_flits(p);
                energy += r.avg_energy_pj * r.packets as f64;
                if p.rate <= LATENCY_RATE_MAX && !r.is_saturated() {
                    lat_sum += r.avg_latency * r.packets as f64;
                    lat_packets += r.packets as f64;
                }
            }
        }
        let mut problems = check_figure(&curves);
        if let Some(prev) = &last {
            // Every round of a run, traced or not, must reproduce the
            // same points bit for bit.
            for (a, b) in prev.iter().zip(&curves) {
                if a.points != b.points {
                    problems.push(format!("{} differs between rounds", a.kind));
                }
            }
        }
        ops.record("figure checks", &problems);
        last = Some(curves);
    });

    let mut report = Report::new(&ops);
    if opts.trace {
        let mark = traced_mark.expect("a traced run has a traced round");
        layers.report(&mut report, tr, mark, traced_walls.len());
        report_overhead(&mut report, &traced_walls, &walls);
        report.zero_layer("hetero-serve.");
    } else {
        let wall = median(&walls);
        report.set("wall_s", wall);
        report.set("setup_s", median(&setups));
        report.set("sim_flits_per_s", flits / wall);
        report.set("op_p50_ms", median(&point_secs) * 1e3);
        report.set("peak_rss_mb", peak_rss_mib(None));
        report.set("sim_latency_cycles", lat_sum / lat_packets);
        report.set("sim_pj_per_flit", energy / flits);
    }
    report
}
