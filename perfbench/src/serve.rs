//! `serve-mix`: `hetero-serve` on loopback, driven by one closed-loop
//! client (one connection at a time) against one service worker and a
//! disk store in a fresh directory. A seeded stream of a few hundred
//! requests mixes engine jobs over a bounded key space (so many repeat),
//! analytical-backend jobs, warm-start jobs, DNN workload jobs and
//! `/metrics` scrapes. The service restarts once mid-stream on the same
//! directory, so later repeats are disk hits. This is the only workload
//! through HTTP framing, JSON, SHA-256 keys, the two-tier cache,
//! checkpoint forks and the estimator; the traced run measures the
//! engine's share of its time (`hetero-serve.compute_share_pct`).

use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::{report_overhead, Tracer};
use crate::{peak_rss_mib, repeat, Ops, Opts, Rng, OUT_DIR};
use chiplet_topo::Geometry;
use chiplet_traffic::TrafficPattern;
use hetero_if::cache::{engine_point, PointDesc};
use hetero_if::sim::RunSpec;
use hetero_if::{NetworkKind, SchedulingProfile, SimConfig};
use hetero_serve::http;
use hetero_serve::{BatchRequest, ServiceStats, SweepService};
use simkit::json::{parse, Json};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// The simulator seed of every job: fixed, so that every round of every
/// run computes the same distinct points; `--seed` picks the stream.
const JOB_SEED: u64 = 1;
/// The served jobs' system: 2×2 chiplets of 2×2 nodes.
const GEOM: [u16; 4] = [2, 2, 2, 2];
/// The engine jobs' schedule: short, so that HTTP, JSON and the cache,
/// not the engine, take most of a round (`hetero-serve.compute_share_pct`
/// measures the engine's part).
const SCHEDULE: RunSpec = RunSpec {
    warmup: 100,
    measure: 400,
    drain: 1_000,
    watchdog: 1_000,
    drain_offers: false,
};
const PACKET_LEN: u16 = 16;
const PATTERNS: [TrafficPattern; 2] = [TrafficPattern::Uniform, TrafficPattern::BitComplement];
/// Rates of the cold engine key space.
const RATES: [f64; 4] = [0.05, 0.1, 0.2, 0.3];
/// The rate set of every warm-start job (warm-up paid at the first).
const WARM_RATES: [f64; 3] = [0.05, 0.1, 0.2];
/// Rates of the analytical jobs, on the 64-node system.
const ANALYTICAL_RATES: [f64; 6] = [0.05, 0.1, 0.2, 0.3, 0.45, 0.6];
const DNN: [&str; 2] = ["layers=1,allreduce=tree", "layers=2,allreduce=ring,grad=64"];
const SCALES: [f64; 3] = [0.5, 1.0, 2.0];

/// Requests of each kind in one stream (the key-covering ones included).
const COLD: usize = 240;
const ANALYTICAL: usize = 36;
const WARM: usize = 36;
const WORKLOAD: usize = 36;
const METRICS: usize = 52;

/// Served engine points recomputed in-process after each round.
const SAMPLE: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Analytical,
    Warm,
    Workload,
    Metrics,
}

/// One request of the stream and the engine points it asks for, as the
/// generator keys them (`cold|preset|pattern|rate`, `warm|preset|rate`,
/// `wl|spec|scale`); analytical points are not cached.
#[derive(Debug, Clone)]
struct Request {
    kind: Kind,
    body: String,
    keys: Vec<String>,
}

fn job_body(fields: &str) -> String {
    format!("{{\"jobs\": [{{{fields}, \"seed\": {JOB_SEED}}}]}}")
}

fn rates_json(rates: &[f64]) -> String {
    let r: Vec<String> = rates.iter().map(|r| r.to_string()).collect();
    format!("[{}]", r.join(", "))
}

fn spec_json() -> String {
    format!(
        "{{\"warmup\": {}, \"measure\": {}, \"drain\": {}, \"watchdog\": {}}}",
        SCHEDULE.warmup, SCHEDULE.measure, SCHEDULE.drain, SCHEDULE.watchdog
    )
}

fn geom_json(g: [u16; 4]) -> String {
    format!("[{}, {}, {}, {}]", g[0], g[1], g[2], g[3])
}

fn cold(preset: NetworkKind, pattern: TrafficPattern, rates: &[f64]) -> Request {
    Request {
        kind: Kind::Cold,
        body: job_body(&format!(
            "\"preset\": \"{preset}\", \"pattern\": \"{pattern}\", \"rates\": {}, \
             \"geom\": {}, \"spec\": {}",
            rates_json(rates),
            geom_json(GEOM),
            spec_json()
        )),
        keys: rates
            .iter()
            .map(|r| format!("cold|{preset}|{pattern}|{r}"))
            .collect(),
    }
}

fn warm(preset: NetworkKind) -> Request {
    Request {
        kind: Kind::Warm,
        body: job_body(&format!(
            "\"preset\": \"{preset}\", \"rates\": {}, \"geom\": {}, \"spec\": {}, \
             \"warm_start\": true",
            rates_json(&WARM_RATES),
            geom_json(GEOM),
            spec_json()
        )),
        keys: WARM_RATES
            .iter()
            .map(|r| format!("warm|{preset}|{r}"))
            .collect(),
    }
}

fn workload(spec: &str, scales: &[f64]) -> Request {
    Request {
        kind: Kind::Workload,
        body: job_body(&format!(
            "\"preset\": \"hetero-phy-full\", \"workload\": \"dnn:{spec}\", \"scales\": {}, \
             \"geom\": {}, \"spec\": {}",
            rates_json(scales),
            geom_json(GEOM),
            spec_json()
        )),
        keys: scales.iter().map(|s| format!("wl|{spec}|{s}")).collect(),
    }
}

fn analytical(preset: NetworkKind) -> Request {
    Request {
        kind: Kind::Analytical,
        body: job_body(&format!(
            "\"preset\": \"{preset}\", \"backend\": \"analytical\", \"rates\": {}, \
             \"geom\": [4, 4, 2, 2]",
            rates_json(&ANALYTICAL_RATES)
        )),
        keys: Vec::new(),
    }
}

/// A seeded subset of `n` of `items`, in their order.
fn subset(rng: &mut Rng, items: &[f64], n: usize) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(n);
    idx.sort_unstable();
    idx.into_iter().map(|i| items[i]).collect()
}

/// The request stream of a run. Every engine key of the bounded space is
/// requested at least once, so the distinct points a round computes are
/// the same for every seed, and so are the points each request kind asks
/// for; the seed picks the repeats and the order.
fn stream(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 3);
    let presets = NetworkKind::HETERO_PHY_SET;
    let mut out = Vec::new();
    for preset in presets {
        for pattern in PATTERNS {
            for rate in RATES {
                out.push(cold(preset, pattern, &[rate]));
            }
        }
    }
    while out.len() < COLD {
        let preset = presets[rng.below(presets.len())];
        let pattern = PATTERNS[rng.below(PATTERNS.len())];
        out.push(cold(preset, pattern, &subset(&mut rng, &RATES, 2)));
    }
    for preset in presets {
        out.push(warm(preset));
    }
    for _ in presets.len()..WARM {
        out.push(warm(presets[rng.below(presets.len())]));
    }
    for spec in DNN {
        out.push(workload(spec, &SCALES));
    }
    for _ in DNN.len()..WORKLOAD {
        let scales = subset(&mut rng, &SCALES, 2);
        out.push(workload(DNN[rng.below(DNN.len())], &scales));
    }
    for _ in 0..ANALYTICAL {
        out.push(analytical(presets[rng.below(presets.len())]));
    }
    for _ in 0..METRICS {
        out.push(Request {
            kind: Kind::Metrics,
            body: String::new(),
            keys: Vec::new(),
        });
    }
    rng.shuffle(&mut out);
    out
}

/// The `--serve-child DIR` mode: the `hetero-serve` binary's service on
/// an OS-assigned loopback port with one worker and a disk store in
/// `DIR`. Prints the bound address on the first line, then serves until
/// killed or until its standard input closes (the benchmark ended, even
/// if it was killed itself).
pub fn child_main(dir: PathBuf) -> ! {
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(0)
    });
    let service = SweepService::new(Some(dir), 1).expect("the store directory opens");
    let listener = TcpListener::bind("127.0.0.1:0").expect("a loopback port is free");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("{addr}");
    std::io::stdout().flush().expect("stdout flush");
    http::serve(Arc::new(service), listener)
}

/// A running service process; killed and reaped when dropped. Its
/// standard input stays open for as long as this handle lives.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn start(dir: &Path) -> std::io::Result<Self> {
        let child = Command::new(std::env::current_exe()?)
            .arg("--serve-child")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let stdout = server.child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        server.addr = line.trim().parse().map_err(|_| {
            std::io::Error::other(format!("service printed {line:?}, not an address"))
        })?;
        Ok(server)
    }

    /// The service's peak RSS so far, in MiB.
    fn peak_rss(&self) -> f64 {
        peak_rss_mib(Some(self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the client measured and saw for one request.
struct Reply {
    secs: f64,
    /// Client latency minus the server's own `elapsed_ms` (batches only).
    http_overhead_ms: Option<f64>,
    /// Cold engine request whose points were all cache hits.
    hit: bool,
    /// The service computed at least one engine point for it.
    computed: bool,
}

/// The engine points of a batch response, with the `source` field
/// (which differs between a computation and a later hit) removed.
fn points_without_source(resp: &Json) -> Vec<Json> {
    let mut out = Vec::new();
    for job in resp.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
        for p in job.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
            let mut p = p.clone();
            if let Json::Obj(fields) = &mut p {
                fields.retain(|(k, _)| k != "source");
            }
            out.push(p);
        }
    }
    out
}

/// The served-point fields of a direct engine computation, as the
/// service renders them and read back through the wire format.
fn direct_point(preset: NetworkKind, pattern: TrafficPattern, rate: f64) -> Json {
    let mut config = SimConfig::default()
        .with_seed(JOB_SEED)
        .with_shard_threads(1)
        .with_idle_skip(true);
    config.packet_len = PACKET_LEN;
    let desc = PointDesc::new(
        preset,
        Geometry::new(GEOM[0], GEOM[1], GEOM[2], GEOM[3]),
        config,
        SchedulingProfile::balanced(),
        pattern,
        rate,
        PACKET_LEN,
        SCHEDULE,
    );
    let p = engine_point(&desc);
    let r = &p.results;
    let mut j = Json::obj();
    j.set("rate", Json::from(p.rate))
        .set("drained", Json::from(p.drained))
        .set("packets", Json::from(r.packets))
        .set("avg_latency", Json::from(r.avg_latency))
        .set("p99_latency", Json::from(r.p99_latency))
        .set("avg_hops", Json::from(r.avg_hops))
        .set("throughput", Json::from(r.throughput))
        .set("avg_energy_pj", Json::from(r.avg_energy_pj));
    parse(&j.render()).expect("rendered JSON parses")
}

/// The fields of `direct` whose served value differs.
fn mismatches(served: &Json, direct: &Json) -> Vec<String> {
    let Json::Obj(fields) = direct else {
        return vec!["not an object".into()];
    };
    fields
        .iter()
        .filter(|(k, v)| served.get(k) != Some(v))
        .map(|(k, _)| k.clone())
        .collect()
}

fn field(p: &Json, key: &str) -> f64 {
    p.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Packet-weighted totals over each distinct served engine point once
/// (repeats are the cache's work, not the model's).
struct ModelTotals {
    latency: f64,
    energy: f64,
    packets: f64,
    flits: f64,
}

fn model_totals(round: &Round) -> ModelTotals {
    let nodes = f64::from(GEOM.iter().product::<u16>());
    let cycles = SCHEDULE.measure as f64;
    let mut m = ModelTotals {
        latency: 0.0,
        energy: 0.0,
        packets: 0.0,
        flits: 0.0,
    };
    for p in round.served.values() {
        let n = field(p, "packets");
        m.latency += field(p, "avg_latency") * n;
        m.energy += field(p, "avg_energy_pj") * n;
        m.packets += n;
        m.flits += (field(p, "throughput") * cycles * nodes).round();
    }
    m
}

/// The state one round of the stream leaves for its checks.
#[derive(Default)]
struct Round {
    replies: Vec<(Kind, Reply)>,
    /// First-seen points per request body.
    first: HashMap<String, String>,
    /// Served engine points by generator key.
    served: HashMap<String, Json>,
    computed: u64,
}

/// Sends one request of the stream and checks its reply.
fn exchange(server: &Server, req: &Request, round: &mut Round, ops: &mut Ops) {
    let (method, path, body) = match req.kind {
        Kind::Metrics => ("GET", "/metrics", ""),
        _ => ("POST", "/v1/batch", req.body.as_str()),
    };
    let t = Instant::now();
    let reply = http::request(server.addr, method, path, body);
    let secs = t.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    let mut http_overhead_ms = None;
    let mut hit = false;
    let mut computed_any = false;
    match reply {
        Err(e) => problems.push(format!("request failed: {e}")),
        Ok((status, _)) if status != 200 => problems.push(format!("status {status}")),
        Ok((_, text)) if req.kind == Kind::Metrics => {
            if !text.contains("serve_requests_total") {
                problems.push("the scrape has no serve_requests_total".into());
            }
        }
        Ok((_, text)) => match parse(&text) {
            Err(e) => problems.push(format!("response does not parse: {e}")),
            Ok(resp) => {
                let cache = resp.get("cache");
                let count = |k| cache.and_then(|c| c.get(k)).and_then(Json::as_u64);
                let computed = count("computed").unwrap_or(0);
                round.computed += computed;
                hit = req.kind == Kind::Cold && computed == 0;
                computed_any = computed > 0;
                http_overhead_ms = resp
                    .get("elapsed_ms")
                    .and_then(Json::as_f64)
                    .map(|ms| secs * 1e3 - ms);
                let points = points_without_source(&resp);
                let rendered = Json::Arr(points.clone()).render();
                match round.first.get(&req.body) {
                    Some(prev) if *prev != rendered => {
                        problems.push("a repeated job returned different points".into())
                    }
                    Some(_) => {}
                    None => {
                        round.first.insert(req.body.clone(), rendered);
                    }
                }
                if req.kind != Kind::Analytical {
                    if points.len() != req.keys.len() {
                        problems.push(format!(
                            "{} points for {} requested",
                            points.len(),
                            req.keys.len()
                        ));
                    }
                    for (key, p) in req.keys.iter().zip(points) {
                        if p.get("deadlocked").and_then(Json::as_bool) != Some(false) {
                            problems.push(format!("{key} deadlocked"));
                        }
                        round.served.entry(key.clone()).or_insert(p);
                    }
                }
            }
        },
    }
    ops.record(&format!("{method} {path}"), &problems);
    round.replies.push((
        req.kind,
        Reply {
            secs,
            http_overhead_ms,
            hit,
            computed: computed_any,
        },
    ));
}

/// The round's own bookkeeping against the service: it computed each
/// distinct engine point exactly once, and sampled served points equal a
/// direct in-process computation.
fn verify(round: &Round, distinct: usize, rng: &mut Rng) -> Vec<String> {
    let mut problems = Vec::new();
    if round.computed != distinct as u64 {
        problems.push(format!(
            "service computed {} points, the stream has {distinct} distinct ones",
            round.computed
        ));
    }
    for _ in 0..SAMPLE {
        let preset = NetworkKind::HETERO_PHY_SET[rng.below(4)];
        let pattern = PATTERNS[rng.below(PATTERNS.len())];
        let rate = RATES[rng.below(RATES.len())];
        let key = format!("cold|{preset}|{pattern}|{rate}");
        match round.served.get(&key) {
            None => problems.push(format!("{key} was never served")),
            Some(served) => {
                let differ = mismatches(served, &direct_point(preset, pattern, rate));
                if !differ.is_empty() {
                    problems.push(format!(
                        "{key} differs from a direct engine_point run in {differ:?}"
                    ));
                }
            }
        }
    }
    problems
}

/// The in-process half of a traced round: the same stream, with the same
/// restart, through `BatchRequest::parse` and `SweepService::run_batch`.
fn replay_in_process(stream: &[Request], dir: &Path, tr: &mut Tracer) -> ServiceStats {
    let open = || SweepService::new(Some(dir.to_path_buf()), 1).expect("the store opens");
    let mut service = open();
    let mut total = ServiceStats::default();
    let add = |total: &mut ServiceStats, s: ServiceStats| {
        total.points += s.points;
        total.mem_hits += s.mem_hits;
        total.disk_hits += s.disk_hits;
        total.computed += s.computed;
        total.warm_forks += s.warm_forks;
        total.warm_cycles_saved += s.warm_cycles_saved;
        total.analytical_points += s.analytical_points;
    };
    for (i, req) in stream.iter().enumerate() {
        if i == stream.len() / 2 {
            add(&mut total, service.stats());
            service = open();
        }
        if req.kind == Kind::Metrics {
            tr.span("hetero-serve.metrics", || service.prometheus());
            continue;
        }
        let batch = tr
            .span("hetero-serve.parse", || BatchRequest::parse(&req.body))
            .expect("the stream's bodies are valid");
        tr.span("hetero-serve.batch", || service.run_batch(&batch));
    }
    add(&mut total, service.stats());
    total
}

/// Pins the calling thread to the last CPU it may run on, and so every
/// service process and thread it starts afterwards, which inherit its
/// CPU mask. The client and the service hand each request back and forth
/// and never run at once; on one CPU they do so without the cross-CPU
/// wake-ups whose cost, on a virtual machine, swings with the load of the
/// host. Returns the CPU, or `None` when the mask cannot be read or set
/// (the run then goes on unpinned).
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // glibc's `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// A fresh, empty directory for one service lifetime pair.
fn fresh_dir(name: String) -> PathBuf {
    let dir = PathBuf::from(OUT_DIR).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the output directory is writable");
    dir
}

/// Runs the workload for `opts.seconds` (at least one whole round; a
/// traced run alternates untraced and traced rounds, at least one each).
pub fn run(opts: &Opts, tr: &mut Tracer) -> Report {
    match pin_to_one_cpu() {
        Some(cpu) => println!("serve-mix: client and service pinned to cpu {cpu}"),
        None => println!("serve-mix: cannot pin to one cpu; running unpinned"),
    }
    let stream = stream(opts.seed);
    let distinct: HashSet<&String> = stream.iter().flat_map(|r| &r.keys).collect();
    let distinct = distinct.len();
    let mut sample_rng = Rng::new(opts.seed, 4);
    let mut ops = Ops::default();
    let (mut setups, mut walls, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut request_secs = Vec::new();
    let mut flits_per_s = Vec::new();
    let mut child_rss: f64 = 0.0;
    let mut traced_replies: Vec<(Kind, Reply)> = Vec::new();
    let mut stats = Vec::new();
    let mut last: Option<Round> = None;
    let mut traced_mark = None;
    let pid = std::process::id();
    repeat(opts.seconds, if opts.trace { 2 } else { 1 }, |i| {
        let traced = opts.trace && i % 2 == 1;
        let dir = fresh_dir(format!("serve-{pid}-{i}"));
        let t = Instant::now();
        let mut server = Server::start(&dir).expect("the service starts");
        let mut setup = t.elapsed().as_secs_f64();
        if traced {
            tr.begin("serve.round");
            traced_mark.get_or_insert(tr.mark());
        }
        let mut round = Round::default();
        let mut wall = 0.0;
        let mut t = Instant::now();
        for (k, req) in stream.iter().enumerate() {
            if k == stream.len() / 2 {
                wall += t.elapsed().as_secs_f64();
                child_rss = child_rss.max(server.peak_rss());
                drop(server);
                let t_start = Instant::now();
                server = Server::start(&dir).expect("the service restarts");
                setup += t_start.elapsed().as_secs_f64();
                t = Instant::now();
            }
            if traced {
                tr.span("serve.request", || {
                    exchange(&server, req, &mut round, &mut ops)
                });
            } else {
                exchange(&server, req, &mut round, &mut ops);
            }
        }
        wall += t.elapsed().as_secs_f64();
        child_rss = child_rss.max(server.peak_rss());
        drop(server);
        setups.push(setup);
        flits_per_s.push(model_totals(&round).flits / wall);
        let mut problems = verify(&round, distinct, &mut sample_rng);
        if let Some(prev) = &last {
            if prev.first != round.first {
                problems.push("a round served different points than the previous one".into());
            }
        }
        ops.record("round checks", &problems);
        if traced {
            tr.end();
            traced_walls.push(wall);
            let replay_dir = fresh_dir(format!("serve-{pid}-{i}-replay"));
            stats.push(replay_in_process(&stream, &replay_dir, tr));
            let _ = std::fs::remove_dir_all(&replay_dir);
            traced_replies.append(&mut round.replies);
        } else {
            walls.push(wall);
            request_secs.extend(round.replies.iter().map(|(_, r)| r.secs));
        }
        let _ = std::fs::remove_dir_all(&dir);
        last = Some(round);
    });

    let mut report = Report::new(&ops);
    let round = last.expect("at least one round ran");
    if opts.trace {
        let mark = traced_mark.expect("a traced run has a traced round");
        let rounds = stats.len() as f64;
        let ms = |kind: Kind| {
            let v: Vec<f64> = traced_replies
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, r)| r.secs * 1e3)
                .collect();
            median(&v)
        };
        let cold_ms = |hit: bool| {
            let v: Vec<f64> = traced_replies
                .iter()
                .filter(|(k, r)| *k == Kind::Cold && r.hit == hit)
                .map(|(_, r)| r.secs * 1e3)
                .collect();
            median(&v)
        };
        let overheads: Vec<f64> = traced_replies
            .iter()
            .filter_map(|(_, r)| r.http_overhead_ms)
            .collect();
        let all: Vec<f64> = traced_replies.iter().map(|(_, r)| r.secs * 1e3).collect();
        let computing: f64 = traced_replies
            .iter()
            .filter(|(_, r)| r.computed)
            .map(|(_, r)| r.secs)
            .sum();
        let sum = |f: fn(&ServiceStats) -> u64| stats.iter().map(f).sum::<u64>() as f64 / rounds;
        report.zero_layer("hetero-if.");
        report.zero_layer("chiplet-");
        for (name, value) in [
            (
                "hetero-serve.parse_us",
                median(&tr.durations("hetero-serve.parse", mark)) * 1e6,
            ),
            (
                "hetero-serve.batch_ms",
                tr.seconds("hetero-serve.batch", mark) * 1e3 / rounds,
            ),
            ("hetero-serve.http_overhead_ms", median(&overheads)),
            ("hetero-serve.hit_ms", cold_ms(true)),
            ("hetero-serve.metrics_ms", ms(Kind::Metrics)),
            ("hetero-serve.miss_ms", cold_ms(false)),
            ("hetero-serve.analytical_ms", ms(Kind::Analytical)),
            ("hetero-serve.warm_ms", ms(Kind::Warm)),
            ("hetero-serve.workload_ms", ms(Kind::Workload)),
            ("hetero-serve.request_p97_ms", percentile(&all, 97.0)),
            (
                "hetero-serve.compute_share_pct",
                100.0 * computing / traced_walls.iter().sum::<f64>(),
            ),
            ("hetero-serve.mem_hits", sum(|s| s.mem_hits)),
            ("hetero-serve.disk_hits", sum(|s| s.disk_hits)),
            ("hetero-serve.computed", sum(|s| s.computed)),
            ("hetero-serve.warm_forks", sum(|s| s.warm_forks)),
            (
                "hetero-serve.warm_cycles_saved",
                sum(|s| s.warm_cycles_saved),
            ),
            (
                "hetero-serve.analytical_points",
                sum(|s| s.analytical_points),
            ),
            (
                "hetero-serve.hit_ratio",
                sum(|s| s.mem_hits + s.disk_hits) / sum(|s| s.points).max(1.0),
            ),
        ] {
            report.set(name, value);
        }
        report_overhead(&mut report, &traced_walls, &walls);
    } else {
        let m = model_totals(&round);
        report.set("wall_s", median(&walls));
        report.set("setup_s", median(&setups));
        report.set("sim_flits_per_s", median(&flits_per_s));
        report.set("op_p50_ms", median(&request_secs) * 1e3);
        report.set("peak_rss_mb", peak_rss_mib(None).max(child_rss));
        report.set("sim_latency_cycles", m.latency / m.packets);
        report.set("sim_pj_per_flit", m.energy / m.flits);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_covers_the_key_space_with_fixed_counts() {
        let a = stream(7);
        let count = |kind| a.iter().filter(|r| r.kind == kind).count();
        assert_eq!(count(Kind::Cold), COLD);
        assert_eq!(count(Kind::Analytical), ANALYTICAL);
        assert_eq!(count(Kind::Warm), WARM);
        assert_eq!(count(Kind::Workload), WORKLOAD);
        assert_eq!(count(Kind::Metrics), METRICS);
        let keys = |s: &[Request]| -> HashSet<String> {
            s.iter().flat_map(|r| r.keys.iter().cloned()).collect()
        };
        let distinct = RATES.len() * PATTERNS.len() * 4 + WARM_RATES.len() * 4 + DNN.len() * 3;
        assert_eq!(keys(&a).len(), distinct);
        let points = |s: &[Request]| s.iter().map(|r| r.keys.len()).sum::<usize>();
        let b = stream(8);
        assert_eq!(keys(&a), keys(&b));
        assert_eq!(points(&a), points(&b));
        let bodies = |s: &[Request]| s.iter().map(|r| r.body.clone()).collect::<Vec<_>>();
        assert_eq!(bodies(&a), bodies(&stream(7)));
        assert_ne!(bodies(&a), bodies(&b));
        for r in &a {
            if r.kind != Kind::Metrics {
                BatchRequest::parse(&r.body).expect("every body is a valid batch");
            }
        }
    }

    #[test]
    fn mismatches_name_differing_fields_only() {
        let served = parse(r#"{"rate": 0.1, "source": "memory", "packets": 5, "x": 1}"#).unwrap();
        let same = parse(r#"{"rate": 0.1, "packets": 5}"#).unwrap();
        let other = parse(r#"{"rate": 0.1, "packets": 6, "avg_hops": 2}"#).unwrap();
        assert!(mismatches(&served, &same).is_empty());
        assert_eq!(mismatches(&served, &other), vec!["packets", "avg_hops"]);
    }
}
