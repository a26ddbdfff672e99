//! The four workloads, their once-per-process set-up, one untraced pass
//! each, and one traced pass each.
//!
//! * `serve-tpch` — ~7k engine events per request: the rbv-os event loop
//!   and rbv-mem rate recomputation do nearly all the work.
//! * `serve-web` — ~17 events per request: per-request code dominates
//!   (generation, admission/retry/shed, sketches, span callbacks, guard
//!   and power ticks). The only workload that runs rbv-guard/rbv-power.
//! * `cluster-rubis` — three `Machine`s stepped by `run_cluster` over a
//!   modelled LAN with external arrivals and the contention-easing
//!   scheduler; the serve workloads bypass all of it.
//! * `classify-tpcc` — the paper's modeling path: distance matrices for
//!   five measures, k-medoids and signature identification through the
//!   DTW prune cascade. The only workload that runs rbv-core kernels.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rbv_cluster::{run_cluster, ClusterReport, ClusterSpec};
use rbv_core::cluster::{divergence_from_centroid, k_medoids_par, DistanceMatrix};
use rbv_core::distance::{
    average_metric_distance, dtw_distance, dtw_distance_with_penalty, l1_distance, length_penalty,
    levenshtein,
};
use rbv_core::series::Metric;
use rbv_core::{nearest_series_with_stats, PruneStats};
use rbv_openloop::{ServeReport, ServeSpec};
use rbv_os::{run_simulation, RbvError, SimConfig};
use rbv_telemetry::{Json, QuantileSketch};
use rbv_workloads::{factory_for, AppId};

use crate::serve;
use crate::spans::Tracer;
use crate::yardstick;

/// Inputs per workload. Wall time per pass differs by up to 2x from one
/// input seed to another, far beyond any useful bound, so every run
/// measures whole cycles over this fixed family of input seeds (`--seed`
/// picks where the cycle starts) and every run does the same work. The
/// committed reference covers each input of the family.
pub const FAMILY: u64 = 4;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeTpch,
    ServeWeb,
    ClusterRubis,
    ClassifyTpcc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeTpch,
        Workload::ServeWeb,
        Workload::ClusterRubis,
        Workload::ClassifyTpcc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeTpch => "serve-tpch",
            Workload::ServeWeb => "serve-web",
            Workload::ClusterRubis => "cluster-rubis",
            Workload::ClassifyTpcc => "classify-tpcc",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per pass. `full` is sized so a pass takes roughly one to
    /// two host seconds; `tiny` keeps the self-tests fast.
    pub fn requests(self, size: Size) -> usize {
        match (self, size) {
            (Workload::ServeTpch, Size::Full) => 120,
            (Workload::ServeWeb, Size::Full) => 20_000,
            (Workload::ClusterRubis, Size::Full) => 1_000,
            (Workload::ClassifyTpcc, Size::Full) => 200,
            (Workload::ServeTpch, Size::Tiny) => 4,
            (Workload::ServeWeb, Size::Tiny) => 200,
            (Workload::ClusterRubis, Size::Tiny) => 40,
            (Workload::ClassifyTpcc, Size::Tiny) => 24,
        }
    }

    /// The yardstick that matches this workload's passes, and the threads
    /// it runs on: one for the single-shard serve and cluster passes, every
    /// pool thread for classify's parallel distance matrices.
    pub fn yardstick(self) -> (yardstick::Kind, usize) {
        match self {
            Workload::ClassifyTpcc => (yardstick::Kind::Dtw, rbv_par::threads()),
            _ => (yardstick::Kind::Simulation, 1),
        }
    }

    /// Set-ups per timed batch. Serve and cluster set-up takes some tens
    /// of microseconds, so each batch repeats it many times.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::ClassifyTpcc => 1,
            _ => 51,
        }
    }
}

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    pub fn from_label(label: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.label() == label)
    }
}

/// What one pass produced: the ledger, its bytes, how many requests it
/// resolved or classified, the pass's own output checks, and for an
/// untraced serve pass the report its traced pass is checked against.
pub struct PassOutput {
    pub ledger: Json,
    pub bytes: String,
    pub requests: u64,
    pub checks: Vec<(&'static str, bool)>,
    pub serve: Option<ServeReport>,
}

/// Per-layer metrics of one traced pass, by name.
#[derive(Debug, Default, Clone)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers::default()
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// One input of a workload's family: a spec, or extracted features.
enum Input {
    Serve(ServeSpec),
    Cluster(ClusterSpec),
    Classify(Box<Features>),
}

/// The once-per-process state a workload's passes share: the work pool
/// and every input of the family.
pub struct Setup {
    pool: rbv_par::Pool,
    inputs: Vec<Input>,
}

impl Setup {
    /// Builds the pool and each input's spec; for classify-tpcc, also
    /// runs each input's TPC-C simulation and extracts the features its
    /// passes classify.
    pub fn new(workload: Workload, size: Size) -> Result<Setup, RbvError> {
        let requests = workload.requests(size);
        let inputs = (0..FAMILY)
            .map(|seed| -> Result<Input, RbvError> {
                Ok(match workload {
                    Workload::ServeTpch | Workload::ServeWeb => {
                        let app = if workload == Workload::ServeTpch {
                            AppId::Tpch
                        } else {
                            AppId::WebServer
                        };
                        let spec = serve::spec(app, requests, seed);
                        spec.validate()?;
                        Input::Serve(spec)
                    }
                    Workload::ClusterRubis => {
                        let mut spec = ClusterSpec::three_tier(AppId::Rubis);
                        spec.requests = requests;
                        spec.seed = seed;
                        spec.easing = true;
                        spec.validate()?;
                        Input::Cluster(spec)
                    }
                    Workload::ClassifyTpcc => {
                        Input::Classify(Box::new(Features::extract(requests, seed)?))
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Setup {
            pool: rbv_par::Pool::global(),
            inputs,
        })
    }

    /// One untraced pass over input `seed` of the family.
    pub fn pass(&self, seed: u64) -> Result<PassOutput, RbvError> {
        let pool = &self.pool;
        match &self.inputs[seed as usize] {
            Input::Serve(spec) => serve::pass(spec, pool),
            Input::Cluster(spec) => {
                let report = run_cluster(spec, pool)?;
                Ok(cluster_output(&report).0)
            }
            Input::Classify(features) => Ok(classify(features, pool, None).0),
        }
    }

    /// One traced pass over input `seed`, recorded into `tracer`.
    /// `untraced` is the untraced pass over the same input, which a serve
    /// pass's re-driven totals are checked against.
    pub fn traced_pass(
        &self,
        seed: u64,
        untraced: &PassOutput,
        tracer: &mut Tracer,
    ) -> Result<(PassOutput, Layers), RbvError> {
        let pool = &self.pool;
        match &self.inputs[seed as usize] {
            Input::Serve(spec) => {
                let report = untraced.serve.as_ref().ok_or_else(|| {
                    RbvError::Config("a traced serve pass needs the untraced report".into())
                })?;
                serve::traced_pass(spec, report, tracer)
            }
            Input::Cluster(spec) => {
                let report = tracer.span("cluster.run", |_| run_cluster(spec, pool))?;
                let (out, mut layers) = tracer.span("telemetry.json", |_| cluster_output(&report));
                layers.set("telemetry.json_bytes", out.bytes.len() as f64);
                Ok((out, layers))
            }
            Input::Classify(features) => Ok(classify(features, pool, Some(tracer))),
        }
    }
}

/// Serializes and renders a cluster report (what `repro cluster` prints),
/// checks it, and reads its per-layer totals.
fn cluster_output(report: &ClusterReport) -> (PassOutput, Layers) {
    let ledger = report.to_json();
    let bytes = ledger.to_string_compact();
    std::hint::black_box(report.render());
    let summary = &report.summary;
    let requests = summary.completed + summary.failed;
    let checks = vec![
        ("conservation", requests == report.spec.requests as u64),
        (
            "violations",
            summary.invariants.violations() == 0 && summary.unfinished == 0,
        ),
    ];
    let events: u64 = report.machines.iter().map(|m| m.engine_events).sum();
    let mut cpi = QuantileSketch::new();
    for tier in &summary.tiers {
        cpi.merge(&tier.cpi);
    }
    let mut layers = Layers::new();
    layers.set("os.events", events as f64);
    layers.set("os.events_per_req", events as f64 / requests.max(1) as f64);
    layers.set(
        "os.context_switches",
        report
            .machines
            .iter()
            .map(|m| m.context_switches)
            .sum::<u64>() as f64,
    );
    layers.set("mem.cpi_p50", cpi.p50().unwrap_or(0.0));
    layers.set("mem.cpi_p99", cpi.p99().unwrap_or(0.0));
    layers.set("trace.invariant_checks", summary.invariants.checks() as f64);
    layers.set(
        "cluster.legs",
        summary.tiers.iter().map(|t| t.legs).sum::<u64>() as f64,
    );
    layers.set("cluster.hops", summary.hops as f64);
    layers.set("cluster.net_bytes", summary.hop_bytes as f64);
    (
        PassOutput {
            ledger,
            bytes,
            requests,
            checks,
            serve: None,
        },
        layers,
    )
}

/// Levenshtein sequences are truncated to this many calls, as in the
/// Figure 7 harness.
const MAX_TOKENS: usize = 150;

/// Clusters per k-medoids run (the paper's k).
const K: usize = 10;

/// The per-request features classify-tpcc's passes consume: generated
/// once per process by simulating TPC-C closed-loop.
pub struct Features {
    series: Vec<Vec<f64>>,
    tokens: Vec<Vec<u16>>,
    avg_cpi: Vec<f64>,
    cpu_time: Vec<f64>,
    peak_cpi: Vec<f64>,
    penalty: f64,
}

impl Features {
    fn extract(n: usize, seed: u64) -> Result<Features, RbvError> {
        let app = AppId::Tpcc;
        let mut cfg =
            SimConfig::paper_default().with_interrupt_sampling(app.sampling_period_micros());
        cfg.seed = seed;
        let mut factory = factory_for(app, seed, 1.0);
        let result = run_simulation(cfg, factory.as_mut(), n)?;
        // Bucket size: the median request spans ~48 buckets.
        let mut lens: Vec<f64> = result
            .completed
            .iter()
            .map(|r| r.timeline.total_instructions())
            .collect();
        lens.sort_by(f64::total_cmp);
        let bucket = (lens[lens.len() / 2].max(1.0) / 48.0).max(1_000.0);
        let mut f = Features {
            series: Vec::new(),
            tokens: Vec::new(),
            avg_cpi: Vec::new(),
            cpu_time: Vec::new(),
            peak_cpi: Vec::new(),
            penalty: 0.0,
        };
        for r in &result.completed {
            f.series
                .push(r.series(Metric::Cpi, bucket).values().to_vec());
            f.tokens.push(
                r.syscalls
                    .iter()
                    .take(MAX_TOKENS)
                    .map(|s| s.name as u16)
                    .collect(),
            );
            f.avg_cpi.push(r.request_cpi().unwrap_or(0.0));
            f.cpu_time.push(r.cpu_cycles());
            f.peak_cpi.push(r.peak_cpi().unwrap_or(0.0));
        }
        let refs: Vec<&[f64]> = f.series.iter().map(Vec::as_slice).collect();
        f.penalty = length_penalty(&refs, 200_000);
        Ok(f)
    }
}

/// The five differencing measures of Figure 7, with their span names.
const MEASURES: [(&str, &str); 5] = [
    ("levenshtein_syscalls", "core.lev"),
    ("avg_cpi", "core.avg"),
    ("l1_cpi", "core.l1"),
    ("dtw", "core.dtw"),
    ("dtw_penalty", "core.dtwp"),
];

fn distance(f: &Features, measure: usize, i: usize, j: usize) -> f64 {
    match measure {
        0 => levenshtein(&f.tokens[i], &f.tokens[j]) as f64,
        1 => average_metric_distance(f.avg_cpi[i], f.avg_cpi[j]),
        2 => l1_distance(&f.series[i], &f.series[j], f.penalty),
        3 => dtw_distance(&f.series[i], &f.series[j]),
        _ => dtw_distance_with_penalty(&f.series[i], &f.series[j], f.penalty),
    }
}

/// One classify pass: for each measure a distance matrix and a k-medoids
/// clustering scored by divergence from the centroids (Figure 7), then
/// signature identification of the second half of the requests against a
/// bank of the first half through the DTW prune cascade (Figure 10's
/// question: will this request's CPU time exceed the median?).
///
/// With a tracer, each kernel call is a span and every distance closure
/// call inside `compute_par` is timed, giving rbv-par's busy time.
fn classify(
    f: &Features,
    pool: &rbv_par::Pool,
    mut tracer: Option<&mut Tracer>,
) -> (PassOutput, Layers) {
    let n = f.series.len();
    let busy_ns = AtomicU64::new(0);
    let timed = tracer.is_some();
    let mut measures = Vec::new();
    let mut classified = true;
    let mut matrix_s = 0.0;
    for (m, (label, span)) in MEASURES.iter().enumerate() {
        let dist = |i: usize, j: usize| {
            if timed {
                let start = Instant::now();
                let d = distance(f, m, i, j);
                busy_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                d
            } else {
                distance(f, m, i, j)
            }
        };
        let dm = match tracer.as_deref_mut() {
            Some(t) => {
                let id = t.enter(span);
                let dm = DistanceMatrix::compute_par(n, pool, dist);
                t.exit(id);
                matrix_s += t.busy_s_of(id);
                dm
            }
            None => DistanceMatrix::compute_par(n, pool, dist),
        };
        let clustering = match tracer.as_deref_mut() {
            Some(t) => t.span("core.kmedoids", |_| k_medoids_par(&dm, K, 40, pool)),
            None => k_medoids_par(&dm, K, 40, pool),
        };
        classified &= clustering.assignments.len() == n;
        let divergence = |property: &[f64]| {
            divergence_from_centroid(&clustering, property).map_or(Json::Null, Json::Num)
        };
        measures.push(Json::Obj(vec![
            ("measure".into(), Json::str(*label)),
            ("cost".into(), Json::Num(clustering.cost)),
            ("cpu_time_divergence".into(), divergence(&f.cpu_time)),
            ("peak_cpi_divergence".into(), divergence(&f.peak_cpi)),
            (
                "medoids".into(),
                Json::Arr(
                    clustering
                        .medoids
                        .iter()
                        .map(|&i| Json::Num(i as f64))
                        .collect(),
                ),
            ),
        ]));
    }

    let (bank, identified, correct, prune) = match tracer.as_deref_mut() {
        Some(t) => t.span("core.signature", |_| signature_scan(f)),
        None => signature_scan(f),
    };
    let queries = n - bank;
    let num = |v: u64| Json::Num(v as f64);
    let ledger = Json::Obj(vec![
        ("schema".into(), Json::str("rbv-perfbench-classify/v1")),
        ("app".into(), Json::str(AppId::Tpcc.to_string())),
        ("requests".into(), num(n as u64)),
        ("penalty".into(), Json::Num(f.penalty)),
        ("measures".into(), Json::Arr(measures)),
        (
            "signature".into(),
            Json::Obj(vec![
                ("bank".into(), num(bank as u64)),
                ("queries".into(), num(queries as u64)),
                ("correct".into(), num(correct)),
                ("candidates".into(), num(prune.candidates)),
                ("lb_kim".into(), num(prune.lb_kim)),
                ("length_penalty".into(), num(prune.length_penalty)),
                ("lb_keogh".into(), num(prune.lb_keogh)),
                ("early_abandon".into(), num(prune.early_abandon)),
                ("full_dp".into(), num(prune.full_dp)),
            ]),
        ),
    ]);
    let bytes = ledger.to_string_compact();
    let partition = prune.pruned() + prune.full_dp == prune.candidates;
    let out = PassOutput {
        ledger,
        bytes,
        requests: n as u64,
        checks: vec![
            ("conservation", classified && identified == queries),
            ("violations", partition),
        ],
        serve: None,
    };

    let mut layers = Layers::new();
    if let Some(t) = tracer {
        let cells: u64 = {
            let lens: Vec<u64> = f.series.iter().map(|s| s.len() as u64).collect();
            let total: u64 = lens.iter().sum();
            let squares: u64 = lens.iter().map(|l| l * l).sum();
            // Σ_{i<j} m·n over both DTW matrices.
            total * total - squares
        };
        let pass = t.current_pass();
        let dtw_s = t.busy_s(pass, "core.dtw") + t.busy_s(pass, "core.dtwp");
        let busy_s = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        layers.set("core.dtw_cells", cells as f64);
        layers.set("core.dtw_cells_per_s", cells as f64 / dtw_s.max(1e-9));
        for (span, metric) in [
            ("core.dtw", "core.dtw_s"),
            ("core.dtwp", "core.dtwp_s"),
            ("core.l1", "core.l1_s"),
            ("core.lev", "core.lev_s"),
            ("core.avg", "core.avg_s"),
            ("core.kmedoids", "core.kmedoids_s"),
            ("core.signature", "core.signature_s"),
        ] {
            layers.set(metric, t.busy_s(pass, span));
        }
        layers.set("core.prune_candidates", prune.candidates as f64);
        layers.set("core.prune_frac", prune.pruned_frac());
        layers.set("par.threads", pool.threads() as f64);
        layers.set("par.busy_s", busy_s);
        layers.set(
            "par.util",
            busy_s / (pool.threads() as f64 * matrix_s.max(1e-9)),
        );
        let mut cpi = QuantileSketch::new();
        for &c in &f.avg_cpi {
            cpi.observe(c);
        }
        layers.set("mem.cpi_p50", cpi.p50().unwrap_or(0.0));
        layers.set("mem.cpi_p99", cpi.p99().unwrap_or(0.0));
    }
    (out, layers)
}

/// Nearest-signature identification of each request in the second half
/// against the first half; returns (bank size, queries identified,
/// correct above-median predictions, prune counters).
fn signature_scan(f: &Features) -> (usize, usize, u64, PruneStats) {
    let bank = f.series.len() / 2;
    let mut bank_cpu = f.cpu_time[..bank].to_vec();
    bank_cpu.sort_by(f64::total_cmp);
    let median = bank_cpu[bank / 2];
    let refs: Vec<&[f64]> = f.series[..bank].iter().map(Vec::as_slice).collect();
    let penalty = length_penalty(&refs, 4096);
    let mut prune = PruneStats::default();
    let (mut identified, mut correct) = (0, 0);
    for (query, &cpu) in f.series[bank..].iter().zip(&f.cpu_time[bank..]) {
        let (best, stats) = nearest_series_with_stats(query, &refs, penalty);
        prune.merge(&stats);
        if let Some((idx, _)) = best {
            identified += 1;
            if (f.cpu_time[idx] > median) == (cpu > median) {
                correct += 1;
            }
        }
    }
    (bank, identified, correct, prune)
}
