//! The two serve workloads: `rbv_openloop::serve` end to end, and the
//! traced re-drive of the same shards through lower-level public calls.
//!
//! The serve report exposes no engine-event count and no per-event
//! timing, so the traced run rebuilds each shard from `rbv_os` calls —
//! `Machine::start/step/finish` when spans are off, and
//! `run_simulation_streaming_traced` with a timed `TraceSink` around the
//! `SpanCollector` when they are on (a `Machine` takes no trace sink) —
//! and sums the shards' totals in shard order, as `serve` does. The
//! totals must equal the untraced pass's report; a mismatch is a failed
//! check. The shard plan and shard config below mirror the private ones in
//! `rbv-openloop`, and that check is what catches them drifting apart.

use std::time::Instant;

use rbv_openloop::{probe_mean_service, serve, ServeReport, ServeSpec};
use rbv_os::{
    run_simulation_streaming_traced, ArrivalProcess, ClientPolicy, CompletedRequest,
    CompletionSink, FailReason, FailedRequest, GovernorPolicy, Machine, OverloadPolicy,
    PowerCapPolicy, PowerPolicy, RbvError, ShedPolicy, SimConfig, ThermalFaults,
};
use rbv_sim::Cycles;
use rbv_telemetry::{QuantileSketch, TraceEvent, TraceSink};
use rbv_trace::{SpanCollector, SpanSummary};
use rbv_workloads::{factory_for, AppId, Request, RequestFactory};

use crate::spans::Tracer;
use crate::workload::{Layers, PassOutput};

/// Mirrors `rbv-openloop`'s shard-size target and shard cap.
const SHARD_TARGET: usize = 32_768;
const MAX_SHARDS: usize = 64;

/// Simulated clock rate: serve ledgers convert cycles to µs at 3,000
/// cycles per µs.
const CYCLES_PER_S: f64 = 3.0e9;

/// Drain finished requests from a stepped machine this often, keeping
/// memory bounded as the streaming sink does.
const DRAIN_EVERY: u32 = 1024;

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scale_of(app: AppId) -> f64 {
    match app {
        AppId::Tpch => 0.5,
        AppId::Webwork => 0.1,
        _ => 1.0,
    }
}

fn cycles_at_least_one(value: f64) -> Cycles {
    Cycles::new(value.max(1.0) as u64)
}

fn shard_plan(requests: usize) -> Vec<usize> {
    let shards = requests.div_ceil(SHARD_TARGET).clamp(1, MAX_SHARDS);
    let base = requests / shards;
    let rem = requests % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

fn shard_seed(seed: u64, index: usize) -> u64 {
    splitmix64(splitmix64(seed ^ 0x0be7_10c4).wrapping_add(index as u64))
}

fn shard_config(spec: &ServeSpec, mean_service: f64, seed: u64) -> SimConfig {
    let mut cfg =
        SimConfig::paper_default().with_interrupt_sampling(spec.app.sampling_period_micros());
    cfg.seed = seed;
    let cores = cfg.machine.topology.cores as f64;
    let base_gap = (mean_service / (cores * spec.overload)).max(1.0);
    cfg.arrivals = if spec.mmpp {
        ArrivalProcess::OpenMmpp {
            mean_interarrival: cycles_at_least_one(base_gap * 1.5),
            burst_mean_interarrival: cycles_at_least_one(base_gap * 0.5),
            mean_calm_dwell: cycles_at_least_one(mean_service * 64.0),
            mean_burst_dwell: cycles_at_least_one(mean_service * 32.0),
        }
    } else {
        ArrivalProcess::OpenPoisson {
            mean_interarrival: cycles_at_least_one(base_gap),
        }
    };
    cfg.queue_discipline = spec.discipline;
    if spec.admission {
        cfg.overload = Some(OverloadPolicy {
            max_runqueue: 4,
            deadline: Some(cycles_at_least_one(mean_service * 8.0)),
            max_retries: 3,
            retry_backoff: cycles_at_least_one(mean_service / 4.0),
        });
    }
    if spec.shed {
        cfg.shed = Some(ShedPolicy {
            target: cycles_at_least_one(mean_service * 4.0),
            interval: cycles_at_least_one(mean_service * 16.0),
        });
    }
    if spec.retries {
        cfg.client = Some(ClientPolicy {
            timeout: cycles_at_least_one(mean_service * 12.0),
            max_retries: 3,
            retry_backoff: cycles_at_least_one(mean_service),
        });
    }
    if spec.guard {
        let mut governor = GovernorPolicy::default();
        if spec.power {
            governor.power_cap = Some(PowerCapPolicy::default());
        }
        cfg.governor = Some(governor);
    }
    if spec.power {
        cfg.power = Some(PowerPolicy::paper_default());
        if spec.thermal {
            cfg.thermal_faults = Some(ThermalFaults::storm(seed));
        }
    }
    cfg
}

/// The spec each serve workload runs: the CLI defaults for tpch; guard,
/// power and span decomposition (no retention) armed for web.
pub fn spec(app: AppId, requests: usize, seed: u64) -> ServeSpec {
    let mut spec = ServeSpec::new(app, requests, seed);
    if app == AppId::WebServer {
        spec.guard = true;
        spec.power = true;
        spec.trace = true;
    }
    spec
}

fn checks(report: &ServeReport) -> Vec<(&'static str, bool)> {
    let violations = report.trace.as_ref().map_or(0, |t| t.violations_total())
        + report
            .energy
            .as_ref()
            .map_or(0, |e| e.conservation_violations);
    vec![
        (
            "conservation",
            report.completed + report.failed() == report.offered(),
        ),
        ("violations", violations == 0),
    ]
}

/// One end-to-end pass: `serve`, then the ledger's JSON. The report is
/// kept for the traced pass over the same input.
pub fn pass(spec: &ServeSpec, pool: &rbv_par::Pool) -> Result<PassOutput, RbvError> {
    let report = serve(spec, pool)?;
    let ledger = report.to_json();
    let bytes = ledger.to_string_compact();
    Ok(PassOutput {
        checks: checks(&report),
        requests: report.completed + report.failed(),
        ledger,
        bytes,
        serve: Some(report),
    })
}

/// The serve accumulator, plus per-request modelled CPI for the rbv-mem
/// layer metrics.
#[derive(Default)]
struct Accumulator {
    completed: u64,
    failed_by_reason: [u64; 5],
    latency_us: QuantileSketch,
    cpu_cycles: QuantileSketch,
    cpi: QuantileSketch,
}

impl CompletionSink for Accumulator {
    fn on_complete(&mut self, request: &CompletedRequest) {
        self.completed += 1;
        self.latency_us
            .observe(request.latency().as_f64() / 3_000.0);
        self.cpu_cycles.observe(request.cpu_cycles());
        if let Some(cpi) = request.request_cpi() {
            self.cpi.observe(cpi);
        }
    }

    fn on_fail(&mut self, request: &FailedRequest) {
        let slot = match request.reason {
            FailReason::AdmissionShed => 0,
            FailReason::DeadlineAbort => 1,
            FailReason::ClientTimeout => 2,
            FailReason::CodelShed => 3,
            FailReason::BrownoutReject => 4,
        };
        self.failed_by_reason[slot] += 1;
    }
}

/// Times every `next_request` call of the wrapped factory.
pub struct TimedFactory {
    inner: Box<dyn RequestFactory + Send>,
    pub ns: u64,
    pub calls: u64,
}

impl TimedFactory {
    pub fn new(inner: Box<dyn RequestFactory + Send>) -> TimedFactory {
        TimedFactory {
            inner,
            ns: 0,
            calls: 0,
        }
    }
}

impl RequestFactory for TimedFactory {
    fn app(&self) -> AppId {
        self.inner.app()
    }

    fn next_request(&mut self) -> Request {
        let start = Instant::now();
        let request = self.inner.next_request();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        request
    }
}

/// Times every `record` (and the final `finish`) into the wrapped sink.
struct TimedSink<S> {
    inner: S,
    ns: u64,
    calls: u64,
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, event: TraceEvent) {
        let start = Instant::now();
        self.inner.record(event);
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn finish(&mut self) {
        let start = Instant::now();
        self.inner.finish();
        self.ns += start.elapsed().as_nanos() as u64;
    }
}

/// Totals of the re-driven shards, summed in shard order as `serve` sums
/// them, to be compared with the untraced pass's report.
#[derive(Default)]
struct Redrive {
    acc: Accumulator,
    client_timeouts: u64,
    client_retries: u64,
    admission_rejections: u64,
    admission_retries: u64,
    health_transitions: u64,
    wasted_cycles: f64,
    busy_cycles: f64,
    simulated_cycles: f64,
    energy_uw_cycles: Option<u128>,
    dvfs_transitions: u64,
    energy_conserved: bool,
    trace: Option<SpanSummary>,
    spans_complete: bool,
    events: u64,
    context_switches: u64,
    samples: u64,
    step_ns: Vec<u32>,
    drawn: u64,
    records: u64,
    shard_s: f64,
}

impl Redrive {
    /// Whether every re-driven total equals the report's.
    fn matches(&self, report: &ServeReport) -> bool {
        let energy = report.energy.as_ref();
        self.acc.completed == report.completed
            && self.acc.failed_by_reason == report.failed_by_reason
            && self.acc.latency_us == report.latency_us
            && self.acc.cpu_cycles == report.cpu_cycles
            && self.client_timeouts == report.client_timeouts
            && self.client_retries == report.client_retries
            && self.admission_rejections == report.admission_rejections
            && self.admission_retries == report.admission_retries
            && self.health_transitions == report.health_transitions
            && self.wasted_cycles == report.wasted_cycles
            && self.busy_cycles == report.busy_cycles
            && self.simulated_cycles == report.simulated_cycles
            && self.energy_uw_cycles == energy.map(|e| e.total_uw_cycles)
            && self.dvfs_transitions == energy.map_or(0, |e| e.dvfs_transitions)
            && self.trace == report.trace
    }
}

fn quantile_u32(values: &mut [u32], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let k = ((values.len() - 1) as f64 * q).round() as usize;
    f64::from(*values.select_nth_unstable(k).1)
}

/// The traced pass over `report`, the untraced pass's report for `spec`:
/// the probe timed as its own call, each shard re-driven under timing
/// wrappers, the re-driven totals compared with the report's, and the
/// report serialized again under a timer.
pub fn traced_pass(
    spec: &ServeSpec,
    report: &ServeReport,
    tracer: &mut Tracer,
) -> Result<(PassOutput, Layers), RbvError> {
    spec.validate()?;
    let mean_service = tracer.span("openloop.probe", |_| {
        probe_mean_service(spec.app, spec.seed)
    })?;
    let plan = shard_plan(spec.requests);
    let mut totals = Redrive {
        energy_conserved: true,
        spans_complete: true,
        ..Redrive::default()
    };
    for (index, &n) in plan.iter().enumerate() {
        let seed = shard_seed(spec.seed, index);
        let cfg = shard_config(spec, mean_service, seed);
        let mut factory = TimedFactory::new(factory_for(spec.app, seed, scale_of(spec.app)));
        let mut acc = Accumulator::default();
        let shard = tracer.enter("os.shard");
        let result = if spec.trace {
            let mut sink = TimedSink {
                inner: SpanCollector::new(),
                ns: 0,
                calls: 0,
            };
            let result =
                run_simulation_streaming_traced(cfg, &mut factory, n, &mut acc, &mut sink)?;
            tracer.aggregate("trace.record", None, sink.ns, sink.calls);
            totals.records += sink.calls;
            let mut summary = sink.inner.into_summary();
            totals.spans_complete &= summary.completed == acc.completed && summary.unfinished == 0;
            summary.set_shard(index as u32);
            match &mut totals.trace {
                Some(merged) => merged.merge(&summary),
                None => totals.trace = Some(summary),
            }
            tracer.aggregate("workloads.next_request", None, factory.ns, factory.calls);
            result
        } else {
            let mut machine = Machine::new(cfg, n)?;
            let start = Instant::now();
            machine.start(&mut factory);
            let mut step_total = start.elapsed().as_nanos() as u64;
            let first_step = totals.step_ns.len();
            let mut since_drain = 0;
            while !machine.target_reached() {
                let start = Instant::now();
                let more = machine.step(&mut factory);
                let ns = start.elapsed().as_nanos() as u64;
                totals.step_ns.push(ns.min(u64::from(u32::MAX)) as u32);
                step_total += ns;
                since_drain += 1;
                if since_drain == DRAIN_EVERY || !more {
                    drain(&mut machine, &mut acc);
                    since_drain = 0;
                }
                if !more {
                    break;
                }
            }
            drain(&mut machine, &mut acc);
            let steps = tracer.aggregate(
                "os.step",
                None,
                step_total,
                (totals.step_ns.len() - first_step) as u64,
            );
            tracer.aggregate(
                "workloads.next_request",
                Some(steps),
                factory.ns,
                factory.calls,
            );
            machine.finish()
        };
        tracer.exit(shard);
        totals.shard_s += tracer.busy_s_of(shard);
        totals.drawn += factory.calls;

        let stats = &result.stats;
        totals.events += stats.engine_events;
        totals.context_switches += stats.context_switches;
        totals.samples += stats.samples_inkernel + stats.samples_interrupt;
        totals.acc.completed += acc.completed;
        for (slot, count) in acc.failed_by_reason.iter().enumerate() {
            totals.acc.failed_by_reason[slot] += count;
        }
        totals.acc.latency_us.merge(&acc.latency_us);
        totals.acc.cpu_cycles.merge(&acc.cpu_cycles);
        totals.acc.cpi.merge(&acc.cpi);
        totals.client_timeouts += stats.client_timeouts;
        totals.client_retries += stats.client_retries;
        totals.admission_rejections += stats.admission_rejections;
        totals.admission_retries += stats.admission_retries;
        totals.health_transitions += stats.health_transitions;
        totals.wasted_cycles += stats.wasted_cycles;
        totals.busy_cycles += stats.busy_cycles;
        totals.simulated_cycles += result.total_time.as_f64();
        if let Some(energy) = &stats.energy {
            *totals.energy_uw_cycles.get_or_insert(0) += energy.total_uw_cycles;
            totals.dvfs_transitions += energy.dvfs_transitions;
            totals.energy_conserved &=
                energy.core_uw_cycles.iter().sum::<u128>() == energy.total_uw_cycles;
        }
    }
    let (ledger, bytes) = tracer.span("telemetry.json", |_| {
        let ledger = report.to_json();
        let bytes = ledger.to_string_compact();
        (ledger, bytes)
    });

    let mut checks = vec![
        (
            "redrive_totals",
            mean_service == report.mean_service_cycles
                && plan.len() as u64 == report.shards
                && totals.matches(report),
        ),
        ("redrive_energy_conservation", totals.energy_conserved),
    ];
    if spec.trace {
        checks.push(("span_reconstruction", totals.spans_complete));
    }
    let requests = totals.acc.completed + totals.acc.failed_by_reason.iter().sum::<u64>();
    let per_req = |v: u64| v as f64 / requests.max(1) as f64;
    let per_host_s = |v: f64| {
        if totals.shard_s > 0.0 {
            v / totals.shard_s
        } else {
            0.0
        }
    };
    let mut layers = Layers::new();
    layers.set("os.events", totals.events as f64);
    layers.set("os.events_per_req", per_req(totals.events));
    layers.set("os.events_per_s", per_host_s(totals.events as f64));
    layers.set(
        "os.sim_s_per_host_s",
        per_host_s(totals.simulated_cycles / CYCLES_PER_S),
    );
    layers.set("os.step_samples", totals.step_ns.len() as f64);
    layers.set("os.step_ns_p50", quantile_u32(&mut totals.step_ns, 0.50));
    layers.set("os.step_ns_p99", quantile_u32(&mut totals.step_ns, 0.99));
    layers.set("os.context_switches", totals.context_switches as f64);
    layers.set("os.samples", totals.samples as f64);
    layers.set(
        "os.admission_rejections",
        totals.admission_rejections as f64,
    );
    layers.set("workloads.requests_drawn", totals.drawn as f64);
    layers.set("mem.cpi_p50", totals.acc.cpi.p50().unwrap_or(0.0));
    layers.set("mem.cpi_p99", totals.acc.cpi.p99().unwrap_or(0.0));
    layers.set("trace.records", totals.records as f64);
    layers.set(
        "trace.invariant_checks",
        totals.trace.as_ref().map_or(0.0, |t| t.invariant_checks as f64),
    );
    layers.set("telemetry.json_bytes", bytes.len() as f64);
    layers.set("guard.health_transitions", totals.health_transitions as f64);
    if let Some(energy) = &report.energy {
        layers.set("power.dvfs_transitions", totals.dvfs_transitions as f64);
        layers.set("power.joules", energy.total_joules());
    }
    layers.set("openloop.shards", plan.len() as f64);
    layers.set("openloop.goodput_frac", report.goodput_frac());
    Ok((
        PassOutput {
            checks,
            requests,
            ledger,
            bytes,
            serve: None,
        },
        layers,
    ))
}

fn drain(machine: &mut Machine, acc: &mut Accumulator) {
    let (completed, failed) = machine.drain_finished();
    for request in &completed {
        acc.on_complete(request);
    }
    for request in &failed {
        acc.on_fail(request);
    }
}
