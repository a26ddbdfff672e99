//! End-to-end and per-crate benchmark of the simulator.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--reference <file>]
//! perfbench --write-reference <file>
//! ```
//!
//! A run sets its workload up, runs one warm-up pass, then repeats whole
//! cycles over the workload's fixed input family until `--seconds` have
//! passed, timing set-up again after every cycle (reporting the median).
//! The host-speed yardstick runs before every measured pass and after the
//! last, and pass times are reported relative to it. Every pass's outputs
//! are checked. With `--trace 0` the last stdout line carries the
//! end-to-end metrics; with `--trace 1` each untraced pass is followed by
//! a traced pass over the same input, and the last line carries the
//! per-layer metrics. See README.md.

mod check;
mod host;
mod serve;
mod spans;
mod workload;
mod yardstick;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use rbv_telemetry::Json;

use check::{Entry, Reference};
use spans::Tracer;
use workload::{Layers, PassOutput, Setup, Size, Workload, FAMILY};

/// End-to-end metrics, with units, printed by `--trace 0` runs. Pass
/// time and throughput are relative to the host-speed yardstick (see
/// `yardstick.rs`); the raw host figures are in the report line.
const END_TO_END: [(&str, &str); 4] = [
    ("pass_in_yardsticks", "yardsticks"),
    ("req_per_yardstick", "req/yardstick"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, with units, printed by `--trace 1` runs. A layer
/// a workload does not reach reports 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("os.events", "count"),
    ("os.events_per_req", "count"),
    ("os.events_per_s", "1/s"),
    ("os.sim_s_per_host_s", "ratio"),
    ("os.step_ns_p50", "ns"),
    ("os.step_ns_p99", "ns"),
    ("os.step_samples", "count"),
    ("os.self_s", "s"),
    ("os.context_switches", "count"),
    ("os.samples", "count"),
    ("os.admission_rejections", "count"),
    ("workloads.requests_drawn", "count"),
    ("workloads.self_s", "s"),
    ("mem.cpi_p50", "cpi"),
    ("mem.cpi_p99", "cpi"),
    ("trace.records", "count"),
    ("trace.self_s", "s"),
    ("trace.invariant_checks", "count"),
    ("telemetry.json_bytes", "B"),
    ("telemetry.json_s", "s"),
    ("guard.health_transitions", "count"),
    ("power.dvfs_transitions", "count"),
    ("power.joules", "J"),
    ("openloop.probe_s", "s"),
    ("openloop.shards", "count"),
    ("openloop.goodput_frac", "ratio"),
    ("cluster.run_s", "s"),
    ("cluster.legs", "count"),
    ("cluster.hops", "count"),
    ("cluster.net_bytes", "B"),
    ("core.dtw_cells", "count"),
    ("core.dtw_cells_per_s", "1/s"),
    ("core.dtw_s", "s"),
    ("core.dtwp_s", "s"),
    ("core.l1_s", "s"),
    ("core.lev_s", "s"),
    ("core.avg_s", "s"),
    ("core.kmedoids_s", "s"),
    ("core.signature_s", "s"),
    ("core.prune_candidates", "count"),
    ("core.prune_frac", "ratio"),
    ("par.threads", "count"),
    ("par.busy_s", "s"),
    ("par.util", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// The reference committed with the benchmark.
const REFERENCE: &str = include_str!("../reference.json");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    reference: Option<PathBuf>,
    write_reference: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        reference: None,
        write_reference: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--size" => {
                let label = value()?;
                args.size =
                    Size::from_label(&label).ok_or_else(|| format!("unknown size {label}"))?;
            }
            "--reference" => args.reference = Some(PathBuf::from(value()?)),
            "--write-reference" => args.write_reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    match (&args.write_reference, args.workload.is_empty()) {
        (None, true) => return Err("--workload is required".into()),
        (Some(_), false) => {
            return Err("--write-reference regenerates every workload; drop --workload".into())
        }
        _ => {}
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> \
                 [--size full|tiny] [--reference <file>]\n       \
                 perfbench --write-reference <file>"
            );
            return ExitCode::from(2);
        }
    };
    let result = if let Some(path) = &args.write_reference {
        write_reference(path)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Output checks of a run: each pass's own checks, equality with the
/// ledger of the previous pass over the same input, and agreement with the
/// committed reference.
struct Checks<'a> {
    reference: &'a Reference,
    size: &'static str,
    workload: &'static str,
    previous: BTreeMap<u64, String>,
    digests: BTreeMap<u64, String>,
    byte_identical: bool,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl<'a> Checks<'a> {
    fn new(reference: &'a Reference, size: Size, workload: Workload) -> Checks<'a> {
        Checks {
            reference,
            size: size.label(),
            workload: workload.name(),
            previous: BTreeMap::new(),
            digests: BTreeMap::new(),
            byte_identical: true,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn record(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(format!("check {name} failed"));
        }
    }

    fn note(&mut self, line: String) {
        if self.notes.len() < 8 {
            self.notes.push(line);
        }
    }

    fn pass(&mut self, input: u64, out: &PassOutput) {
        for &(name, ok) in &out.checks {
            self.record(name, ok);
        }
        if let Some(previous) = self.previous.get(&input) {
            let same = out.bytes == *previous;
            self.record("same_as_previous_pass", same);
        }
        let candidate = Entry::of(&out.ledger, out.bytes.as_bytes());
        match self.reference.get(self.size, self.workload, input) {
            Some(reference) => {
                let disagreements = reference.disagreements(&candidate);
                self.byte_identical &= candidate.digest == reference.digest;
                for line in disagreements.iter().take(4) {
                    self.note(format!("input {input}: reference: {line}"));
                }
                self.record("reference", disagreements.is_empty());
            }
            None => {
                self.byte_identical = false;
                self.note(format!("input {input}: no reference entry"));
                self.record("reference", false);
            }
        }
        self.digests.insert(input, candidate.digest);
        self.previous.insert(input, out.bytes.clone());
    }
}

fn load_reference(path: Option<&PathBuf>) -> Result<Reference, String> {
    match path {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Reference::parse(&text)
        }
        None => Reference::parse(REFERENCE),
    }
}

fn metric_json(metrics: &[(&str, &str, f64)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|&(name, unit, value)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::str(unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn run(args: &Args) -> Result<(), String> {
    let workload = Workload::from_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let err = |e: rbv_os::RbvError| format!("{}: {e}", workload.name());

    // Set-up is the program's work before the first pass: the pool and
    // the inputs. Loading the reference the passes are checked against is
    // the benchmark's own work and stays outside the timer. Host speed
    // changes within seconds, so set-up is timed in a batch before the
    // first pass and again after every measured cycle, and `setup_s` is the
    // median over all batches, scaled by the run's yardstick.
    let reference = load_reference(args.reference.as_ref())?;
    let mut setup_times = Vec::new();
    let time_setup = |times: &mut Vec<f64>| -> Result<Setup, String> {
        let mut setup = None;
        for _ in 0..workload.setup_repeats() {
            let start = Instant::now();
            setup = Some(Setup::new(workload, args.size).map_err(err)?);
            times.push(start.elapsed().as_secs_f64());
        }
        setup.ok_or_else(|| "no set-up ran".to_string())
    };
    let setup = time_setup(&mut setup_times)?;

    // Each cycle visits every input of the family once, starting at --seed.
    let cycle: Vec<u64> = (0..FAMILY).map(|j| (args.seed + j) % FAMILY).collect();
    let mut checks = Checks::new(&reference, args.size, workload);
    checks.pass(cycle[0], &setup.pass(cycle[0]).map_err(err)?);

    let load_start = host::loadavg();
    let wait_start = host::runqueue_wait_ns();
    let measured = Instant::now();
    // With tracing on, each untraced pass is followed by a traced pass over
    // the same input, so host drift affects both sides of the overhead
    // ratio alike and the traced pass is checked against the untraced one.
    let mut tracer = Tracer::new();
    let mut walls = Vec::new();
    // Yardstick times: one before each untraced pass and one after the
    // last, so pass k lies between yardstick runs k and k + 1.
    let (kind, threads) = workload.yardstick();
    let mut yards = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_pass: Vec<Layers> = Vec::new();
    let mut requests = 0;
    // Stop at the cycle boundary nearest to `--seconds`, so a run's length
    // stays close to it.
    let mut cycle_s = 0.0;
    while walls.is_empty() || measured.elapsed().as_secs_f64() + cycle_s / 2.0 < args.seconds {
        let cycle_start = Instant::now();
        for &input in &cycle {
            yards.push(yardstick::time(kind, threads));
            let start = Instant::now();
            let out = setup.pass(input).map_err(err)?;
            let wall = start.elapsed().as_secs_f64();
            walls.push(wall);
            requests = out.requests;
            checks.pass(input, &out);
            if args.trace {
                let pass = traced_walls.len() as u32;
                let (wall, traced, layers) =
                    traced_pass(&setup, input, &out, &mut tracer, pass).map_err(err)?;
                checks.pass(input, &traced);
                traced_walls.push(wall);
                per_pass.push(layers);
            }
        }
        std::hint::black_box(time_setup(&mut setup_times)?);
        cycle_s = cycle_start.elapsed().as_secs_f64();
    }
    yards.push(yardstick::time(kind, threads));
    // Each pass in units of the mean of the yardstick runs around it.
    let relative: Vec<f64> = walls
        .iter()
        .zip(yards.windows(2))
        .map(|(wall, around)| wall / ((around[0] + around[1]) / 2.0))
        .collect();
    // Inputs of the family differ in pass time by up to 2x, and a median
    // over their mixture falls in the gap between them, so passes are
    // averaged over each whole cycle first.
    let per_cycle = |values: &[f64]| -> f64 {
        let means: Vec<f64> = values
            .chunks(cycle.len())
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        median(&means)
    };
    let wall_s = per_cycle(&walls);
    let pass_in_yardsticks = per_cycle(&relative);
    // Set-up in seconds at the host speed where the yardstick takes its
    // reference time; the raw median is in the report.
    let raw_setup_s = median(&setup_times);
    let setup_s = raw_setup_s * kind.reference_s() / median(&yards);

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let overhead = per_cycle(&traced_walls) / wall_s - 1.0;
        for (name, unit) in PER_LAYER {
            let value = if name == "bench.trace_overhead_frac" {
                overhead
            } else {
                let values: Vec<f64> = per_pass
                    .iter()
                    .map(|l| l.0.get(name).copied().unwrap_or(0.0))
                    .collect();
                median(&values)
            };
            metrics.push((name, unit, value));
        }
        std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
        let path = format!(
            ".bench_out/spans-{}-seed{}.json",
            workload.name(),
            args.seed
        );
        std::fs::write(&path, tracer.to_json().to_string_compact())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("[spans written to {path}]");
    } else {
        let rss = host::peak_rss_mb().ok_or("VmHWM unavailable in /proc/self/status")?;
        metrics.extend([
            ("pass_in_yardsticks", "yardsticks", pass_in_yardsticks),
            ("req_per_yardstick", "req/yardstick", requests as f64 / pass_in_yardsticks),
            ("setup_s", "s", setup_s),
            ("peak_rss_mb", "MiB", rss),
        ]);
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let wait_s = match (wait_start, host::runqueue_wait_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
        _ => f64::NAN,
    };
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    let reference_state = if checks.failed > 0 {
        "fails its checks"
    } else if checks.byte_identical {
        "byte-identical to the reference"
    } else {
        "within the reference's tolerance bands"
    };
    for note in &checks.notes {
        eprintln!("[{}] {note}", workload.name());
    }
    for (input, digest) in &checks.digests {
        eprintln!("[{}] input {input}: digest {digest}", workload.name());
    }
    eprintln!("[{}] outputs {reference_state}", workload.name());
    let num = Json::Num;
    let report = Json::Obj(vec![
        ("workload".into(), Json::str(workload.name())),
        ("seed".into(), num(args.seed as f64)),
        ("family".into(), num(FAMILY as f64)),
        ("size".into(), Json::str(args.size.label())),
        ("requests_per_pass".into(), num(requests as f64)),
        ("untraced_passes".into(), num(walls.len() as f64)),
        (
            "pass_walls_s".into(),
            Json::Arr(walls.iter().copied().map(Json::Num).collect()),
        ),
        ("wall_s".into(), num(wall_s)),
        ("req_per_s".into(), num(requests as f64 / wall_s)),
        ("yardstick_s".into(), num(median(&yards))),
        (
            "yardstick_times_s".into(),
            Json::Arr(yards.iter().copied().map(Json::Num).collect()),
        ),
        ("setup_s".into(), num(setup_s)),
        ("raw_setup_s".into(), num(raw_setup_s)),
        (
            "setup_times_s".into(),
            Json::Arr(setup_times.iter().copied().map(Json::Num).collect()),
        ),
        ("failed_frac".into(), num(failed_frac)),
        (
            "digests".into(),
            Json::Arr(checks.digests.values().map(Json::str).collect()),
        ),
        ("reference".into(), Json::str(reference_state)),
        (
            "host".into(),
            Json::Obj(vec![
                ("threads".into(), num(rbv_par::threads() as f64)),
                (
                    "loadavg_1m_start".into(),
                    load_start.map_or(Json::Null, Json::Num),
                ),
                (
                    "loadavg_1m_end".into(),
                    host::loadavg().map_or(Json::Null, Json::Num),
                ),
                ("runqueue_wait_s".into(), num(wait_s)),
                ("runqueue_wait_frac".into(), num(wait_s / measured_s)),
            ]),
        ),
    ]);
    println!("report {}", report.to_string_compact());
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(checks.failed == 0)),
        ("attempted".into(), num(checks.attempted as f64)),
        ("failed".into(), num(checks.failed as f64)),
        ("metrics".into(), metric_json(&metrics)),
    ]);
    println!("{}", result.to_string_compact());
    Ok(())
}

/// One traced pass under a `bench.pass` root span, with the layer
/// metrics that come from span times filled in.
fn traced_pass(
    setup: &Setup,
    input: u64,
    untraced: &PassOutput,
    tracer: &mut Tracer,
    pass: u32,
) -> Result<(f64, PassOutput, Layers), rbv_os::RbvError> {
    tracer.set_pass(pass);
    let root = tracer.enter("bench.pass");
    let result = setup.traced_pass(input, untraced, tracer);
    tracer.exit(root);
    let (out, mut layers) = result?;
    for (name, prefix) in [
        ("os.self_s", "os."),
        ("workloads.self_s", "workloads."),
        ("trace.self_s", "trace."),
    ] {
        layers.set(name, tracer.self_s(pass, prefix));
    }
    for (name, span) in [
        ("telemetry.json_s", "telemetry.json"),
        ("openloop.probe_s", "openloop.probe"),
        ("cluster.run_s", "cluster.run"),
    ] {
        layers.set(name, tracer.busy_s(pass, span));
    }
    let run_s = tracer.busy_s(pass, "cluster.run");
    if run_s > 0.0 {
        let events = layers.0.get("os.events").copied().unwrap_or(0.0);
        layers.set("os.events_per_s", events / run_s);
    }
    Ok((tracer.busy_s_of(root), out, layers))
}

/// Runs every workload, each in its own process, and prints one table.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--size", args.size.label()]);
        if let Some(path) = &args.reference {
            cmd.arg("--reference").arg(path);
        }
        let output = cmd
            .output()
            .map_err(|e| format!("{}: {e}", workload.name()))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!("{} exited with {}", workload.name(), output.status));
        }
        let mut lines = stdout.lines().rev();
        let result = lines.next().and_then(|l| Json::parse(l).ok());
        let report = lines
            .next()
            .and_then(|l| l.strip_prefix("report "))
            .and_then(|l| Json::parse(l).ok());
        match (result, report) {
            (Some(result), Some(report)) => results.push((workload, result, report)),
            _ => return Err(format!("{}: no result line", workload.name())),
        }
    }
    let value = |result: &Json, name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let mut names: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    names.push(("failed_frac", "ratio"));
    print!("{:<28}", "metric");
    for (workload, _, _) in &results {
        print!(" {:>16}", workload.name());
    }
    println!();
    for (name, unit) in names {
        print!("{:<28}", format!("{name} ({unit})"));
        for (_, result, report) in &results {
            let v = if name == "failed_frac" {
                report
                    .get("failed_frac")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            } else {
                value(result, name)
            };
            print!(" {v:>16.6}");
        }
        println!();
    }
    let all_correct = results
        .iter()
        .all(|(_, r, _)| matches!(r.get("correct"), Some(Json::Bool(true))));
    if all_correct {
        Ok(())
    } else {
        Err("a workload failed its output checks".into())
    }
}

/// Regenerates the whole reference — one pass per input seed, size and
/// workload — and writes it to `path`.
fn write_reference(path: &PathBuf) -> Result<(), String> {
    let mut reference = Reference::default();
    for workload in Workload::ALL {
        for size in [Size::Tiny, Size::Full] {
            let setup =
                Setup::new(workload, size).map_err(|e| format!("{}: {e}", workload.name()))?;
            for seed in 0..FAMILY {
                let out = setup
                    .pass(seed)
                    .map_err(|e| format!("{}: {e}", workload.name()))?;
                if out.checks.iter().any(|(_, ok)| !ok) {
                    return Err(format!(
                        "{} input {seed}: a pass check failed; not recording it",
                        workload.name()
                    ));
                }
                let entry = Entry::of(&out.ledger, out.bytes.as_bytes());
                eprintln!(
                    "{} {} seed {seed}: digest {}",
                    workload.name(),
                    size.label(),
                    entry.digest
                );
                reference.insert(size.label(), workload.name(), seed, entry);
            }
        }
    }
    std::fs::write(path, reference.to_json().to_string_compact() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}
