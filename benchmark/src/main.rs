//! The benchmark's command line. See `README.md`.
//!
//! ```text
//! nrmi-benchmark all [--seed N] [--seconds S] [--traced] [--quick]
//! nrmi-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! nrmi-benchmark compare A.json B.json
//! ```
//!
//! `all` re-executes this program once per workload, so `peak_rss_mb` is
//! per workload, and prints one JSON document. The `--workload` form is
//! what the benchmark driver calls: its last line of output is the
//! result object the driver reads.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use nrmi_benchmark::alloc::{self, CountingAlloc};
use nrmi_benchmark::json::{obj, Json};
use nrmi_benchmark::metrics::{END_TO_END, PER_LAYER};
use nrmi_benchmark::report::{self, Values};
use nrmi_benchmark::trace::{Plain, Recorder, Spans};
use nrmi_benchmark::workloads::{self, Plan, Spec};
use nrmi_benchmark::{analysis, compare, layers, sys};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`, and `all`'s default.
const DEFAULT_SECONDS: f64 = 12.0;
/// Complete set-ups a recorded run times (`setup_s` is their median).
const SETUPS: usize = 5;
/// Descriptors a run needs beyond both ends of its idle sockets.
const NOFILE_BASE: u64 = 256;

const USAGE: &str = "usage:
  nrmi-benchmark all [--seed N] [--seconds S] [--traced] [--quick]
  nrmi-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  nrmi-benchmark compare A.json B.json";

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    positional: Vec<String>,
}

fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        positional: Vec::new(),
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => o.workload = Some(value("--workload")?),
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer")?;
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                o.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--traced" => o.trace = true,
            "--quick" => o.quick = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown option {flag}\n{USAGE}"))
            }
            _ => o.positional.push(arg),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let outcome = parse(std::env::args().skip(1)).and_then(|o| {
        match (o.positional.first().map(String::as_str), &o.workload) {
            (None, Some(name)) => run_workload(name, &o),
            (Some("all"), None) => run_all(&o),
            (Some("compare"), None) => run_compare(&o.positional[1..]),
            _ => Err(USAGE.into()),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("nrmi-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// One workload in this process. Prints a `detail` line, then — last —
/// the result line. `Ok(false)` when a result was wrong.
fn run_workload(name: &str, o: &Options) -> Result<bool, String> {
    if cfg!(debug_assertions) && !o.quick {
        return Err(
            "this is a debug build; timings of it mean nothing. Build with --release \
                    (only --quick runs, which are never for the record, accept a debug build)"
                .into(),
        );
    }
    let spec = workloads::specs(o.quick)
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no workload named {name}"))?;
    // Both ends of every idle socket live here; a traced run's poller
    // microbenchmark opens as many socket pairs after the server is gone.
    let fleet = if o.trace {
        layers::IDLE_FLEET
    } else {
        spec.idle
    };
    sys::ensure_nofile(NOFILE_BASE + 2 * fleet.max(spec.idle) as u64)?;
    let pinned_cpu = spec.pinned.then(sys::pin_to_one_cpu).transpose()?;
    let plan = Plan {
        seed: o.seed,
        seconds: o.seconds,
        rounds: o.quick.then_some(1),
        setups: if o.quick { 1 } else { SETUPS },
        keep_spans: false,
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut detail = vec![
        ("workload", Json::Str(spec.name.into())),
        ("seed", Json::Num(o.seed as f64)),
        ("quick", Json::Bool(o.quick)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "pinned_cpu",
            pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
    ];

    let (attempted, failed, metrics) = if o.trace {
        let (attempted, failed, values, extra) = traced(&spec, &plan, o)?;
        detail.extend(extra);
        detail.push((
            "per_layer",
            report::metrics_json(PER_LAYER, &values, None, |_| true),
        ));
        let metrics = report::metrics_json(PER_LAYER, &values, None, |d| d.contract);
        (attempted, failed, metrics)
    } else {
        let outcome = workloads::run(&spec, &plan, &Plain, Instant::now())?;
        let e2e = report::end_to_end(&outcome, sys::status_kb("VmHWM")?);
        detail.extend([
            ("rounds", Json::Num(outcome.rounds.len() as f64)),
            ("samples_per_round", Json::Num(e2e.samples_per_round as f64)),
            (
                "calls_per_s_by_round",
                Json::Arr(
                    e2e.calls_per_s_by_round
                        .iter()
                        .map(|&v| Json::Num(v))
                        .collect(),
                ),
            ),
            ("calls_per_s_drift", Json::Num(e2e.drift)),
            (
                "rss_mb_by_round",
                Json::Arr(
                    outcome
                        .rounds
                        .iter()
                        .map(|r| Json::Num(r.rss_kb as f64 / 1024.0))
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                report::metrics_json(END_TO_END, &e2e.values, Some(&e2e.spreads), |_| true),
            ),
        ]);
        let metrics = report::metrics_json(END_TO_END, &e2e.values, None, |d| d.contract);
        (e2e.attempted, e2e.failed, metrics)
    };
    detail.extend([
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
    ]);

    println!("{}", obj([("detail", obj(detail))]).render());
    println!(
        "{}",
        obj([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    );
    Ok(failed == 0)
}

type Detail = Vec<(&'static str, Json)>;

/// A traced invocation: an untraced pass, the same pass under the
/// decorators with the allocator counting, then the layer
/// microbenchmarks. Each pass gets half of `--seconds`.
fn traced(spec: &Spec, plan: &Plan, o: &Options) -> Result<(u64, u64, Values, Detail), String> {
    let plain_pass = Plan {
        seconds: plan.seconds / 2.0,
        setups: 1,
        ..*plan
    };
    let traced_pass = Plan {
        keep_spans: true,
        ..plain_pass
    };
    let plain = workloads::run(spec, &plain_pass, &Plain, Instant::now())?;
    let untraced = report::end_to_end(&plain, 0);

    let epoch = Instant::now();
    let per_conn = (spec.samples + spec.warmup) * (2 * spec.depth + 4);
    let per_service = spec.calls_per_round() as usize * 8;
    let recorder = Recorder::new(epoch, per_conn, per_service);
    alloc::set_counting(true);
    let run = workloads::run(spec, &traced_pass, &Spans(recorder.clone()), epoch);
    alloc::set_counting(false);
    let run = run?;

    let (logs, exec) = recorder.take();
    let samples = run
        .rounds
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let windows: Vec<(u64, u64)> = run.rounds.iter().map(|r| r.window).collect();
    let spans_path = out_dir()?.join(format!("{}.spans.tsv", spec.name));
    let joined = analysis::analyse(&logs, &exec, samples, &windows, Some(&spans_path))?;
    let parts = joined.marshal_us + joined.send_us + joined.wait_us + joined.apply_us;
    if (parts - joined.latency_us).abs() > 0.01 * joined.latency_us {
        return Err(format!(
            "trace: the client partition sums to {parts} us, the traced latency is {} us",
            joined.latency_us
        ));
    }

    let micro = layers::run(plan.seed, if o.quick { 50 } else { layers::SAMPLES })?;
    let values = report::per_layer(&joined, &run, &untraced, micro);
    let attempted = untraced.attempted + run.rounds.iter().map(|r| r.calls).sum::<u64>();
    let failed = untraced.failed + run.rounds.iter().map(|r| r.failed).sum::<u64>();
    let extra = vec![
        ("traced_rounds", Json::Num(run.rounds.len() as f64)),
        ("untraced_rounds", Json::Num(plain.rounds.len() as f64)),
        ("traced_samples", Json::Num(joined.samples as f64)),
        ("spans_file", Json::Str(spans_path.display().to_string())),
    ];
    Ok((attempted, failed, values, extra))
}

/// Runs this program again for one workload and returns its `detail`.
fn child(spec: &Spec, o: &Options, trace: bool) -> Result<(Json, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", spec.name])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if o.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("{}: {e}", spec.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let detail = stdout
        .lines()
        .rev()
        .nth(1)
        .and_then(|line| Json::parse(line).ok())
        .and_then(|doc| doc.get("detail").cloned())
        .ok_or_else(|| {
            format!(
                "{} (trace {trace}) printed no result: {}",
                spec.name, output.status
            )
        })?;
    Ok((detail, output.status.success()))
}

/// Every workload, each in a process of its own; one JSON document.
fn run_all(o: &Options) -> Result<bool, String> {
    let mut workloads_json = Vec::new();
    let mut clean = true;
    for spec in workloads::specs(o.quick) {
        eprintln!("nrmi-benchmark: {} ...", spec.name);
        let (detail, ok) = child(&spec, o, false)?;
        clean &= ok;
        let drift = detail
            .get("calls_per_s_drift")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if drift.abs() > 0.10 {
            eprintln!(
                "nrmi-benchmark: {} is not stationary: calls_per_s moved {:+.1}% from the first third of its rounds to the last",
                spec.name,
                drift * 100.0
            );
        }
        let mut members = vec![("why".to_string(), Json::Str(spec.why.into()))];
        let keep = |k: &str| !matches!(k, "workload" | "seed" | "quick" | "nproc");
        members.extend(detail.members().iter().filter(|(k, _)| keep(k)).cloned());
        if o.trace {
            eprintln!("nrmi-benchmark: {} (traced) ...", spec.name);
            let (traced, ok) = child(&spec, o, true)?;
            clean &= ok;
            let keep = |k: &str| k == "per_layer" || k.starts_with("traced_") || k == "spans_file";
            members.extend(traced.members().iter().filter(|(k, _)| keep(k)).cloned());
        }
        workloads_json.push((spec.name.to_string(), Json::Obj(members)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = obj([
        ("benchmark", Json::Str("nrmi".into())),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("quick", Json::Bool(o.quick)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "link",
            Json::Str("TCP loopback, both ends in one process: not a real link".into()),
        ),
        ("workloads", Json::Obj(workloads_json)),
    ]);
    println!("{}", doc.render());
    Ok(clean)
}

fn run_compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err(USAGE.into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        // An `all` run's stdout may carry other lines; the document is the last.
        let last = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        Json::parse(last).map_err(|e| format!("{path}: {e}"))
    };
    compare::compare(&load(a)?, &load(b)?)
}
