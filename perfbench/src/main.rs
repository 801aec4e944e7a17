//! Repository benchmark for the RT-GCN workspace.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds the whole system in process (dataset, relations,
//! models, checkpoint, serving registry behind a loopback HTTP server and
//! a stream engine), then times one daily loop in three phases: training
//! steps and per-day scoring (fit), `StreamEngine::advance` (stream), and
//! open-loop `/rank`, `/score` and `/advance` traffic (serve). Every output
//! is checked. The last line of standard output is one JSON object with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`); details and spans go to `.bench_out/`.

mod fit;
mod host;
mod probes;
mod serve;
mod stats;
mod stream;
mod system;
mod trace;

use serde::Value;
use stats::Samples;
use std::time::{Duration, Instant};
use system::{System, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reference-loop passes before and after the workload.
const REF_REPS: usize = 5;
const OUT_DIR: &str = ".bench_out";
/// Target length of one round (see [`run_passes`]).
const ROUND_SECS: f64 = 2.5;
/// Share of the fit phase spent training; the rest scores test days.
const TRAIN_SHARE: f64 = 0.75;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = system::WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(system::find(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed {value:?}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One pass over the three phases.
struct Pass {
    fit: fit::FitOut,
    stream: stream::StreamOut,
    serve: serve::ServeOut,
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.fit.attempted + self.stream.attempted + self.serve.attempted
    }

    fn failed(&self) -> u64 {
        self.fit.failed + self.stream.failed + self.serve.failed
    }

    fn errors(&self) -> impl Iterator<Item = &String> {
        self.fit
            .errors
            .iter()
            .chain(&self.stream.errors)
            .chain(&self.serve.errors)
    }
}

/// Telemetry and span recording on (`RTGCN_LOG=summary`) or off.
fn set_tracing(on: bool) {
    use rtgcn_telemetry::{set_level, Level};
    set_level(if on { Level::Summary } else { Level::Off });
    trace::set_enabled(on);
}

/// Run the three phases in rounds of about [`ROUND_SECS`], each round
/// giving every phase its share, so every operation is sampled across the
/// whole run and not in one window of it. With `traced`, every slot is
/// split between an untraced and a traced pass, returned in that order, so
/// both see the same host conditions.
fn run_passes(
    sys: &mut System,
    w: &Workload,
    seed: u64,
    events: &mut stream::Events,
    secs: f64,
    traced: bool,
) -> Vec<Pass> {
    let passes = if traced { 2 } else { 1 };
    let rounds = (secs / ROUND_SECS).round().max(1.0);
    let slot = |share: f64| Duration::from_secs_f64(secs * share / rounds / passes as f64);
    let mut fits: Vec<fit::Fit> = (0..passes).map(|_| fit::Fit::new(sys, seed)).collect();
    let mut streams: Vec<stream::StreamOut> = (0..passes).map(|_| Default::default()).collect();
    let mut load = serve::Load::new(sys);
    for _ in 0..rounds as usize {
        for p in 0..passes {
            set_tracing(p == 1);
            fits[p].train(sys, slot(w.shares[0] * TRAIN_SHARE));
            fits[p].eval(sys, slot(w.shares[0] * (1.0 - TRAIN_SHARE)));
            stream::advance(&mut sys.engine, events, slot(w.shares[1]), &mut streams[p]);
            load.round(sys, w, slot(w.shares[2]), p);
        }
    }
    stream::verify(&sys.engine, &mut streams[passes - 1]);
    set_tracing(false);
    let serves = load.finish(sys, passes);
    fits.into_iter()
        .zip(streams)
        .zip(serves)
        .map(|((f, stream), serve)| Pass {
            fit: f.out,
            stream,
            serve,
        })
        .collect()
}

/// `(name, value, unit)` of every end-to-end metric. Compute-bound
/// operations report p10, their service time: on the 2-vCPU reference
/// host, identical operations alternate between a fast and a
/// 1.6x slower state for seconds at a time, so their medians, and the
/// `/rank` tail, move by more than any bound between runs (see
/// `RATIONALE.md`). Medians and tails of every timing are still written to
/// the details file.
fn end_to_end(pass: &Pass, setup: &Samples, rss_mb: f64) -> Vec<probes::Metric> {
    vec![
        ("setup_s", setup.median(), "s"),
        ("peak_rss_mb", rss_mb, "MiB"),
        ("step_p10_ms", pass.fit.steps.quantile(0.1), "ms"),
        ("eval_day_p10_ms", pass.fit.evals.quantile(0.1), "ms"),
        ("advance_p10_ms", pass.stream.advance.quantile(0.1), "ms"),
        ("rank_p50_ms", pass.serve.rank.median(), "ms"),
        ("score_p10_ms", pass.serve.score.quantile(0.1), "ms"),
        (
            "advance_http_p10_ms",
            pass.serve.advance.quantile(0.1),
            "ms",
        ),
    ]
}

/// Sample count, p10, p50 and the supported tail of every timing.
fn timings(pass: &Pass) -> Value {
    let rows: [(&str, &Samples); 8] = [
        ("step_ms", &pass.fit.steps),
        ("eval_day_ms", &pass.fit.evals),
        ("advance_ms", &pass.stream.advance),
        ("rank_ms", &pass.serve.rank),
        ("rank_lateness_ms", &pass.serve.rank_lateness),
        ("score_ms", &pass.serve.score),
        ("advance_http_ms", &pass.serve.advance),
        ("sample_ms", &pass.fit.sample),
    ];
    Value::Map(
        rows.iter()
            .map(|(name, s)| {
                let mut m = vec![
                    ("n".to_string(), Value::U64(s.len() as u64)),
                    ("p10".to_string(), Value::F64(s.quantile(0.1))),
                    ("p50".to_string(), Value::F64(s.median())),
                ];
                if let Some((q, v)) = s.tail() {
                    m.push((format!("p{}", q * 100.0), Value::F64(v)));
                }
                (name.to_string(), Value::Map(m))
            })
            .collect(),
    )
}

/// Per-layer values from the traced pass `b`, with `a` the untraced pass
/// run just before it on the same system.
fn per_layer(
    sys: &System,
    setups: &[system::SetupTimes],
    a: &Pass,
    b: &Pass,
    seed: u64,
    ref_ms: f64,
) -> Result<Vec<probes::Metric>, String> {
    let median = |f: fn(&system::SetupTimes) -> f64| {
        stats::quantile(&setups.iter().map(f).collect::<Vec<_>>(), 0.5)
    };
    let steps = b.fit.steps.len().max(1) as f64;
    let per_step = |secs: f64| secs * 1e3 / steps;
    let ph = b.fit.phases;
    let hist_mean = |name: &str| rtgcn_telemetry::histogram(name).mean_ns() as f64;
    let rank_handler_us = hist_mean("serve.rank_ns") / 1e3;
    // The traced pass over the untraced one, over the compute-bound
    // operations both passes time in process.
    let p50_sum =
        |p: &Pass| p.fit.steps.median() + p.fit.evals.median() + p.stream.advance.median();
    let overhead_pct = (p50_sum(b) / p50_sum(a) - 1.0) * 100.0;

    let mut m = probes::kernels(sys, seed);
    m.extend([
        ("core.relational_ms", per_step(ph.relational), "ms"),
        ("core.temporal_ms", per_step(ph.temporal), "ms"),
        ("core.loss_ms", per_step(ph.loss), "ms"),
        ("core.backward_ms", per_step(ph.backward), "ms"),
        ("core.optim_ms", per_step(ph.optim), "ms"),
        ("market.generate_s", median(|t| t.generate_s), "s"),
        ("market.sample_ms", b.fit.sample.median(), "ms"),
    ]);
    m.extend(probes::market_graph(
        &sys.ds,
        sys.rel.directed_edges(),
        sys.cfg.n_features,
    ));
    m.extend([
        ("stream.score_ms", b.stream.score.mean(), "ms"),
        (
            "stream.other_ms",
            b.stream.advance.mean() - b.stream.score.mean(),
            "ms",
        ),
        ("stream.event_day_ms", b.stream.event_day.mean(), "ms"),
        ("stream.parity_s", b.stream.parity_s, "s"),
        ("serve.install_ms", median(|t| t.install_ms), "ms"),
        ("serve.rank_handler_us", rank_handler_us, "us"),
        (
            "serve.score_handler_ms",
            hist_mean("serve.score_ns") / 1e6,
            "ms",
        ),
        ("http.connect_us", b.serve.connect_us.mean(), "us"),
        (
            "http.transport_us",
            b.serve.rank_service.mean() * 1e3 - rank_handler_us,
            "us",
        ),
        (
            "http.shed_503",
            (a.serve.shed_503 + b.serve.shed_503) as f64,
            "count",
        ),
        (
            "gen.lateness_p99_ms",
            b.serve.rank_lateness.quantile(0.99),
            "ms",
        ),
        ("host.ref_ms", ref_ms, "ms"),
        ("trace.overhead_pct", overhead_pct, "%"),
    ]);
    m.extend(probes::serving(sys)?);
    Ok(m)
}

fn metrics_value(metrics: &[(&str, f64, &str)]) -> Value {
    Value::Map(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Value::Map(vec![
                        ("value".to_string(), Value::F64(*value)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let w = args.workload;
    // Server-side streams must not refit mid-run: the benchmark times the
    // default serving configuration.
    std::env::remove_var("RTGCN_STREAM_REFIT_EVERY");
    std::env::remove_var("RTGCN_STREAM_DRIFT");
    // End-to-end numbers are measured with telemetry off; the traced pass
    // turns it on (as `RTGCN_LOG=summary` would).
    rtgcn_telemetry::set_level(rtgcn_telemetry::Level::Off);
    let started = Instant::now();
    let ref_before = host::ref_ms(REF_REPS);

    let mut setup_s = Samples::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut sys = None;
    for _ in 0..SETUPS {
        drop(sys.take());
        let s = system::setup(w, args.seed)?;
        setup_s.push(s.times.total_s);
        setups.push(s.times);
        sys = Some(s);
    }
    let mut sys = sys.expect("SETUPS > 0");
    let mut events = stream::Events::new(args.seed);

    let (mut extra_attempted, mut extra_failed) = (0u64, 0u64);
    let mut notes: Vec<String> = Vec::new();
    let mut passes = run_passes(
        &mut sys,
        w,
        args.seed,
        &mut events,
        args.seconds,
        args.trace,
    );
    let pass = passes.pop().expect("at least one pass");
    let layer = match passes.pop() {
        Some(untraced) => {
            // Both passes train the same model from the same seed, so their
            // loss sequences must agree bit for bit over the common prefix.
            let (a, b) = (&untraced.fit.losses, &pass.fit.losses);
            let common = a.len().min(b.len());
            if a[..common] != b[..common] {
                extra_failed += 1;
                notes.push("traced and untraced loss sequences differ".into());
            }
            extra_attempted += untraced.attempted();
            extra_failed += untraced.failed();
            notes.extend(untraced.errors().cloned());
            set_tracing(true);
            let ref_now = host::ref_ms(REF_REPS);
            let layer = per_layer(
                &sys,
                &setups,
                &untraced,
                &pass,
                args.seed,
                (ref_before + ref_now) / 2.0,
            )?;
            set_tracing(false);
            Some(layer)
        }
        None => None,
    };
    let ref_after = host::ref_ms(REF_REPS);
    let rss_mb = host::peak_rss_mb()?;
    let e2e = end_to_end(&pass, &setup_s, rss_mb);

    let attempted = pass.attempted() + extra_attempted;
    let mut failed = pass.failed() + extra_failed;
    notes.extend(pass.errors().cloned());
    let reported: &[probes::Metric] = layer.as_deref().unwrap_or(&e2e);
    for (name, value, _) in reported {
        if !value.is_finite() {
            failed += 1;
            notes.push(format!("{name} is not finite"));
        }
    }

    let provenance = Value::Map(vec![
        ("workload".into(), Value::Str(w.name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("host.ref_ms_before".into(), Value::F64(ref_before)),
        ("host.ref_ms_after".into(), Value::F64(ref_after)),
        ("nproc".into(), Value::U64(host::nproc() as u64)),
        (
            "num_threads".into(),
            Value::U64(rtgcn_tensor::num_threads() as u64),
        ),
        (
            "telemetry_level".into(),
            Value::Str(if args.trace { "summary" } else { "off" }.into()),
        ),
        (
            "git_commit".into(),
            Value::Str(rtgcn_telemetry::build_git_hash().into()),
        ),
        ("wall_s".into(), Value::F64(started.elapsed().as_secs_f64())),
    ]);
    eprintln!(
        "{}",
        serde_json::to_string(&provenance).map_err(|e| format!("{e:?}"))?
    );
    for (name, value, unit) in reported {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    for note in notes.iter().take(10) {
        eprintln!("  failure: {note}");
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let computed = probes::kernel_bytes(&sys)
        .into_iter()
        .map(|(k, v)| (format!("{k}.bytes_computed"), Value::F64(v)))
        .collect();
    let detail = Value::Map(vec![
        ("provenance".into(), provenance),
        ("timings".into(), timings(&pass)),
        (
            "setup_s".into(),
            Value::Seq(setup_s.values().iter().map(|&v| Value::F64(v)).collect()),
        ),
        ("metrics".into(), metrics_value(reported)),
        ("computed_not_measured".into(), Value::Map(computed)),
        (
            "failures".into(),
            Value::Seq(notes.iter().map(|n| Value::Str(n.clone())).collect()),
        ),
    ]);
    let path = format!("{OUT_DIR}/{stem}.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&detail).map_err(|e| format!("{e:?}"))?,
    )
    .map_err(|e| format!("write {path}: {e}"))?;
    if args.trace {
        let spans = trace::recorded();
        let path = format!("{OUT_DIR}/spans-{stem}.jsonl");
        trace::write_jsonl(std::path::Path::new(&path), &spans)
            .map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("  span self time (ms), traced pass:");
        for (name, (count, total, own)) in trace::summarize(&spans) {
            eprintln!(
                "    {name:<34} n={count:<7} total={:>10.2} self={:>10.2}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    drop(sys);

    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), metrics_value(reported)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| format!("{e:?}"))?
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error[perfbench]: {e}");
        std::process::exit(2);
    }
}
