//! End-to-end and per-layer benchmark of the serve → fleet → runtime →
//! sim-core stack. See `perfbench/README.md` for the workloads and the
//! metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot_hits|cold_fleet|accurate_sim|dup_keys|paced_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`). The exit code is non-zero when
//! an output mismatches its reference or a simulated figure differs
//! between repeats of one seed.

mod harness;
mod replay;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{cpu_ticks, median, peak_rss_mb, quantile, stamp, LoopStats, Metric, Report};
use trace::{perfetto_json, reduce, self_times, Tracer};
use workloads::{build_inputs, run_pass, Inputs, Pass, Workload};

/// Passes every run makes, however short `--seconds` is, so the
/// exactness check has repeats to compare.
const MIN_PASSES: usize = 3;
/// Quantile over passes that the timed figures report (see
/// `end_to_end`). Sized for the 40 or more passes a run makes.
const BEST_DECILE: f64 = 0.1;
/// Untraced and traced served-path replays the traced run alternates
/// to measure what the spans cost; the fastest of each counts.
const OVERHEAD_ROUNDS: usize = 3;
/// Spans per track written to the Perfetto file (all are reduced).
const EXPORT_SPANS_PER_TRACK: usize = 20_000;
/// Where traced runs write their Perfetto files, relative to the
/// checkout root.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => trace = Some(number(&value)? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs passes until the next one would overrun `seconds`, at least
/// `MIN_PASSES`. With `traced`, the last pass keeps its client spans.
fn passes(args: &Args, inputs: &Inputs, traced: bool) -> Result<Vec<Pass>, String> {
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let round = Instant::now();
        let pass = run_pass(args.workload, inputs, traced)?;
        println!(
            "pass setup_s={:.4} timed_s={:.4} throughput_rps={:.1} p50_us={:.1} p99_us={:.1}",
            pass.setup_s,
            pass.timed.elapsed.as_secs_f64(),
            pass.timed.throughput_rps(),
            pass.timed.p50_ns as f64 / 1e3,
            pass.timed.p99_ns as f64 / 1e3,
        );
        // A `hot_hits` pass alone records 50 000 client spans.
        if let Some(previous) = passes.last_mut() {
            previous.timed.spans = Vec::new();
        }
        passes.push(pass);
        if passes.len() >= MIN_PASSES && started.elapsed() + round.elapsed() > budget {
            return Ok(passes);
        }
    }
}

fn counts(report: &mut Report, passes: &[Pass]) {
    for pass in passes {
        for phase in [&pass.warmup, &pass.timed] {
            report.attempted += phase.sent;
            report.failed += phase.failed;
            if phase.mismatched > 0 {
                report.errors.push(format!(
                    "{} outputs mismatched their reference",
                    phase.mismatched
                ));
            }
        }
    }
}

fn end_to_end(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let passes = passes(args, inputs, false)?;
    let mut report = Report::default();
    counts(&mut report, &passes);
    let sim = passes[0].sim;
    if args.workload.exact() {
        if let Some(drift) = passes.iter().find(|p| p.sim != sim) {
            report.errors.push(format!(
                "simulated figures drifted between repeats of seed {}: {:?} vs {:?}",
                args.seed, sim, drift.sim
            ));
        }
    }
    let n = passes.len();
    let of = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    // Host-side interference (a stolen or halted virtual CPU) only ever
    // adds time, and it comes in bursts that hit some passes and spare
    // others. The timed figures are therefore the best decile over
    // passes: the 90th percentile of throughput, the 10th percentile of
    // each per-pass latency percentile. Set-up time is the median: two
    // sets of ten seeds agreed within 2-9 % on it, against up to 49 % for
    // its best decile, which a quiet spell in one set pulls down.
    let best = |f: &dyn Fn(&Pass) -> f64, q: f64| quantile(&of(f), q);
    let timed: u64 = passes.iter().map(|p| p.timed.sent).sum();
    let slo_met: u64 = passes.iter().map(|p| p.timed.slo_met).sum();
    let answered = passes
        .iter()
        .map(|p| p.timed.received - p.timed.failed)
        .sum::<u64>() as usize;
    report.push("setup_s", "s", median(&of(&|p| p.setup_s)), n);
    let rps = best(&|p| p.timed.throughput_rps(), 1.0 - BEST_DECILE);
    report.push("throughput_rps", "1/s", rps, n);
    let p50 = best(&|p| p.timed.p50_ns as f64 / 1e3, BEST_DECILE);
    let p99 = best(&|p| p.timed.p99_ns as f64 / 1e3, BEST_DECILE);
    report.push("p50_us", "us", p50, answered);
    // Printed, not gated: p99 follows the host's steal share too closely
    // to repeat between runs (see README.md).
    report.info.push(Metric {
        name: "p99_us",
        unit: "us",
        value: p99,
        samples: answered,
    });
    let slo = slo_met as f64 / timed as f64;
    report.push("slo_met", "ratio", slo, timed as usize);
    report.push("peak_rss_mb", "MiB", peak_rss_mb(), 1);
    // Exact, so any pass's figures will do.
    report.push("sim_mcycles", "Mcycles", sim.busy_cycles as f64 / 1e6, n);
    let makespan = sim.makespan_cycles as f64 / 1e6;
    report.push("makespan_mcycles", "Mcycles", makespan, n);
    report.push("energy_uj", "uJ", sim.energy_pj / 1e6, n);
    Ok(report)
}

fn per_layer(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let w = args.workload;
    // What the spans cost: the served-path replay with tracing off and
    // on, alternated, each from fresh state.
    let mut tracer = Tracer::new();
    let mut replayed = replay::ReplayOut::default();
    let (mut plain_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..OVERHEAD_ROUNDS {
        let started = Instant::now();
        replay::served(w, inputs, &mut Tracer::off());
        plain_s = plain_s.min(started.elapsed().as_secs_f64());
        tracer = Tracer::new();
        let started = Instant::now();
        replayed = replay::served(w, inputs, &mut tracer);
        traced_s = traced_s.min(started.elapsed().as_secs_f64());
    }
    let off_path = replay::off_path(w, inputs, &mut tracer)?;
    let passes = passes(args, inputs, true)?;
    let mut report = Report::default();
    counts(&mut report, &passes);
    report.attempted += replayed.requests;
    report.failed += replayed.failed + off_path.failed;
    if replayed.failed + off_path.failed > 0 {
        report.errors.push(format!(
            "{} replayed calls failed or mismatched",
            replayed.failed + off_path.failed
        ));
    }

    // Client spans of the last pass: the request from due to response,
    // and the submit call inside it.
    let last = passes.last().expect("at least one pass");
    let client = &last.timed.spans;
    for (n, s) in client.iter().enumerate() {
        let request = tracer.record("bench.request", None, n as u64, 2, (s[0], s[3]));
        tracer.record("serve.submit", Some(request), n as u64, 2, (s[1], s[2]));
    }
    let layers = reduce(&tracer.spans);
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();

    let timed: Vec<&LoopStats> = passes.iter().map(|p| &p.timed).collect();
    let received: u64 = timed.iter().map(|t| t.received).sum();
    let hits: u64 = timed.iter().map(|t| t.hits).sum();
    let sent: u64 = timed.iter().map(|t| t.sent).sum();
    let late_us = timed.iter().map(|t| t.late_ns).sum::<u64>() as f64 / sent.max(1) as f64 / 1e3;

    // What a request costs beyond the layers the replay timed, over the
    // timed requests only (a `hot_hits` warm-up is all misses). Closed
    // loop: the per-request cycle time minus the dispatcher-thread self
    // time. Open loop: the mean submit-to-response latency minus the
    // mean replayed request.
    let first_timed = inputs.warmup.len() as u64;
    let own = self_times(&tracer.spans);
    let replayed_timed = |names: &[&str]| -> (u64, u64) {
        let spans = tracer.spans.iter().zip(&own).filter(|(s, _)| {
            let root = s.parent.map_or(*s, |p| &tracer.spans[p]);
            root.name == "replay.request" && s.request >= first_timed && names.contains(&s.name)
        });
        spans.fold((0, 0), |(n, ns), (_, own)| (n + 1, ns + own))
    };
    let (timed_requests, _) = replayed_timed(&["replay.request"]);
    let residual_us = if w == Workload::PacedMix {
        let served_ns: u128 = client.iter().map(|s| (s[3] - s[1]).as_nanos()).sum();
        let replayed_ns: u64 = tracer
            .spans
            .iter()
            .filter(|s| s.name == "replay.request" && s.request >= first_timed)
            .map(|s| s.duration_ns())
            .sum();
        (served_ns as f64 / client.len().max(1) as f64
            - replayed_ns as f64 / timed_requests.max(1) as f64)
            / 1e3
    } else {
        let rps = median(&timed.iter().map(|t| t.throughput_rps()).collect::<Vec<_>>());
        let co_scheduled = w.config().co_scheduling();
        let layers: Vec<&str> = replay::DISPATCHER_LAYERS
            .into_iter()
            .filter(|l| co_scheduled || !matches!(*l, "runtime.plan" | "fleet.admit"))
            .collect();
        let (_, dispatcher_ns) = replayed_timed(&layers);
        1e6 / rps - dispatcher_ns as f64 / timed_requests.max(1) as f64 / 1e3
    };

    // Mean self time per call of the layers timed by spans.
    for (metric, span) in [
        ("runtime.content_key_us", "runtime.content_key"),
        ("serve.cache_get_us", "serve.cache_get"),
        ("serve.cache_insert_us", "serve.cache_insert"),
        ("serve.submit_us", "serve.submit"),
        ("runtime.plan_us", "runtime.plan"),
        ("fleet.admit_us", "fleet.admit"),
        ("runtime.functional_us", "runtime.functional"),
        ("runtime.tempus_us", "runtime.tempus"),
        ("runtime.pool_roundtrip_us", "runtime.pool_roundtrip"),
        ("runtime.nvdla_us", "runtime.nvdla"),
    ] {
        report.push(
            metric,
            "us",
            layer(span).mean_us(),
            layer(span).count as usize,
        );
    }
    let tempus = layer("runtime.tempus");
    let tempus_cycles = replayed.tempus_cycles + off_path.tempus_cycles;
    report.push(
        "core.sim_mcycles_per_s",
        "Mcycles/s",
        tempus_cycles as f64 / 1e6 / (tempus.self_ns as f64 / 1e9),
        tempus.count as usize,
    );
    let hit_rate = hits as f64 / received.max(1) as f64;
    report.push("serve.cache_hit_rate", "ratio", hit_rate, received as usize);
    report.push("serve.residual_us", "us", residual_us, received as usize);
    let stats = &last.stats;
    let device = &stats.device;
    let placements = device.placements as usize;
    report.push("fleet.occupancy", "ratio", device.occupancy(), placements);
    report.push("fleet.backfills", "count", device.backfills as f64, 1);
    let idle_gap = device.idle_gap_cycles as f64 / 1e6;
    report.push("fleet.idle_gap_mcycles", "Mcycles", idle_gap, 1);
    report.push("serve.coalesced", "count", stats.coalesced as f64, 1);
    report.push("serve.max_deferred", "count", stats.max_deferred as f64, 1);
    let depth = stats.max_queue_depth as f64;
    report.push("serve.max_queue_depth", "count", depth, 1);
    report.push("serve.rejected", "count", stats.rejected as f64, 1);
    report.push("bench.late_us", "us", late_us, sent as usize);
    report.push("models.generate_s", "s", inputs.generate_s, 1);
    let overhead = 1.0 - plain_s / traced_s;
    report.push("trace.overhead_frac", "ratio", overhead, OVERHEAD_ROUNDS);

    for (name, stat) in &layers {
        println!(
            "span {name:<26} count={:<8} self_us_mean={:<12.3} self_ms_total={:.3}",
            stat.count,
            stat.mean_us(),
            stat.self_ns as f64 / 1e6
        );
    }
    if let Err(err) = write_perfetto(&tracer, w) {
        report.errors.push(err);
    }
    Ok(report)
}

/// Writes the spans as a Perfetto file and checks it with the
/// telemetry crate's validator.
fn write_perfetto(tracer: &Tracer, workload: Workload) -> Result<(), String> {
    let mut per_track = std::collections::BTreeMap::<u32, usize>::new();
    let kept: Vec<_> = tracer
        .spans
        .iter()
        .filter(|s| {
            let n = per_track.entry(s.track).or_default();
            *n += 1;
            *n <= EXPORT_SPANS_PER_TRACK
        })
        .cloned()
        .collect();
    let text = perfetto_json(&kept, &stamp());
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = format!("{OUT_DIR}/{}.trace.json", workload.name());
    std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
    let written = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let events = tempus_telemetry::perfetto::validate_perfetto(&written)
        .map_err(|e| format!("{path}: {e}"))?;
    println!("perfetto {path} events={events}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            eprintln!(
                "usage: --workload <hot_hits|cold_fleet|accurate_sim|dup_keys|paced_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} workload={} seed={} seconds={} trace={}",
        stamp(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let ticks = cpu_ticks();
    let result = build_inputs(args.workload, args.seed).and_then(|inputs| {
        println!(
            "inputs distinct={} warmup={} timed={} generate_s={:.3}",
            inputs.items.len(),
            inputs.warmup.len(),
            inputs.timed.len(),
            inputs.generate_s
        );
        if args.trace {
            per_layer(&args, &inputs)
        } else {
            end_to_end(&args, &inputs)
        }
    });
    let report = match result {
        Ok(report) => report,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks, cpu_ticks()) {
        // Time the host gave to other tenants: the main source of noise
        // on a shared virtual machine. Runs with a high share read slow.
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        println!("host_steal_frac={share:.4}");
    }
    let lines = [("metric", &report.metrics), ("info", &report.info)];
    for (kind, list) in lines {
        for m in list {
            println!(
                "{kind} {:<26} {:>16.4} {:<9} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
    }

    for err in &report.errors {
        eprintln!("perfbench: {err}");
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
