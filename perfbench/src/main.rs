//! Loopback benchmark for `tdv serve`.
//!
//! ```text
//! perfbench --tdv PATH --workload derive|read-mix|schema-churn
//!           --seed N --seconds S --trace 0|1 [--work DIR]
//! ```
//!
//! Starts the release server, sets it up several times (timed), drives
//! the seeded open-loop schedule over loopback, checks every answer and
//! prints the end-to-end metrics. With `--trace 1` it then replays the
//! same request list in-process with spans and prints the per-layer
//! table instead. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `perfbench/NOTES.md`
//! explains the workloads and metrics.

mod check;
mod inputs;
mod loopback;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use inputs::{Kind, Workload};
use traced::{Phase, Replay};

/// The measured phase is split into this many segments, each on a fresh
/// server after its own timed set-up; `setup_s` and `peak_rss_mb` are
/// medians over segments, latencies are pooled.
const SEGMENTS: usize = 5;
/// A generator whose p99 lateness exceeds this has fallen behind.
const LATE_FLAG: Duration = Duration::from_millis(5);
/// Lateness beyond this counts toward `gen.late_count`.
const LATE_COUNT: Duration = Duration::from_millis(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tdv: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let mut get = |k: &str| map.remove(k).ok_or_else(|| format!("missing {k}"));
    let args = Args {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        tdv: get("--tdv")?.into(),
        work: map
            .remove("--work")
            .unwrap_or_else(|| ".bench_build/perfbench-work".into())
            .into(),
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank quantile of an unsorted sample (`None` when empty).
fn quantile<T: Copy + PartialOrd>(values: &[T], q: f64) -> Option<T> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

fn q_ms(values: &[Duration], q: f64) -> f64 {
    quantile(values, q).map(ms).unwrap_or(0.0)
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// One segment of the measured phase: its own inputs, its own fresh
/// server and set-up.
struct Segment {
    wl: Workload,
    setup: Duration,
    measured: loopback::Measured,
    peak_rss_mb: f64,
}

/// A time read off one measured request and its outcome.
type Per = fn(&inputs::Req, &loopback::Outcome) -> Duration;

impl Segment {
    fn each(&self, f: Per) -> Vec<Duration> {
        let pairs = self.wl.measured.iter().zip(&self.measured.outcomes);
        pairs.map(|(r, o)| f(r, o)).collect()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let seconds = args.seconds / SEGMENTS as f64;
    let workloads = (0..SEGMENTS as u64)
        .map(|k| inputs::generate(&args.workload, args.seed, k, seconds))
        .collect::<Option<Vec<Workload>>>()
        .ok_or_else(|| {
            format!(
                "unknown workload `{}` (expected one of {})",
                args.workload,
                inputs::WORKLOADS.join(", ")
            )
        })?;
    if !args.tdv.is_file() {
        return Err(format!("no server binary at {}", args.tdv.display()));
    }
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let first = &workloads[0];
    println!(
        "perfbench {} seed {}: {} tenants, Poisson {} rps open loop, {SEGMENTS} segments of {seconds} s on fresh servers, {} requests, one sender per tenant",
        first.name,
        args.seed,
        first.tenants.len(),
        first.rate,
        workloads.iter().map(|w| w.measured.len()).sum::<usize>()
    );
    println!(
        "inputs: {}",
        inputs::digests(&workloads)
            .iter()
            .map(|(k, d)| format!("{k} {d:016x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let mut gate = check::Gate::default();
    let mut segments = Vec::with_capacity(SEGMENTS);
    for (k, wl) in workloads.into_iter().enumerate() {
        let tag = format!("{}-{k}", std::process::id());
        let (server, setup, paper) = loopback::setup(&wl, &args.tdv, &args.work, &tag)?;
        if let Err(e) = paper {
            gate.failures.push(format!("segment {k}: {e}"));
        }
        let measured = loopback::drive(&wl, &server)?;
        let peak_rss_mb = server.peak_rss_mb()?;
        drop(server);
        segments.push(Segment {
            wl,
            setup,
            measured,
            peak_rss_mb,
        });
    }

    let checking = std::time::Instant::now();
    for seg in &segments {
        check::check(&seg.wl, &seg.measured.outcomes, &mut gate);
    }
    let checking = checking.elapsed();
    let tally = &gate.tally;
    let pooled = |f: Per| -> Vec<Duration> { segments.iter().flat_map(|s| s.each(f)).collect() };
    let latencies = pooled(|r, o| o.latency(r.due));
    let waits = pooled(|r, o| o.sent.saturating_sub(r.due));
    let services = pooled(|_, o| o.service());
    let lateness = pooled(|_, o| o.late);
    let late_p99 = quantile(&lateness, 0.99).unwrap_or_default();
    let late_count = lateness.iter().filter(|&&l| l > LATE_COUNT).count();
    let setups: Vec<Duration> = segments.iter().map(|s| s.setup).collect();
    let rss: Vec<f64> = segments.iter().map(|s| s.peak_rss_mb).collect();
    let server_cpu_ms: f64 = segments.iter().map(|s| s.measured.server_cpu_ms).sum();
    let steal_ms: f64 = segments.iter().map(|s| s.measured.steal_ms).sum();
    let wall: Duration = segments.iter().map(|s| s.measured.wall).sum();
    let e2e = vec![
        metric("latency_p50_ms", "ms", q_ms(&latencies, 0.5)),
        metric("latency_p90_ms", "ms", q_ms(&latencies, 0.9)),
        metric(
            "server_cpu_ms_per_req",
            "ms",
            server_cpu_ms / tally.ok.max(1) as f64,
        ),
        metric(
            "setup_s",
            "s",
            quantile(&setups, 0.5).expect("set-ups ran").as_secs_f64(),
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            quantile(&rss, 0.5).expect("set-ups ran"),
        ),
        metric(
            "success_share",
            "ratio",
            tally.ok as f64 / tally.attempted.max(1) as f64,
        ),
    ];
    println!(
        "measured: {:.2} s wall, attempted {}, ok {}, refused {}, timed out or broken {}, http errors {}",
        wall.as_secs_f64(),
        tally.attempted,
        tally.ok,
        tally.refused,
        tally.broken,
        tally.http_errors
    );
    let list = |v: Vec<String>| v.join(" ");
    let seg_latency = |q: f64| -> Vec<String> {
        segments
            .iter()
            .map(|s| format!("{:.2}", q_ms(&s.each(|r, o| o.latency(r.due)), q)))
            .collect()
    };
    println!(
        "per segment: set-up s [{}], peak RSS MiB [{}], latency p50 ms [{}], p90 ms [{}], steal ms [{}]",
        list(setups.iter().map(|d| format!("{:.4}", d.as_secs_f64())).collect()),
        list(rss.iter().map(|r| format!("{r:.1}")).collect()),
        list(seg_latency(0.5)),
        list(seg_latency(0.9)),
        list(segments.iter().map(|s| format!("{:.0}", s.measured.steal_ms)).collect())
    );
    println!(
        "generator: late p99 {:.3} ms, {} requests more than {} ms late{}",
        ms(late_p99),
        late_count,
        ms(LATE_COUNT),
        if late_p99 > LATE_FLAG {
            " -- FLAG: the generator fell behind its schedule"
        } else {
            ""
        }
    );
    println!(
        "server CPU {:.0} ms over the phase ({} ticks of 10 ms); host steal {:.0} ms",
        server_cpu_ms,
        (server_cpu_ms / 10.0).round(),
        steal_ms
    );
    println!(
        "latency split: p50 wait at the sender {:.3} ms, p50 service (sent to answered) {:.3} ms",
        q_ms(&waits, 0.5),
        q_ms(&services, 0.5)
    );
    println!("end-to-end ({} requests):", latencies.len());
    for m in &e2e {
        println!("  {:<24} {:>12.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<24} {:>12.4} ms   (information only)",
        "latency_p99",
        q_ms(&latencies, 0.99)
    );
    println!(
        "  {:<24} {:>12.4}      (information only)",
        "error_share",
        tally.failed() as f64 / tally.attempted.max(1) as f64
    );
    println!(
        "correctness: {} oracle comparisons, {} byte-for-byte re-derivations, {} failures ({:.1} s)",
        gate.oracle_checks,
        gate.byte_checks,
        gate.failures.len(),
        checking.as_secs_f64()
    );
    for f in gate.failures.iter().take(10) {
        println!("  FAIL {f}");
    }
    let mut correct = gate.failures.is_empty();

    let metrics = if args.trace {
        let mut replays = Vec::with_capacity(segments.len());
        let mut events = Vec::new();
        for (k, seg) in segments.iter().enumerate() {
            let tag = format!("{}-{k}", std::process::id());
            let first = traced::replay(&seg.wl, &args.work, &format!("{tag}-a"), true)?;
            let second = traced::replay(&seg.wl, &args.work, &format!("{tag}-b"), false)?;
            if first.counts != second.counts {
                correct = false;
                println!("FAIL segment {k}: counts differ between two traced runs of one seed:");
                for (key, v) in &first.counts {
                    let other = second.counts.get(key).copied().unwrap_or(0);
                    if *v != other {
                        println!("  {key}: {v} vs {other}");
                    }
                }
            }
            traced::chrome_events(&first, k + 1, &mut events);
            replays.push((first, seg.measured.outcomes.as_slice()));
        }
        if correct {
            println!("counts repeat exactly across two traced runs of every segment");
        }
        let trace_path = args
            .work
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(&trace_path, format!("[\n{}\n]\n", events.join(",\n")))
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!("chrome trace of the traced run: {}", trace_path.display());
        let traced = layers(&replays, late_p99, late_count);
        if traced.invariant_failures > 0 {
            correct = false;
            println!("FAIL the traced run saw invariant violations");
        }
        traced.metrics
    } else {
        e2e
    };

    let body = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                td_server::json::quote(&m.name),
                td_server::json::quote(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted,
        tally.failed()
    );
    Ok(())
}

/// The layer taxonomy: span name, and which end-to-end metric on which
/// workload the layer should move.
const LAYERS: [(&str, &str); 24] = [
    ("api.json_parse", "read-mix latency (JSON codec guard)"),
    ("registry.resolve", "every compute workload"),
    (
        "snapshot.fork",
        "derive p50 + CPU; read-mix less; peak RSS everywhere",
    ),
    (
        "project",
        "self time = untimed pre-derivation clone; derive + churn",
    ),
    ("project.applicability", "derive + churn latency and CPU"),
    ("project.factor_state", "derive + churn latency and CPU"),
    ("project.flow_analysis", "derive + churn latency and CPU"),
    ("project.augment", "derive + churn latency and CPU"),
    ("project.factor_methods", "derive + churn latency and CPU"),
    ("project.retype", "derive + churn latency and CPU"),
    ("project.invariants", "derive + churn latency and CPU"),
    (
        "td_driver.batch",
        "derive latency_p90 (batches are the tail)",
    ),
    ("core.applicable", "read-mix latency"),
    ("core.lint", "read-mix latency"),
    ("core.explain", "read-mix latency"),
    ("analyze.analyze", "read-mix latency"),
    ("registry.put", "churn p90 + CPU; setup_s everywhere"),
    ("registry.put.parse", "churn p90 + CPU; setup_s everywhere"),
    ("registry.put.diff", "churn p90 + CPU"),
    ("registry.put.carry", "churn p90 + CPU"),
    ("registry.put.warm_caches", "churn p90 + CPU"),
    ("registry.put.snapshot_write", "churn p90 + CPU"),
    ("api.render", "read-mix latency (JSON codec guard)"),
    ("(request self)", "unattributed handler work in the mirror"),
];

struct Traced {
    metrics: Vec<Metric>,
    invariant_failures: u64,
}

/// Prints the per-layer table and returns the per-layer metrics of the
/// replays of every segment, each with its segment's loopback outcomes.
fn layers(
    replays: &[(Replay, &[loopback::Outcome])],
    late_p99: Duration,
    late_count: usize,
) -> Traced {
    // Per span name: (duration, self time) of every call. Request roots
    // pool their self time under "(request self)".
    let mut calls: BTreeMap<&str, Vec<(Duration, Duration)>> = BTreeMap::new();
    let mut named = Duration::ZERO;
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    for (r, _) in replays {
        let mut child_sum = vec![Duration::ZERO; r.spans.len()];
        for s in &r.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.dur();
            }
        }
        for (i, s) in r.spans.iter().enumerate() {
            let own = s.dur().saturating_sub(child_sum[i]);
            if s.parent.is_none() {
                named += child_sum[i];
                calls.entry("(request self)").or_default().push((own, own));
            } else {
                calls.entry(s.name).or_default().push((s.dur(), own));
            }
        }
        for (k, v) in &r.counts {
            *counts.entry(k).or_default() += v;
        }
        if let Some(first) = r.drift.first() {
            println!(
                "WARNING {} mirror answers differ from Api::handle (first: {first}); the layer table may no longer describe the handler",
                r.drift.len()
            );
        }
    }
    let records = || {
        replays
            .iter()
            .flat_map(|(r, o)| r.records.iter().map(move |x| (x, *o)))
    };
    let handle_total: Duration = records()
        .filter_map(|(x, _)| x.handle)
        .map(|(_, d)| d)
        .sum();
    let coverage = named.as_secs_f64() / handle_total.as_secs_f64().max(1e-9);
    let share = |d: Duration| 100.0 * d.as_secs_f64() / handle_total.as_secs_f64().max(1e-9);

    println!();
    println!(
        "traced run: {} requests replayed in-process (set-up + measured + probe), Σ Api::handle {:.1} ms, coverage {:.1}% (named layers / Api::handle)",
        records().count(),
        ms(handle_total),
        100.0 * coverage
    );
    println!(
        "{:<28} {:>6} {:>9} {:>9} {:>10} {:>7}  moves",
        "layer", "calls", "p50 ms", "p90 ms", "self ms", "share"
    );
    let durs = |name: &str| -> Vec<Duration> {
        calls
            .get(name)
            .map(|c| c.iter().map(|x| x.0).collect())
            .unwrap_or_default()
    };
    for (name, moves) in LAYERS {
        let d = durs(name);
        let own: Duration = calls
            .get(name)
            .map(|c| c.iter().map(|x| x.1).sum())
            .unwrap_or_default();
        println!(
            "{:<28} {:>6} {:>9.4} {:>9.4} {:>10.2} {:>6.1}%  {moves}",
            name,
            d.len(),
            q_ms(&d, 0.5),
            q_ms(&d, 0.9),
            ms(own),
            share(own)
        );
    }

    // Whole-handler times per endpoint, and the loopback front end: the
    // service time (sent to answered) minus Api::handle on the same
    // request.
    println!();
    println!(
        "{:<12} {:>6} {:>16} {:>14} {:>16}",
        "endpoint", "calls", "api.handle p50", "loopback p50", "http.frontend p50"
    );
    let mut handle_by_kind: BTreeMap<Kind, Vec<Duration>> = BTreeMap::new();
    let mut frontend = Vec::new();
    // Loopback service times and front-end shares of measured requests.
    let mut measured_by_kind: BTreeMap<Kind, (Vec<Duration>, Vec<f64>)> = BTreeMap::new();
    for (rec, outcomes) in records() {
        let Some((_, h)) = rec.handle else { continue };
        handle_by_kind.entry(rec.kind).or_default().push(h);
        if let Phase::Measured(i) = rec.phase {
            let svc = outcomes[i].service();
            let diff = ms(svc) - ms(h);
            frontend.push(diff);
            let e = measured_by_kind.entry(rec.kind).or_default();
            e.0.push(svc);
            e.1.push(diff);
        }
    }
    for kind in Kind::ALL {
        let h = handle_by_kind.get(&kind).map(Vec::as_slice).unwrap_or(&[]);
        match measured_by_kind.get(&kind) {
            Some((svc, diff)) => println!(
                "{:<12} {:>6} {:>16.4} {:>14.4} {:>16.4}",
                kind.name(),
                h.len(),
                q_ms(h, 0.5),
                q_ms(svc, 0.5),
                quantile(diff, 0.5).unwrap_or(0.0)
            ),
            None => println!(
                "{:<12} {:>6} {:>16.4} {:>14} {:>16}",
                kind.name(),
                h.len(),
                q_ms(h, 0.5),
                "-",
                "-"
            ),
        }
    }
    let connects: Vec<Duration> = replays
        .iter()
        .flat_map(|(_, o)| o.iter().map(|x| x.connect))
        .collect();

    let count = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
    let mut m = vec![
        metric(
            "http.frontend_ms",
            "ms",
            quantile(&frontend, 0.5).unwrap_or(0.0),
        ),
        metric("http.connect_ms", "ms", q_ms(&connects, 0.99)),
        metric("gen.late_ms", "ms", ms(late_p99)),
        metric("gen.late_count", "count", late_count as f64),
    ];
    for kind in Kind::ALL {
        let h = handle_by_kind.get(&kind).map(Vec::as_slice).unwrap_or(&[]);
        m.push(metric(
            format!("api.handle_ms.{}", kind.name()),
            "ms",
            q_ms(h, 0.5),
        ));
    }
    for (name, _) in LAYERS {
        match name {
            "(request self)" => {}
            // The project span's own time: total minus the stage sum.
            "project" => {
                let own: Vec<Duration> = calls
                    .get(name)
                    .map(|c| c.iter().map(|x| x.1).collect())
                    .unwrap_or_default();
                m.push(metric(
                    "project.invariant_snapshot_ms",
                    "ms",
                    q_ms(&own, 0.5),
                ));
            }
            _ => m.push(metric(format!("{name}_ms"), "ms", q_ms(&durs(name), 0.5))),
        }
    }
    m.extend([
        metric("api.response_bytes", "bytes", count("api.response_bytes")),
        metric(
            "project.dispatch_tuples_checked",
            "count",
            count("project.dispatch_tuples_checked"),
        ),
        metric("project.surrogates", "count", count("project.surrogates")),
        metric(
            "registry.carried_entries",
            "count",
            count("registry.carried_entries"),
        ),
        metric(
            "registry.snapshot_bytes",
            "bytes",
            count("registry.snapshot_bytes"),
        ),
        metric(
            "cache.cpl_hit_ratio",
            "ratio",
            ratio(count("cache.cpl_hits"), count("cache.cpl_misses")),
        ),
        metric(
            "cache.dispatch_hit_ratio",
            "ratio",
            ratio(count("cache.dispatch_hits"), count("cache.dispatch_misses")),
        ),
        metric(
            "cache.index_hit_ratio",
            "ratio",
            ratio(count("cache.index_hits"), count("cache.index_misses")),
        ),
        metric(
            "cache.delta_survival_ratio",
            "ratio",
            ratio(
                count("cache.delta_survivals"),
                count("cache.delta_evictions"),
            ),
        ),
        metric("trace.coverage", "ratio", coverage),
    ]);
    println!();
    println!("counts (repeat exactly for a seed):");
    for (k, v) in &counts {
        println!("  {k:<36} {v}");
    }
    Traced {
        metrics: m,
        invariant_failures: counts
            .get("project.invariant_failures")
            .copied()
            .unwrap_or(0),
    }
}
