//! `perfbench`: the therm3d benchmark.
//!
//! ```text
//! perfbench --workload <paper-cells|served-campaign> --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it runs the workload through the entry points users
//! call (`run_with_telemetry` for a sweep, `Server::bind`/`Server::run`
//! and `work` for a served campaign) for `S` seconds, checks every
//! output and prints the end-to-end metrics. With `--trace 1` it runs
//! the same cells again through instruments placed around each layer's
//! public functions and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod calib;
mod legs;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use therm3d_sweep::{expand, model_fingerprint, run_with_telemetry, SweepReport};
use therm3d_telemetry::CountingAllocator;

use crate::legs::{campaign, local_batch, served_setups, Reference, Scratch};
use crate::stats::{fnv64, mean, median, quantile, ratio, MIB};
use crate::workload::{temp_err_c, Kind, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload '{value}' (expected one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                };
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Metrics in output order: name → (value, unit).
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

struct Outcome {
    attempted: usize,
    failed: usize,
    /// A whole-run check failed (beyond per-cell accounting).
    broken: bool,
    metrics: Metrics,
    meta: Vec<(&'static str, String)>,
}

fn print_result(attempted: usize, failed: usize, correct: bool, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { format!("{value}") } else { "null".to_owned() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Ends a run that cannot finish (a served campaign whose only worker
/// failed): every cell counts as failed.
pub fn abort_run(cells: usize) -> ! {
    print_result(cells, cells, false, &Metrics::new());
    std::process::exit(1);
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn join(values: &[f64]) -> String {
    values.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(" ")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Set-up times taken per served campaign (one of them the campaign's own).
const SERVED_SETUPS: usize = 5;

/// The untraced run: end-to-end metrics.
fn measure(w: &Workload, seconds: f64, scratch: &Scratch) -> Result<Outcome, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut broken = false;
    // Per-repeat figures; the run reports their medians, which resist
    // the host's fast and slow phases better than the run's mean.
    let (mut rates, mut setups, mut heaps) = (vec![], vec![], vec![]);
    // The timed legs' unscaled rates, and the batches' and campaigns'
    // host-speed scales.
    let (mut raw_rates, mut speed, mut campaign_speed) = (vec![], vec![], vec![]);
    // Host time per cell: each cell's samples over the repeats.
    let mut per_cell: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut first_csv: Option<String> = None;
    let mut reference: Option<Reference> = None;
    let started = Instant::now();
    while rates.is_empty() || started.elapsed().as_secs_f64() < seconds {
        // Both workloads run their cells in process through the sweep
        // runner: timed on paper-cells; untimed on served-campaign,
        // where it gives the per-cell host times (the worker runs cells
        // inside `work`, which exposes none) and the single-process CSV
        // the campaign must reproduce.
        let batch = local_batch(w);
        attempted += batch.cells;
        failed += batch.failed;
        speed.push(batch.speed_scale);
        for (cell, ms) in batch.cell_ms {
            per_cell.entry(cell).or_default().push(ms);
        }
        // Every batch repeats the same cells: the CSV must too.
        let report = batch.report;
        match (&first_csv, report.as_ref().map(SweepReport::csv)) {
            (None, Some(csv)) => first_csv = Some(csv),
            (Some(first), Some(csv)) if *first != csv => {
                eprintln!("perfbench: a repeated batch produced a different CSV");
                broken = true;
            }
            _ => {}
        }
        match w.kind {
            Kind::PaperCells => {
                raw_rates.push(batch.cells as f64 / batch.raw_wall_s);
                rates.push(batch.cells as f64 / batch.wall_s);
                setups.push(batch.setup_s);
                heaps.push(batch.heap_peak_bytes as f64 / MIB);
            }
            Kind::ServedCampaign => {
                if reference.is_none() {
                    let report = report.ok_or("the single-process reference run failed")?;
                    reference = Some(Reference::new(w, report, scratch)?);
                }
                let reference = reference.as_ref().expect("built above");
                let c = campaign(w, reference, scratch, false)?;
                attempted += c.cells;
                failed += c.failed;
                // The campaign's time, and the set-ups' next to it, are
                // scaled by the kernel's speed sampled while it ran, and
                // only in part: they follow the kernel's with an
                // elasticity of SERVED_ELASTICITY.
                campaign_speed.push(c.speed_scale);
                let scale = c.speed_scale.powf(calib::SERVED_ELASTICITY);
                raw_rates.push(c.cells as f64 / c.wall_s);
                rates.push(c.cells as f64 / (c.wall_s * scale));
                // A set-up takes a few ms: time more of them than one
                // per campaign.
                let more = served_setups(w, scratch, SERVED_SETUPS - 1)?;
                setups.extend([c.setup_s].iter().chain(&more).map(|s| s * scale));
                heaps.push(c.heap_peak_bytes as f64 / MIB);
            }
        }
    }
    let timed_s = started.elapsed().as_secs_f64();
    let err = temp_err_c(w);
    // A cell's typical cost is its median over the repeats (the host
    // drifts between fast and slow phases lasting seconds); a stack's
    // is the median over its cells, and the workload's the median over
    // its stacks. The 8-core and 16-core stacks are cost classes of
    // equal size on served-campaign: a median over all cells would sit
    // in the gap between them and move with the few cells bordering
    // it. The tail is taken over every sample, which gives it enough
    // of them (32 paper cells per repeat).
    let stacks: Vec<_> = expand(&w.spec).iter().map(|cell| cell.experiment).collect();
    let mut by_stack: BTreeMap<_, Vec<f64>> = BTreeMap::new();
    for (cell, samples) in &per_cell {
        by_stack.entry(stacks[*cell]).or_default().push(median(samples));
    }
    let stack_ms: Vec<f64> = by_stack.values().map(|cells| median(cells)).collect();
    let pooled: Vec<f64> = per_cell.values().flatten().copied().collect();
    let mut metrics = Metrics::new();
    metrics.insert("cells_per_s", (median(&rates), "cells/s"));
    metrics.insert("cell_ms_p50", (median(&stack_ms), "ms"));
    metrics.insert("cell_ms_p90", (quantile(&pooled, 0.9), "ms"));
    metrics.insert("setup_s", (median(&setups), "s"));
    metrics.insert("heap_peak_mb", (median(&heaps), "MiB"));
    metrics.insert("temp_err_c", (err, "degC"));
    let digest = first_csv
        .map_or_else(|| "none".to_owned(), |csv| format!("{:016x}", fnv64(csv.as_bytes())));
    let meta = vec![
        ("repeats", rates.len().to_string()),
        ("repeat_cells_per_s", join(&rates)),
        ("repeat_cells_per_s_raw", join(&raw_rates)),
        ("batch_speed_scale", join(&speed)),
        ("campaign_speed_scale", join(&campaign_speed)),
        ("cell_samples", pooled.len().to_string()),
        ("timed_s", format!("{timed_s:.3}")),
        ("results_digest_fnv64", digest),
    ];
    Ok(Outcome { attempted, failed, broken, metrics, meta })
}

/// Per-round per-layer values; the run reports each key's median.
type Round = BTreeMap<&'static str, f64>;

/// The traced run: per-layer metrics.
fn traced(w: &Workload, seconds: f64, scratch: &Scratch) -> Result<Outcome, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut broken = false;
    let mut rounds: Vec<Round> = Vec::new();
    let mut reference: Option<Reference> = None;
    if w.kind == Kind::ServedCampaign {
        let report = run_with_telemetry(&w.spec, None, None)
            .map_err(|e| format!("single-process reference run failed: {e}"))?;
        reference = Some(Reference::new(w, report, scratch)?);
    }
    let mut last: Option<(trace::LocalTrace, Vec<trace::SpanRec>)> = None;
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut round = Round::new();
        // 1. The untraced leg, as the end-to-end run measures it.
        let untraced_rate = match w.kind {
            Kind::PaperCells => {
                let batch = local_batch(w);
                attempted += batch.cells;
                failed += batch.failed;
                let report = batch.report.ok_or("the untraced batch failed")?;
                match &reference {
                    None => reference = Some(Reference::new(w, report, scratch)?),
                    Some(first) if report.csv() != first.csv => {
                        eprintln!("perfbench: a repeated batch produced a different CSV");
                        broken = true;
                    }
                    Some(_) => {}
                }
                batch.cells as f64 / batch.raw_wall_s
            }
            Kind::ServedCampaign => {
                let reference = reference.as_ref().expect("built above");
                let c = campaign(w, reference, scratch, false)?;
                attempted += c.cells;
                failed += c.failed;
                c.cells as f64 / c.wall_s
            }
        };
        let reference = reference.as_ref().expect("set by the untraced leg");

        // 2. The same cells in process, with decorated policy and job
        //    source and the observer clock.
        let local = trace::local_leg(w);
        attempted += local.cells;
        failed += local.failed;
        if local.report.csv() != reference.csv {
            eprintln!("perfbench: the traced run's CSV differs from the untraced run's");
            broken = true;
        }
        let s = trace::span_stats(&local.spans);
        round.insert("core.ticks", s.ticks as f64);
        round.insert("core.tick_us", s.tick_us);
        round.insert(
            "core.setup_ms_per_cell",
            s.mean_us.get("core.setup").copied().unwrap_or(0.0) / 1e3,
        );
        round.insert(
            "core.allocs_per_tick",
            ratio(local.steady_allocs as f64, local.steady_ticks as f64),
        );
        round.insert("thermal.symbolic_analyses", local.symbolic_analyses as f64);
        round.insert("thermal.factorizations", local.factorizations as f64);
        round.insert(
            "thermal.factor_share_hit_ratio",
            ratio(local.share_hits as f64, (local.share_hits + local.factorizations) as f64),
        );
        let count = |name: &str| s.count.get(name).copied().unwrap_or(0) as f64;
        let mean_us = |name: &str| s.mean_us.get(name).copied().unwrap_or(0.0);
        round.insert("policies.control_calls", count("policies.control"));
        round.insert("policies.control_us", mean_us("policies.control"));
        round.insert("policies.place_job_calls", count("policies.place_job"));
        round.insert("policies.place_job_us", mean_us("policies.place_job"));
        round.insert("policies.migrations", local.migrations as f64);
        round.insert("workload.jobs", local.jobs as f64);
        round.insert("workload.next_job_us", mean_us("workload.next_job"));
        round.insert("workload.trace_gen_ms", mean_us("workload.trace_gen") / 1e3);
        let local_rate = local.cells as f64 / local.wall_s;

        // 3. Standalone thermal and power probes on every distinct model
        //    config of the workload, weighted by the ticks each model ran.
        let mut models: BTreeMap<String, (trace::ModelProbe, f64)> = BTreeMap::new();
        for cell in expand(&w.spec) {
            let fp = model_fingerprint(&w.spec, &cell);
            let ticks = local.ticks_by_model.get(&fp).copied().unwrap_or(0) as f64;
            models.entry(fp).or_insert_with(|| (trace::probe_model(w, &cell), ticks));
        }
        let total_ticks: f64 = models.values().map(|(_, t)| t).sum();
        let weighted = |f: &dyn Fn(&trace::ModelProbe) -> f64| {
            ratio(models.values().map(|(p, t)| f(p) * t).sum::<f64>(), total_ticks)
        };
        let per_model = |f: &dyn Fn(&trace::ModelProbe) -> f64| {
            models.values().map(|(p, _)| f(p)).sum::<f64>() / models.len() as f64
        };
        let step_us = weighted(&|p| p.step_us);
        let block_powers_us = weighted(&|p| p.block_powers_us);
        round.insert("core.self_us_per_tick", s.tick_self_us - step_us - block_powers_us);
        round.insert("thermal.nodes", per_model(&|p| p.nodes as f64));
        round.insert("thermal.step_us", step_us);
        round.insert("thermal.step_share", ratio(step_us, s.tick_us));
        round.insert("thermal.build_ms", per_model(&|p| p.build_ms));
        round.insert("thermal.steady_init_ms", per_model(&|p| p.steady_init_ms));
        round.insert("thermal.first_step_ms", per_model(&|p| p.first_step_ms));
        round.insert("thermal.model_heap_mb", per_model(&|p| p.model_heap_bytes as f64) / MIB);
        round.insert("power.block_powers_us", block_powers_us);

        // 4. The same cells served through the tracing proxy.
        let c = campaign(w, reference, scratch, true)?;
        attempted += c.cells;
        failed += c.failed;
        let served_rate = c.cells as f64 / c.wall_s;
        let log = c.proxy.ok_or("the proxied campaign produced no log")?;
        round.insert("coord.leases", log.leases as f64);
        round.insert("coord.frames", log.frames as f64);
        round.insert("coord.bytes", log.bytes as f64);
        round.insert("coord.grant_wait_ms", mean(&log.grant_wait_ms));
        round.insert("coord.ack_wait_ms", mean(&log.ack_wait_ms));
        round.insert("coord.lease_ms_p50", quantile(&log.lease_ms, 0.5));
        round.insert("coord.lease_ms_p90", quantile(&log.lease_ms, 0.9));
        round.insert("coord.worker_busy_share", log.lease_ms.iter().sum::<f64>() / 1e3 / c.wall_s);
        round.insert("coord.drain_ms", log.drain_ms);
        round.insert("coord.reissues", log.reissues as f64);
        round.insert(
            "sweep.cache_hit_ratio",
            ratio((c.cells - c.worker_misses.min(c.cells)) as f64, c.cells as f64),
        );
        // Tracing overhead: the traced leg against the untraced one on
        // the workload's own path (in process, or served).
        let traced_rate = if w.kind == Kind::ServedCampaign { served_rate } else { local_rate };
        round.insert("trace.overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0);
        rounds.push(round);
        last = Some((local, log.spans));
    }
    let (local, proxy_spans) = last.expect("at least one round");
    let report = &local.report;

    // The sweep layer's own operations, timed once on the traced rows.
    let (insert_us, lookup_us) = trace::probe_cache(w, report, scratch)?;
    let expand_ms = trace::time_ms(5, || {
        std::hint::black_box(expand(&w.spec));
    });
    let render_ms = trace::time_ms(3, || {
        std::hint::black_box(report.render());
    });

    let mut metrics = Metrics::new();
    for key in rounds[0].keys() {
        let values: Vec<f64> = rounds.iter().map(|r| r[key]).collect();
        metrics.insert(key, (median(&values), unit_of(key)));
    }
    for (key, value) in [
        ("sweep.expand_ms", expand_ms),
        ("sweep.cache_insert_us", insert_us),
        ("sweep.cache_lookup_us", lookup_us),
        ("sweep.render_ms", render_ms),
    ] {
        metrics.insert(key, (value, unit_of(key)));
    }
    assert!(
        metrics.len() == PER_LAYER.len() && PER_LAYER.iter().all(|(k, _)| metrics.contains_key(k)),
        "the traced run reports exactly the per-layer metric set"
    );

    let spans_path =
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.jsonl", w.kind.name(), w.seed));
    trace::write_spans(&spans_path, &local.spans, &proxy_spans)?;
    let meta = vec![
        ("rounds", rounds.len().to_string()),
        ("spans_out", spans_path.display().to_string()),
        ("span_count", (local.spans.len() + proxy_spans.len()).to_string()),
        ("trace_overhead_pct", format!("{:.2}", metrics["trace.overhead_pct"].0)),
    ];
    Ok(Outcome { attempted, failed, broken, metrics, meta })
}

/// The per-layer metrics a traced run reports, with their units.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.ticks", "count"),
    ("core.tick_us", "us"),
    ("core.self_us_per_tick", "us"),
    ("core.setup_ms_per_cell", "ms"),
    ("core.allocs_per_tick", "1/tick"),
    ("thermal.nodes", "count"),
    ("thermal.step_us", "us"),
    ("thermal.step_share", "ratio"),
    ("thermal.build_ms", "ms"),
    ("thermal.steady_init_ms", "ms"),
    ("thermal.first_step_ms", "ms"),
    ("thermal.symbolic_analyses", "count"),
    ("thermal.factorizations", "count"),
    ("thermal.factor_share_hit_ratio", "ratio"),
    ("thermal.model_heap_mb", "MiB"),
    ("power.block_powers_us", "us"),
    ("policies.control_us", "us"),
    ("policies.control_calls", "count"),
    ("policies.place_job_us", "us"),
    ("policies.place_job_calls", "count"),
    ("policies.migrations", "count"),
    ("workload.jobs", "count"),
    ("workload.next_job_us", "us"),
    ("workload.trace_gen_ms", "ms"),
    ("sweep.expand_ms", "ms"),
    ("sweep.cache_lookup_us", "us"),
    ("sweep.cache_insert_us", "us"),
    ("sweep.cache_hit_ratio", "ratio"),
    ("sweep.render_ms", "ms"),
    ("coord.leases", "count"),
    ("coord.frames", "count"),
    ("coord.bytes", "bytes"),
    ("coord.grant_wait_ms", "ms"),
    ("coord.ack_wait_ms", "ms"),
    ("coord.lease_ms_p50", "ms"),
    ("coord.lease_ms_p90", "ms"),
    ("coord.worker_busy_share", "ratio"),
    ("coord.drain_ms", "ms"),
    ("coord.reissues", "count"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(key: &str) -> &'static str {
    PER_LAYER.iter().find(|(name, _)| *name == key).map_or("count", |(_, unit)| unit)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = Workload::new(args.workload, args.seed);
    let scratch = match Scratch::new(&w) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let outcome = if args.trace {
        traced(&w, args.seconds, &scratch)
    } else {
        measure(&w, args.seconds, &scratch)
    };
    drop(scratch);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut meta = vec![
        ("workload", w.kind.name().to_owned()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("cells_per_repeat", w.cells().to_string()),
        ("cpu", cpu_model()),
        (
            "nproc",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).to_string(),
        ),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_owned()),
        (
            "temp_err_c_reference",
            "explicit-rk4 integration of the same RC model; no hardware reference".to_owned(),
        ),
    ];
    meta.extend(outcome.meta);
    let fields: Vec<String> =
        meta.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    println!("{{\"meta\": {{{}}}}}", fields.join(", "));
    let correct = outcome.failed == 0 && !outcome.broken;
    print_result(outcome.attempted, outcome.failed, correct, &outcome.metrics);
}
