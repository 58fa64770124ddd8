//! The traced run's instruments, all outside the program: a `Policy`
//! decorator, a `JobSource` decorator, an observer clock, standalone
//! thermal/power/sweep probes and a loopback proxy that forwards
//! coordinator frames with the public `wire::read_msg`/`write_msg`.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out as JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use therm3d::Simulator;
use therm3d_coord::wire::{read_msg, write_msg, Msg, WireError};
use therm3d_floorplan::CoreId;
use therm3d_policies::{ControlDecision, Observation, Policy, QueueHint};
use therm3d_power::{CorePowerInput, PowerModel};
use therm3d_sweep::shard::ShardSpec;
use therm3d_sweep::{
    cell_key, expand, model_fingerprint, sim_config, CacheStore, SweepCell, SweepReport, SweepRow,
};
use therm3d_telemetry::alloc;
use therm3d_thermal::{FactorShare, ThermalConfig, ThermalModel};
use therm3d_workload::{generate_mix, stream_mix, Job, JobSource, JobTrace};

use crate::legs::Scratch;
use crate::stats::median;
use crate::workload::{check_result, Workload};

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's trace epoch (shared by all threads).
pub fn now_ns() -> u64 {
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Cell,
    TraceGen,
    Setup,
    Tick,
    Control,
    PlaceJob,
    NextJob,
    Campaign,
    GrantWait,
    Lease,
    AckWait,
    Drain,
}

impl Name {
    fn as_str(self) -> &'static str {
        match self {
            Name::Cell => "cell",
            Name::TraceGen => "workload.trace_gen",
            Name::Setup => "core.setup",
            Name::Tick => "core.tick",
            Name::Control => "policies.control",
            Name::PlaceJob => "policies.place_job",
            Name::NextJob => "workload.next_job",
            Name::Campaign => "coord.campaign",
            Name::GrantWait => "coord.grant_wait",
            Name::Lease => "coord.lease",
            Name::AckWait => "coord.ack_wait",
            Name::Drain => "coord.drain",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One span: `req` is the cell index (local spans) or the lease id
/// (coordinator spans).
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

impl SpanRec {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span store and tick bookkeeping for the local leg.
#[derive(Default)]
struct Tracer {
    spans: Vec<SpanRec>,
    req: u64,
    /// First span not yet attached to a closed tick.
    tick_children_from: usize,
    last_obs_ns: u64,
    ticks_in_cell: u64,
    last_allocs: usize,
    last_self_allocs: usize,
    /// Allocations made by the span store itself (its own growth), so
    /// they are not charged to the simulator.
    self_allocs: usize,
    steady_allocs: u64,
    steady_ticks: u64,
    migrations: u64,
    jobs: u64,
}

impl Tracer {
    fn push(&mut self, name: Name, start_ns: u64, end_ns: u64) -> usize {
        if self.spans.len() == self.spans.capacity() {
            self.self_allocs += 1;
        }
        self.spans.push(SpanRec { name, start_ns, end_ns, parent: NO_PARENT, req: self.req });
        self.spans.len() - 1
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

fn record(name: Name, start_ns: u64) {
    let end = now_ns();
    TRACER.with_borrow_mut(|t| {
        t.push(name, start_ns, end);
    });
}

/// The observer clock: closes the current tick span and charges the
/// allocations since the previous tick to it.
fn observe_tick() {
    let now = now_ns();
    let allocs = alloc::allocation_count();
    TRACER.with_borrow_mut(|t| {
        let self_allocs = t.self_allocs;
        if t.ticks_in_cell > 0 {
            let delta = allocs.saturating_sub(t.last_allocs);
            let own = self_allocs.saturating_sub(t.last_self_allocs);
            t.steady_allocs += delta.saturating_sub(own) as u64;
            t.steady_ticks += 1;
        }
        t.last_allocs = allocs;
        t.last_self_allocs = self_allocs;
        let tick = u32::try_from(t.spans.len()).unwrap_or(NO_PARENT);
        let from = t.tick_children_from;
        for child in &mut t.spans[from..] {
            child.parent = tick;
        }
        let start = t.last_obs_ns;
        t.push(Name::Tick, start, now);
        t.tick_children_from = t.spans.len();
        t.last_obs_ns = now;
        t.ticks_in_cell += 1;
    });
}

/// Times `control` and `place_job` of the real policy it wraps.
struct TracedPolicy(Box<dyn Policy>);

impl Policy for TracedPolicy {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn place_job(&mut self, job: &Job, obs: &Observation<'_>, hint: &QueueHint<'_>) -> CoreId {
        let start = now_ns();
        let core = self.0.place_job(job, obs, hint);
        record(Name::PlaceJob, start);
        core
    }

    fn control(&mut self, obs: &Observation<'_>) -> ControlDecision {
        let start = now_ns();
        let decision = self.0.control(obs);
        record(Name::Control, start);
        let migrations = decision.migrations.len() as u64;
        TRACER.with_borrow_mut(|t| t.migrations += migrations);
        decision
    }
}

/// Times `next_job` of the real job source it wraps.
struct TracedSource<S>(S);

impl<S: JobSource> JobSource for TracedSource<S> {
    fn next_job(&mut self) -> Option<Job> {
        let start = now_ns();
        let job = self.0.next_job();
        record(Name::NextJob, start);
        if job.is_some() {
            TRACER.with_borrow_mut(|t| t.jobs += 1);
        }
        job
    }

    fn size_hint(&self) -> Option<usize> {
        self.0.size_hint()
    }
}

/// What the traced in-process leg saw.
pub struct LocalTrace {
    pub cells: usize,
    pub failed: usize,
    pub wall_s: f64,
    pub report: SweepReport,
    pub spans: Vec<SpanRec>,
    pub steady_allocs: u64,
    pub steady_ticks: u64,
    pub migrations: u64,
    pub jobs: u64,
    pub symbolic_analyses: usize,
    pub factorizations: usize,
    pub share_hits: usize,
    /// Ticks simulated per thermal-model fingerprint (probe weights).
    pub ticks_by_model: BTreeMap<String, u64>,
}

/// Runs every cell of the workload in process, the way the sweep runner
/// does, with the policy and job source decorated and the observer
/// clock attached.
pub fn local_leg(w: &Workload) -> LocalTrace {
    let spec = &w.spec;
    TRACER.with_borrow_mut(|t| *t = Tracer::default());
    let mut traces: BTreeMap<(usize, u64), JobTrace> = BTreeMap::new();
    let mut shares: BTreeMap<String, FactorShare> = BTreeMap::new();
    let mut ticks_by_model: BTreeMap<String, u64> = BTreeMap::new();
    let mut rows = Vec::new();
    let mut failed = 0;
    let started = Instant::now();
    for cell in expand(spec) {
        let cell_start = now_ns();
        let first_span = TRACER.with_borrow_mut(|t| {
            t.req = cell.index as u64;
            t.spans.len()
        });
        let trace_key = (cell.experiment.num_cores(), cell.trace_seed);
        // Materialized once per trace key, or (streaming) a fresh
        // stream per cell, as the runner does.
        let trace = (!spec.streaming).then(|| {
            &*traces.entry(trace_key).or_insert_with(|| {
                let start = now_ns();
                let trace =
                    generate_mix(&spec.benchmarks, trace_key.0, spec.sim_seconds, trace_key.1);
                record(Name::TraceGen, start);
                trace
            })
        });
        let jobs = trace.map_or_else(
            || 2 * spec.estimated_trace_jobs(trace_key.0).ceil() as usize,
            JobTrace::len,
        );
        let fingerprint = model_fingerprint(spec, &cell);
        let share = shares.entry(fingerprint.clone()).or_default().clone();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let stack = cell.experiment.stack_with_order(cell.stack_order);
            let policy = cell.policy.build_with_dpm(&stack, cell.policy_seed, cell.dpm);
            let cfg = sim_config(spec, &cell);
            // Room for every span of the cell, so the store does not grow
            // inside the measured ticks.
            let max_ticks = ((spec.sim_seconds + cfg.drain_max_s) / cfg.tick_s).ceil() as usize + 2;
            let start = now_ns();
            let mut sim =
                Simulator::with_factor_share(cfg, Box::new(TracedPolicy(policy)), Some(share));
            record(Name::Setup, start);
            TRACER.with_borrow_mut(|t| {
                t.spans.reserve(2 * max_ticks + 3 * jobs + 16);
                t.tick_children_from = t.spans.len();
                t.last_obs_ns = now_ns();
                t.ticks_in_cell = 0;
            });
            match trace {
                Some(trace) => sim.run_source_with_observer(
                    TracedSource(trace.cursor()),
                    spec.sim_seconds,
                    |_| observe_tick(),
                ),
                None => {
                    let start = now_ns();
                    let source =
                        stream_mix(&spec.benchmarks, trace_key.0, spec.sim_seconds, trace_key.1);
                    record(Name::TraceGen, start);
                    sim.run_source_with_observer(TracedSource(source), spec.sim_seconds, |_| {
                        observe_tick();
                    })
                }
            }
        }));
        let ticks = TRACER.with_borrow_mut(|t| {
            let cell_span = u32::try_from(t.spans.len()).unwrap_or(NO_PARENT);
            t.push(Name::Cell, cell_start, now_ns());
            for span in &mut t.spans[first_span..] {
                if span.parent == NO_PARENT && span.name != Name::Cell {
                    span.parent = cell_span;
                }
            }
            t.ticks_in_cell
        });
        *ticks_by_model.entry(fingerprint).or_default() += ticks;
        match outcome {
            Ok(result) => {
                if let Err(why) = check_result(&result) {
                    eprintln!("perfbench: cell {} fails its invariants: {why}", cell.index);
                    failed += 1;
                }
                rows.push(SweepRow {
                    key: cell_key(spec, &cell).hex(),
                    cell,
                    result,
                    timing: None,
                });
            }
            Err(_) => {
                eprintln!("perfbench: traced cell {} panicked", cell.index);
                failed += 1;
            }
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let tracer = TRACER.with_borrow_mut(std::mem::take);
    LocalTrace {
        cells: spec.cell_count(),
        failed,
        wall_s,
        report: SweepReport { name: spec.name.clone(), shard: ShardSpec::FULL, rows },
        spans: tracer.spans,
        steady_allocs: tracer.steady_allocs,
        steady_ticks: tracer.steady_ticks,
        migrations: tracer.migrations,
        jobs: tracer.jobs,
        symbolic_analyses: shares.values().map(FactorShare::symbolic_analyses).sum(),
        factorizations: shares.values().map(FactorShare::factorizations).sum(),
        share_hits: shares.values().map(FactorShare::hits).sum(),
        ticks_by_model,
    }
}

/// Per-span self time: duration minus the time its children cover.
pub fn self_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(slot) = child_ns.get_mut(span.parent as usize) {
            *slot += span.ns();
        }
    }
    spans.iter().zip(child_ns).map(|(s, c)| s.ns().saturating_sub(c)).collect()
}

/// Span aggregates of the local leg.
pub struct SpanStats {
    pub ticks: u64,
    /// Mean interval between consecutive observer calls, µs.
    pub tick_us: f64,
    /// Mean self time of those ticks (minus policy and workload), µs.
    pub tick_self_us: f64,
    pub count: BTreeMap<&'static str, u64>,
    pub mean_us: BTreeMap<&'static str, f64>,
}

pub fn span_stats(spans: &[SpanRec]) -> SpanStats {
    let selfs = self_ns(spans);
    let mut count: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let (mut ticks, mut steady, mut steady_ns, mut steady_self_ns) = (0u64, 0u64, 0u64, 0u64);
    let mut first_tick_of_cell = true;
    for (span, self_time) in spans.iter().zip(&selfs) {
        match span.name {
            Name::Cell => first_tick_of_cell = true,
            Name::Tick => {
                ticks += 1;
                if !first_tick_of_cell {
                    steady += 1;
                    steady_ns += span.ns();
                    steady_self_ns += self_time;
                }
                first_tick_of_cell = false;
            }
            _ => {}
        }
        *count.entry(span.name.as_str()).or_default() += 1;
        *total_ns.entry(span.name.as_str()).or_default() += span.ns();
    }
    let mean_us =
        total_ns.iter().map(|(&name, &ns)| (name, ns as f64 / 1e3 / count[name] as f64)).collect();
    let per = |ns: u64| if steady == 0 { 0.0 } else { ns as f64 / 1e3 / steady as f64 };
    SpanStats { ticks, tick_us: per(steady_ns), tick_self_us: per(steady_self_ns), count, mean_us }
}

/// Standalone cost of one thermal model config and its power model.
pub struct ModelProbe {
    pub nodes: usize,
    pub build_ms: f64,
    pub steady_init_ms: f64,
    pub first_step_ms: f64,
    pub step_us: f64,
    pub model_heap_bytes: usize,
    pub block_powers_us: f64,
}

/// Median per-call time (µs) of `f`, called until `budget_s` elapses
/// (at least `min_calls`, at most `max_calls` times).
fn time_calls(min_calls: usize, max_calls: usize, budget_s: f64, mut f: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max_calls
        && (samples.len() < min_calls || started.elapsed().as_secs_f64() < budget_s)
    {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// Times `ThermalModel::new`, the first steady-state solve, the first
/// step and then steady stepping on the exact model config of `cell`
/// (the step costs the same whatever the power values), plus
/// `PowerModel::block_powers` on the same stack.
pub fn probe_model(w: &Workload, cell: &SweepCell) -> ModelProbe {
    let cfg = sim_config(&w.spec, cell);
    // The simulator resolves the TSV variant into the interlayer the
    // same way unless the config overrides the interlayer.
    let thermal_cfg = if cfg.thermal.interlayer == ThermalConfig::paper_default().interlayer {
        cfg.thermal.clone().with_tsv(cell.tsv)
    } else {
        cfg.thermal.clone()
    };
    let stack = cell.experiment.stack_with_order(cell.stack_order);
    let power = PowerModel::new(&stack, cfg.power.clone(), cfg.vf.clone());
    let idle = vec![CorePowerInput::idle(); stack.num_cores()];
    let busy = vec![CorePowerInput::busy(); stack.num_cores()];
    let ambient = vec![cfg.thermal.ambient_c; stack.num_blocks()];
    let idle_powers = power.block_powers(&idle, &ambient);

    let live_before = alloc::live_bytes();
    let t = Instant::now();
    let mut model = ThermalModel::new(&stack, thermal_cfg);
    let build_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let temps = model.initialize_steady_state(&idle_powers);
    let steady_init_ms = t.elapsed().as_secs_f64() * 1e3;
    let busy_powers = power.block_powers(&busy, &temps);
    model.set_block_powers(&busy_powers);
    let t = Instant::now();
    model.step(cfg.tick_s);
    let first_step_ms = t.elapsed().as_secs_f64() * 1e3;
    let model_heap_bytes = alloc::live_bytes().saturating_sub(live_before);
    let step_us = time_calls(10, 2000, 0.1, || model.step(cfg.tick_s));
    let temps = model.block_temperatures_c();
    let block_powers_us = time_calls(100, 20_000, 0.02, || {
        std::hint::black_box(power.block_powers(std::hint::black_box(&busy), &temps));
    });
    ModelProbe {
        nodes: model.network().node_count(),
        build_ms,
        steady_init_ms,
        first_step_ms,
        step_us,
        model_heap_bytes,
        block_powers_us,
    }
}

/// Mean per-operation cost (µs) of `CacheStore::insert` on a fresh
/// store and `CacheStore::lookup` after reopening it, over the rows of
/// `report`; fails when a lookup does not return the inserted row.
pub fn probe_cache(
    w: &Workload,
    report: &SweepReport,
    scratch: &Scratch,
) -> Result<(f64, f64), String> {
    let dir = scratch.fresh_dir("probe")?;
    let keys: Vec<_> = report.rows.iter().map(|row| cell_key(&w.spec, &row.cell)).collect();
    let mut store = CacheStore::open(&dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    for (key, row) in keys.iter().zip(&report.rows) {
        store.insert(key, &row.result).map_err(|e| e.to_string())?;
    }
    let insert_us = t.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
    drop(store);
    let mut store = CacheStore::open(&dir).map_err(|e| e.to_string())?;
    let mut found = Vec::with_capacity(keys.len());
    let t = Instant::now();
    for key in &keys {
        found.push(store.lookup(key));
    }
    let lookup_us = t.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
    for (got, row) in found.iter().zip(&report.rows) {
        if got.as_ref() != Some(&row.result) {
            return Err(format!(
                "cache lookup of cell {} returned a different row",
                row.cell.index
            ));
        }
    }
    Ok((insert_us, lookup_us))
}

/// Median wall time (ms) of `f` over `reps` calls.
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Frames, bytes, waits and lease spans the proxy observed.
#[derive(Default)]
pub struct ProxyLog {
    pub frames: u64,
    pub bytes: u64,
    pub leases: u64,
    pub reissues: u64,
    pub grant_wait_ms: Vec<f64>,
    pub ack_wait_ms: Vec<f64>,
    pub lease_ms: Vec<f64>,
    pub drain_ms: f64,
    last_ack_ns: u64,
    first_ns: u64,
    pub spans: Vec<SpanRec>,
}

impl ProxyLog {
    fn span(&mut self, name: Name, start_ns: u64, end_ns: u64, req: u64) {
        self.spans.push(SpanRec { name, start_ns, end_ns, parent: NO_PARENT, req });
    }

    /// Closes the log when `Server::run` has returned at `run_end_ns`:
    /// the drain span and the campaign span that parents every other.
    pub fn finish(&mut self, run_end_ns: u64) {
        self.drain_ms = run_end_ns.saturating_sub(self.last_ack_ns) as f64 / 1e6;
        self.span(Name::Drain, self.last_ack_ns, run_end_ns, 0);
        let root = u32::try_from(self.spans.len()).unwrap_or(NO_PARENT);
        for span in &mut self.spans {
            span.parent = root;
        }
        self.span(Name::Campaign, self.first_ns, run_end_ns, 0);
    }
}

/// Counts the bytes of every frame read through it.
struct Counted<'a> {
    stream: &'a mut TcpStream,
    bytes: &'a mut u64,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        *self.bytes += n as u64;
        Ok(n)
    }
}

fn read_frame(stream: &mut TcpStream, log: &mut ProxyLog) -> Result<Msg, WireError> {
    let msg = read_msg(&mut Counted { stream, bytes: &mut log.bytes })?;
    log.frames += 1;
    Ok(msg)
}

fn send(stream: &mut TcpStream, msg: &Msg) -> Result<(), String> {
    write_msg(stream, msg).map_err(|e| format!("proxy write: {e}"))
}

/// Accepts one worker on `listener`, connects it to the coordinator at
/// `server`, and forwards frames both ways until the worker hangs up,
/// timing each request/response pair.
pub fn proxy(listener: &TcpListener, server: SocketAddr) -> Result<ProxyLog, String> {
    let (mut worker, _) = listener.accept().map_err(|e| format!("proxy accept: {e}"))?;
    let mut coord = TcpStream::connect(server).map_err(|e| format!("proxy connect: {e}"))?;
    let _ = worker.set_nodelay(true);
    let _ = coord.set_nodelay(true);
    let mut log = ProxyLog { first_ns: now_ns(), ..ProxyLog::default() };
    let mut granted: Vec<(u64, u64)> = Vec::new();
    let mut open_leases: BTreeMap<u64, u64> = BTreeMap::new();
    loop {
        let request = match read_frame(&mut worker, &mut log) {
            Ok(msg) => msg,
            Err(WireError::Closed) => break,
            Err(e) => return Err(format!("proxy read from worker: {e}")),
        };
        let sent = now_ns();
        if let Msg::ResultBatch { lease_id, .. } = &request {
            if let Some(granted_at) = open_leases.remove(lease_id) {
                log.lease_ms.push(sent.saturating_sub(granted_at) as f64 / 1e6);
                log.span(Name::Lease, granted_at, sent, *lease_id);
            }
        }
        send(&mut coord, &request)?;
        let reply = read_frame(&mut coord, &mut log)
            .map_err(|e| format!("proxy read from coordinator: {e}"))?;
        let answered = now_ns();
        let wait_ms = answered.saturating_sub(sent) as f64 / 1e6;
        match (&request, &reply) {
            (Msg::LeaseRequest, Msg::LeaseGrant { lease_id, start, len }) => {
                log.grant_wait_ms.push(wait_ms);
                log.span(Name::GrantWait, sent, answered, *lease_id);
                if *len > 0 {
                    let range = (*start, start + len);
                    if granted.iter().any(|&(a, b)| range.0 < b && a < range.1) {
                        log.reissues += 1;
                    }
                    granted.push(range);
                    log.leases += 1;
                    open_leases.insert(*lease_id, answered);
                }
            }
            (Msg::ResultBatch { lease_id, .. }, Msg::Ack) => {
                log.ack_wait_ms.push(wait_ms);
                log.span(Name::AckWait, sent, answered, *lease_id);
                log.last_ack_ns = answered;
            }
            _ => {}
        }
        send(&mut worker, &reply)?;
    }
    Ok(log)
}

/// Writes `local` then `proxy` spans as JSON lines with their self
/// times (proxy parents are renumbered after the local spans).
pub fn write_spans(path: &Path, local: &[SpanRec], proxy: &[SpanRec]) -> Result<(), String> {
    let offset = u32::try_from(local.len()).map_err(|_| "too many spans")?;
    let shifted: Vec<SpanRec> = proxy
        .iter()
        .map(|s| SpanRec {
            parent: if s.parent == NO_PARENT { NO_PARENT } else { s.parent + offset },
            ..*s
        })
        .collect();
    let all: Vec<SpanRec> = local.iter().chain(&shifted).copied().collect();
    let selfs = self_ns(&all);
    let mut out = String::with_capacity(all.len() * 96);
    for (id, (span, self_time)) in all.iter().zip(selfs).enumerate() {
        let parent =
            if span.parent == NO_PARENT { "null".to_owned() } else { span.parent.to_string() };
        out.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"parent\":{parent},\"req\":{}}}\n",
            span.name.as_str(),
            span.start_ns as f64 / 1e3,
            span.end_ns as f64 / 1e3,
            self_time as f64 / 1e3,
            span.req
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
