//! The untraced end-to-end legs: an in-process sweep batch and a served
//! campaign, each with its output checks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use therm3d_coord::{work, ServeOptions, Server, WorkOptions};
use therm3d_sweep::{cell_key, run_with_telemetry, CacheStore, RunTelemetry, SweepReport};
use therm3d_telemetry::{alloc, EventSink};

use crate::calib;
use crate::trace::{proxy, ProxyLog};
use crate::workload::{failed_rows, Workload};

/// A private directory under the working directory for cache stores;
/// removed when dropped.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new(w: &Workload) -> Result<Self, String> {
        let root = PathBuf::from(".bench_scratch").join(format!(
            "{}-{}",
            w.kind.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(Self { root })
    }

    /// A fresh, empty directory `name` inside the scratch root.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_scratch");
    }
}

/// One in-process sweep batch through `run_with_telemetry`. Its times
/// are scaled to the nominal host speed of [`calib`].
pub struct Batch {
    pub cells: usize,
    pub failed: usize,
    /// Wall time of the batch, calibration bursts excluded.
    pub raw_wall_s: f64,
    /// `raw_wall_s` scaled to the nominal host speed.
    pub wall_s: f64,
    /// Nominal over measured kernel pass time, averaged over the batch.
    pub speed_scale: f64,
    /// Pre-tick work: expansion, trace generation (unless jobs stream)
    /// and per-cell simulator construction, from the runner's own cost
    /// accounting; scaled.
    pub setup_s: f64,
    /// Host wall time of each simulated cell, ms, by cell index; scaled
    /// by the bursts on either side of the cell.
    pub cell_ms: Vec<(usize, f64)>,
    pub heap_peak_bytes: usize,
    pub report: Option<SweepReport>,
}

pub fn local_batch(w: &Workload) -> Batch {
    let cells = w.cells();
    let (hook, calibration) = calib::Hook::new(cells);
    let telemetry = RunTelemetry::new().with_events(EventSink::to_writer(Box::new(hook)));
    let base = alloc::reset_high_water();
    let t = Instant::now();
    let outcome = run_with_telemetry(&w.spec, None, Some(&telemetry));
    let wall_s = t.elapsed().as_secs_f64();
    let heap_peak_bytes = alloc::high_water_bytes().saturating_sub(base);
    calib::close(&calibration);
    let calibration = calibration.lock().expect("calibration record");
    let speed_scale = calibration.scale();
    let raw_wall_s = wall_s - calibration.spent_s;
    let snap = telemetry.snapshot();
    let trace_gen_us = snap.histograms.get("sweep.trace_gen_us").map_or(0, |h| h.sum);
    let expand_us = snap.gauges.get("sweep.expand_us").copied().unwrap_or(0.0);
    let cell_setup_us: u64 = snap.cells.iter().filter_map(|c| c.phases.get("setup")).copied().sum();
    let setup_s = (expand_us + (trace_gen_us + cell_setup_us) as f64) / 1e6 * speed_scale;
    let wall_us: BTreeMap<usize, u64> =
        snap.cells.iter().map(|c| (c.index as usize, c.wall_us)).collect();
    let cell_ms = calibration
        .finished
        .iter()
        .enumerate()
        .filter_map(|(k, cell)| {
            Some((*cell, *wall_us.get(cell)? as f64 / 1e3 * calibration.scale_at(k)))
        })
        .collect();
    let (failed, report) = match outcome {
        Ok(report) => (failed_rows(&report), Some(report)),
        Err(e) => {
            eprintln!("perfbench: batch failed: {e}");
            let counted = snap.counters.get("sweep.cells_failed").copied().unwrap_or(0) as usize;
            (if counted == 0 { cells } else { counted }, None)
        }
    };
    Batch {
        cells,
        failed,
        raw_wall_s,
        wall_s: raw_wall_s * speed_scale,
        speed_scale,
        setup_s,
        cell_ms,
        heap_peak_bytes,
        report,
    }
}

/// The single-process result a served campaign must reproduce, and the
/// cache file holding its seed-chosen pre-loaded half.
pub struct Reference {
    pub report: SweepReport,
    pub csv: String,
    preload_store: PathBuf,
    pub preloaded: usize,
}

impl Reference {
    pub fn new(w: &Workload, report: SweepReport, scratch: &Scratch) -> Result<Self, String> {
        let dir = scratch.fresh_dir("preload")?;
        let mut store = CacheStore::open(&dir).map_err(|e| e.to_string())?;
        let mut preloaded = 0;
        for row in report.rows.iter().filter(|row| w.preload[row.cell.index]) {
            store.insert(&cell_key(&w.spec, &row.cell), &row.result).map_err(|e| e.to_string())?;
            preloaded += 1;
        }
        let preload_store = store.path().to_path_buf();
        let csv = report.csv();
        Ok(Self { report, csv, preload_store, preloaded })
    }
}

/// One served campaign: an in-process `Server` on loopback and one
/// in-process `work` loop whose cache holds the pre-loaded half.
pub struct Campaign {
    pub cells: usize,
    pub failed: usize,
    /// `Server::bind` plus opening the coordinator's cache.
    pub setup_s: f64,
    /// First worker spawned → `Server::run` returned.
    pub wall_s: f64,
    /// Nominal over measured kernel pass time, sampled while the
    /// campaign ran.
    pub speed_scale: f64,
    pub heap_peak_bytes: usize,
    /// Cells the worker had to simulate (cache misses it wrote back).
    pub worker_misses: usize,
    pub proxy: Option<ProxyLog>,
}

fn count_lines(path: &Path) -> usize {
    std::fs::read_to_string(path).map_or(0, |text| text.lines().filter(|l| !l.is_empty()).count())
}

/// The served path's set-up, timed: `Server::bind` (validate, expand,
/// key every cell, listen) plus opening the coordinator's cache in a
/// fresh directory.
fn bind(w: &Workload, scratch: &Scratch) -> Result<(Server, CacheStore, f64), String> {
    let coord_dir = scratch.fresh_dir("coord")?;
    let opts = ServeOptions { lease_cells: Some(w.lease_cells()), lease_timeout_ms: 0 };
    let t = Instant::now();
    let server = Server::bind(&w.spec, "127.0.0.1:0", &opts)?;
    let cache = CacheStore::open(&coord_dir).map_err(|e| e.to_string())?;
    Ok((server, cache, t.elapsed().as_secs_f64()))
}

/// `samples` more set-up times of the served path, each coordinator
/// bound and dropped unrun.
pub fn served_setups(w: &Workload, scratch: &Scratch, samples: usize) -> Result<Vec<f64>, String> {
    (0..samples).map(|_| bind(w, scratch).map(|(_, _, setup_s)| setup_s)).collect()
}

/// Runs one campaign; with `proxied`, frames pass through the tracing
/// proxy between worker and coordinator.
pub fn campaign(
    w: &Workload,
    reference: &Reference,
    scratch: &Scratch,
    proxied: bool,
) -> Result<Campaign, String> {
    let worker_dir = scratch.fresh_dir("worker")?;
    let worker_store = worker_dir
        .join(reference.preload_store.file_name().ok_or("preload store has no file name")?);
    std::fs::copy(&reference.preload_store, &worker_store)
        .map_err(|e| format!("cannot seed the worker cache: {e}"))?;

    let sampler = calib::Sampler::new();
    let stop = AtomicBool::new(false);
    let base = alloc::reset_high_water();
    let (server, mut coord_cache, setup_s) = bind(w, scratch)?;

    let server_addr = server.local_addr();
    let work_opts =
        WorkOptions { threads: Some(1), cache_dir: Some(worker_dir.clone()), throttle_ms: 0 };
    let proxy_listener = if proxied {
        Some(std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?)
    } else {
        None
    };
    let connect = match &proxy_listener {
        Some(l) => l.local_addr().map_err(|e| e.to_string())?.to_string(),
        None => server_addr.to_string(),
    };

    let t_run = Instant::now();
    let (served, wall_s, speed_scale, proxy_log) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sampler.run_until(&stop));
        let proxy_thread = proxy_listener.map(|l| scope.spawn(move || proxy(&l, server_addr)));
        let worker = scope.spawn(|| {
            let outcome = work(&connect, &work_opts);
            if let Err(e) = &outcome {
                // The coordinator waits for every cell and has no other
                // worker: a failed worker cannot finish the campaign.
                eprintln!("perfbench: worker failed: {e}");
                crate::abort_run(w.cells());
            }
            outcome
        });
        let served = server.run(Some(&mut coord_cache), None);
        let wall_s = t_run.elapsed().as_secs_f64();
        let run_end_ns = crate::trace::now_ns();
        stop.store(true, Ordering::Relaxed);
        let speed_scale = sampler.join().unwrap_or(1.0);
        let _ = worker.join();
        let proxy_log = proxy_thread.and_then(|h| match h.join() {
            Ok(Ok(mut log)) => {
                log.finish(run_end_ns);
                Some(log)
            }
            Ok(Err(e)) => {
                eprintln!("perfbench: proxy failed: {e}");
                None
            }
            Err(_) => None,
        });
        (served, wall_s, speed_scale, proxy_log)
    });
    let heap_peak_bytes = alloc::high_water_bytes().saturating_sub(base);
    let worker_misses = count_lines(&worker_store).saturating_sub(reference.preloaded);

    let cells = w.cells();
    let mut failed = 0;
    match served {
        Ok(report) => {
            failed += failed_rows(&report);
            if report.csv() != reference.csv {
                eprintln!("perfbench: served CSV differs from the single-process CSV");
                failed = cells;
            }
            // Cache hits must equal the recomputed rows bit for bit.
            for (row, want) in report.rows.iter().zip(&reference.report.rows) {
                if w.preload[row.cell.index] && row.result != want.result {
                    eprintln!(
                        "perfbench: cache-hit cell {} differs from recomputation",
                        row.cell.index
                    );
                    failed += 1;
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: campaign failed: {e}");
            failed = cells;
        }
    }
    if proxied && proxy_log.is_none() {
        failed = cells;
    }
    Ok(Campaign {
        cells,
        failed: failed.min(cells),
        setup_s,
        wall_s,
        speed_scale,
        heap_peak_bytes,
        worker_misses,
        proxy: proxy_log,
    })
}
