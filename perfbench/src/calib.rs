//! Host-speed calibration for the in-process sweep batches and the
//! served campaigns.
//!
//! The measurement VM runs identical work in fast and slow phases that
//! last from under a second to minutes, and the slow phases stretch
//! throughput-bound numeric code by up to 2×. No statistic inside one
//! run removes a phase that outlasts the run, so the local batches time
//! a fixed reference kernel between cells, and a served campaign times
//! it from a thread of its own while it runs, and their times are
//! scaled to a nominal host speed.
//!
//! The kernel is a sparse matrix–vector product over a 7-point stencil
//! of 16×16×4 nodes, written here and sharing no code with therm3d: a
//! change to the program cannot move it. Its pass time tracks the 8×8
//! thermal step closely (their ratio stayed within ±3 % while the step
//! itself moved 57–116 µs over three minutes on the VM).

use std::hint::black_box;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Nominal pass time of the kernel (µs): times are reported as if each
/// pass took this long, roughly its fast-phase figure on the VM.
pub const NOMINAL_PASS_US: f64 = 7.0;

/// How the served path's times follow the host's speed: they stretch
/// with the kernel's pass time, sampled while they run, to this power.
/// About a fifth of a campaign is fixed waits (the 25 ms poll, the
/// 200 ms drain grace) and much of the rest is round trips and thread
/// hand-offs, which the slow phases stretch less than numeric code.
/// Over 56 campaigns of one 150 s run on the VM (sampled pass time
/// 10.1–14.8 µs) the campaigns' times varied 0.061 (standard deviation
/// over mean) unscaled, 0.038 scaled by the 0.4th power, 0.034 by the
/// 0.6th, 0.038 by the 0.8th and 0.048 by the 1st. Across ten 45 s
/// runs the runs' medians spread 0.245 (quartile distance over median)
/// unscaled and 0.157, 0.097, 0.099 and 0.077 scaled by those powers.
pub const SERVED_ELASTICITY: f64 = 0.6;

/// Passes per sample of [`Sampler`]: ~0.3–0.7 ms of kernel time.
const SAMPLE_PASSES: usize = 50;

/// Pause between two samples of [`Sampler`]: it keeps the kernel off
/// the campaign's threads for ~95 % of the time.
const SAMPLE_GAP: Duration = Duration::from_millis(10);

/// Passes per burst: ~7–14 ms of kernel time.
const PASSES: usize = 1000;

/// Least wall time between two bursts inside a batch, so short cells
/// (the 4×4 ones take ~0.6 ms) are not dominated by calibration.
const MIN_GAP_S: f64 = 0.1;

/// A 7-point-stencil matrix in compressed-row form and its operands.
struct Kernel {
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

impl Kernel {
    fn new() -> Self {
        let (nx, ny, nz) = (16, 16, 4);
        let id = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let (mut ptr, mut idx, mut val) = (vec![0], vec![], vec![]);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = id(x, y, z);
                    let mut row = vec![i];
                    if x > 0 {
                        row.push(id(x - 1, y, z));
                    }
                    if x + 1 < nx {
                        row.push(id(x + 1, y, z));
                    }
                    if y > 0 {
                        row.push(id(x, y - 1, z));
                    }
                    if y + 1 < ny {
                        row.push(id(x, y + 1, z));
                    }
                    if z > 0 {
                        row.push(id(x, y, z - 1));
                    }
                    if z + 1 < nz {
                        row.push(id(x, y, z + 1));
                    }
                    row.sort_unstable();
                    for j in row {
                        idx.push(j);
                        val.push(if j == i { 1.0 + (i % 5) as f64 * 0.1 } else { -0.1 });
                    }
                    ptr.push(idx.len());
                }
            }
        }
        let n = nx * ny * nz;
        let x = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.125).collect();
        Self { ptr, idx, val, x, y: vec![0.0; n] }
    }

    /// Mean time of one pass (µs) over a burst of [`PASSES`].
    fn burst(&mut self) -> f64 {
        self.passes(PASSES)
    }

    /// Mean time of one pass (µs) over `n` passes.
    fn passes(&mut self, n: usize) -> f64 {
        let t = Instant::now();
        for _ in 0..n {
            for (i, out) in self.y.iter_mut().enumerate() {
                let mut s = 0.0;
                for k in self.ptr[i]..self.ptr[i + 1] {
                    s += self.val[k] * self.x[self.idx[k]];
                }
                *out = s;
            }
            black_box(&mut self.y);
        }
        t.elapsed().as_secs_f64() * 1e6 / n as f64
    }
}

/// What the bursts of one batch recorded.
pub struct Record {
    /// `(cells finished before the burst, pass time in µs)`, in order.
    pub bursts: Vec<(usize, f64)>,
    /// Cell indices in the order they finished.
    pub finished: Vec<usize>,
    /// Wall time spent in the hook during the batch (bursts included),
    /// seconds.
    pub spent_s: f64,
}

impl Record {
    /// Time scale for the cell that finished `k`-th: nominal over
    /// measured pass time, from the mean of the bursts on either side.
    pub fn scale_at(&self, k: usize) -> f64 {
        let before = self.bursts.iter().rev().find(|(n, _)| *n <= k);
        let after = self.bursts.iter().find(|(n, _)| *n > k);
        let pass_us = match (before, after) {
            (Some((_, a)), Some((_, b))) => (a + b) / 2.0,
            (Some((_, p)), None) | (None, Some((_, p))) => *p,
            (None, None) => NOMINAL_PASS_US,
        };
        NOMINAL_PASS_US / pass_us
    }

    /// Time scale for the whole batch: nominal over the mean pass time.
    pub fn scale(&self) -> f64 {
        let passes: Vec<f64> = self.bursts.iter().map(|(_, p)| *p).collect();
        NOMINAL_PASS_US / crate::stats::mean(&passes)
    }
}

/// The event writer a batch's `RunTelemetry` streams into: after a
/// `cell_finish` line it runs a burst, at most every [`MIN_GAP_S`].
/// It runs on the simulation thread between cells, outside the
/// runner's per-cell timing.
pub struct Hook {
    kernel: Kernel,
    line: Vec<u8>,
    last: Instant,
    record: Arc<Mutex<Record>>,
}

impl Hook {
    /// A hook for a batch of `cells` and the record it fills; the first
    /// burst runs now. Everything it stores is allocated here, so the
    /// batch's heap peak does not see it grow.
    pub fn new(cells: usize) -> (Self, Arc<Mutex<Record>>) {
        let record = Arc::new(Mutex::new(Record {
            bursts: Vec::with_capacity(cells + 2),
            finished: Vec::with_capacity(cells),
            spent_s: 0.0,
        }));
        let mut hook = Self {
            kernel: Kernel::new(),
            line: Vec::with_capacity(1024),
            last: Instant::now(),
            record: record.clone(),
        };
        hook.calibrate(0);
        (hook, record)
    }

    fn calibrate(&mut self, finished: usize) {
        let pass_us = self.kernel.burst();
        self.last = Instant::now();
        self.record.lock().expect("calibration record").bursts.push((finished, pass_us));
    }
}

/// The closing burst, once the batch has returned (the hook is owned by
/// the batch's event sink by then).
pub fn close(record: &Mutex<Record>) {
    let pass_us = Kernel::new().burst();
    let mut record = record.lock().expect("calibration record");
    let finished = record.finished.len();
    record.bursts.push((finished, pass_us));
}

/// Samples the kernel's speed from a thread of its own while a served
/// campaign runs: no burst can run inside the campaign, whose compute
/// runs on the worker's thread inside `work`, and a burst before or
/// after it misses phases that change within a second. Built before
/// the campaign's heap accounting starts; sampling allocates nothing.
pub struct Sampler {
    kernel: Kernel,
}

impl Sampler {
    pub fn new() -> Self {
        Self { kernel: Kernel::new() }
    }

    /// Samples every [`SAMPLE_GAP`] until `stop` is set (at least
    /// once) and returns the speed scale: nominal over the mean
    /// sampled pass time.
    pub fn run_until(mut self, stop: &AtomicBool) -> f64 {
        let (mut sum, mut count) = (0.0, 0);
        loop {
            sum += self.kernel.passes(SAMPLE_PASSES);
            count += 1;
            if stop.load(Ordering::Relaxed) {
                return NOMINAL_PASS_US * count as f64 / sum;
            }
            std::thread::sleep(SAMPLE_GAP);
        }
    }
}

/// The cell index of a `cell_finish` event line.
fn finished_cell(line: &str) -> Option<usize> {
    if !line.contains("\"ev\":\"cell_finish\"") {
        return None;
    }
    let rest = &line[line.find("\"cell\":")? + 7..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

impl Write for Hook {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.line.extend_from_slice(buf);
        Ok(buf.len())
    }

    /// The sink flushes once per event line.
    fn flush(&mut self) -> io::Result<()> {
        let t = Instant::now();
        let cell = finished_cell(&String::from_utf8_lossy(&self.line));
        self.line.clear();
        if let Some(cell) = cell {
            let finished = {
                let mut record = self.record.lock().expect("calibration record");
                record.finished.push(cell);
                record.finished.len()
            };
            if self.last.elapsed().as_secs_f64() >= MIN_GAP_S {
                self.calibrate(finished);
            }
        }
        self.record.lock().expect("calibration record").spent_s += t.elapsed().as_secs_f64();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_cell_of_finish_lines_only() {
        let finish = r#"{"ev":"cell_finish","t_us":5,"shard":"","cell":17,"key":"ab","wall_us":3,"cached":false}"#;
        let start = r#"{"ev":"cell_start","t_us":5,"shard":"","cell":17,"key":"ab"}"#;
        assert_eq!(finished_cell(finish), Some(17));
        assert_eq!(finished_cell(start), None);
    }

    #[test]
    fn scales_each_cell_by_the_bursts_around_it() {
        let record = Record {
            bursts: vec![(0, NOMINAL_PASS_US), (2, 2.0 * NOMINAL_PASS_US)],
            finished: vec![4, 5, 6],
            spent_s: 0.0,
        };
        // Cells 0 and 1 lie between the two bursts, cell 2 after both.
        assert_eq!(record.scale_at(0), 1.0 / 1.5);
        assert_eq!(record.scale_at(1), 1.0 / 1.5);
        assert_eq!(record.scale_at(2), 0.5);
        assert_eq!(record.scale(), 1.0 / 1.5);
    }
}
