//! Host-speed calibration of the timed metrics.
//!
//! The benchmark shares its cores with other tenants, whose load changes
//! the speed of every instruction by tens of percent, over fractions of a
//! second and over minutes. Raw times then differ more between two runs
//! of the same code than a real regression would move them. So while an
//! interval is timed, a sampler thread pinned to the same core (see
//! `run.py`) wakes every `PERIOD`, runs a fixed reference kernel and
//! records the kernel's CPU time: a reading of how fast the core runs
//! right then. The interval is reported in nominal seconds:
//!
//! ```text
//! nominal = (wall − sampler CPU time) × NOMINAL_KERNEL_S / median kernel time
//! ```
//!
//! that is, the time the interval would take on a core that runs the
//! kernel in `NOMINAL_KERNEL_S`. The kernel is code of the benchmark alone
//! — no engine code — so a change to the engine moves the nominal time
//! exactly as much as the raw time, while the host's load cancels out.
//!
//! The kernel mixes what the engine's loops do: ordered-map inserts,
//! lookups and removals, text formatting and parsing, sorting, and many
//! short-lived allocations.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's CPU time on the nominal core: one nominal second is a
/// thousand kernel runs.
pub const NOMINAL_KERNEL_S: f64 = 0.001;
/// Sleep between two kernel runs of the sampler.
const PERIOD: Duration = Duration::from_millis(20);
/// Operations of one kernel run, about a millisecond.
const KERNEL_OPS: u64 = 3_000;
/// Readings used for an interval too short to hold one.
const FALLBACK_READINGS: usize = 10;

/// One kernel run of the sampler.
struct Reading {
    start: Instant,
    end: Instant,
    cpu_s: f64,
}

/// The sampler thread; dropping it stops and joins the thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    readings: Arc<Mutex<Vec<Reading>>>,
    handle: Option<JoinHandle<()>>,
}

/// What the sampler saw during one interval.
pub struct Window {
    /// Kernel runs wholly inside the interval.
    pub readings: usize,
    /// CPU time the sampler took from the interval.
    pub busy_s: f64,
    /// Median CPU time of a kernel run.
    pub kernel_s: f64,
}

impl Window {
    /// Nominal seconds per host second during the interval.
    pub fn scale(&self) -> f64 {
        NOMINAL_KERNEL_S / self.kernel_s
    }

    /// The interval's wall time `wall_s`, less the sampler's share, in
    /// nominal seconds.
    pub fn nominal(&self, wall_s: f64) -> f64 {
        (wall_s - self.busy_s) * self.scale()
    }
}

impl Sampler {
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let readings = Arc::new(Mutex::new(Vec::new()));
        let (stop_flag, log) = (stop.clone(), readings.clone());
        let handle = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let start = Instant::now();
                let cpu = thread_cpu_s();
                black_box(kernel(black_box(KERNEL_OPS)));
                let cpu_s = thread_cpu_s() - cpu;
                let end = Instant::now();
                log.lock().unwrap().push(Reading { start, end, cpu_s });
            }
        });
        Sampler {
            stop,
            readings,
            handle: Some(handle),
        }
    }

    /// The readings taken wholly inside `from..to`; an interval that holds
    /// none is gauged by the last readings before its end.
    pub fn window(&self, from: Instant, to: Instant) -> Window {
        let readings = self.readings.lock().unwrap();
        let inside: Vec<&Reading> = readings
            .iter()
            .filter(|r| r.start >= from && r.end <= to)
            .collect();
        let busy_s = inside.iter().map(|r| r.cpu_s).sum();
        let kernel: Vec<f64> = if inside.is_empty() {
            let before: Vec<&Reading> = readings.iter().filter(|r| r.end <= to).collect();
            let skip = before.len().saturating_sub(FALLBACK_READINGS);
            before[skip..].iter().map(|r| r.cpu_s).collect()
        } else {
            inside.iter().map(|r| r.cpu_s).collect()
        };
        Window {
            readings: inside.len(),
            busy_s,
            kernel_s: median_or(kernel, NOMINAL_KERNEL_S),
        }
    }

    /// Readings so far, and the median CPU time of a kernel run.
    pub fn summary(&self) -> (usize, f64) {
        let readings = self.readings.lock().unwrap();
        let kernel = readings.iter().map(|r| r.cpu_s).collect();
        (readings.len(), median_or(kernel, 0.0))
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn median_or(mut values: Vec<f64>, empty: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(empty)
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time of the calling thread, in seconds (Linux).
fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// The reference kernel: `ops` pseudo-random operations.
fn kernel(ops: u64) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut tree: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut text = String::new();
    let mut acc = 0u64;
    for i in 0..ops {
        let r = next();
        match r % 6 {
            0 | 1 => tree.entry(r & 0xfff).or_default().push(i as u32),
            2 => {
                if let Some((&k, _)) = tree.range(r & 0xfff..).next() {
                    acc = acc.wrapping_add(tree.remove(&k).map_or(0, |v| v.len() as u64));
                }
            }
            3 => {
                text.clear();
                let _ = write!(text, "{} {:x} {:?}", r as i64, acc, (i, r & 7));
                let parsed: i64 = text.split(' ').filter_map(|t| t.parse::<i64>().ok()).sum();
                acc = acc.wrapping_add(parsed as u64);
            }
            4 => {
                let mut v: Vec<u64> = (0..(r & 63)).map(|j| next() ^ j).collect();
                v.sort_unstable();
                acc ^= v.first().copied().unwrap_or(0);
            }
            _ => {
                let boxed: Vec<Box<(u64, u64)>> =
                    (0..(r & 15)).map(|j| Box::new((j, acc))).collect();
                acc = boxed.iter().fold(acc, |a, b| a.wrapping_add(b.0 ^ b.1));
            }
        }
    }
    acc ^ tree.len() as u64
}
