//! Host speed, sampled all through a run.
//!
//! The benchmark runs on a few vCPUs of a shared host, and how fast those
//! vCPUs execute moves with what the host's other tenants do.  On a 2-vCPU
//! VM, eight low80 pairings took 11 ms in one 5-second block and 19 ms in
//! a block a minute later, and over 150 s the quartile spread of 1-second
//! blocks was 36%: wider than any bound a benchmark can hold.  The meter
//! measures that speed with a fixed reference burst, and the run reports
//! its CPU-bound metrics at one nominal speed (METRICS.md, "Host speed").
//!
//! One meter thread per allowed CPU, pinned to it, runs the burst every
//! [`PERIOD`] and records the burst's CPU time (`CLOCK_THREAD_CPUTIME_ID`).
//! The burst is this file's own code and uses nothing from the program
//! under test, so a change to the program cannot move it.  It is a 64-bit
//! multiply chain and a walk of 512-bit Montgomery products over a 32 KiB
//! table, about equal in time.  Over those 150 s, timed alternately with
//! the pairings, the ratio of the pairings' time to the geometric mean of
//! the two halves' spread 4% over 1-second blocks, against 36% for the
//! pairings alone.

use crate::conn::thread_cpu_ns;
use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often each meter thread runs a burst: one burst of about 0.2 ms
/// per 20 ms, 1% of each CPU.
const PERIOD: Duration = Duration::from_millis(20);
/// CPU time of one burst on the nominal host, in nanoseconds.  A phase's
/// slowness is its bursts' median over this.
pub const NOMINAL_BURST_NS: f64 = 200_000.0;
/// A burst whose wall time passes its CPU time by more than this was
/// preempted: it is dropped (see [`burst`]).
const PREEMPTED_NS: u64 = 5_000;
/// An interval with fewer bursts inside it borrows the nearest ones.
const MIN_SAMPLES: usize = 6;

const LIMBS: usize = 8;
const TABLE: usize = 512;
const CHAIN_STEPS: u64 = 25_000;
const MONT_STEPS: usize = 800;

/// A 64-bit multiply-accumulate chain.
fn chain(steps: u64) -> u64 {
    let mut a = [
        0x9e37_79b9_7f4a_7c15u64,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d,
    ];
    let mut carry: u128 = 1;
    for i in 0..steps {
        for j in 0..4 {
            let p = u128::from(a[j]) * u128::from(a[(j + 1) & 3]) + carry;
            a[j] = p as u64 ^ i;
            carry = p >> 64;
        }
    }
    a[0] ^ a[1] ^ a[2] ^ a[3] ^ carry as u64
}

/// Fixed operands of the Montgomery half of the burst.
struct MontTable {
    modulus: [u64; LIMBS],
    /// `-modulus^-1 mod 2^64`.
    minv: u64,
    entries: Vec<[u64; LIMBS]>,
}

impl MontTable {
    fn new() -> Self {
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x
        };
        let mut modulus = [0u64; LIMBS];
        for limb in modulus.iter_mut() {
            *limb = next() | 1;
        }
        modulus[LIMBS - 1] = (modulus[LIMBS - 1] | 1 << 62) & !(1 << 63);
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(modulus[0].wrapping_mul(inv)));
        }
        let entries = (0..TABLE)
            .map(|_| {
                let mut e = [0u64; LIMBS];
                for limb in e.iter_mut() {
                    *limb = next() >> 1;
                }
                e[LIMBS - 1] >>= 2;
                e
            })
            .collect();
        MontTable {
            modulus,
            minv: inv.wrapping_neg(),
            entries,
        }
    }

    /// CIOS Montgomery product `a * b / 2^512 mod modulus` (not fully reduced).
    fn mul(&self, a: &[u64; LIMBS], b: &[u64; LIMBS]) -> [u64; LIMBS] {
        let m = &self.modulus;
        let mut t = [0u64; LIMBS + 2];
        for &bi in b {
            let mut c: u128 = 0;
            for j in 0..LIMBS {
                let s = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + c;
                t[j] = s as u64;
                c = s >> 64;
            }
            let s = u128::from(t[LIMBS]) + c;
            t[LIMBS] = s as u64;
            t[LIMBS + 1] = (s >> 64) as u64;
            let q = t[0].wrapping_mul(self.minv);
            let mut c = (u128::from(t[0]) + u128::from(q) * u128::from(m[0])) >> 64;
            for j in 1..LIMBS {
                let s = u128::from(t[j]) + u128::from(q) * u128::from(m[j]) + c;
                t[j - 1] = s as u64;
                c = s >> 64;
            }
            let s = u128::from(t[LIMBS]) + c;
            t[LIMBS - 1] = s as u64;
            t[LIMBS] = t[LIMBS + 1] + (s >> 64) as u64;
        }
        let mut r = [0u64; LIMBS];
        r.copy_from_slice(&t[..LIMBS]);
        r
    }

    /// A walk of products whose next operand depends on the last result.
    fn walk(&self, steps: usize) -> u64 {
        let mut a = self.entries[0];
        for i in 0..steps {
            a = self.mul(&a, &self.entries[(a[0] as usize ^ i) % TABLE]);
        }
        a[0]
    }
}

/// One reference burst; returns its CPU time in nanoseconds, or `None`
/// when another thread ran on the CPU during it.  A preempted burst
/// resumes on caches the other thread has just used, so how slow it reads
/// depends on what the benchmark itself runs; only bursts that ran
/// through measure the host.
fn burst(table: &MontTable) -> Option<u64> {
    let wall = Instant::now();
    let start = thread_cpu_ns();
    black_box(chain(black_box(CHAIN_STEPS)));
    black_box(table.walk(black_box(MONT_STEPS)));
    let cpu = thread_cpu_ns().saturating_sub(start);
    (wall.elapsed().as_nanos() as u64 <= cpu + PREEMPTED_NS).then_some(cpu)
}

/// CPUs this process may run on (`sched_getaffinity`).
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return vec![];
    }
    (0..mask.len() * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`; false when the kernel refuses.
fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// One CPU's burst readings: when each burst ended and its CPU time.
type Samples = Mutex<Vec<(Instant, f64)>>;

/// The running meter; dropping it stops and joins its threads.
pub struct Meter {
    /// One list per meter thread, so per CPU.
    samples: Vec<Arc<Samples>>,
    stop: Arc<AtomicBool>,
    cpu_ns: Arc<AtomicU64>,
    /// Bursts run, kept or not.
    bursts: Arc<AtomicU64>,
    threads: Vec<JoinHandle<()>>,
}

impl Meter {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cpu_ns = Arc::new(AtomicU64::new(0));
        let bursts = Arc::new(AtomicU64::new(0));
        let mut cpus: Vec<Option<usize>> = allowed_cpus().into_iter().map(Some).collect();
        if cpus.is_empty() {
            cpus.push(None);
        }
        let samples: Vec<Arc<Samples>> = cpus.iter().map(|_| Arc::default()).collect();
        let threads = cpus
            .into_iter()
            .zip(&samples)
            .map(|(cpu, samples)| {
                let (samples, stop, cpu_ns, bursts) = (
                    Arc::clone(samples),
                    Arc::clone(&stop),
                    Arc::clone(&cpu_ns),
                    Arc::clone(&bursts),
                );
                std::thread::spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_to(cpu);
                    }
                    let table = MontTable::new();
                    let mut next = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        let before = thread_cpu_ns();
                        if let Some(ns) = burst(&table) {
                            samples
                                .lock()
                                .expect("meter samples lock")
                                .push((Instant::now(), ns as f64));
                        }
                        cpu_ns.fetch_add(thread_cpu_ns() - before, Ordering::Relaxed);
                        bursts.fetch_add(1, Ordering::Relaxed);
                        next += PERIOD;
                        let now = Instant::now();
                        if next > now {
                            std::thread::sleep(next - now);
                        } else {
                            next = now;
                        }
                    }
                })
            })
            .collect();
        Meter {
            samples,
            stop,
            cpu_ns,
            bursts,
            threads,
        }
    }

    /// Share of the bursts so far that ran through and were kept.
    pub fn kept_share(&self) -> f64 {
        let kept: usize = self
            .samples
            .iter()
            .map(|s| s.lock().expect("meter samples lock").len())
            .sum();
        kept as f64 / self.bursts.load(Ordering::Relaxed).max(1) as f64
    }

    /// CPU seconds the meter threads have used so far.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Per CPU, the median burst time (ns) of the bursts that ended within
    /// `[from, to]`; when fewer than [`MIN_SAMPLES`] did, of the nearest
    /// ones in time.
    pub fn burst_ns_by_cpu(&self, from: Instant, to: Instant) -> Vec<f64> {
        let distance = |at: Instant| {
            if at < from {
                from - at
            } else {
                at.saturating_duration_since(to)
            }
        };
        self.samples
            .iter()
            .map(|samples| {
                let samples = samples.lock().expect("meter samples lock");
                let mut near: Vec<(Duration, f64)> =
                    samples.iter().map(|&(at, ns)| (distance(at), ns)).collect();
                near.sort_by_key(|&(d, _)| d);
                let inside = near.iter().take_while(|(d, _)| d.is_zero()).count();
                let take = inside.max(MIN_SAMPLES);
                let nearest: Vec<f64> = near.iter().take(take).map(|&(_, ns)| ns).collect();
                if nearest.is_empty() {
                    NOMINAL_BURST_NS
                } else {
                    median(&nearest)
                }
            })
            .collect()
    }

    /// How much slower than nominal the host ran over `[from, to]`: the
    /// inverse of the CPUs' mean speed, each CPU's speed being nominal over
    /// its median burst.  Work spread over the CPUs goes at their mean
    /// speed.  A CPU-bound time measured then, divided by this, is the time
    /// it would have taken at nominal speed; a CPU-bound rate is multiplied
    /// by it.
    pub fn slowness(&self, from: Instant, to: Instant) -> f64 {
        let bursts = self.burst_ns_by_cpu(from, to);
        let speed: f64 = bursts.iter().map(|ns| NOMINAL_BURST_NS / ns).sum::<f64>();
        bursts.len() as f64 / speed
    }
}

impl Drop for Meter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_burst_is_deterministic_work() {
        let table = MontTable::new();
        assert_eq!(chain(1000), chain(1000));
        assert_eq!(table.walk(100), MontTable::new().walk(100));
        assert_ne!(table.walk(100), table.walk(101));
    }

    #[test]
    fn intervals_without_bursts_borrow_the_nearest() {
        let meter = Meter::start();
        std::thread::sleep(Duration::from_millis(300));
        let now = Instant::now();
        let inside = meter.burst_ns_by_cpu(now - Duration::from_millis(300), now);
        assert!(!inside.is_empty() && inside.iter().all(|&ns| ns > 0.0));
        assert!(meter.slowness(now, now) > 0.0);
        assert!(meter.cpu_s() > 0.0);
    }
}
