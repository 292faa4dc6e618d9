//! Seeded input generators: Zipf patient popularity and the ingest mix.
//!
//! Everything here is a pure function of the seed, so a workload's inputs
//! can be regenerated exactly; the timed window only replays them.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Zipf sampler over `0..n`, stored as tail sums so small masses at the end
/// stay representable (the forward CDF rounds them away at high skew).
#[derive(Debug, Clone)]
pub struct Zipf {
    tail: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let n = n.max(1);
        let weights: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
            .collect();
        let total: f64 = weights.iter().rev().sum();
        let mut tail = vec![0.0; n];
        let mut acc = 0.0;
        for i in (0..n).rev() {
            acc += weights[i];
            tail[i] = acc / total;
        }
        tail[0] = 1.0;
        Zipf { tail }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let v = unit(rng).max(f64::MIN_POSITIVE);
        self.tail.partition_point(|&t| t >= v).saturating_sub(1)
    }
}

/// A uniform draw in `[0, 1)` from 53 random bits.
pub fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A derived, independent stream for one purpose of one run.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One closed-loop disclosure pick: an index into the thread's own patients
/// and a record slot of that patient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    pub patient: usize,
    pub record: usize,
}

/// Pre-generates `count` Zipf picks over `patients` patients (rank order =
/// popularity order) with `records` records each.
pub fn zipf_picks(
    seed: u64,
    thread: usize,
    patients: usize,
    records: usize,
    exponent: f64,
    count: usize,
) -> Vec<Pick> {
    let zipf = Zipf::new(patients, exponent);
    let mut rng = stream(seed, 0x21_0000 + thread as u64);
    (0..count)
        .map(|_| Pick {
            patient: zipf.sample(&mut rng),
            record: (rng.next_u64() % records.max(1) as u64) as usize,
        })
        .collect()
}

/// The kind of one scheduled ingest operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Upload the next pre-encrypted fresh record.
    Put,
    /// Toggle one patient's grant (revoke if installed, else re-install).
    Grant,
    /// Disclose an acknowledged record, biased toward recent ones.
    Disclose,
}

/// One operation of the open-loop ingest schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    /// When the operation is due, in seconds from the window start.
    pub due_s: f64,
    pub kind: OpKind,
    /// Uniform draws the sender maps onto live state at send time: the
    /// patient of a put or grant, or the record of a disclosure.
    pub u: f64,
    pub v: f64,
}

/// Share of puts, grants and disclosures in the ingest mix.
pub const MIX: (f64, f64) = (0.30, 0.10);

/// The open-loop ingest schedule: one op every `1 / rate` seconds for
/// `seconds`, each drawn from [`MIX`].  Evenly spaced arrivals keep the
/// offered load fixed; random gaps would add queueing bursts whose size
/// varies from seed to seed.
pub fn ingest_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<ScheduledOp> {
    let mut rng = stream(seed, 0x1e_0000);
    let count = (rate * seconds).floor() as usize;
    (0..count)
        .map(|i| {
            let k = unit(&mut rng);
            let kind = if k < MIX.0 {
                OpKind::Put
            } else if k < MIX.0 + MIX.1 {
                OpKind::Grant
            } else {
                OpKind::Disclose
            };
            ScheduledOp {
                due_s: i as f64 / rate,
                kind,
                u: unit(&mut rng),
                v: unit(&mut rng),
            }
        })
        .collect()
}

/// Maps two uniform draws onto an index of `len` acknowledged records:
/// half the draws land on the most recent `recent` records, the rest
/// uniformly on all of them.
pub fn recent_biased(u: f64, v: f64, len: usize, recent: usize) -> usize {
    let len = len.max(1);
    let window = recent.clamp(1, len);
    let index = if u < 0.5 {
        len - 1 - ((v * window as f64) as usize).min(window - 1)
    } else {
        ((v * len as f64) as usize).min(len - 1)
    };
    index.min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_picks_repeat_for_a_fixed_seed() {
        let a = zipf_picks(7, 0, 32, 4, 1.0, 1000);
        let b = zipf_picks(7, 0, 32, 4, 1.0, 1000);
        let c = zipf_picks(8, 0, 32, 4, 1.0, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|p| p.patient < 32 && p.record < 4));
    }

    #[test]
    fn zipf_favours_low_ranks_like_one_over_k() {
        let picks = zipf_picks(3, 1, 8, 1, 1.0, 100_000);
        let mut hist = [0u64; 8];
        for p in &picks {
            hist[p.patient] += 1;
        }
        let h8: f64 = (1..=8).map(|k| 1.0 / k as f64).sum();
        for (k, &n) in hist.iter().enumerate() {
            let want = 1.0 / ((k + 1) as f64 * h8);
            let got = n as f64 / picks.len() as f64;
            assert!((got - want).abs() < 0.01, "rank {k}: {got} vs {want}");
        }
    }

    #[test]
    fn ingest_schedule_repeats_and_follows_the_mix() {
        let a = ingest_schedule(11, 200.0, 30.0);
        let b = ingest_schedule(11, 200.0, 30.0);
        assert_eq!(a, b);
        assert_ne!(a, ingest_schedule(12, 200.0, 30.0));
        let n = a.len() as f64;
        assert_eq!(a.len(), 6000);
        let share = |k: OpKind| a.iter().filter(|op| op.kind == k).count() as f64 / n;
        assert!((share(OpKind::Put) - 0.30).abs() < 0.03);
        assert!((share(OpKind::Grant) - 0.10).abs() < 0.03);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
    }

    #[test]
    fn recent_bias_stays_in_range() {
        for len in [1usize, 2, 10, 1000] {
            for &(u, v) in &[(0.0, 0.0), (0.49, 0.999), (0.5, 0.0), (0.99, 0.9999)] {
                assert!(recent_biased(u, v, len, 64) < len);
            }
        }
        assert_eq!(recent_biased(0.1, 0.0, 100, 10), 99);
    }
}
