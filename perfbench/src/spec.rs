//! The two workloads and the run-validity limits.  METRICS.md explains
//! why each workload exists and which end-to-end metric each layer metric
//! should move.

use tibpre_pairing::SecurityLevel;

/// Generator threads and connections: the box's two cores.
pub const THREADS: usize = 2;

/// A run whose host steal share over the window passes this is flagged.
pub const STEAL_LIMIT: f64 = 0.15;
/// An open-loop run whose p99 send lateness passes this is flagged.
pub const LATE_P99_LIMIT_MS: f64 = 20.0;

/// The fsync policy of the durable workloads' nodes.  Not the product
/// default (`always`): on this class of 2-vCPU VM every fsync is a trip to
/// the host's shared disk, and its cost (with the steal it induces) moved
/// latency medians by 50% between back-to-back runs.  `never` keeps the
/// WAL, its codec and CRC, and crash recovery on the path; a `kill -9`
/// leaves the page cache, so every check still holds.  The fsync cost is
/// measured on its own as `storage.wal_commit_us`.
pub const NODE_FSYNC: &str = "never";

/// Zipf skew of patient popularity.
pub const ZIPF_S: f64 = 1.0;
/// Record payload size in bytes.
pub const PAYLOAD_LEN: usize = 256;
/// The window is cut into slices this long; the disclosure rate and
/// latency metrics are medians over slices, so a burst of host steal or a
/// slow fsync moves one slice and not the result.
pub const SLICE_S: f64 = 1.0;
/// Load runs this long before the measured window starts.
pub const WARMUP_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Each connection keeps `depth` disclosures in flight (closed loop).
    Pipelined { depth: usize },
    /// Evenly spaced arrivals at `rate` ops/s of the put/grant/disclose
    /// mix.  The rate is set to about half the mix's closed-loop capacity
    /// on a 2-vCPU VM; on other hardware, change it here (METRICS.md).
    Open { rate: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub level: SecurityLevel,
    pub level_name: &'static str,
    pub durable: bool,
    pub patients: usize,
    pub records_per_patient: usize,
    pub shape: Shape,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Kill/restart cycles per run; `recovery_s` is their median.
    pub recovery_cycles: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "disclose-80",
        level: SecurityLevel::Low80,
        level_name: "low80",
        durable: false,
        patients: 64,
        records_per_patient: 4,
        shape: Shape::Pipelined { depth: 8 },
        setup_reps: 3,
        recovery_cycles: 15,
    },
    Workload {
        name: "ingest-mixed-80",
        level: SecurityLevel::Low80,
        level_name: "low80",
        durable: true,
        // 1088 records: above the store's 16 x 64 decoded-record LRU.
        patients: 64,
        records_per_patient: 17,
        shape: Shape::Open { rate: 120.0 },
        setup_reps: 3,
        recovery_cycles: 3,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.name == name).copied()
}

/// The toy-sized variant the self-test runs: same shape, seconds not minutes.
pub fn smoke(w: Workload) -> Workload {
    Workload {
        level: SecurityLevel::Toy,
        level_name: "toy",
        patients: 8,
        records_per_patient: 3,
        setup_reps: 1,
        recovery_cycles: 1,
        shape: match w.shape {
            Shape::Open { .. } => Shape::Open { rate: 40.0 },
            shape => shape,
        },
        ..w
    }
}
