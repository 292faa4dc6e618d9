//! The load generator behind `tibpre-load` and experiment E13.
//!
//! Drives a kgc/store/proxy node set end-to-end: a setup phase extracts
//! keys, encrypts and uploads records, and installs grants; a measurement
//! phase runs N concurrent clients issuing decrypt-heavy disclosure traffic
//! with Zipf-distributed patient popularity and optional grant/revoke churn
//! riding along.  Every disclosure is *opened client-side* (a real
//! delegatee decrypt), so a reported success is a full
//! encrypt → store → re-encrypt → decrypt round trip, not just a 200-OK.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tibpre_client::{
    params_for_level, ClientConfig, ClientError, KgcClient, ProxyClient, StoreClient,
};
use tibpre_core::{Delegator, ReEncryptionKey};
use tibpre_ibe::Identity;
use tibpre_pairing::SecurityLevel;
use tibpre_phr::{Category, HealthRecord, HealthcareProvider, RecordId};

/// What to throw at the node set.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// KGC node address.
    pub kgc_addr: String,
    /// Store node address.
    pub store_addr: String,
    /// Proxy node address.
    pub proxy_addr: String,
    /// Pairing level — must match the nodes'.
    pub level: SecurityLevel,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total disclosure requests across all clients (closed loop budget).
    pub requests: u64,
    /// Distinct patients.
    pub patients: usize,
    /// Records uploaded per patient during setup.
    pub records_per_patient: usize,
    /// Zipf skew for patient popularity (0.0 = uniform; ~1.0 = realistic
    /// hot-patient skew).
    pub zipf_exponent: f64,
    /// Every N requests a client revokes and re-installs the hot grant
    /// (0 disables churn).
    pub churn_every: u64,
    /// Open-loop target rate per client in requests/second (`None` =
    /// closed loop: issue as fast as responses return).
    pub open_rate: Option<f64>,
    /// Record payload size in bytes.
    pub payload_len: usize,
    /// Deterministic seed for identities, payloads, and arrival sampling.
    pub seed: u64,
    /// Pipeline depth per client connection: each client keeps up to this
    /// many disclosures in flight on its one socket (all requests written
    /// before the first response is read), saving the round trips between
    /// them.  `1` is classic lockstep request/response.  Ignored by
    /// replica-read traffic.
    pub pipeline: usize,
    /// Read-replica store addresses.  When non-empty the measurement
    /// traffic becomes record *reads* round-robined across these replicas
    /// (every write — setup uploads and grant churn — still goes to the
    /// primary node set), so the load exercises the real replicated
    /// topology.
    pub read_replicas: Vec<String>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            kgc_addr: "127.0.0.1:7070".to_string(),
            store_addr: "127.0.0.1:7071".to_string(),
            proxy_addr: "127.0.0.1:7072".to_string(),
            level: SecurityLevel::Toy,
            clients: 4,
            requests: 400,
            patients: 16,
            records_per_patient: 4,
            zipf_exponent: 1.0,
            churn_every: 25,
            open_rate: None,
            payload_len: 256,
            seed: 0x7135_e2e1,
            pipeline: 1,
            read_replicas: Vec::new(),
        }
    }
}

/// What came back.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Disclosures that completed and decrypted client-side.
    pub ok: u64,
    /// Disclosures denied by policy (the expected race window while a
    /// churned grant is between revoke and re-install).
    pub denied: u64,
    /// Everything else: transport errors, failed decrypts.
    pub errors: u64,
    /// Pipelined responses that came back for a different record than the
    /// one their slot requested — any non-zero value is an ordering bug in
    /// the node, never expected in a healthy run.
    pub reordered: u64,
    /// Revoke + install operations performed by the churn traffic.
    pub churn_ops: u64,
    /// Wall-clock of the measurement phase.
    pub elapsed: Duration,
    /// Median end-to-end disclosure latency, microseconds.
    pub p50_us: u64,
    /// 99th percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// Completed requests per second (ok + denied; a denial is a served
    /// policy answer, not a failure).
    pub req_per_sec: f64,
}

/// Load-generator failures.
#[derive(Debug)]
pub enum LoadError {
    /// A node call failed during setup.
    Client(ClientError),
    /// Local cryptographic setup failed.
    Setup(String),
}

impl core::fmt::Display for LoadError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LoadError::Client(e) => write!(f, "node call failed: {e}"),
            LoadError::Setup(what) => write!(f, "setup failed: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<ClientError> for LoadError {
    fn from(e: ClientError) -> Self {
        LoadError::Client(e)
    }
}

/// Zipf sampler over `0..n` via precomputed *tail* sums and binary search
/// (the vendored rand has no distribution support).
///
/// The distribution is stored as the complementary CDF
/// `tail[i] = P(bucket ≥ i)` rather than the forward CDF: at high skew the
/// forward `cdf[i] = 1 − tail(i+1)` rounds to exactly `1.0` as soon as the
/// remaining mass drops below an ulp, which silently made the last buckets
/// unreachable.  Tail sums keep arbitrarily small bucket masses
/// representable, so every bucket with non-zero `f64` mass stays sampleable
/// at any exponent.
struct Zipf {
    /// `tail[i] = Σ_{j ≥ i} w_j / Σ w_j`; decreasing, `tail[0] = 1.0`.
    tail: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Self {
        let n = n.max(1);
        let weights: Vec<f64> = (0..n)
            .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
            .collect();
        // Accumulate from the smallest weight up so tiny tail masses are not
        // absorbed by the head's rounding.
        let total: f64 = weights.iter().rev().sum();
        let mut tail = vec![0.0; n];
        let mut acc = 0.0;
        for i in (0..n).rev() {
            acc += weights[i];
            tail[i] = acc / total;
        }
        // Pin the full-distribution entry so the sampler's invariant
        // (`tail[0] ≥ v` for every v in (0, 1]) holds exactly.
        tail[0] = 1.0;
        Zipf { tail }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        // 53 uniform mantissa bits → v ∈ (0, 1].
        let v = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        // Largest index whose tail mass still covers v.  `tail[0] = 1 ≥ v`
        // guarantees at least one true entry, and the count is at most `n`,
        // so the index is always in range.
        self.tail.partition_point(|&t| t >= v).saturating_sub(1)
    }
}

struct Fixture {
    patients: Vec<Identity>,
    records: Vec<Vec<RecordId>>,
    grants: Vec<ReEncryptionKey>,
    provider_id: Identity,
    category: Category,
}

/// One per-thread tally, merged after the join.
#[derive(Default)]
struct Tally {
    latencies_us: Vec<u64>,
    denied: u64,
    errors: u64,
    reordered: u64,
    churn_ops: u64,
}

/// Runs setup + measurement against a live node set.
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, LoadError> {
    let params = params_for_level(config.level);
    let client_config = ClientConfig::default();
    let category = Category::LabResults;

    // --- Setup: extract, encrypt, upload, grant. -------------------------
    let mut kgc = KgcClient::connect(config.kgc_addr.as_str(), &params, &client_config)?;
    let mut store = StoreClient::connect(config.store_addr.as_str(), &params, &client_config)?;
    let mut proxy = ProxyClient::connect(config.proxy_addr.as_str(), &params, &client_config)?;

    let domain = kgc.public_params()?;
    let provider_id = Identity::new("provider-oncology");
    let provider_key = kgc.extract(&provider_id)?;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut patients = Vec::with_capacity(config.patients);
    let mut records = Vec::with_capacity(config.patients);
    let mut grants = Vec::with_capacity(config.patients);
    for p in 0..config.patients.max(1) {
        let identity = Identity::new(format!("patient-{p:04}"));
        let delegator = Delegator::new(domain.clone(), kgc.extract(&identity)?);
        let mut ids = Vec::with_capacity(config.records_per_patient);
        for r in 0..config.records_per_patient.max(1) {
            let title = format!("lab-report-{r:03}");
            let mut payload = vec![0u8; config.payload_len];
            rng.fill_bytes(&mut payload);
            let aad = HealthRecord::associated_data(&identity, &category, &title);
            let ciphertext =
                delegator.encrypt_bytes(&payload, &aad, &category.type_tag(), &mut rng);
            ids.push(store.put(&identity, &category, &title, ciphertext)?);
        }
        let grant = delegator
            .make_reencryption_key(&provider_id, &domain, &category.type_tag(), &mut rng)
            .map_err(|e| LoadError::Setup(format!("re-encryption key: {e:?}")))?;
        proxy.install_key(grant.clone())?;
        patients.push(identity);
        records.push(ids);
        grants.push(grant);
    }
    store.sync()?;

    // Replicated topology: do not start measuring until every replica has
    // applied the whole setup upload, or early reads would count misses.
    if !config.read_replicas.is_empty() {
        let expected = store.record_count()?;
        for addr in &config.read_replicas {
            let mut replica = StoreClient::connect(addr.as_str(), &params, &client_config)?;
            let deadline = Instant::now() + Duration::from_secs(30);
            while replica.record_count()? < expected {
                if Instant::now() >= deadline {
                    return Err(LoadError::Setup(format!(
                        "replica {addr} did not catch up to {expected} records"
                    )));
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    let fixture = Arc::new(Fixture {
        patients,
        records,
        grants,
        provider_id,
        category: category.clone(),
    });

    // --- Measurement: N clients, shared request budget. ------------------
    let zipf = Arc::new(Zipf::new(fixture.patients.len(), config.zipf_exponent));
    let issued = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    let mut tallies: Vec<Tally> = Vec::new();
    std::thread::scope(|scope| -> Result<(), LoadError> {
        let mut workers = Vec::new();
        for client_index in 0..config.clients.max(1) {
            let fixture = Arc::clone(&fixture);
            let zipf = Arc::clone(&zipf);
            let issued = Arc::clone(&issued);
            let params = Arc::clone(&params);
            let provider_key = provider_key.clone();
            let client_config = client_config.clone();
            workers.push(scope.spawn(move || -> Result<Tally, LoadError> {
                let mut proxy =
                    ProxyClient::connect(config.proxy_addr.as_str(), &params, &client_config)?;
                let mut replicas: Vec<StoreClient> = config
                    .read_replicas
                    .iter()
                    .map(|addr| StoreClient::connect(addr.as_str(), &params, &client_config))
                    .collect::<Result<_, _>>()?;
                let provider = HealthcareProvider::new(provider_key);
                let mut rng = StdRng::seed_from_u64(config.seed ^ (0x9e37 + client_index as u64));
                let mut tally = Tally::default();
                let pace = config.open_rate.map(|rate| {
                    (
                        Duration::from_secs_f64(1.0 / rate.max(1e-6)),
                        Instant::now(),
                    )
                });
                let mut next_at = pace.map(|(_, now)| now);

                // Pipelined disclosure traffic claims a whole chunk of the
                // shared budget per round trip; lockstep mode and replica
                // reads claim one request at a time.
                let depth = if replicas.is_empty() {
                    config.pipeline.max(1) as u64
                } else {
                    1
                };
                loop {
                    let start = issued.fetch_add(depth, Ordering::Relaxed);
                    if start >= config.requests {
                        break;
                    }
                    let n = depth.min(config.requests - start);
                    if let (Some((interval, _)), Some(at)) = (pace, next_at.as_mut()) {
                        // Open loop: fixed arrival schedule regardless of
                        // response latency (a pipelined chunk covers `n`
                        // scheduled arrivals).
                        let now = Instant::now();
                        if *at > now {
                            std::thread::sleep(*at - now);
                        }
                        *at += interval * n as u32;
                    }

                    let picks: Vec<(usize, RecordId)> = (0..n)
                        .map(|_| {
                            let p = zipf.sample(&mut rng);
                            let ids = &fixture.records[p];
                            (p, ids[(rng.next_u64() as usize) % ids.len()])
                        })
                        .collect();

                    let begin = Instant::now();
                    if !replicas.is_empty() {
                        // Reads round-robin across the replica set; every
                        // write below still targets the primary.
                        let (_, id) = picks[0];
                        let which = (start as usize) % replicas.len();
                        match replicas[which].get(id) {
                            Ok(_) => tally.latencies_us.push(begin.elapsed().as_micros() as u64),
                            Err(ClientError::Remote(_)) => tally.denied += 1,
                            Err(_) => tally.errors += 1,
                        }
                    } else if n == 1 {
                        let (p, id) = picks[0];
                        match proxy.disclose(&fixture.patients[p], id, &fixture.provider_id) {
                            Ok(bundle) => match provider.open(&bundle) {
                                Ok(_) => {
                                    tally.latencies_us.push(begin.elapsed().as_micros() as u64)
                                }
                                Err(_) => tally.errors += 1,
                            },
                            Err(ClientError::Remote(_)) => tally.denied += 1,
                            Err(_) => tally.errors += 1,
                        }
                    } else {
                        let items: Vec<_> = picks
                            .iter()
                            .map(|&(p, id)| {
                                (fixture.patients[p].clone(), id, fixture.provider_id.clone())
                            })
                            .collect();
                        match proxy.disclose_pipelined(&items) {
                            Ok(outcomes) => {
                                // Responses land in request order or the run
                                // is broken: a bundle for the wrong record
                                // counts as reordered, not ok.
                                let elapsed_us = begin.elapsed().as_micros() as u64;
                                for (&(_, want), outcome) in picks.iter().zip(outcomes) {
                                    match outcome {
                                        Ok(bundle) if bundle.id != want => tally.reordered += 1,
                                        Ok(bundle) => match provider.open(&bundle) {
                                            Ok(_) => tally.latencies_us.push(elapsed_us),
                                            Err(_) => tally.errors += 1,
                                        },
                                        Err(_) => tally.denied += 1,
                                    }
                                }
                            }
                            Err(_) => tally.errors += n,
                        }
                    }

                    if config.churn_every > 0 {
                        // Grant/revoke churn riding along in the traffic:
                        // drop the hot patient's grant and restore it, once
                        // per cadence crossing inside the claimed chunk.
                        let crossings = (start..start + n)
                            .filter(|i| i % config.churn_every == config.churn_every - 1)
                            .count();
                        for _ in 0..crossings {
                            let hot = &fixture.patients[0];
                            proxy.revoke_key(hot, &fixture.category, &fixture.provider_id)?;
                            proxy.install_key(fixture.grants[0].clone())?;
                            tally.churn_ops += 2;
                        }
                    }
                }
                Ok(tally)
            }));
        }
        for worker in workers {
            match worker.join() {
                Ok(Ok(tally)) => tallies.push(tally),
                Ok(Err(e)) => return Err(e),
                Err(_) => return Err(LoadError::Setup("a load client panicked".to_string())),
            }
        }
        Ok(())
    })?;
    let elapsed = started.elapsed();

    // --- Merge. ----------------------------------------------------------
    let mut latencies: Vec<u64> = tallies
        .iter()
        .flat_map(|t| t.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let percentile = |q: f64| -> u64 {
        if latencies.is_empty() {
            return 0;
        }
        let index = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[index]
    };
    let ok = latencies.len() as u64;
    let denied: u64 = tallies.iter().map(|t| t.denied).sum();
    Ok(LoadReport {
        ok,
        denied,
        errors: tallies.iter().map(|t| t.errors).sum(),
        reordered: tallies.iter().map(|t| t.reordered).sum(),
        churn_ops: tallies.iter().map(|t| t.churn_ops).sum(),
        elapsed,
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
        max_us: latencies.last().copied().unwrap_or(0),
        req_per_sec: (ok + denied) as f64 / elapsed.as_secs_f64().max(1e-9),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_tail_is_a_valid_distribution() {
        for &(n, s) in &[
            (1usize, 1.0f64),
            (16, 0.0),
            (16, 1.0),
            (16, 2.0),
            (64, 3.0),
            (8, 20.0),
        ] {
            let z = Zipf::new(n, s);
            assert_eq!(z.tail.len(), n, "n={n}, s={s}");
            assert_eq!(z.tail[0], 1.0, "n={n}, s={s}");
            for w in z.tail.windows(2) {
                assert!(w[0] >= w[1] && w[1] > 0.0, "n={n}, s={s}: {w:?}");
            }
            // The per-bucket masses tile [0, 1] exactly (up to rounding).
            let mass: f64 = (0..n)
                .map(|i| z.tail[i] - z.tail.get(i + 1).copied().unwrap_or(0.0))
                .sum();
            assert!((mass - 1.0).abs() < 1e-12, "n={n}, s={s}: mass {mass}");
        }
    }

    #[test]
    fn zipf_last_bucket_stays_reachable_at_high_skew() {
        // Regression: the forward-CDF construction rounded `cdf[i]` to 1.0
        // once the remaining mass fell below an ulp, so at high skew the
        // last buckets could never be drawn.  The tail representation keeps
        // their mass positive; prove reachability by evaluating the
        // sampler's own search at the exact boundary value instead of
        // waiting for an astronomically unlikely draw.
        for &(n, s) in &[(16usize, 2.0f64), (16, 4.0), (8, 20.0), (64, 6.0)] {
            let z = Zipf::new(n, s);
            assert!(z.tail[n - 1] > 0.0, "n={n}, s={s}: last mass underflowed");
            let idx = z.tail.partition_point(|&t| t >= z.tail[n - 1]) - 1;
            assert_eq!(idx, n - 1, "n={n}, s={s}: last bucket unreachable");
        }
    }

    #[test]
    fn zipf_samples_stay_in_range_and_match_the_analytic_masses() {
        // No out-of-range index, whatever the rng produces.
        let z = Zipf::new(5, 3.0);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20_000 {
            assert!(z.sample(&mut rng) < 5);
        }

        // Empirical frequencies track 1/k^s at moderate skew.
        let (n, s) = (8usize, 1.0f64);
        let z = Zipf::new(n, s);
        let mut rng = StdRng::seed_from_u64(7);
        let draws = 200_000u64;
        let mut hist = vec![0u64; n];
        for _ in 0..draws {
            hist[z.sample(&mut rng)] += 1;
        }
        let total: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        for (k, &count) in hist.iter().enumerate() {
            let expect = ((k + 1) as f64).powf(-s) / total;
            let got = count as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "bucket {k}: got {got:.4}, expected {expect:.4}"
            );
        }
        // Every bucket of a small uniform distribution gets hit.
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..10_000 {
            seen[z.sample(&mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
