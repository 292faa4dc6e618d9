//! Experiment E16 — what client pipelining and the crypto caches buy.
//!
//! Boots one kgc + store + proxy and runs a 2×2 ablation against that one
//! proxy: the bit-identical crypto caches (the `G1` validation memo and the
//! delegatee mask cache) off / on, times a client pipeline depth of 1
//! (lockstep request/response) / `TIBPRE_E16_PIPELINE`.  The arm with
//! caches off and lockstep clients pays the full per-request cost (one
//! round trip and a fresh validation per disclosure) and is the baseline
//! every other arm is measured against.
//!
//! Before any timing the harness asserts that pipelined responses with the
//! caches on are **byte-identical** to lockstep responses with the caches
//! off (TIB-PRE disclosure is deterministic), which proves neither
//! mechanism changes any output.  Then it measures closed-loop
//! requests/second for every arm under the same multi-client load, and
//! finally checks idle latency: one client, caches on, alternating
//! lockstep `call`s with 1-deep `call_pipelined`s, so a pipelining client
//! never pays for the mode it does not use.
//!
//! Scale knobs: `TIBPRE_E16_CLIENTS`, `TIBPRE_E16_REQUESTS`,
//! `TIBPRE_E16_PIPELINE`, `TIBPRE_E16_IDLE_REQUESTS`.  Gate knobs (for
//! noisy CI runners): `TIBPRE_E16_MIN_SPEEDUP`, `TIBPRE_E16_IDLE_SLACK`.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;
use tibpre_client::{
    params_for_level, ClientConfig, Connection, KgcClient, NodeRole, ProxyClient, Request,
    Response, StoreClient,
};
use tibpre_core::Delegator;
use tibpre_ibe::Identity;
use tibpre_pairing::SecurityLevel;
use tibpre_phr::{Category, HealthRecord};
use tibpre_server::load::{run_load, LoadConfig, LoadReport};
use tibpre_server::{node, NodeConfig, NodeHandle};
use tibpre_wire::WireEncode;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// Uploads 8 records for one patient, installs one grant, and returns the
/// disclosure requests for them.
fn check_requests(kgc: &NodeHandle, store: &NodeHandle, proxy: &NodeHandle) -> Vec<Request> {
    let params = params_for_level(SecurityLevel::Toy);
    let config = ClientConfig::default();
    let mut kgc_client = KgcClient::connect(kgc.addr(), &params, &config).unwrap();
    let mut store_client = StoreClient::connect(store.addr(), &params, &config).unwrap();
    let domain = kgc_client.public_params().unwrap();

    let patient = Identity::new("identity-check-patient");
    let provider = Identity::new("identity-check-provider");
    let category = Category::LabResults;
    let delegator = Delegator::new(domain.clone(), kgc_client.extract(&patient).unwrap());
    let mut rng = StdRng::seed_from_u64(0x000E_161D);
    let mut requests = Vec::new();
    for r in 0..8 {
        let title = format!("check-{r}");
        let mut body = vec![0u8; 64];
        rng.fill_bytes(&mut body);
        let aad = HealthRecord::associated_data(&patient, &category, &title);
        let ct = delegator.encrypt_bytes(&body, &aad, &category.type_tag(), &mut rng);
        let id = store_client.put(&patient, &category, &title, ct).unwrap();
        requests.push(Request::Disclose {
            patient: patient.clone(),
            id,
            requester: provider.clone(),
        });
    }
    let key = delegator
        .make_reencryption_key(&provider, &domain, &category.type_tag(), &mut rng)
        .unwrap();
    let mut proxy_client = ProxyClient::connect(proxy.addr(), &params, &config).unwrap();
    proxy_client.install_key(key).unwrap();
    requests
}

/// Proves pipelining and the caches are optimizations, not behaviour
/// changes: the same disclosures, pipelined with caches on, must produce
/// response frames byte-identical to lockstep calls with caches off.
fn assert_bit_identical(proxy: &NodeHandle, requests: &[Request]) {
    let params = params_for_level(SecurityLevel::Toy);
    let mut conn = Connection::connect(proxy.addr(), &params, &ClientConfig::default()).unwrap();
    tibpre_pairing::set_crypto_caches_enabled(false);
    let oracle: Vec<Vec<u8>> = requests
        .iter()
        .map(|request| conn.call(request).unwrap().to_wire_bytes())
        .collect();
    tibpre_pairing::set_crypto_caches_enabled(true);
    let piped = conn.call_pipelined(requests).unwrap();
    assert_eq!(piped.len(), oracle.len());
    for (i, (response, want)) in piped.iter().zip(&oracle).enumerate() {
        assert_eq!(
            &response.to_wire_bytes(),
            want,
            "pipelined+cached response {i} is not bit-identical to the uncached \
             lockstep path"
        );
    }
    eprintln!("e16: pipelined+cached responses bit-identical to the uncached lockstep path");
}

fn drive(
    label: &str,
    kgc: &NodeHandle,
    store: &NodeHandle,
    proxy: &NodeHandle,
    clients: usize,
    requests: u64,
    pipeline: usize,
) -> LoadReport {
    let config = LoadConfig {
        kgc_addr: kgc.addr().to_string(),
        store_addr: store.addr().to_string(),
        proxy_addr: proxy.addr().to_string(),
        clients,
        requests,
        pipeline,
        // Churn off: every arm must serve identical traffic.
        churn_every: 0,
        ..LoadConfig::default()
    };
    let report = run_load(&config).expect("load run");
    eprintln!(
        "e16[{label}]: {} ok / {} denied / {} errors / {} reordered in {:.2}s — \
         p50 {}us p99 {}us, {:.0} req/s",
        report.ok,
        report.denied,
        report.errors,
        report.reordered,
        report.elapsed.as_secs_f64(),
        report.p50_us,
        report.p99_us,
        report.req_per_sec,
    );
    assert_eq!(report.errors, 0, "e16[{label}]: errors under load");
    assert_eq!(report.reordered, 0, "e16[{label}]: reordered responses");
    assert_eq!(
        report.ok + report.denied,
        requests,
        "e16[{label}]: every request must be answered"
    );
    report
}

/// One idle client, caches on: `rounds` disclosures as lockstep `call`s
/// and `rounds` as 1-deep `call_pipelined`s, alternating on one connection
/// so host drift hits both modes alike.  Returns the two p50s in µs.
fn idle_p50s(proxy: &NodeHandle, requests: &[Request], rounds: usize) -> (u64, u64) {
    let params = params_for_level(SecurityLevel::Toy);
    let mut conn = Connection::connect(proxy.addr(), &params, &ClientConfig::default()).unwrap();
    let mut lockstep = Vec::with_capacity(rounds);
    let mut pipelined = Vec::with_capacity(rounds);
    for i in 0..2 * rounds {
        let request = &requests[i % requests.len()];
        let begin = Instant::now();
        let response = if i % 2 == 0 {
            conn.call(request).unwrap()
        } else {
            conn.call_pipelined(std::slice::from_ref(request))
                .unwrap()
                .remove(0)
        };
        let us = begin.elapsed().as_micros() as u64;
        assert!(
            matches!(response, Response::Bundle(_)),
            "idle disclosure failed"
        );
        if i % 2 == 0 {
            lockstep.push(us);
        } else {
            pipelined.push(us);
        }
    }
    let p50 = |mut samples: Vec<u64>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    (p50(lockstep), p50(pipelined))
}

fn main() {
    let clients = env_usize("TIBPRE_E16_CLIENTS", 8);
    let requests = env_usize("TIBPRE_E16_REQUESTS", 1600) as u64;
    let pipeline = env_usize("TIBPRE_E16_PIPELINE", 8);
    let idle_requests = env_usize("TIBPRE_E16_IDLE_REQUESTS", 300).max(1);
    // The acceptance gates.  CI smoke runs relax them (shared multi-core
    // runners are noisy); the committed BENCH_e16.json carries the
    // acceptance-grade defaults.
    let min_speedup = env_f64("TIBPRE_E16_MIN_SPEEDUP", 1.3);
    let idle_slack = env_f64("TIBPRE_E16_IDLE_SLACK", 1.10);

    let kgc = node::start(NodeConfig::new(NodeRole::Kgc)).expect("kgc node");
    let store = node::start(NodeConfig::new(NodeRole::Store)).expect("store node");
    let mut proxy_config = NodeConfig::new(NodeRole::Proxy);
    proxy_config.store_addr = Some(store.addr().to_string());
    let proxy = node::start(proxy_config).expect("proxy node");
    eprintln!(
        "e16: kgc {} / store {} / proxy {}",
        kgc.addr(),
        store.addr(),
        proxy.addr()
    );

    // Correctness before any timing.
    let check = check_requests(&kgc, &store, &proxy);
    assert_bit_identical(&proxy, &check);

    // Throughput: the same multi-client load on every arm.
    eprintln!("e16: {clients} clients x {requests} requests, pipeline 1 and {pipeline}");
    let mut arms = Vec::new();
    for caches in [false, true] {
        tibpre_pairing::set_crypto_caches_enabled(caches);
        for depth in [1, pipeline] {
            let label = format!(
                "caches-{}-pipeline-{depth}",
                if caches { "on" } else { "off" }
            );
            let report = drive(&label, &kgc, &store, &proxy, clients, requests, depth);
            arms.push((caches, depth, report));
        }
    }
    tibpre_pairing::set_crypto_caches_enabled(true);
    let base = arms[0].2.req_per_sec.max(1e-9);
    let fast = &arms[3].2;
    let speedup = fast.req_per_sec / base;

    // Idle latency, caches on.
    let (idle_lockstep, idle_pipelined) = idle_p50s(&proxy, &check, idle_requests);
    eprintln!(
        "e16: speedup {speedup:.2}x ({:.0} → {:.0} req/s); idle p50 lockstep {idle_lockstep}us, \
         pipelined {idle_pipelined}us",
        arms[0].2.req_per_sec, fast.req_per_sec,
    );

    for handle in [proxy, store, kgc] {
        handle.shutdown();
        handle.wait();
    }

    let arm_rows: Vec<String> = arms
        .iter()
        .map(|(caches, depth, report)| {
            format!(
                "    {{\"caches\": {caches}, \"pipeline\": {depth}, \"req_per_sec\": {:.1}, \
                 \"speedup\": {:.3}, \"p50_us\": {}, \"p99_us\": {}}}",
                report.req_per_sec,
                report.req_per_sec / base,
                report.p50_us,
                report.p99_us,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e16_coalesce\",\n",
            "  \"level\": \"toy\",\n",
            "  \"nproc\": {},\n",
            "  \"clients\": {},\n",
            "  \"requests\": {},\n",
            "  \"pipeline\": {},\n",
            "  \"bit_identical\": true,\n",
            "  \"baseline_arm\": \"caches off, pipeline 1\",\n",
            "  \"arms\": [\n{}\n  ],\n",
            "  \"speedup\": {:.3},\n",
            "  \"idle_lockstep_p50_us\": {},\n",
            "  \"idle_pipelined_p50_us\": {},\n",
            "  \"errors\": {},\n",
            "  \"reordered\": {}\n",
            "}}\n"
        ),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        clients,
        requests,
        pipeline,
        arm_rows.join(",\n"),
        speedup,
        idle_lockstep,
        idle_pipelined,
        arms.iter().map(|(_, _, r)| r.errors).sum::<u64>(),
        arms.iter().map(|(_, _, r)| r.reordered).sum::<u64>(),
    );
    print!("{json}");

    let out = std::env::var("TIBPRE_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_e16.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).unwrap();
    eprintln!("e16: wrote {out}");

    // Acceptance gates.
    assert!(
        speedup >= min_speedup,
        "pipelined+cached throughput {:.1} req/s is only {speedup:.2}x the uncached \
         lockstep baseline's {:.1} req/s (gate: {min_speedup}x)",
        fast.req_per_sec,
        arms[0].2.req_per_sec
    );
    assert!(
        idle_pipelined as f64 <= idle_lockstep as f64 * idle_slack,
        "single-client p50 {idle_pipelined}us through 1-deep call_pipelined exceeds \
         lockstep call's {idle_lockstep}us by more than the {idle_slack}x allowance"
    );
}
