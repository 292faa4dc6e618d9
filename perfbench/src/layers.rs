//! The traced run's per-layer numbers: spans around the benchmark's own
//! calls into each layer's public functions, on the workload's own inputs,
//! level and fsync policy, and the composition ledger of the disclose path.

use crate::conn::RawConn;
use crate::gen::{recent_biased, stream, OpKind};
use crate::setup::{Population, GRANTED};
use crate::spec::{Workload, THREADS};
use crate::stats::{median, Metrics};
use crate::trace::Tracer;
use crate::window::Plan;
use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use tibpre_bigint::MontCtx;
use tibpre_client::{ClientConfig, ProxyClient, Request, Response};
use tibpre_core::{hybrid, HybridCiphertext};
use tibpre_engine::ReEncryptEngine;
use tibpre_ibe::{Identity, Kgc};
use tibpre_pairing::{DecodeCtx, Fp};
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{
    Durability, EncryptedPhrStore, FsyncPolicy, HealthRecord, ProxyService, RecordId,
};
use tibpre_storage::SegmentedWal;
use tibpre_wire::{WireDecode, WireEncode};

/// Repetitions of each timed call; the metric is the median.
const REPS: usize = 15;
/// Calls per span for the nanosecond-scale arithmetic layers.
const INNER: usize = 2000;
/// Loopback round trips on one disclosure: client→proxy, proxy→store get,
/// proxy→store disclosure log.
const ROUND_TRIPS: f64 = 3.0;

/// Records (patient, record slot) the workload's first disclosures target,
/// restricted to ones the proxy serves now (a refusal does no cryptography).
fn replay_targets(
    w: &Workload,
    pop: &Population,
    plan: &Plan,
    revoked: &HashSet<usize>,
) -> Vec<(usize, usize)> {
    let granted = |&(p, r): &(usize, usize)| {
        pop.patients[p].records[r].category == GRANTED && !revoked.contains(&p)
    };
    let targets: Vec<(usize, usize)> = if !plan.picks.is_empty() {
        let owned = pop.owned(0);
        plan.picks[0]
            .iter()
            .map(|pick| (owned[pick.patient], pick.record))
            .filter(granted)
            .take(REPS)
            .collect()
    } else {
        let mut all: Vec<(usize, usize)> = (0..pop.patients.len())
            .flat_map(|p| (0..w.records_per_patient).map(move |r| (p, r)))
            .collect();
        all.sort_by_key(|&(p, r)| pop.patients[p].records[r].id);
        plan.proxy_ops
            .iter()
            .filter(|op| op.kind == OpKind::Disclose)
            .map(|op| all[recent_biased(op.u, op.v, all.len(), 64)])
            .filter(granted)
            .take(REPS)
            .collect()
    };
    targets
}

fn per_call(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut()) {
    for i in 0..REPS {
        tracer.span(i as u64, name, None, |_, _| f());
    }
}

/// Fills `m` with every layer metric and the ledger; spans go into
/// `tracer`.  `revoked` names the patients whose grant the window left
/// revoked.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    w: &Workload,
    pop: &Population,
    plan: &Plan,
    revoked: &HashSet<usize>,
    proxy_addr: &str,
    dir: &Path,
    seed: u64,
    tracer: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    let params = Arc::clone(&pop.params);
    let mut rng = stream(seed, 0x1a7e_0000);
    // The policy the workload's durable nodes run with.
    let policy = FsyncPolicy::parse(crate::spec::NODE_FSYNC).expect("a valid fsync policy");
    let err = |e: &dyn std::fmt::Debug| format!("layers: {e:?}");

    // --- Real nodes, idle: frame round trip and one lockstep disclose. ---
    let mut raw = RawConn::connect(proxy_addr).map_err(|e| err(&e))?;
    for i in 0..REPS * 8 {
        tracer
            .span(i as u64, "wire.frame_rtt", None, |_, _| {
                raw.call(&Request::Ping).map(drop)
            })
            .map_err(|e| err(&e))?;
    }
    let targets = replay_targets(w, pop, plan, revoked);
    if targets.is_empty() {
        return Err("layers: no granted record among the workload's first disclosures".into());
    }
    let mut client =
        ProxyClient::connect(proxy_addr, &params, &ClientConfig::default()).map_err(|e| err(&e))?;
    for (i, &(p, r)) in targets.iter().cycle().take(REPS * 2).enumerate() {
        let truth = &pop.patients[p].records[r];
        let body = tracer.span(i as u64, "client.idle_disclose", None, |_, _| {
            let bundle = client.disclose(&truth.patient, truth.id, &pop.provider_id)?;
            Ok::<_, tibpre_client::ClientError>(pop.provider.open(&bundle).map(|d| d.body))
        });
        match body {
            Ok(Ok(body)) if body == truth.body => {}
            other => return Err(format!("layers: idle disclose answered {other:?}")),
        }
    }

    // --- bigint and field arithmetic. ---
    let mont = MontCtx::new(params.p()).map_err(|e| err(&e))?;
    let a = mont.to_mont(&tibpre_bigint::random::random_below(&mut rng, params.p()));
    let b = mont.to_mont(&tibpre_bigint::random::random_below(&mut rng, params.p()));
    per_call(tracer, "bigint.mont_mul_x2000", || {
        let mut x = a;
        for _ in 0..INNER {
            x = mont.mont_mul(black_box(&x), black_box(&b));
        }
        black_box(x);
    });
    let fa = Fp::random(params.fp_ctx(), &mut rng);
    let fb = Fp::random(params.fp_ctx(), &mut rng);
    per_call(tracer, "pairing.fp_mul_x2000", || {
        let mut x = fa.clone();
        for _ in 0..INNER {
            x = black_box(&x).mul(black_box(&fb));
        }
        black_box(x);
    });

    // --- Pairings. ---
    let g: Vec<_> = (0..16).map(|_| params.random_g1(&mut rng)).collect();
    per_call(tracer, "pairing.pairing", || {
        black_box(params.pairing(&g[0], &g[1]));
    });
    let prepared: Vec<_> = g.iter().map(|p| params.prepare(p)).collect();
    let h: Vec<_> = (0..16).map(|_| params.random_g1(&mut rng)).collect();
    let pairs: Vec<_> = prepared.iter().zip(&h).collect();
    per_call(tracer, "pairing.multi_pairing_x16", || {
        black_box(params.multi_pairing(&pairs));
    });

    // --- Scheme: extract, encrypt, rekey. ---
    let kgc = Kgc::setup(Arc::clone(&params), "perfbench-layers", &mut rng);
    let mut n = 0;
    per_call(tracer, "ibe.extract", || {
        n += 1;
        black_box(kgc.extract(&Identity::new(format!("layer-{n}"))));
    });
    let owner = &pop.patients[targets[0].0];
    let mut fresh: Vec<(String, HybridCiphertext)> = Vec::new();
    let body = vec![0x5au8; crate::spec::PAYLOAD_LEN];
    for i in 0..REPS {
        let title = format!("layer-fresh-{i}");
        let aad = HealthRecord::associated_data(&owner.identity, &GRANTED, &title);
        let ct = tracer.span(i as u64, "core.encrypt", None, |_, _| {
            owner
                .delegator
                .encrypt_bytes(&body, &aad, &GRANTED.type_tag(), &mut rng)
        });
        fresh.push((title, ct));
    }
    per_call(tracer, "core.rekey", || {
        black_box(
            owner
                .delegator
                .make_reencryption_key(&pop.provider_id, &pop.domain, &GRANTED.type_tag(), &mut rng)
                .expect("rekey between domains sharing parameters"),
        );
    });

    // --- G1 decode: a fresh encoding (memo miss) vs a repeated one (hit). ---
    for (i, (_, ct)) in fresh.iter().enumerate() {
        let bytes = ct.to_bytes();
        tracer
            .span(i as u64, "pairing.g1_decode_miss", None, |_, _| {
                HybridCiphertext::from_bytes(&params, &bytes).map(drop)
            })
            .map_err(|e| err(&e))?;
    }
    let repeated = fresh[0].1.to_bytes();
    per_call(tracer, "pairing.g1_decode_hit", || {
        black_box(HybridCiphertext::from_bytes(&params, &repeated).expect("decodes"));
    });

    // --- Re-encryption: single, batched, and through the engine. ---
    let grant = &owner.grant;
    let cts: Vec<&HybridCiphertext> = fresh.iter().map(|(_, ct)| ct).cycle().take(16).collect();
    per_call(tracer, "core.reencrypt", || {
        black_box(hybrid::re_encrypt_hybrid(cts[0], grant).expect("granted type"));
    });
    per_call(tracer, "core.reencrypt_batch16", || {
        black_box(
            hybrid::re_encrypt_hybrid_batch(cts.iter().copied(), grant).expect("granted type"),
        );
    });
    for (name, workers) in [("engine.batch16.w1", 1), ("engine.batch16.wN", THREADS)] {
        let engine = ReEncryptEngine::new(workers);
        per_call(tracer, name, || {
            black_box(
                engine
                    .re_encrypt_hybrid_batch(cts.iter().copied(), grant)
                    .expect("granted"),
            );
        });
    }
    let reencrypted = hybrid::re_encrypt_hybrid(cts[0], grant).map_err(|e| err(&e))?;
    let aad = HealthRecord::associated_data(&owner.identity, &GRANTED, &fresh[0].0);
    per_call(tracer, "core.decrypt", || {
        black_box(
            pop.provider
                .delegatee()
                .decrypt_bytes(&reencrypted, &aad)
                .expect("opens"),
        );
    });

    // --- Storage: WAL commit at the product default fsync=always, CRC-32. ---
    let wal_dir = dir.join("layer-wal");
    std::fs::create_dir_all(&wal_dir).map_err(|e| err(&e))?;
    let mut wal =
        SegmentedWal::open(&wal_dir, "perfbench", 0, FsyncPolicy::Always).map_err(|e| err(&e))?;
    let wal_record = [0xa5u8; 96];
    for i in 0..REPS * 4 {
        tracer
            .span(i as u64, "storage.wal_commit", None, |_, _| {
                wal.append(&wal_record);
                wal.commit().map(drop)
            })
            .map_err(|e| err(&e))?;
    }
    let kib64 = vec![0x3cu8; 64 * 1024];
    per_call(tracer, "storage.crc32_64kib", || {
        black_box(tibpre_storage::crc::crc32(black_box(&kib64)));
    });

    // --- PHR store: put at the workload's durability, get hit and miss. ---
    let store = if w.durable {
        EncryptedPhrStore::open(
            dir.join("layer-store"),
            Durability::new(Arc::clone(&params)).fsync(policy),
        )
        .map_err(|e| err(&e))?
    } else {
        EncryptedPhrStore::in_memory_with_params("perfbench-layers", Arc::clone(&params))
    };
    let store = Arc::new(store);
    // The workload's own population, under the same slots.
    let mut local: Vec<Vec<RecordId>> = Vec::new();
    for state in &pop.patients {
        local.push(
            state
                .records
                .iter()
                .zip(&state.ciphertexts)
                .map(|(t, ct)| store.put(&t.patient, &t.category, &t.title, ct.clone()))
                .collect(),
        );
    }
    for (i, (title, ct)) in fresh.iter().enumerate() {
        let (identity, ct) = (&owner.identity, ct.clone());
        tracer.span(i as u64, "phr.store_put", None, |_, _| {
            black_box(store.put(identity, &GRANTED, &format!("put-{title}"), ct));
        });
    }
    let hot = local[targets[0].0][targets[0].1];
    store.get(hot).map_err(|e| err(&e))?;
    per_call(tracer, "phr.store_get_hit", || {
        black_box(store.get(hot).expect("present"));
    });
    // A sequential scan over more records than the 16 x 64 decoded-record
    // LRU holds misses on every read.
    let cold = EncryptedPhrStore::in_memory_with_params("perfbench-cold", Arc::clone(&params));
    let sources: Vec<&HybridCiphertext> =
        pop.patients.iter().flat_map(|s| &s.ciphertexts).collect();
    let cold_ids: Vec<RecordId> = (0..2048)
        .map(|i| {
            cold.put(
                &owner.identity,
                &GRANTED,
                &format!("cold-{i}"),
                sources[i % sources.len()].clone(),
            )
        })
        .collect();
    for (i, id) in cold_ids.iter().take(REPS).enumerate() {
        tracer.span(i as u64, "phr.store_get_miss", None, |_, _| {
            black_box(cold.get(*id).expect("present"));
        });
    }

    // --- The proxy service over an in-process store: the server path
    // without the network. ---
    let mut service = if w.durable {
        ProxyService::open(
            "perfbench-layers",
            store.clone(),
            dir.join("layer-proxy"),
            &Durability::new(Arc::clone(&params)).fsync(policy),
        )
        .map_err(|e| err(&e))?
    } else {
        ProxyService::new("perfbench-layers", store.clone())
    };
    for &(p, _) in &targets {
        if !service.has_grant(&pop.patients[p].identity, &GRANTED, &pop.provider_id) {
            service.install_key(pop.patients[p].grant.clone());
        }
    }
    for (i, &(p, r)) in targets.iter().enumerate() {
        let id = local[p][r];
        tracer
            .span(i as u64, "phr.disclose_inproc", None, |_, _| {
                service
                    .disclose(&pop.patients[p].identity, id, &pop.provider_id)
                    .map(drop)
            })
            .map_err(|e| err(&e))?;
    }

    // --- Replay of the disclose path, span by span, for the ledger. ---
    let ctx = DecodeCtx::from(&params);
    let mut audit = SegmentedWal::open(&wal_dir, "ledger", 0, policy).map_err(|e| err(&e))?;
    let mut replay_sums = Vec::new();
    for (i, &(p, r)) in targets.iter().enumerate() {
        let request = 1_000_000 + i as u64;
        let state = &pop.patients[p];
        let id = local[p][r];
        let ok = tracer.span(request, "replay.disclose", None, |t, root| {
            let stored = t.span(request, "phr.store_get", Some(root), |_, _| store.get(id));
            let stored = stored.ok()?;
            // The store encodes the record, the proxy decodes it (G1 checks).
            let fetched = t.span(request, "wire.record_codec", Some(root), |_, _| {
                let bytes =
                    Response::Record(Box::new(StoredRecord::clone(&stored))).to_wire_bytes();
                match Response::from_wire_bytes(&bytes, &ctx) {
                    Ok(Response::Record(record)) => Some(record),
                    _ => None,
                }
            })?;
            let ct = t.span(request, "core.reencrypt", Some(root), |_, _| {
                hybrid::re_encrypt_hybrid(&fetched.ciphertext, &state.grant)
            });
            let ct = ct.ok()?;
            if w.durable {
                // Proxy audit record, then the store's disclosure log.
                for _ in 0..2 {
                    t.span(request, "ledger.wal_commit", Some(root), |_, _| {
                        audit.append(&wal_record);
                        audit.commit().ok()
                    })?;
                }
            }
            let bundle = t.span(request, "wire.bundle_codec", Some(root), |_, _| {
                let bundle = tibpre_phr::proxy_service::DisclosureBundle {
                    id,
                    patient: fetched.patient.clone(),
                    category: fetched.category.clone(),
                    title: fetched.title.clone(),
                    ciphertext: ct,
                };
                let bytes = Response::Bundle(Box::new(bundle)).to_wire_bytes();
                match Response::from_wire_bytes(&bytes, &ctx) {
                    Ok(Response::Bundle(bundle)) => Some(bundle),
                    _ => None,
                }
            })?;
            let opened = t.span(request, "core.decrypt", Some(root), |_, _| {
                pop.provider.open(&bundle)
            });
            (opened.ok()?.body == state.records[r].body).then_some(())
        });
        if ok.is_none() {
            return Err(format!(
                "layers: replayed disclose of record {} failed",
                id.0
            ));
        }
        let root = tracer
            .spans
            .iter()
            .rposition(|s| s.name == "replay.disclose")
            .expect("just recorded");
        replay_sums.push(tracer.spans[root].dur_ns() as f64 / 1e3);
    }

    // --- Per-layer metrics from the spans. ---
    let us = |name: &str| tracer.median_self_us(name);
    m.set(
        "bigint.mont_mul_ns",
        us("bigint.mont_mul_x2000") * 1e3 / INNER as f64,
        "ns",
    );
    m.set(
        "pairing.fp_mul_ns",
        us("pairing.fp_mul_x2000") * 1e3 / INNER as f64,
        "ns",
    );
    m.set("pairing.pairing_us", us("pairing.pairing"), "us");
    m.set(
        "pairing.multi_pairing_us_per_pair",
        us("pairing.multi_pairing_x16") / 16.0,
        "us",
    );
    m.set(
        "pairing.g1_decode_miss_us",
        us("pairing.g1_decode_miss"),
        "us",
    );
    m.set(
        "pairing.g1_decode_hit_us",
        us("pairing.g1_decode_hit"),
        "us",
    );
    m.set("ibe.extract_us", us("ibe.extract"), "us");
    m.set("core.encrypt_us", us("core.encrypt"), "us");
    m.set("core.rekey_us", us("core.rekey"), "us");
    m.set("core.reencrypt_us", us("core.reencrypt"), "us");
    m.set(
        "core.reencrypt_batch16_us_per_item",
        us("core.reencrypt_batch16") / 16.0,
        "us",
    );
    m.set("core.decrypt_us", us("core.decrypt"), "us");
    let (w1, wn) = (us("engine.batch16.w1"), us("engine.batch16.wN"));
    m.set("engine.batch16_us.w1", w1, "us");
    m.set("engine.batch16_us.wN", wn, "us");
    m.set("engine.scaling", w1 / wn.max(1e-9), "ratio");
    m.set("storage.wal_commit_us", us("storage.wal_commit"), "us");
    m.set(
        "storage.crc32_ns_per_kib",
        us("storage.crc32_64kib") * 1e3 / 64.0,
        "ns",
    );
    m.set("phr.store_put_us", us("phr.store_put"), "us");
    m.set("phr.store_get_hit_us", us("phr.store_get_hit"), "us");
    m.set("phr.store_get_miss_us", us("phr.store_get_miss"), "us");
    m.set("phr.disclose_inproc_us", us("phr.disclose_inproc"), "us");
    let rtt = us("wire.frame_rtt");
    let idle = us("client.idle_disclose");
    m.set("wire.frame_rtt_us", rtt, "us");
    m.set("client.idle_disclose_us", idle, "us");

    // Ledger: the replayed layers plus three loopback round trips, against
    // the measured idle disclose; the residual is what no layer accounts for.
    let composed = median(&replay_sums) + ROUND_TRIPS * rtt;
    m.set("ledger.composed_us", composed, "us");
    m.set(
        "ledger.residual_share",
        (idle - composed) / idle.max(1e-9),
        "ratio",
    );
    Ok(())
}
