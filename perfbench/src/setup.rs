//! Set-up: KGC extracts, population encryption and upload, grant installs.

use crate::gen::stream;
use crate::nodes::NodeSet;
use crate::spec::{Workload, PAYLOAD_LEN, THREADS};
use crate::verify::Truth;
use rand::RngCore;
use std::sync::Arc;
use std::time::Instant;
use tibpre_client::{params_for_level, ClientConfig, KgcClient, ProxyClient, StoreClient};
use tibpre_core::{Delegator, HybridCiphertext, ReEncryptionKey};
use tibpre_ibe::{IbePublicParams, Identity};
use tibpre_pairing::PairingParams;
use tibpre_phr::{Category, HealthRecord, HealthcareProvider};

/// The one category the provider is granted; every other is refused.
pub const GRANTED: Category = Category::LabResults;

/// Records of this category are never granted: the paper's type-based
/// refusal, about one record in sixteen.
pub fn category_of(patient: usize, record: usize) -> Category {
    if (patient * 7 + record) % 16 == 15 {
        Category::MentalHealth
    } else {
        GRANTED
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub struct PatientState {
    pub identity: Identity,
    pub delegator: Delegator,
    pub grant: ReEncryptionKey,
    pub records: Vec<Truth>,
    pub ciphertexts: Vec<HybridCiphertext>,
}

pub struct Population {
    pub params: Arc<PairingParams>,
    pub domain: IbePublicParams,
    pub provider_id: Identity,
    pub provider: Arc<HealthcareProvider>,
    pub patients: Vec<PatientState>,
}

impl Population {
    /// Patients owned by generator thread `thread`.
    pub fn owned(&self, thread: usize) -> Vec<usize> {
        (0..self.patients.len())
            .filter(|p| p % THREADS == thread)
            .collect()
    }

    pub fn record_count(&self) -> usize {
        self.patients.iter().map(|p| p.records.len()).sum()
    }
}

pub fn body_for(seed: u64, patient: usize, record: usize) -> Vec<u8> {
    let mut rng = stream(seed, 0x0b0d_0000 + ((patient as u64) << 16) + record as u64);
    let mut body = vec![0u8; PAYLOAD_LEN];
    rng.fill_bytes(&mut body);
    body
}

pub fn populate(nodes: &NodeSet, w: &Workload, seed: u64) -> Result<Population, String> {
    let params = params_for_level(w.level);
    let config = ClientConfig::default();
    let err = |e: tibpre_client::ClientError| format!("setup: {e}");
    let mut kgc = KgcClient::connect(nodes.kgc.addr.as_str(), &params, &config).map_err(err)?;
    let domain = kgc.public_params().map_err(err)?;
    let provider_id = Identity::new("provider-oncology");
    let provider = Arc::new(HealthcareProvider::new(
        kgc.extract(&provider_id).map_err(err)?,
    ));

    type Part = Vec<(usize, PatientState)>;
    let parts: Vec<Result<Part, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (params, config, domain, provider_id) =
                    (&params, &config, &domain, &provider_id);
                scope.spawn(move || -> Result<Part, String> {
                    let mut kgc =
                        KgcClient::connect(nodes.kgc.addr.as_str(), params, config).map_err(err)?;
                    let mut store = StoreClient::connect(nodes.store.addr.as_str(), params, config)
                        .map_err(err)?;
                    let mut proxy = ProxyClient::connect(nodes.proxy.addr.as_str(), params, config)
                        .map_err(err)?;
                    let mut rng = stream(seed, 0x5e70_0000 + thread as u64);
                    let mut mine = Vec::new();
                    for p in (0..w.patients).filter(|p| p % THREADS == thread) {
                        let identity = Identity::new(format!("patient-{p:04}"));
                        let delegator =
                            Delegator::new(domain.clone(), kgc.extract(&identity).map_err(err)?);
                        let mut records = Vec::new();
                        let mut ciphertexts = Vec::new();
                        for r in 0..w.records_per_patient {
                            let category = category_of(p, r);
                            let title = format!("record-{r:03}");
                            let body = body_for(seed, p, r);
                            let aad = HealthRecord::associated_data(&identity, &category, &title);
                            let ct = delegator.encrypt_bytes(
                                &body,
                                &aad,
                                &category.type_tag(),
                                &mut rng,
                            );
                            let id = store
                                .put(&identity, &category, &title, ct.clone())
                                .map_err(err)?;
                            records.push(Truth {
                                id,
                                patient: identity.clone(),
                                category,
                                title,
                                body,
                            });
                            ciphertexts.push(ct);
                        }
                        let grant = delegator
                            .make_reencryption_key(
                                provider_id,
                                domain,
                                &GRANTED.type_tag(),
                                &mut rng,
                            )
                            .map_err(|e| format!("setup: re-encryption key: {e:?}"))?;
                        proxy.install_key(grant.clone()).map_err(err)?;
                        mine.push((
                            p,
                            PatientState {
                                identity,
                                delegator,
                                grant,
                                records,
                                ciphertexts,
                            },
                        ));
                    }
                    Ok(mine)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("setup thread panicked".into()))
            })
            .collect()
    });

    let mut slots: Vec<Option<PatientState>> = (0..w.patients).map(|_| None).collect();
    for part in parts {
        for (p, state) in part? {
            slots[p] = Some(state);
        }
    }
    Ok(Population {
        params,
        domain,
        provider_id,
        provider,
        patients: slots
            .into_iter()
            .map(|s| s.expect("every patient set up"))
            .collect(),
    })
}
