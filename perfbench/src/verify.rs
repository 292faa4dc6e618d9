//! Answer checking with bounded generator cost.
//!
//! Every disclosure has a definite expected answer, because each patient's
//! grant is changed by one generator thread only: a bundle that opens to
//! the known plaintext, or `AccessDenied`.  The first bundle for a record is
//! opened with `HealthcareProvider::open`; disclosure is deterministic, so
//! later bundles for the same record (one grantee per run) are compared by
//! the SHA-256 of their response bytes.  Opening costs milliseconds of
//! generator CPU at the 80-bit level, so it happens after the window.

use std::collections::HashMap;
use std::sync::Arc;
use tibpre_client::{RemoteError, Response};
use tibpre_hash::Sha256;
use tibpre_ibe::Identity;
use tibpre_pairing::DecodeCtx;
use tibpre_phr::{Category, HealthcareProvider, RecordId};
use tibpre_wire::{WireDecode, WireEncode};

/// What the generator knows about one uploaded record.
#[derive(Debug, Clone)]
pub struct Truth {
    pub id: RecordId,
    pub patient: Identity,
    pub category: Category,
    pub title: String,
    pub body: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A bundle that opened to the right plaintext.
    Served,
    /// `AccessDenied`, where denial was the expected answer.
    Denied,
    /// Anything else: a wrong byte, a refused grant, a bundle served
    /// without a grant, a transport or decode error.
    Failed,
}

/// A deliberately wrong answer injected by the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// Flip one byte in a served bundle.
    Flip,
    /// Replace a served bundle with `AccessDenied` although a grant exists.
    Deny,
}

impl Plant {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "flip" => Some(Plant::Flip),
            "deny" => Some(Plant::Deny),
            _ => None,
        }
    }
}

/// Which expected-served response the plant corrupts: late enough that
/// on a Zipf workload it usually repeats a record, so the hash comparison
/// is what has to catch it.
const PLANT_AT: u64 = 20;

/// The first bundle seen with given bytes for a record, opened after the
/// window.
struct First {
    payload: Vec<u8>,
    truth: Truth,
    in_window: bool,
    /// Later bundles with the same bytes, and how many of them completed
    /// inside the window.
    matched: u64,
    matched_in_window: u64,
}

/// Checks answers during the window at the cost of one SHA-256 each, and
/// opens each record's first bundle after it, in [`Verifier::finish`].
pub struct Verifier {
    provider: Arc<HealthcareProvider>,
    ctx: DecodeCtx,
    /// Keyed by record and SHA-256 of the response bytes: disclosure is
    /// deterministic, so a correct run has one entry per record.
    first: HashMap<(u64, [u8; 32]), First>,
    plant: Option<Plant>,
    served_expected: u64,
}

/// Failures found when the first bundles are opened.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Finish {
    pub opened: u64,
    pub failed: u64,
    pub failed_in_window: u64,
}

impl Verifier {
    pub fn new(provider: Arc<HealthcareProvider>, ctx: DecodeCtx, plant: Option<Plant>) -> Self {
        Verifier {
            provider,
            ctx,
            first: HashMap::new(),
            plant,
            served_expected: 0,
        }
    }

    /// Checks one `Disclose` response against the model.  A `Served`
    /// verdict is provisional until [`Self::finish`] has opened the
    /// record's first bundle.
    pub fn check(
        &mut self,
        payload: Vec<u8>,
        truth: &Truth,
        expect_served: bool,
        in_window: bool,
    ) -> Verdict {
        if !expect_served {
            return match Response::from_wire_bytes(&payload, &self.ctx) {
                Ok(Response::Error(RemoteError::AccessDenied { .. })) => Verdict::Denied,
                _ => Verdict::Failed,
            };
        }
        self.served_expected += 1;
        let payload = self.maybe_plant(payload);
        let key = (truth.id.0, Sha256::digest(&payload));
        match self.first.get_mut(&key) {
            Some(first) => {
                first.matched += 1;
                first.matched_in_window += u64::from(in_window);
            }
            None => {
                self.first.insert(
                    key,
                    First {
                        payload,
                        truth: truth.clone(),
                        in_window,
                        matched: 0,
                        matched_in_window: 0,
                    },
                );
            }
        }
        Verdict::Served
    }

    /// Opens one bundle per distinct response per record with the
    /// delegatee key.  One that does not open to the known plaintext fails,
    /// and so does every bundle with the same bytes.
    pub fn finish(self) -> Finish {
        let mut out = Finish::default();
        for first in self.first.values() {
            out.opened += 1;
            if !self.opens_correctly(&first.payload, &first.truth) {
                out.failed += 1 + first.matched;
                out.failed_in_window += u64::from(first.in_window) + first.matched_in_window;
            }
        }
        out
    }

    fn opens_correctly(&self, payload: &[u8], truth: &Truth) -> bool {
        let bundle = match Response::from_wire_bytes(payload, &self.ctx) {
            Ok(Response::Bundle(bundle)) => bundle,
            _ => return false,
        };
        match self.provider.open(&bundle) {
            Ok(record) => {
                record.id == truth.id
                    && record.patient == truth.patient
                    && record.category == truth.category
                    && record.title == truth.title
                    && record.body == truth.body
            }
            Err(_) => false,
        }
    }

    fn maybe_plant(&mut self, mut payload: Vec<u8>) -> Vec<u8> {
        if self.served_expected != PLANT_AT {
            return payload;
        }
        match self.plant {
            Some(Plant::Flip) => {
                // Past the frame's fixed header fields, inside the ciphertext.
                let at = payload.len() * 3 / 4;
                payload[at] ^= 0x01;
                payload
            }
            Some(Plant::Deny) => Response::Error(RemoteError::AccessDenied {
                category: "planted".to_string(),
                requester: "planted".to_string(),
            })
            .to_wire_bytes(),
            None => payload,
        }
    }
}
