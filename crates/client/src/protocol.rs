//! The node protocol: every request a client can put on the wire and every
//! response a node can send back.
//!
//! One protocol serves all three roles — a KGC node answers the key requests,
//! a store node the record requests, a proxy node the disclosure requests —
//! and every role answers [`Request::Ping`] and [`Request::Shutdown`].  A
//! request outside a node's role draws [`RemoteError::WrongRole`], never a
//! closed connection, so a misconfigured client gets a diagnosis instead of a
//! hangup.
//!
//! Messages travel as length-prefixed frames ([`tibpre_wire::framing`])
//! whose payload is the versioned-envelope encoding of one `Request` or
//! `Response`.  Pairing parameters never travel: client and node are
//! configured with the same [`SecurityLevel`] and reconstruct them from the
//! deterministic cache ([`PairingParams::cached`]); the level travels in
//! [`Response::Pong`] so a mismatch is caught by the first health check
//! rather than by a point failing subgroup validation mid-workflow.

use std::sync::Arc;
use tibpre_core::{HybridCiphertext, ReEncryptionKey};
use tibpre_ibe::{IbePrivateKey, IbePublicParams, Identity};
use tibpre_pairing::{DecodeCtx, PairingParams, SecurityLevel};
use tibpre_phr::proxy_service::DisclosureBundle;
use tibpre_phr::store::StoredRecord;
use tibpre_phr::{AuditEvent, Category, PhrError, RecordId};
use tibpre_wire::{DecodeError, Reader, WireDecode, WireEncode, Writer};

/// The three service roles a node can run as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Key Generation Centre: `Setup`/`Extract` of one KGC domain.
    Kgc,
    /// Semi-trusted proxy: holds re-encryption keys, transforms ciphertexts.
    Proxy,
    /// Encrypted record store: the outsourced PHR database.
    Store,
}

impl NodeRole {
    /// The role's CLI / wire name.
    pub fn name(self) -> &'static str {
        match self {
            NodeRole::Kgc => "kgc",
            NodeRole::Proxy => "proxy",
            NodeRole::Store => "store",
        }
    }

    /// Parses a role name (the inverse of [`Self::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "kgc" => Some(NodeRole::Kgc),
            "proxy" => Some(NodeRole::Proxy),
            "store" => Some(NodeRole::Store),
            _ => None,
        }
    }

    fn tag(self) -> u8 {
        match self {
            NodeRole::Kgc => 1,
            NodeRole::Proxy => 2,
            NodeRole::Store => 3,
        }
    }

    fn from_tag(offset: usize, tag: u8) -> Result<Self, DecodeError> {
        match tag {
            1 => Ok(NodeRole::Kgc),
            2 => Ok(NodeRole::Proxy),
            3 => Ok(NodeRole::Store),
            _ => Err(DecodeError::invalid_tag(offset, "node role", tag)),
        }
    }
}

/// The configured security level's wire/CLI name.
pub fn level_name(level: SecurityLevel) -> &'static str {
    match level {
        SecurityLevel::Toy => "toy",
        SecurityLevel::Low80 => "low80",
        SecurityLevel::Medium112 => "medium112",
        SecurityLevel::High128 => "high128",
    }
}

/// Parses a security-level name (the inverse of [`level_name`]).
pub fn level_from_name(name: &str) -> Option<SecurityLevel> {
    match name {
        "toy" => Some(SecurityLevel::Toy),
        "low80" => Some(SecurityLevel::Low80),
        "medium112" => Some(SecurityLevel::Medium112),
        "high128" => Some(SecurityLevel::High128),
        _ => None,
    }
}

/// The pairing parameters for a named level — [`PairingParams::cached`] for
/// the real levels, the toy cache for `toy`.
pub fn params_for_level(level: SecurityLevel) -> Arc<PairingParams> {
    match level {
        SecurityLevel::Toy => PairingParams::insecure_toy(),
        other => PairingParams::cached(other),
    }
}

/// One request frame, client → node.
#[derive(Debug, Clone)]
pub enum Request {
    /// Health check; every role answers with [`Response::Pong`].
    Ping,
    /// Ask the node to drain and exit; answered with
    /// [`Response::ShuttingDown`] before the listener closes.
    Shutdown,
    /// (KGC) The domain's public parameters.
    PublicParams,
    /// (KGC) `Extract`: the private key for an identity.
    Extract {
        /// The identity to extract for.
        identity: Identity,
    },
    /// (Store) Store an encrypted record; the node assigns the id.
    PutRecord {
        /// The owning patient.
        patient: Identity,
        /// The record category.
        category: Category,
        /// The non-secret title.
        title: String,
        /// The category-typed hybrid ciphertext.
        ciphertext: Box<HybridCiphertext>,
    },
    /// (Store) Fetch one record by id.
    GetRecord {
        /// The record to fetch.
        id: RecordId,
    },
    /// (Store) Delete one record.
    DeleteRecord {
        /// The record to delete.
        id: RecordId,
        /// Who asked (for the audit trail).
        requester: Identity,
    },
    /// (Store) List a patient's record ids, optionally per category.
    ListRecords {
        /// The owning patient.
        patient: Identity,
        /// `None` lists every category.
        category: Option<Category>,
    },
    /// (Store) Total number of records.
    RecordCount,
    /// (Store) Force WAL durability for everything accepted so far.
    Sync,
    /// (Store) The store's audit trail.
    AuditSnapshot,
    /// (Store) Record a disclosure attempt in the audit trail.
    LogDisclosure {
        /// The disclosed record.
        id: RecordId,
        /// Who asked.
        requester: Identity,
        /// Whether the disclosure was granted.
        granted: bool,
    },
    /// (Store) Record a policy change in the audit trail.
    LogPolicyChange {
        /// The owning patient.
        patient: Identity,
        /// The category granted or revoked.
        category: Category,
        /// The grantee.
        grantee: Identity,
        /// `true` for a grant, `false` for a revocation.
        granted: bool,
    },
    /// (Proxy) Install a re-encryption key (a patient granting access).
    InstallKey {
        /// The key to install.
        key: Box<ReEncryptionKey>,
    },
    /// (Proxy) Remove a re-encryption key (revocation).
    RevokeKey {
        /// The delegating patient.
        patient: Identity,
        /// The delegated category.
        category: Category,
        /// The grantee losing access.
        grantee: Identity,
    },
    /// (Proxy) Whether a grant is active.
    HasGrant {
        /// The delegating patient.
        patient: Identity,
        /// The delegated category.
        category: Category,
        /// The grantee.
        grantee: Identity,
    },
    /// (Proxy) Number of installed re-encryption keys.
    KeyCount,
    /// (Proxy) Re-encrypt one record for a requester.
    Disclose {
        /// The owning patient.
        patient: Identity,
        /// The record to disclose.
        id: RecordId,
        /// The requesting provider.
        requester: Identity,
    },
    /// (Proxy) Re-encrypt every record of one category for a requester.
    DiscloseCategory {
        /// The owning patient.
        patient: Identity,
        /// The category to disclose.
        category: Category,
        /// The requesting provider.
        requester: Identity,
    },
    /// (Store) Turn this connection into a replication stream: the node
    /// stops speaking request→response and pushes [`Response::ReplicaStatus`],
    /// [`Response::SnapshotGeneration`] and [`Response::SegmentChunk`]
    /// frames until the connection drops.
    SubscribeReplication {
        /// Per-shard applied logical WAL offsets to resume from.  Empty
        /// means a fresh replica: the node's first `ReplicaStatus` tells it
        /// the shard count, and streaming starts from offset 0 (or the
        /// newest snapshot when the log prefix was garbage-collected).
        applied: Vec<u64>,
    },
    /// (Store) One-shot replication status: per-shard positions (committed
    /// on a primary, applied on a replica) and whether the node accepts
    /// writes.
    ReplicationStatus,
    /// (Store) Promote a replica: stop rejecting writes with `WrongRole`.
    /// A no-op on a node that already accepts writes.
    Promote,
    /// Batch-scheduler counters.  Every role answers with an all-zero
    /// report, since no node batches requests across connections; the
    /// request stays on the wire for clients that read it.
    SchedStats,
}

impl Request {
    /// The variant's short name, for logs and error messages (a `Debug`
    /// rendering would dump whole ciphertexts).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "Ping",
            Request::Shutdown => "Shutdown",
            Request::PublicParams => "PublicParams",
            Request::Extract { .. } => "Extract",
            Request::PutRecord { .. } => "PutRecord",
            Request::GetRecord { .. } => "GetRecord",
            Request::DeleteRecord { .. } => "DeleteRecord",
            Request::ListRecords { .. } => "ListRecords",
            Request::RecordCount => "RecordCount",
            Request::Sync => "Sync",
            Request::AuditSnapshot => "AuditSnapshot",
            Request::LogDisclosure { .. } => "LogDisclosure",
            Request::LogPolicyChange { .. } => "LogPolicyChange",
            Request::InstallKey { .. } => "InstallKey",
            Request::RevokeKey { .. } => "RevokeKey",
            Request::HasGrant { .. } => "HasGrant",
            Request::KeyCount => "KeyCount",
            Request::Disclose { .. } => "Disclose",
            Request::DiscloseCategory { .. } => "DiscloseCategory",
            Request::SubscribeReplication { .. } => "SubscribeReplication",
            Request::ReplicationStatus => "ReplicationStatus",
            Request::Promote => "Promote",
            Request::SchedStats => "SchedStats",
        }
    }
}

mod req_tag {
    pub const PING: u8 = 1;
    pub const SHUTDOWN: u8 = 2;
    pub const PUBLIC_PARAMS: u8 = 3;
    pub const EXTRACT: u8 = 4;
    pub const PUT_RECORD: u8 = 10;
    pub const GET_RECORD: u8 = 11;
    pub const DELETE_RECORD: u8 = 12;
    pub const LIST_RECORDS: u8 = 13;
    pub const RECORD_COUNT: u8 = 14;
    pub const SYNC: u8 = 15;
    pub const AUDIT_SNAPSHOT: u8 = 16;
    pub const LOG_DISCLOSURE: u8 = 17;
    pub const LOG_POLICY_CHANGE: u8 = 18;
    pub const INSTALL_KEY: u8 = 30;
    pub const REVOKE_KEY: u8 = 31;
    pub const HAS_GRANT: u8 = 32;
    pub const KEY_COUNT: u8 = 33;
    pub const DISCLOSE: u8 = 34;
    pub const DISCLOSE_CATEGORY: u8 = 35;
    pub const SUBSCRIBE_REPLICATION: u8 = 40;
    pub const REPLICATION_STATUS: u8 = 41;
    pub const PROMOTE: u8 = 42;
    pub const SCHED_STATS: u8 = 43;
}

fn put_identity(w: &mut Writer, id: &Identity) {
    w.put_bytes(id.as_bytes());
}

fn read_identity(r: &mut Reader<'_>) -> Result<Identity, DecodeError> {
    Ok(Identity::from_bytes(r.bytes()?.to_vec()))
}

fn put_category(w: &mut Writer, category: &Category) {
    w.put_bytes(category.label().as_bytes());
}

fn read_category(r: &mut Reader<'_>) -> Result<Category, DecodeError> {
    Ok(Category::from_label(&r.string()?))
}

fn put_bool(w: &mut Writer, b: bool) {
    w.put_u8(u8::from(b));
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, DecodeError> {
    let offset = r.offset();
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        tag => Err(DecodeError::invalid_tag(offset, "boolean", tag)),
    }
}

impl WireEncode for Request {
    fn encode(&self, w: &mut Writer) {
        match self {
            Request::Ping => w.put_u8(req_tag::PING),
            Request::Shutdown => w.put_u8(req_tag::SHUTDOWN),
            Request::PublicParams => w.put_u8(req_tag::PUBLIC_PARAMS),
            Request::Extract { identity } => {
                w.put_u8(req_tag::EXTRACT);
                put_identity(w, identity);
            }
            Request::PutRecord {
                patient,
                category,
                title,
                ciphertext,
            } => {
                w.put_u8(req_tag::PUT_RECORD);
                put_identity(w, patient);
                put_category(w, category);
                w.put_bytes(title.as_bytes());
                w.put_nested(|w| ciphertext.encode(w));
            }
            Request::GetRecord { id } => {
                w.put_u8(req_tag::GET_RECORD);
                w.put_u64(id.0);
            }
            Request::DeleteRecord { id, requester } => {
                w.put_u8(req_tag::DELETE_RECORD);
                w.put_u64(id.0);
                put_identity(w, requester);
            }
            Request::ListRecords { patient, category } => {
                w.put_u8(req_tag::LIST_RECORDS);
                put_identity(w, patient);
                match category {
                    None => w.put_u8(0),
                    Some(category) => {
                        w.put_u8(1);
                        put_category(w, category);
                    }
                }
            }
            Request::RecordCount => w.put_u8(req_tag::RECORD_COUNT),
            Request::Sync => w.put_u8(req_tag::SYNC),
            Request::AuditSnapshot => w.put_u8(req_tag::AUDIT_SNAPSHOT),
            Request::LogDisclosure {
                id,
                requester,
                granted,
            } => {
                w.put_u8(req_tag::LOG_DISCLOSURE);
                w.put_u64(id.0);
                put_identity(w, requester);
                put_bool(w, *granted);
            }
            Request::LogPolicyChange {
                patient,
                category,
                grantee,
                granted,
            } => {
                w.put_u8(req_tag::LOG_POLICY_CHANGE);
                put_identity(w, patient);
                put_category(w, category);
                put_identity(w, grantee);
                put_bool(w, *granted);
            }
            Request::InstallKey { key } => {
                w.put_u8(req_tag::INSTALL_KEY);
                w.put_nested(|w| key.encode(w));
            }
            Request::RevokeKey {
                patient,
                category,
                grantee,
            } => {
                w.put_u8(req_tag::REVOKE_KEY);
                put_identity(w, patient);
                put_category(w, category);
                put_identity(w, grantee);
            }
            Request::HasGrant {
                patient,
                category,
                grantee,
            } => {
                w.put_u8(req_tag::HAS_GRANT);
                put_identity(w, patient);
                put_category(w, category);
                put_identity(w, grantee);
            }
            Request::KeyCount => w.put_u8(req_tag::KEY_COUNT),
            Request::Disclose {
                patient,
                id,
                requester,
            } => {
                w.put_u8(req_tag::DISCLOSE);
                put_identity(w, patient);
                w.put_u64(id.0);
                put_identity(w, requester);
            }
            Request::DiscloseCategory {
                patient,
                category,
                requester,
            } => {
                w.put_u8(req_tag::DISCLOSE_CATEGORY);
                put_identity(w, patient);
                put_category(w, category);
                put_identity(w, requester);
            }
            Request::SubscribeReplication { applied } => {
                w.put_u8(req_tag::SUBSCRIBE_REPLICATION);
                w.put_u64(applied.len() as u64);
                for offset in applied {
                    w.put_u64(*offset);
                }
            }
            Request::ReplicationStatus => w.put_u8(req_tag::REPLICATION_STATUS),
            Request::Promote => w.put_u8(req_tag::PROMOTE),
            Request::SchedStats => w.put_u8(req_tag::SCHED_STATS),
        }
    }
}

/// Decodes a nested, length-prefixed value at the reader's version.
fn decode_nested<T: WireDecode>(r: &mut Reader<'_>, ctx: &T::Ctx) -> Result<T, DecodeError> {
    let version = r.version();
    tibpre_wire::decode_bare(r.bytes()?, version, ctx)
}

impl WireDecode for Request {
    type Ctx = DecodeCtx;

    fn decode(r: &mut Reader<'_>, ctx: &DecodeCtx) -> Result<Self, DecodeError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            req_tag::PING => Request::Ping,
            req_tag::SHUTDOWN => Request::Shutdown,
            req_tag::PUBLIC_PARAMS => Request::PublicParams,
            req_tag::EXTRACT => Request::Extract {
                identity: read_identity(r)?,
            },
            req_tag::PUT_RECORD => Request::PutRecord {
                patient: read_identity(r)?,
                category: read_category(r)?,
                title: r.string()?,
                ciphertext: Box::new(decode_nested(r, ctx)?),
            },
            req_tag::GET_RECORD => Request::GetRecord {
                id: RecordId(r.u64()?),
            },
            req_tag::DELETE_RECORD => Request::DeleteRecord {
                id: RecordId(r.u64()?),
                requester: read_identity(r)?,
            },
            req_tag::LIST_RECORDS => {
                let patient = read_identity(r)?;
                let flag_offset = r.offset();
                let category = match r.u8()? {
                    0 => None,
                    1 => Some(read_category(r)?),
                    tag => {
                        return Err(DecodeError::invalid_tag(
                            flag_offset,
                            "optional category",
                            tag,
                        ))
                    }
                };
                Request::ListRecords { patient, category }
            }
            req_tag::RECORD_COUNT => Request::RecordCount,
            req_tag::SYNC => Request::Sync,
            req_tag::AUDIT_SNAPSHOT => Request::AuditSnapshot,
            req_tag::LOG_DISCLOSURE => Request::LogDisclosure {
                id: RecordId(r.u64()?),
                requester: read_identity(r)?,
                granted: read_bool(r)?,
            },
            req_tag::LOG_POLICY_CHANGE => Request::LogPolicyChange {
                patient: read_identity(r)?,
                category: read_category(r)?,
                grantee: read_identity(r)?,
                granted: read_bool(r)?,
            },
            req_tag::INSTALL_KEY => Request::InstallKey {
                key: Box::new(decode_nested(r, ctx)?),
            },
            req_tag::REVOKE_KEY => Request::RevokeKey {
                patient: read_identity(r)?,
                category: read_category(r)?,
                grantee: read_identity(r)?,
            },
            req_tag::HAS_GRANT => Request::HasGrant {
                patient: read_identity(r)?,
                category: read_category(r)?,
                grantee: read_identity(r)?,
            },
            req_tag::KEY_COUNT => Request::KeyCount,
            req_tag::DISCLOSE => Request::Disclose {
                patient: read_identity(r)?,
                id: RecordId(r.u64()?),
                requester: read_identity(r)?,
            },
            req_tag::DISCLOSE_CATEGORY => Request::DiscloseCategory {
                patient: read_identity(r)?,
                category: read_category(r)?,
                requester: read_identity(r)?,
            },
            req_tag::SUBSCRIBE_REPLICATION => {
                let count = read_count(r, 8)?;
                let mut applied = Vec::with_capacity(count);
                for _ in 0..count {
                    applied.push(r.u64()?);
                }
                Request::SubscribeReplication { applied }
            }
            req_tag::REPLICATION_STATUS => Request::ReplicationStatus,
            req_tag::PROMOTE => Request::Promote,
            req_tag::SCHED_STATS => Request::SchedStats,
            tag => return Err(DecodeError::invalid_tag(offset, "request", tag)),
        })
    }
}

/// A failure a node reports back to the client, as a value — never by
/// dropping the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteError {
    /// No such record (or a record the requester may not even learn exists).
    NotFound,
    /// The proxy holds no matching re-encryption key.
    AccessDenied {
        /// The category that was requested.
        category: String,
        /// Who requested it.
        requester: String,
    },
    /// A policy invariant was violated (duplicate grant, missing revoke…).
    PolicyConflict(String),
    /// The request was structurally fine but semantically unusable.
    BadRequest(String),
    /// The request is not served by this node's role; carries the role name.
    WrongRole(String),
    /// The node is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// Anything else (storage failures, crypto failures…).
    Internal(String),
}

impl RemoteError {
    /// Maps an application error onto its wire form.
    pub fn from_phr(err: &PhrError) -> Self {
        match err {
            PhrError::RecordNotFound => RemoteError::NotFound,
            PhrError::AccessDenied {
                category,
                requester,
            } => RemoteError::AccessDenied {
                category: category.clone(),
                requester: requester.clone(),
            },
            PhrError::PolicyConflict(msg) => RemoteError::PolicyConflict((*msg).to_string()),
            PhrError::NoProxyForCategory(category) => {
                RemoteError::BadRequest(format!("no proxy for category {category}"))
            }
            other => RemoteError::Internal(other.to_string()),
        }
    }

    /// Maps the wire form back onto an application error — the client half
    /// of [`Self::from_phr`].  Variants `PhrError` cannot carry verbatim
    /// (its `PolicyConflict` holds a `&'static str`) land in
    /// `PhrError::Storage` with the message preserved.
    pub fn into_phr(self) -> PhrError {
        match self {
            RemoteError::NotFound => PhrError::RecordNotFound,
            RemoteError::AccessDenied {
                category,
                requester,
            } => PhrError::AccessDenied {
                category,
                requester,
            },
            other => PhrError::Storage(other.to_string()),
        }
    }
}

impl core::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RemoteError::NotFound => write!(f, "record not found"),
            RemoteError::AccessDenied {
                category,
                requester,
            } => write!(f, "access to {category} denied for {requester}"),
            RemoteError::PolicyConflict(msg) => write!(f, "policy conflict: {msg}"),
            RemoteError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            RemoteError::WrongRole(role) => {
                write!(f, "request not served by a {role} node")
            }
            RemoteError::ShuttingDown => write!(f, "node is shutting down"),
            RemoteError::Internal(msg) => write!(f, "internal node error: {msg}"),
        }
    }
}

mod err_tag {
    pub const NOT_FOUND: u8 = 1;
    pub const ACCESS_DENIED: u8 = 2;
    pub const POLICY_CONFLICT: u8 = 3;
    pub const BAD_REQUEST: u8 = 4;
    pub const WRONG_ROLE: u8 = 5;
    pub const SHUTTING_DOWN: u8 = 6;
    pub const INTERNAL: u8 = 7;
}

impl WireEncode for RemoteError {
    fn encode(&self, w: &mut Writer) {
        match self {
            RemoteError::NotFound => w.put_u8(err_tag::NOT_FOUND),
            RemoteError::AccessDenied {
                category,
                requester,
            } => {
                w.put_u8(err_tag::ACCESS_DENIED);
                w.put_bytes(category.as_bytes());
                w.put_bytes(requester.as_bytes());
            }
            RemoteError::PolicyConflict(msg) => {
                w.put_u8(err_tag::POLICY_CONFLICT);
                w.put_bytes(msg.as_bytes());
            }
            RemoteError::BadRequest(msg) => {
                w.put_u8(err_tag::BAD_REQUEST);
                w.put_bytes(msg.as_bytes());
            }
            RemoteError::WrongRole(role) => {
                w.put_u8(err_tag::WRONG_ROLE);
                w.put_bytes(role.as_bytes());
            }
            RemoteError::ShuttingDown => w.put_u8(err_tag::SHUTTING_DOWN),
            RemoteError::Internal(msg) => {
                w.put_u8(err_tag::INTERNAL);
                w.put_bytes(msg.as_bytes());
            }
        }
    }
}

impl WireDecode for RemoteError {
    type Ctx = ();

    fn decode(r: &mut Reader<'_>, _ctx: &()) -> Result<Self, DecodeError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            err_tag::NOT_FOUND => RemoteError::NotFound,
            err_tag::ACCESS_DENIED => RemoteError::AccessDenied {
                category: r.string()?,
                requester: r.string()?,
            },
            err_tag::POLICY_CONFLICT => RemoteError::PolicyConflict(r.string()?),
            err_tag::BAD_REQUEST => RemoteError::BadRequest(r.string()?),
            err_tag::WRONG_ROLE => RemoteError::WrongRole(r.string()?),
            err_tag::SHUTTING_DOWN => RemoteError::ShuttingDown,
            err_tag::INTERNAL => RemoteError::Internal(r.string()?),
            tag => return Err(DecodeError::invalid_tag(offset, "remote error", tag)),
        })
    }
}

/// Batch-scheduler counters, answered by `SchedStats`.
///
/// The histogram buckets batch sizes as
/// `1, 2, 3–4, 5–8, 9–16, 17–32, 33–64, 65+` (index 0 through 7).  A node
/// without a scheduler reports zeros, and no node runs one: each request
/// is handled on the connection thread that read it, so every report is
/// all zeros.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedStatsReport {
    /// Batches executed by the scheduler.
    pub batches: u64,
    /// Requests that went through scheduler batches.
    pub batched_requests: u64,
    /// Requests answered inline, bypassing the scheduler queue.
    pub bypass: u64,
    /// Current submission-queue depth (sampled).
    pub queue_depth: u64,
    /// Highest submission-queue depth observed.
    pub queue_peak: u64,
    /// Batch-size histogram (buckets documented above).
    pub hist: [u64; 8],
}

impl WireEncode for SchedStatsReport {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.batches);
        w.put_u64(self.batched_requests);
        w.put_u64(self.bypass);
        w.put_u64(self.queue_depth);
        w.put_u64(self.queue_peak);
        for bucket in &self.hist {
            w.put_u64(*bucket);
        }
    }
}

impl WireDecode for SchedStatsReport {
    type Ctx = ();

    fn decode(r: &mut Reader<'_>, _ctx: &()) -> Result<Self, DecodeError> {
        let mut report = SchedStatsReport {
            batches: r.u64()?,
            batched_requests: r.u64()?,
            bypass: r.u64()?,
            queue_depth: r.u64()?,
            queue_peak: r.u64()?,
            hist: [0; 8],
        };
        for bucket in &mut report.hist {
            *bucket = r.u64()?;
        }
        Ok(report)
    }
}

/// One response frame, node → client.
#[derive(Debug, Clone)]
pub enum Response {
    /// Health-check answer: the node's role and configured security level.
    Pong {
        /// The node's role.
        role: NodeRole,
        /// The node's security-level name ([`level_name`]).
        level: String,
    },
    /// The request succeeded and carries no payload.
    Ok,
    /// A boolean result (`RevokeKey`, `HasGrant`).
    Bool(bool),
    /// A count (`RecordCount`, `KeyCount`).
    Count(u64),
    /// The id assigned by `PutRecord`.
    RecordId(RecordId),
    /// The ids from `ListRecords`.
    RecordIds(Vec<RecordId>),
    /// The record from `GetRecord`.
    Record(Box<StoredRecord>),
    /// The KGC's public parameters.
    PublicParams(Box<IbePublicParams>),
    /// An extracted private key.
    PrivateKey(Box<IbePrivateKey>),
    /// A single re-encrypted record.
    Bundle(Box<DisclosureBundle>),
    /// A category's worth of re-encrypted records.
    Bundles(Vec<DisclosureBundle>),
    /// The audit trail from `AuditSnapshot`.
    AuditEvents(Vec<AuditEvent>),
    /// Shutdown acknowledged; the node drains and exits.
    ShuttingDown,
    /// The request failed; the error travels as a value.
    Error(RemoteError),
    /// Replication status: per-shard logical WAL positions (committed on a
    /// primary, applied on a replica) and whether the node accepts writes.
    /// The first frame of a replication stream, repeated as a heartbeat.
    ReplicaStatus {
        /// One position per shard; the vector length *is* the shard count.
        positions: Vec<u64>,
        /// Whether this node accepts writes (primary, or promoted replica).
        writable: bool,
    },
    /// A whole snapshot generation file, shipped to bootstrap a replica
    /// shard whose requested offset was garbage-collected.
    SnapshotGeneration {
        /// The shard this snapshot belongs to.
        shard: u64,
        /// The snapshot's generation number.
        gen: u64,
        /// The logical WAL offset the snapshot captured — where chunk
        /// streaming resumes after installation.
        wal_offset: u64,
        /// The raw snapshot file bytes.
        bytes: Vec<u8>,
    },
    /// Raw committed WAL bytes of one shard, starting exactly at `start`.
    /// Not necessarily frame-aligned at either end: receivers buffer and
    /// reassemble frames, exactly as crash recovery scans a segment.
    SegmentChunk {
        /// The shard these bytes belong to.
        shard: u64,
        /// Logical offset of the first byte.
        start: u64,
        /// The raw log bytes (never empty).
        bytes: Vec<u8>,
    },
    /// Batch-scheduler counters, answering `SchedStats` (all zeros).
    SchedStats(SchedStatsReport),
}

mod resp_tag {
    pub const PONG: u8 = 1;
    pub const OK: u8 = 2;
    pub const BOOL: u8 = 3;
    pub const COUNT: u8 = 4;
    pub const RECORD_ID: u8 = 5;
    pub const RECORD_IDS: u8 = 6;
    pub const RECORD: u8 = 7;
    pub const PUBLIC_PARAMS: u8 = 8;
    pub const PRIVATE_KEY: u8 = 9;
    pub const BUNDLE: u8 = 10;
    pub const BUNDLES: u8 = 11;
    pub const AUDIT_EVENTS: u8 = 12;
    pub const SHUTTING_DOWN: u8 = 13;
    pub const ERROR: u8 = 14;
    pub const REPLICA_STATUS: u8 = 15;
    pub const SNAPSHOT_GENERATION: u8 = 16;
    pub const SEGMENT_CHUNK: u8 = 17;
    pub const SCHED_STATS: u8 = 18;
}

impl WireEncode for Response {
    fn encode(&self, w: &mut Writer) {
        match self {
            Response::Pong { role, level } => {
                w.put_u8(resp_tag::PONG);
                w.put_u8(role.tag());
                w.put_bytes(level.as_bytes());
            }
            Response::Ok => w.put_u8(resp_tag::OK),
            Response::Bool(b) => {
                w.put_u8(resp_tag::BOOL);
                put_bool(w, *b);
            }
            Response::Count(n) => {
                w.put_u8(resp_tag::COUNT);
                w.put_u64(*n);
            }
            Response::RecordId(id) => {
                w.put_u8(resp_tag::RECORD_ID);
                w.put_u64(id.0);
            }
            Response::RecordIds(ids) => {
                w.put_u8(resp_tag::RECORD_IDS);
                w.put_u64(ids.len() as u64);
                for id in ids {
                    w.put_u64(id.0);
                }
            }
            Response::Record(record) => {
                w.put_u8(resp_tag::RECORD);
                w.put_nested(|w| record.encode(w));
            }
            Response::PublicParams(params) => {
                w.put_u8(resp_tag::PUBLIC_PARAMS);
                w.put_nested(|w| params.encode(w));
            }
            Response::PrivateKey(key) => {
                w.put_u8(resp_tag::PRIVATE_KEY);
                w.put_nested(|w| key.encode(w));
            }
            Response::Bundle(bundle) => {
                w.put_u8(resp_tag::BUNDLE);
                w.put_nested(|w| bundle.encode(w));
            }
            Response::Bundles(bundles) => {
                w.put_u8(resp_tag::BUNDLES);
                w.put_u64(bundles.len() as u64);
                for bundle in bundles {
                    w.put_nested(|w| bundle.encode(w));
                }
            }
            Response::AuditEvents(events) => {
                w.put_u8(resp_tag::AUDIT_EVENTS);
                w.put_u64(events.len() as u64);
                for event in events {
                    w.put_nested(|w| event.encode(w));
                }
            }
            Response::ShuttingDown => w.put_u8(resp_tag::SHUTTING_DOWN),
            Response::Error(err) => {
                w.put_u8(resp_tag::ERROR);
                err.encode(w);
            }
            Response::ReplicaStatus {
                positions,
                writable,
            } => {
                w.put_u8(resp_tag::REPLICA_STATUS);
                w.put_u64(positions.len() as u64);
                for position in positions {
                    w.put_u64(*position);
                }
                put_bool(w, *writable);
            }
            Response::SnapshotGeneration {
                shard,
                gen,
                wal_offset,
                bytes,
            } => {
                w.put_u8(resp_tag::SNAPSHOT_GENERATION);
                w.put_u64(*shard);
                w.put_u64(*gen);
                w.put_u64(*wal_offset);
                w.put_bytes(bytes);
            }
            Response::SegmentChunk {
                shard,
                start,
                bytes,
            } => {
                w.put_u8(resp_tag::SEGMENT_CHUNK);
                w.put_u64(*shard);
                w.put_u64(*start);
                w.put_bytes(bytes);
            }
            Response::SchedStats(report) => {
                w.put_u8(resp_tag::SCHED_STATS);
                report.encode(w);
            }
        }
    }
}

/// Reads a `u64` element count, bounding it by the bytes that remain so a
/// hostile count cannot drive a huge pre-allocation.
fn read_count(r: &mut Reader<'_>, min_elem_bytes: usize) -> Result<usize, DecodeError> {
    let offset = r.offset();
    let count = r.u64()?;
    let remaining = r.remaining();
    if count > (remaining / min_elem_bytes.max(1)) as u64 {
        return Err(DecodeError::invalid(offset, "element count exceeds input"));
    }
    Ok(count as usize)
}

impl WireDecode for Response {
    type Ctx = DecodeCtx;

    fn decode(r: &mut Reader<'_>, ctx: &DecodeCtx) -> Result<Self, DecodeError> {
        let offset = r.offset();
        Ok(match r.u8()? {
            resp_tag::PONG => {
                let role_offset = r.offset();
                let role = NodeRole::from_tag(role_offset, r.u8()?)?;
                Response::Pong {
                    role,
                    level: r.string()?,
                }
            }
            resp_tag::OK => Response::Ok,
            resp_tag::BOOL => Response::Bool(read_bool(r)?),
            resp_tag::COUNT => Response::Count(r.u64()?),
            resp_tag::RECORD_ID => Response::RecordId(RecordId(r.u64()?)),
            resp_tag::RECORD_IDS => {
                let count = read_count(r, 8)?;
                let mut ids = Vec::with_capacity(count);
                for _ in 0..count {
                    ids.push(RecordId(r.u64()?));
                }
                Response::RecordIds(ids)
            }
            resp_tag::RECORD => Response::Record(Box::new(decode_nested(r, ctx)?)),
            resp_tag::PUBLIC_PARAMS => Response::PublicParams(Box::new(decode_nested(r, ctx)?)),
            resp_tag::PRIVATE_KEY => Response::PrivateKey(Box::new(decode_nested(r, ctx)?)),
            resp_tag::BUNDLE => Response::Bundle(Box::new(decode_nested(r, ctx)?)),
            resp_tag::BUNDLES => {
                let count = read_count(r, 4)?;
                let mut bundles = Vec::with_capacity(count);
                for _ in 0..count {
                    bundles.push(decode_nested(r, ctx)?);
                }
                Response::Bundles(bundles)
            }
            resp_tag::AUDIT_EVENTS => {
                let count = read_count(r, 4)?;
                let mut events = Vec::with_capacity(count);
                for _ in 0..count {
                    events.push(decode_nested(r, &())?);
                }
                Response::AuditEvents(events)
            }
            resp_tag::SHUTTING_DOWN => Response::ShuttingDown,
            resp_tag::ERROR => Response::Error(RemoteError::decode(r, &())?),
            resp_tag::REPLICA_STATUS => {
                let count = read_count(r, 8)?;
                let mut positions = Vec::with_capacity(count);
                for _ in 0..count {
                    positions.push(r.u64()?);
                }
                Response::ReplicaStatus {
                    positions,
                    writable: read_bool(r)?,
                }
            }
            resp_tag::SNAPSHOT_GENERATION => Response::SnapshotGeneration {
                shard: r.u64()?,
                gen: r.u64()?,
                wal_offset: r.u64()?,
                bytes: r.bytes()?.to_vec(),
            },
            resp_tag::SEGMENT_CHUNK => Response::SegmentChunk {
                shard: r.u64()?,
                start: r.u64()?,
                bytes: r.bytes()?.to_vec(),
            },
            resp_tag::SCHED_STATS => Response::SchedStats(SchedStatsReport::decode(r, &())?),
            tag => return Err(DecodeError::invalid_tag(offset, "response", tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tibpre_core::{Delegator, TypeTag};
    use tibpre_ibe::Kgc;
    use tibpre_wire::WireVersion;

    fn round_trip_request(req: &Request, ctx: &DecodeCtx) -> Request {
        let bytes = req.to_wire_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Request::from_wire_bytes(&bytes[..cut], ctx).is_err(),
                "cut {cut}"
            );
        }
        Request::from_wire_bytes(&bytes, ctx).unwrap()
    }

    fn round_trip_response(resp: &Response, ctx: &DecodeCtx) -> Response {
        let bytes = resp.to_wire_bytes();
        for cut in 1..bytes.len() {
            assert!(
                Response::from_wire_bytes(&bytes[..cut], ctx).is_err(),
                "cut {cut}"
            );
        }
        Response::from_wire_bytes(&bytes, ctx).unwrap()
    }

    #[test]
    fn requests_round_trip_under_both_versions() {
        let params = tibpre_pairing::PairingParams::insecure_toy();
        let mut rng = StdRng::seed_from_u64(41);
        let kgc = Kgc::setup(params.clone(), "patients", &mut rng);
        let provider_kgc = Kgc::setup(params.clone(), "providers", &mut rng);
        let alice = Identity::new("alice");
        let doctor = Identity::new("doctor");
        let delegator = Delegator::new(kgc.public_params().clone(), kgc.extract(&alice));
        let ciphertext =
            delegator.encrypt_bytes(b"vitals", b"aad", &Category::Emergency.type_tag(), &mut rng);
        let key = delegator
            .make_reencryption_key(
                &doctor,
                provider_kgc.public_params(),
                &TypeTag::new(Category::Emergency.label()),
                &mut rng,
            )
            .unwrap();
        let ctx = DecodeCtx::from(&params);

        let requests = vec![
            Request::Ping,
            Request::Shutdown,
            Request::PublicParams,
            Request::Extract {
                identity: alice.clone(),
            },
            Request::PutRecord {
                patient: alice.clone(),
                category: Category::Emergency,
                title: "blood type".into(),
                ciphertext: Box::new(ciphertext),
            },
            Request::GetRecord { id: RecordId(7) },
            Request::DeleteRecord {
                id: RecordId(8),
                requester: alice.clone(),
            },
            Request::ListRecords {
                patient: alice.clone(),
                category: None,
            },
            Request::ListRecords {
                patient: alice.clone(),
                category: Some(Category::Custom("genomics".into())),
            },
            Request::RecordCount,
            Request::Sync,
            Request::AuditSnapshot,
            Request::LogDisclosure {
                id: RecordId(9),
                requester: doctor.clone(),
                granted: true,
            },
            Request::LogPolicyChange {
                patient: alice.clone(),
                category: Category::Medication,
                grantee: doctor.clone(),
                granted: false,
            },
            Request::InstallKey { key: Box::new(key) },
            Request::RevokeKey {
                patient: alice.clone(),
                category: Category::Emergency,
                grantee: doctor.clone(),
            },
            Request::HasGrant {
                patient: alice.clone(),
                category: Category::Emergency,
                grantee: doctor.clone(),
            },
            Request::KeyCount,
            Request::Disclose {
                patient: alice.clone(),
                id: RecordId(7),
                requester: doctor.clone(),
            },
            Request::DiscloseCategory {
                patient: alice,
                category: Category::Emergency,
                requester: doctor,
            },
            Request::SubscribeReplication {
                applied: Vec::new(),
            },
            Request::SubscribeReplication {
                applied: vec![0, 4096, u64::MAX],
            },
            Request::ReplicationStatus,
            Request::Promote,
            Request::SchedStats,
        ];
        for req in &requests {
            let back = round_trip_request(req, &ctx);
            // Spot-check the discriminant survives; payload equality is
            // covered by each type's own wire tests.
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(req),
                "{req:?}"
            );
            // The v0 envelope parses too.
            let v0 = req.to_wire_bytes_versioned(WireVersion::V0);
            Request::from_wire_bytes(&v0, &ctx).unwrap();
        }
    }

    #[test]
    fn responses_round_trip_and_preserve_payloads() {
        let params = tibpre_pairing::PairingParams::insecure_toy();
        let ctx = DecodeCtx::from(&params);
        let responses = vec![
            Response::Pong {
                role: NodeRole::Store,
                level: "toy".into(),
            },
            Response::Ok,
            Response::Bool(true),
            Response::Count(42),
            Response::RecordId(RecordId(3)),
            Response::RecordIds(vec![RecordId(1), RecordId(2), RecordId(9)]),
            Response::ShuttingDown,
            Response::Error(RemoteError::NotFound),
            Response::Error(RemoteError::AccessDenied {
                category: "emergency".into(),
                requester: "mallory".into(),
            }),
            Response::Error(RemoteError::WrongRole("kgc".into())),
            Response::AuditEvents(Vec::new()),
            Response::Bundles(Vec::new()),
            Response::ReplicaStatus {
                positions: vec![10, 0, 7],
                writable: false,
            },
            Response::SnapshotGeneration {
                shard: 3,
                gen: 9,
                wal_offset: 4096,
                bytes: vec![0xAB; 32],
            },
            Response::SegmentChunk {
                shard: 1,
                start: 128,
                bytes: vec![0xCD; 16],
            },
            Response::SchedStats(SchedStatsReport::default()),
        ];
        for resp in &responses {
            let back = round_trip_response(resp, &ctx);
            assert_eq!(
                std::mem::discriminant(&back),
                std::mem::discriminant(resp),
                "{resp:?}"
            );
        }
        match round_trip_response(&Response::RecordIds(vec![RecordId(5), RecordId(6)]), &ctx) {
            Response::RecordIds(ids) => assert_eq!(ids, vec![RecordId(5), RecordId(6)]),
            other => panic!("wrong variant: {other:?}"),
        }
        match round_trip_response(
            &Response::Error(RemoteError::AccessDenied {
                category: "emergency".into(),
                requester: "mallory".into(),
            }),
            &ctx,
        ) {
            Response::Error(err) => assert_eq!(
                err,
                RemoteError::AccessDenied {
                    category: "emergency".into(),
                    requester: "mallory".into(),
                }
            ),
            other => panic!("wrong variant: {other:?}"),
        }
        // Replication frames carry raw log bytes — those must survive
        // verbatim, not just by discriminant.
        match round_trip_response(
            &Response::SegmentChunk {
                shard: 2,
                start: 777,
                bytes: vec![1, 2, 3, 4, 5],
            },
            &ctx,
        ) {
            Response::SegmentChunk {
                shard,
                start,
                bytes,
            } => {
                assert_eq!((shard, start), (2, 777));
                assert_eq!(bytes, vec![1, 2, 3, 4, 5]);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match round_trip_response(
            &Response::ReplicaStatus {
                positions: vec![64, 0, u64::MAX],
                writable: true,
            },
            &ctx,
        ) {
            Response::ReplicaStatus {
                positions,
                writable,
            } => {
                assert_eq!(positions, vec![64, 0, u64::MAX]);
                assert!(writable);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let report = SchedStatsReport {
            batches: 5,
            batched_requests: 40,
            bypass: 12,
            queue_depth: 3,
            queue_peak: 17,
            hist: [1, 2, 3, 4, 5, 6, 7, 8],
        };
        match round_trip_response(&Response::SchedStats(report.clone()), &ctx) {
            Response::SchedStats(back) => assert_eq!(back, report),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn hostile_counts_fail_before_allocating() {
        let params = tibpre_pairing::PairingParams::insecure_toy();
        let ctx = DecodeCtx::from(&params);
        // A RecordIds frame claiming u64::MAX elements with no bytes behind
        // the claim must fail on the count, not attempt the allocation.
        let mut w = Writer::with_version(WireVersion::V1);
        w.put_u8(WireVersion::V1.tag());
        w.put_u8(6); // resp_tag::RECORD_IDS
        w.put_u64(u64::MAX);
        assert!(Response::from_wire_bytes(&w.into_bytes(), &ctx).is_err());
    }

    #[test]
    fn error_mapping_round_trips_through_phr() {
        let not_found = RemoteError::from_phr(&PhrError::RecordNotFound);
        assert_eq!(not_found, RemoteError::NotFound);
        assert!(matches!(not_found.into_phr(), PhrError::RecordNotFound));
        let denied = RemoteError::from_phr(&PhrError::AccessDenied {
            category: "emergency".into(),
            requester: "mallory".into(),
        });
        assert!(matches!(
            denied.into_phr(),
            PhrError::AccessDenied { category, requester }
                if category == "emergency" && requester == "mallory"
        ));
        assert!(matches!(
            RemoteError::from_phr(&PhrError::PolicyConflict("dup")).into_phr(),
            PhrError::Storage(_)
        ));
    }

    #[test]
    fn role_and_level_names_round_trip() {
        for role in [NodeRole::Kgc, NodeRole::Proxy, NodeRole::Store] {
            assert_eq!(NodeRole::from_name(role.name()), Some(role));
        }
        assert_eq!(NodeRole::from_name("coordinator"), None);
        for level in [
            SecurityLevel::Toy,
            SecurityLevel::Low80,
            SecurityLevel::Medium112,
            SecurityLevel::High128,
        ] {
            assert_eq!(level_from_name(level_name(level)), Some(level));
        }
        assert_eq!(level_from_name("256bit"), None);
    }
}
