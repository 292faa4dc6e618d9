//! The timed window: the two load shapes, each checking every answer.

use crate::conn::RawConn;
use crate::gen::{ingest_schedule, recent_biased, zipf_picks, OpKind, ScheduledOp};
use crate::setup::{body_for, ms_since, Population, GRANTED};
use crate::spec::{Shape, Workload, THREADS, WARMUP_S, ZIPF_S};
use crate::trace::Tracer;
use crate::verify::{Plant, Truth, Verdict, Verifier};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tibpre_client::{Request, Response};
use tibpre_core::HybridCiphertext;
use tibpre_pairing::DecodeCtx;
use tibpre_phr::{Category, HealthRecord, RecordId};
use tibpre_wire::{WireDecode, WireEncode};

/// Closed-loop picks generated per thread before the window; a thread that
/// uses them all starts over.
const PICKS: usize = 1 << 16;
/// Disclosures of the ingest mix aim half their draws at this many of the
/// most recently acknowledged records.
const RECENT: usize = 64;

/// A fresh record the ingest workload uploads during the window.
pub struct FreshPut {
    pub due_s: f64,
    pub patient: usize,
    pub truth: Truth,
    pub ciphertext: HybridCiphertext,
    pub request: Vec<u8>,
}

/// Inputs generated before the window.
pub struct Plan {
    /// Closed-loop disclosure picks, one list per thread (closed loops).
    pub picks: Vec<Vec<crate::gen::Pick>>,
    /// Fresh records: the scheduled puts of the open loop, or the upload
    /// probe that follows a closed-loop window.
    pub puts: Vec<FreshPut>,
    /// Scheduled disclosures and grant changes (open loop).
    pub proxy_ops: Vec<ScheduledOp>,
}

/// Lockstep uploads after a closed-loop window: the put latency of a
/// workload whose window has no puts.
const PROBE_PUTS: usize = 500;

fn fresh_put(
    pop: &Population,
    seed: u64,
    i: usize,
    u: f64,
    v: f64,
    due_s: f64,
    rng: &mut rand::rngs::StdRng,
) -> FreshPut {
    let patient = ((u * pop.patients.len() as f64) as usize).min(pop.patients.len() - 1);
    let category = if v < 1.0 / 16.0 {
        Category::MentalHealth
    } else {
        GRANTED
    };
    let state = &pop.patients[patient];
    let title = format!("fresh-{i:06}");
    let body = body_for(seed, 1_000_000 + i, 0);
    let aad = HealthRecord::associated_data(&state.identity, &category, &title);
    let ciphertext = state
        .delegator
        .encrypt_bytes(&body, &aad, &category.type_tag(), rng);
    let request = Request::PutRecord {
        patient: state.identity.clone(),
        category: category.clone(),
        title: title.clone(),
        ciphertext: Box::new(ciphertext.clone()),
    }
    .to_wire_bytes();
    FreshPut {
        due_s,
        patient,
        truth: Truth {
            id: RecordId(0),
            patient: state.identity.clone(),
            category,
            title,
            body,
        },
        ciphertext,
        request,
    }
}

pub fn pregen(w: &Workload, pop: &Population, seed: u64, seconds: f64) -> Plan {
    let mut rng = crate::gen::stream(seed, 0xf2e5_0000);
    match w.shape {
        Shape::Open { rate } => {
            let schedule = ingest_schedule(seed, rate, WARMUP_S + seconds);
            let puts = schedule
                .iter()
                .enumerate()
                .filter(|(_, op)| op.kind == OpKind::Put)
                .map(|(i, op)| fresh_put(pop, seed, i, op.u, op.v, op.due_s, &mut rng))
                .collect();
            let proxy_ops = schedule
                .into_iter()
                .filter(|op| op.kind != OpKind::Put)
                .collect();
            Plan {
                picks: Vec::new(),
                puts,
                proxy_ops,
            }
        }
        _ => {
            let mut draws = crate::gen::stream(seed, 0x9b0b_0000);
            let puts = (0..PROBE_PUTS)
                .map(|i| {
                    let (u, v) = (crate::gen::unit(&mut draws), crate::gen::unit(&mut draws));
                    fresh_put(pop, seed, i, u, v, 0.0, &mut rng)
                })
                .collect();
            let picks = (0..THREADS)
                .map(|t| {
                    zipf_picks(
                        seed,
                        t,
                        pop.owned(t).len(),
                        w.records_per_patient,
                        ZIPF_S,
                        PICKS,
                    )
                })
                .collect();
            Plan {
                picks,
                puts,
                proxy_ops: Vec::new(),
            }
        }
    }
}

/// When the load starts, and the window it is measured over: the first
/// [`WARMUP_S`] seconds let connections, caches and the scheduler settle.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    pub t0: Instant,
    pub start: Instant,
    pub end: Instant,
}

impl Clock {
    pub fn new(seconds: f64) -> Self {
        let t0 = Instant::now();
        let start = t0 + Duration::from_secs_f64(WARMUP_S);
        Clock {
            t0,
            start,
            end: start + Duration::from_secs_f64(seconds),
        }
    }

    fn in_window(&self, at: Instant) -> bool {
        at >= self.start && at <= self.end
    }

    /// Seconds into the window.
    fn at_s(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.start).as_secs_f64()
    }
}

/// What one window (or one thread of it) observed.
#[derive(Default)]
pub struct Tally {
    pub disclose_ms: Vec<f64>,
    /// When each of `disclose_ms` completed, seconds into the window.
    pub disclose_at_s: Vec<f64>,
    pub put_ms: Vec<f64>,
    pub grant_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Disclosures answered correctly (served or rightly refused) in the window.
    pub answered: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Operations the nodes acknowledged.
    pub acked: u64,
    /// Bundles opened with the delegatee key rather than matched by hash.
    pub opened: u64,
    /// Fresh records acknowledged during the window, with their ciphertexts.
    pub fresh: Vec<(Truth, HybridCiphertext)>,
    /// Final grant state of each patient a thread changed.
    pub grants: Vec<(usize, bool)>,
    pub failures: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Tally {
    /// Books what opening the first bundles found after the window.
    fn finish(&mut self, verifier: Verifier) {
        let found = verifier.finish();
        self.opened += found.opened;
        if found.failed > 0 {
            self.fail(format!(
                "{} bundles did not open to their record",
                found.failed
            ));
            self.failed += found.failed - 1;
            self.acked -= found.failed;
            self.answered -= found.failed_in_window;
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.disclose_ms.extend(other.disclose_ms);
        self.disclose_at_s.extend(other.disclose_at_s);
        self.put_ms.extend(other.put_ms);
        self.grant_ms.extend(other.grant_ms);
        self.late_ms.extend(other.late_ms);
        self.answered += other.answered;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acked += other.acked;
        self.opened += other.opened;
        self.fresh.extend(other.fresh);
        self.grants.extend(other.grants);
        self.failures.extend(other.failures);
        match (&mut self.tracer, other.tracer) {
            (Some(mine), Some(theirs)) => mine.extend(theirs),
            (None, Some(theirs)) => self.tracer = Some(theirs),
            _ => {}
        }
    }

    /// Books one disclosure verdict.
    fn disclosure(
        &mut self,
        verdict: Verdict,
        what: &Truth,
        latency_ms: f64,
        at_s: f64,
        in_window: bool,
    ) {
        self.attempted += 1;
        if verdict == Verdict::Failed {
            self.fail(format!("wrong answer for record {}", what.id.0));
            return;
        }
        self.acked += 1;
        if in_window {
            self.answered += 1;
            self.disclose_ms.push(latency_ms);
            self.disclose_at_s.push(at_s);
        }
    }
}

/// Shared, read-only inputs of every load thread.
pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub pop: &'a Population,
    pub proxy_addr: &'a str,
    pub store_addr: &'a str,
    pub trace: bool,
    pub plant: Option<Plant>,
}

impl Ctx<'_> {
    fn verifier(&self) -> Verifier {
        Verifier::new(
            Arc::clone(&self.pop.provider),
            DecodeCtx::from(&self.pop.params),
            self.plant,
        )
    }

    fn disclose(&self, truth: &Truth) -> Request {
        Request::Disclose {
            patient: truth.patient.clone(),
            id: truth.id,
            requester: self.pop.provider_id.clone(),
        }
    }
}

/// Records the client span of one answer when tracing is on.
fn span(tally: &mut Tally, request: u64, name: &'static str, sent: Instant, done: Instant) {
    if let Some(tracer) = tally.tracer.as_mut() {
        tracer.record(request, name, sent, done);
    }
}

pub fn run(ctx: &Ctx, plan: &Plan, clock: Clock) -> Result<Tally, String> {
    let acked = acked_list(ctx.pop);
    let acked = &acked;
    let results: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                scope.spawn(move || -> Result<Tally, String> {
                    let mut tally = Tally {
                        tracer: ctx.trace.then(|| Tracer::new(clock.t0)),
                        ..Tally::default()
                    };
                    match ctx.w.shape {
                        Shape::Pipelined { depth } => {
                            pipelined(ctx, thread, &plan.picks[thread], depth, clock, &mut tally)?
                        }
                        Shape::Open { .. } if thread == 0 => {
                            open_puts(ctx, &plan.puts, acked, clock, &mut tally)?
                        }
                        Shape::Open { .. } => {
                            open_proxy(ctx, &plan.proxy_ops, acked, clock, &mut tally)?
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("load thread panicked".into()))
            })
            .collect()
    });
    let mut total = Tally::default();
    for r in results {
        total.merge(r?);
    }
    Ok(total)
}

fn io(e: std::io::Error) -> String {
    format!("window: {e}")
}

/// The `disclose-80` shape: `depth` disclosures in flight per connection.
fn pipelined(
    ctx: &Ctx,
    thread: usize,
    picks: &[crate::gen::Pick],
    depth: usize,
    clock: Clock,
    tally: &mut Tally,
) -> Result<(), String> {
    let owned = ctx.pop.owned(thread);
    let mut conn = RawConn::connect(ctx.proxy_addr).map_err(io)?;
    let mut verifier = ctx.verifier();
    let end = clock.end;
    let mut in_flight: VecDeque<(Instant, &Truth, u64)> = VecDeque::new();
    let mut next = 0usize;
    let mut send = |conn: &mut RawConn, in_flight: &mut VecDeque<_>| -> Result<(), String> {
        let pick = picks[next % picks.len()];
        let truth = &ctx.pop.patients[owned[pick.patient]].records[pick.record];
        conn.send(&ctx.disclose(truth)).map_err(io)?;
        in_flight.push_back((Instant::now(), truth, ((thread as u64) << 40) | next as u64));
        next += 1;
        Ok(())
    };
    for _ in 0..depth {
        send(&mut conn, &mut in_flight)?;
    }
    while let Some((sent, truth, request)) = in_flight.pop_front() {
        let payload = conn.recv().map_err(io)?;
        let done = Instant::now();
        // No churn here: every granted-category record is served.
        let in_window = clock.in_window(done);
        let verdict = verifier.check(payload, truth, truth.category == GRANTED, in_window);
        tally.disclosure(
            verdict,
            truth,
            (done - sent).as_secs_f64() * 1e3,
            clock.at_s(done),
            in_window,
        );
        if in_window {
            span(tally, request, "client.disclose", sent, done);
        }
        if Instant::now() < end {
            send(&mut conn, &mut in_flight)?;
        }
    }
    tally.finish(verifier);
    Ok(())
}

/// Sends one grant change and checks its answer; returns whether it held.
fn grant_call(conn: &mut RawConn, request: &Request, ctx: &DecodeCtx) -> Result<bool, String> {
    let revoke = matches!(request, Request::RevokeKey { .. });
    let payload = conn.call(request).map_err(io)?;
    Ok(matches!(
        (revoke, Response::from_wire_bytes(&payload, ctx)),
        (true, Ok(Response::Bool(true))) | (false, Ok(Response::Ok))
    ))
}

fn revoke_request(ctx: &Ctx, patient: usize) -> Request {
    Request::RevokeKey {
        patient: ctx.pop.patients[patient].identity.clone(),
        category: GRANTED,
        grantee: ctx.pop.provider_id.clone(),
    }
}

fn install_request(ctx: &Ctx, patient: usize) -> Request {
    Request::InstallKey {
        key: Box::new(ctx.pop.patients[patient].grant.clone()),
    }
}

/// Records acknowledged so far, oldest first, with their patient index.
type Acked = Mutex<Vec<Arc<(usize, Truth)>>>;

fn acked_list(pop: &Population) -> Acked {
    let mut all: Vec<Arc<(usize, Truth)>> = pop
        .patients
        .iter()
        .enumerate()
        .flat_map(|(p, s)| s.records.iter().map(move |t| Arc::new((p, t.clone()))))
        .collect();
    all.sort_by_key(|a| a.1.id);
    Mutex::new(all)
}

/// The put half of the ingest mix, on its own store connection.
fn open_puts(
    ctx: &Ctx,
    puts: &[FreshPut],
    acked: &Acked,
    clock: Clock,
    tally: &mut Tally,
) -> Result<(), String> {
    let t0 = clock.t0;
    let decode = DecodeCtx::from(&ctx.pop.params);
    let mut conn = RawConn::connect(ctx.store_addr).map_err(io)?;
    let due = |i: usize| t0 + Duration::from_secs_f64(puts[i].due_s);
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut next = 0;
    loop {
        if next < puts.len() && due(next) <= Instant::now() {
            let sent = Instant::now();
            conn.send_bytes(&puts[next].request).map_err(io)?;
            tally.late_ms.push((sent - due(next)).as_secs_f64() * 1e3);
            in_flight.push_back(next);
            next += 1;
            continue;
        }
        if in_flight.is_empty() {
            if next == puts.len() {
                return Ok(());
            }
            crate::conn::spin_until(due(next));
            continue;
        }
        let until = if next < puts.len() {
            due(next)
        } else {
            Instant::now() + crate::conn::RESPONSE_TIMEOUT
        };
        if !conn.wait_readable(until).map_err(io)? {
            continue;
        }
        let payload = conn.recv().map_err(io)?;
        let done = Instant::now();
        let i = in_flight.pop_front().expect("a response has a request");
        tally.attempted += 1;
        match Response::from_wire_bytes(&payload, &decode) {
            Ok(Response::RecordId(id)) => {
                let put = &puts[i];
                let truth = Truth {
                    id,
                    ..put.truth.clone()
                };
                tally.acked += 1;
                if clock.in_window(done) {
                    tally.put_ms.push(ms_since(due(i)));
                }
                span(tally, i as u64, "client.put", due(i), done);
                acked
                    .lock()
                    .expect("acked list lock")
                    .push(Arc::new((put.patient, truth.clone())));
                tally.fresh.push((truth, put.ciphertext.clone()));
            }
            other => tally.fail(format!("put {i} answered {other:?}")),
        }
    }
}

/// What the proxy half of the ingest mix has in flight.
enum ProxyOp {
    Disclose(Arc<(usize, Truth)>, bool),
    Grant(usize, bool),
}

/// The disclose and grant part of the ingest mix, on one proxy connection.
/// It owns every grant, so each disclosure's answer is definite: a grant
/// change is only sent for a patient with no disclosure in flight, and no
/// disclosure is sent for a patient whose grant change is in flight.
fn open_proxy(
    ctx: &Ctx,
    ops: &[ScheduledOp],
    acked: &Acked,
    clock: Clock,
    tally: &mut Tally,
) -> Result<(), String> {
    let t0 = clock.t0;
    let patients = ctx.pop.patients.len();
    let decode = DecodeCtx::from(&ctx.pop.params);
    let mut conn = RawConn::connect(ctx.proxy_addr).map_err(io)?;
    let mut verifier = ctx.verifier();
    let mut installed = vec![true; patients];
    let mut changing = vec![false; patients];
    let mut busy = vec![0u32; patients];
    let due = |i: usize| t0 + Duration::from_secs_f64(ops[i].due_s);
    let mut in_flight: VecDeque<(usize, ProxyOp)> = VecDeque::new();
    let mut next = 0;
    loop {
        if next < ops.len() && due(next) <= Instant::now() {
            let op = ops[next];
            let sent = Instant::now();
            let entry = match op.kind {
                OpKind::Disclose => {
                    let list = acked.lock().expect("acked list lock");
                    let first = recent_biased(op.u, op.v, list.len(), RECENT);
                    // The drawn record, or the next older one whose
                    // patient has no grant change in flight.
                    let record = (0..list.len())
                        .map(|k| &list[(first + list.len() - k) % list.len()])
                        .find(|r| !changing[r.0])
                        .map(Arc::clone);
                    drop(list);
                    match record {
                        Some(record) => {
                            let p = record.0;
                            let expect = record.1.category == GRANTED && installed[p];
                            conn.send(&ctx.disclose(&record.1)).map_err(io)?;
                            busy[p] += 1;
                            Some(ProxyOp::Disclose(record, expect))
                        }
                        None => None,
                    }
                }
                _ => {
                    let first = ((op.u * patients as f64) as usize).min(patients - 1);
                    match (0..patients)
                        .map(|k| (first + k) % patients)
                        .find(|&p| busy[p] == 0 && !changing[p])
                    {
                        Some(p) => {
                            let request = if installed[p] {
                                revoke_request(ctx, p)
                            } else {
                                install_request(ctx, p)
                            };
                            conn.send(&request).map_err(io)?;
                            changing[p] = true;
                            Some(ProxyOp::Grant(p, installed[p]))
                        }
                        None => None,
                    }
                }
            };
            if let Some(entry) = entry {
                tally.late_ms.push((sent - due(next)).as_secs_f64() * 1e3);
                in_flight.push_back((next, entry));
            }
            next += 1;
            continue;
        }
        if in_flight.is_empty() {
            if next == ops.len() {
                tally.grants.extend(installed.iter().copied().enumerate());
                tally.finish(verifier);
                return Ok(());
            }
            crate::conn::spin_until(due(next));
            continue;
        }
        let until = if next < ops.len() {
            due(next)
        } else {
            Instant::now() + crate::conn::RESPONSE_TIMEOUT
        };
        if !conn.wait_readable(until).map_err(io)? {
            continue;
        }
        let payload = conn.recv().map_err(io)?;
        let done = Instant::now();
        let (i, op) = in_flight.pop_front().expect("a response has a request");
        let latency_ms = ms_since(due(i));
        match op {
            ProxyOp::Disclose(record, expect) => {
                busy[record.0] -= 1;
                let in_window = clock.in_window(done);
                let verdict = verifier.check(payload, &record.1, expect, in_window);
                tally.disclosure(verdict, &record.1, latency_ms, clock.at_s(done), in_window);
                span(tally, i as u64, "client.disclose", due(i), done);
            }
            ProxyOp::Grant(p, was_installed) => {
                changing[p] = false;
                tally.attempted += 1;
                let held = matches!(
                    (was_installed, Response::from_wire_bytes(&payload, &decode)),
                    (true, Ok(Response::Bool(true))) | (false, Ok(Response::Ok))
                );
                if held {
                    installed[p] = !was_installed;
                    tally.acked += 1;
                    if clock.in_window(done) {
                        tally.grant_ms.push(latency_ms);
                    }
                    span(tally, i as u64, "client.grant", due(i), done);
                } else {
                    tally.fail(format!("grant change on patient {p} refused"));
                }
            }
        }
    }
}

/// Uploads the probe records one at a time on an otherwise idle node set,
/// for the put latency of a workload whose window has no puts.
pub fn put_probe(ctx: &Ctx, puts: &[FreshPut], tally: &mut Tally) -> Result<Vec<f64>, String> {
    let decode = DecodeCtx::from(&ctx.pop.params);
    let mut conn = RawConn::connect(ctx.store_addr).map_err(io)?;
    let mut latencies = Vec::with_capacity(puts.len());
    for put in puts {
        let sent = Instant::now();
        conn.send_bytes(&put.request).map_err(io)?;
        let payload = conn.recv().map_err(io)?;
        latencies.push(ms_since(sent));
        tally.attempted += 1;
        match Response::from_wire_bytes(&payload, &decode) {
            Ok(Response::RecordId(id)) => {
                tally.acked += 1;
                let truth = Truth {
                    id,
                    ..put.truth.clone()
                };
                tally.fresh.push((truth, put.ciphertext.clone()));
            }
            other => tally.fail(format!("probe put answered {other:?}")),
        }
    }
    Ok(latencies)
}

/// Grant changes in the probe that follows the window.
const PROBE_GRANT_PAIRS: usize = 150;

/// Revokes and re-installs (or installs and re-revokes) grants one at a
/// time on the otherwise idle node set, leaving every grant as the window
/// left it: the latency of a grant change without disclosures queued ahead
/// of it on the connection.
pub fn grant_probe(ctx: &Ctx, tally: &mut Tally) -> Result<Vec<f64>, String> {
    let decode = DecodeCtx::from(&ctx.pop.params);
    let installed: std::collections::HashMap<usize, bool> = tally.grants.iter().copied().collect();
    let mut conn = RawConn::connect(ctx.proxy_addr).map_err(io)?;
    let mut latencies = Vec::with_capacity(PROBE_GRANT_PAIRS);
    for i in 0..PROBE_GRANT_PAIRS {
        let p = i % ctx.pop.patients.len();
        let steps = if installed.get(&p).copied().unwrap_or(true) {
            [revoke_request(ctx, p), install_request(ctx, p)]
        } else {
            [install_request(ctx, p), revoke_request(ctx, p)]
        };
        let sent = Instant::now();
        for step in &steps {
            let held = grant_call(&mut conn, step, &decode)?;
            tally.attempted += 1;
            if held {
                tally.acked += 1;
            } else {
                tally.fail(format!("probe grant change on patient {p} refused"));
            }
        }
        // Per pair: the mean of a revoke and an install.  The two differ in
        // cost, so a median over single changes would fall between their
        // clusters and jump with small shifts of either.
        latencies.push(ms_since(sent) / 2.0);
    }
    Ok(latencies)
}
