//! `perfbench` — the end-to-end PHR benchmark.
//!
//! Boots real `tibpre-node` processes (kgc, store, proxy) on loopback, sets
//! up a patient population, drives one of two workloads for `--seconds`
//! from this single generator process, checks every answer, crashes and
//! restarts the store and proxy, and checks what survived.  The last line
//! of standard output is the result object; `--trace 1` swaps the
//! end-to-end metrics for the per-layer ones.  See METRICS.md.
//!
//! ```console
//! perfbench --workload disclose-80 --seed 1 --seconds 10 --trace 0 \
//!     --node-bin <path to tibpre-node> --work-dir <scratch dir>
//! ```

mod conn;
mod gen;
mod layers;
mod meter;
mod nodes;
mod setup;
mod spec;
mod stats;
mod trace;
mod verify;
mod window;

use conn::RawConn;
use meter::Meter;
use nodes::{procfs, NodeSet, NodeSpec};
use setup::{populate, Population, GRANTED};
use spec::{Shape, Workload};
use stats::{median, num, quantile, quote, Metrics};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tibpre_client::{ClientConfig, ProxyClient, Request, Response};
use tibpre_pairing::DecodeCtx;
use tibpre_phr::store::StoredRecord;
use tibpre_wire::{WireDecode, WireEncode};
use verify::{Plant, Verdict, Verifier};
use window::{Clock, Ctx, Tally};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    node_bin: PathBuf,
    work_dir: PathBuf,
    smoke: bool,
    plant: Option<Plant>,
    build_info: String,
}

fn parse_args() -> Result<Args, String> {
    let mut map = HashMap::new();
    let mut flags = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => flags.push(arg),
            _ if arg.starts_with("--") => {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                map.insert(arg, value);
            }
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let number = |k: &str| -> Result<f64, String> {
        get(k)?
            .parse::<f64>()
            .map_err(|_| format!("{k} is not a number"))
    };
    let plant = match map.get("--plant") {
        Some(p) => Some(Plant::parse(p).ok_or(format!("unknown plant {p:?}"))?),
        None => None,
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed is not a whole number")?,
        seconds: number("--seconds")?.max(0.5),
        trace: get("--trace")? == "1",
        node_bin: PathBuf::from(get("--node-bin")?),
        work_dir: PathBuf::from(get("--work-dir")?),
        smoke: flags.iter().any(|f| f == "--smoke"),
        plant,
        build_info: map.get("--build-info").cloned().unwrap_or_default(),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((run_line, result_line)) => {
            println!("{run_line}");
            println!("{result_line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One set-up: boot the nodes, extract, encrypt and upload, install grants.
fn set_up(w: &Workload, a: &Args, dir: &Path) -> Result<(NodeSet, Population, f64), String> {
    let t = Instant::now();
    let nodes = NodeSet::spawn(NodeSpec {
        bin: a.node_bin.clone(),
        level: w.level_name,
        data_dir: w.durable.then(|| dir.join("data")),
        log_dir: dir.join("logs"),
    })
    .map_err(|e| format!("node boot: {e}"))?;
    let pop = populate(&nodes, w, a.seed)?;
    Ok((nodes, pop, t.elapsed().as_secs_f64()))
}

/// `/proc` counters of the generator and both serving nodes.
struct ProcSample {
    cpu: [f64; 3],
    meter_cpu: f64,
    writes: u64,
    steal: (u64, u64),
}

fn sample(nodes: &NodeSet, meter: &Meter) -> ProcSample {
    ProcSample {
        meter_cpu: meter.cpu_s(),
        cpu: [
            procfs::cpu_s(nodes.proxy.pid()),
            procfs::cpu_s(nodes.store.pid()),
            procfs::cpu_s(std::process::id()),
        ],
        writes: procfs::write_syscalls(nodes.proxy.pid())
            + procfs::write_syscalls(nodes.store.pid()),
        steal: procfs::steal_total(),
    }
}

fn sched(nodes: &NodeSet, pop: &Population) -> Option<tibpre_client::SchedStatsReport> {
    ProxyClient::connect(
        nodes.proxy.addr.as_str(),
        &pop.params,
        &ClientConfig::default(),
    )
    .ok()?
    .sched_stats()
    .ok()
}

/// Kills the store and proxy with `kill -9`, restarts them from their data
/// directories and waits until both answer; returns the seconds that took.
fn crash_recover(nodes: &mut NodeSet) -> Result<f64, String> {
    let t = Instant::now();
    nodes
        .crash_and_restart()
        .map_err(|e| format!("restart: {e}"))?;
    for addr in [&nodes.store.addr, &nodes.proxy.addr] {
        let pong = RawConn::connect(addr)
            .and_then(|mut c| c.call(&Request::Ping))
            .map_err(|e| format!("restarted node {addr}: {e}"))?;
        if pong.is_empty() {
            return Err("empty ping answer".into());
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

/// After a crash: every acknowledged put reads back byte-identical, and
/// every grant is in the state the generator last left it — in particular
/// every revoked grant is still refused.
fn durability_checks(
    nodes: &NodeSet,
    pop: &Population,
    tally: &Tally,
) -> Result<(u64, u64), String> {
    let io = |e: std::io::Error| format!("checks: {e}");
    let mut store = RawConn::connect(&nodes.store.addr).map_err(io)?;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let records = pop.patients.iter().flat_map(|s| {
        s.records
            .iter()
            .zip(&s.ciphertexts)
            .map(|(t, ct)| (t.clone(), ct.clone()))
    });
    for (truth, ciphertext) in records.chain(tally.fresh.iter().cloned()) {
        let want = Response::Record(Box::new(StoredRecord {
            id: truth.id,
            patient: truth.patient,
            category: truth.category,
            title: truth.title,
            ciphertext,
        }))
        .to_wire_bytes();
        let got = store
            .call(&Request::GetRecord { id: truth.id })
            .map_err(io)?;
        attempted += 1;
        failed += u64::from(got != want);
    }
    let model: HashMap<usize, bool> = tally.grants.iter().copied().collect();
    let decode = DecodeCtx::from(&pop.params);
    let mut proxy = RawConn::connect(&nodes.proxy.addr).map_err(io)?;
    let mut verifier = Verifier::new(pop.provider.clone(), decode.clone(), None);

    for (p, state) in pop.patients.iter().enumerate() {
        let installed = model.get(&p).copied().unwrap_or(true);
        let got = proxy
            .call(&Request::HasGrant {
                patient: state.identity.clone(),
                category: GRANTED,
                grantee: pop.provider_id.clone(),
            })
            .map_err(io)?;
        attempted += 1;
        let held = matches!(Response::from_wire_bytes(&got, &decode), Ok(Response::Bool(b)) if b == installed);
        failed += u64::from(!held);
        if !installed {
            if let Some(truth) = state.records.iter().find(|t| t.category == GRANTED) {
                let got = proxy
                    .call(&Request::Disclose {
                        patient: truth.patient.clone(),
                        id: truth.id,
                        requester: pop.provider_id.clone(),
                    })
                    .map_err(io)?;
                attempted += 1;
                failed += u64::from(verifier.check(got, truth, false, false) != Verdict::Denied);
            }
        }
    }
    Ok((attempted, failed))
}

fn run(a: &Args) -> Result<(String, String), String> {
    let base = spec::find(&a.workload).ok_or(format!("unknown workload {:?}", a.workload))?;
    let w = if a.smoke { spec::smoke(base) } else { base };
    let root = a
        .work_dir
        .join(format!("{}-s{}-p{}", w.name, a.seed, std::process::id()));
    let _scratch = ScratchDir(root.clone());
    std::fs::create_dir_all(&root).map_err(|e| format!("work dir: {e}"))?;
    // Host speed, sampled from before the first set-up to after the last
    // recovery; every CPU-bound end-to-end metric is reported at nominal
    // speed (meter.rs).
    let meter = Meter::start();

    // --- Set-up, several times; the last node set carries the run. ---
    let reps = if a.trace { 1 } else { w.setup_reps };
    let mut setup_s = Vec::new();
    let mut kept = None;
    let setup_from = Instant::now();
    for rep in 0..reps {
        if let Some((nodes, _)) = kept.take() {
            drop::<NodeSet>(nodes);
            let _ = std::fs::remove_dir_all(root.join(format!("rep{}", rep - 1)));
        }
        let (nodes, pop, secs) = set_up(&w, a, &root.join(format!("rep{rep}")))?;
        setup_s.push(secs);
        kept = Some((nodes, pop));
    }
    let (mut nodes, pop) = kept.expect("at least one set-up");
    let setup_slowness = meter.slowness(setup_from, Instant::now());
    let setup_ops = (pop.record_count() + pop.patients.len()) as u64;

    // --- Inputs for the window, generated before it. ---
    let t = Instant::now();
    let plan = window::pregen(&w, &pop, a.seed, a.seconds);
    let pregen_s = t.elapsed().as_secs_f64();

    // --- The timed window. ---
    let sched_before = if a.trace { sched(&nodes, &pop) } else { None };
    let before = sample(&nodes, &meter);
    let ctx = Ctx {
        w: &w,
        pop: &pop,
        proxy_addr: &nodes.proxy.addr,
        store_addr: &nodes.store.addr,
        trace: a.trace,
        plant: a.plant,
    };
    let clock = Clock::new(a.seconds);
    let mut tally = window::run(&ctx, &plan, clock)?;
    let after = sample(&nodes, &meter);
    let probe_from = Instant::now();
    let probe_puts = if matches!(w.shape, Shape::Open { .. }) {
        Vec::new()
    } else {
        window::put_probe(&ctx, &plan.puts, &mut tally)?
    };
    let probe_slowness = meter.slowness(probe_from, Instant::now());
    let probe_grants = window::grant_probe(&ctx, &mut tally)?;
    let sched_after = if a.trace { sched(&nodes, &pop) } else { None };
    let proxy_rss = procfs::peak_rss_mb(nodes.proxy.pid());
    let store_rss = procfs::peak_rss_mb(nodes.store.pid());

    let window_ops = tally.acked.max(1) as f64;
    let steal_share =
        (after.steal.0 - before.steal.0) as f64 / (after.steal.1 - before.steal.1).max(1) as f64;
    let late_p99 = quantile(&tally.late_ms, 0.99);

    // --- Per-layer numbers, while the nodes are idle. ---
    let mut layer = Metrics::default();
    let mut tracer = tally.tracer.take();
    if let Some(tracer) = tracer.as_mut() {
        let revoked = tally
            .grants
            .iter()
            .filter(|(_, installed)| !installed)
            .map(|&(p, _)| p)
            .collect();
        layers::measure(
            &w,
            &pop,
            &plan,
            &revoked,
            &nodes.proxy.addr,
            &root,
            a.seed,
            tracer,
            &mut layer,
        )?;
    }
    let data_bytes = nodes.data_bytes();

    // --- Crash, recover, check what survived. ---
    let cycles = if a.trace { 1 } else { w.recovery_cycles };
    let mut recovery = Vec::new();
    let recovery_from = Instant::now();
    for _ in 0..cycles {
        recovery.push(crash_recover(&mut nodes)?);
    }
    let recovery_slowness = meter.slowness(recovery_from, Instant::now());
    let (checked, check_failed) = if w.durable {
        durability_checks(&nodes, &pop, &tally)?
    } else {
        (0, 0)
    };
    let attempted = tally.attempted + checked;
    let failed = tally.failed + check_failed;
    drop(nodes);

    // --- Metrics. ---
    // Each CPU-bound time is divided by the host's slowness over the phase
    // that measured it, and the closed loop's rate multiplied by it: the
    // values at nominal host speed (meter.rs).  The open loop's rate is its
    // schedule's, whatever the host's speed.  Set-up and recovery of
    // durable nodes write and replay the data directories, and their times
    // did not follow the meter (METRICS.md), so they stay as measured.
    // The measured values go to the run line as `raw_end_to_end`.
    let window_slowness = meter.slowness(clock.start, clock.end);
    let closed = !matches!(w.shape, Shape::Open { .. });
    // Workloads without puts in their window report the upload probe.
    let (put_ms, put_slowness) = if tally.put_ms.is_empty() {
        (&probe_puts, probe_slowness)
    } else {
        (&tally.put_ms, window_slowness)
    };
    let slices = (a.seconds / spec::SLICE_S).round().max(1.0) as usize;
    let slice_len = a.seconds / slices as f64;
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    for (&at, &ms) in tally.disclose_at_s.iter().zip(&tally.disclose_ms) {
        per_slice[((at / slice_len) as usize).min(slices - 1)].push(ms);
    }
    let over_slices =
        |f: &dyn Fn(&Vec<f64>) -> f64| median(&per_slice.iter().map(f).collect::<Vec<_>>());
    let summarize = |nominal: bool| {
        let k = |slowness: f64| if nominal { slowness } else { 1.0 };
        let mut m = Metrics::default();
        // Disclosure rate and latency: medians over the window's slices.
        let rate = over_slices(&|s| s.len() as f64 / slice_len);
        let rate_k = if closed { k(window_slowness) } else { 1.0 };
        m.set("disclose_per_s", rate * rate_k, "1/s");
        let p50 = over_slices(&|s| quantile(s, 0.50));
        m.set("disclose_p50_ms", p50 / k(window_slowness), "ms");
        let put_p50 = quantile(put_ms, 0.50);
        m.set("put_p50_ms", put_p50 / k(put_slowness), "ms");
        let phase_k = |slowness: f64| if w.durable { 1.0 } else { k(slowness) };
        m.set("setup_s", median(&setup_s) / phase_k(setup_slowness), "s");
        m.set("node_rss_mb", proxy_rss + store_rss, "MiB");
        m.set(
            "recovery_s",
            median(&recovery) / phase_k(recovery_slowness),
            "s",
        );
        m
    };
    let e2e = summarize(true);
    let raw = summarize(false);

    if let Some(tracer) = &tracer {
        layer.set("disclose_p99_ms", quantile(&tally.disclose_ms, 0.99), "ms");
        layer.set("put_p99_ms", quantile(put_ms, 0.99), "ms");
        layer.set("grant_p50_ms", quantile(&probe_grants, 0.50), "ms");
        let cpu = |i: usize| (after.cpu[i] - before.cpu[i]) * 1e3 / window_ops;
        layer.set("server.proxy_cpu_ms_per_op", cpu(0), "ms");
        layer.set("server.store_cpu_ms_per_op", cpu(1), "ms");
        let spun_ms = conn::SPIN_CPU_NS.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e6;
        let metered_ms = (after.meter_cpu - before.meter_cpu) * 1e3;
        layer.set(
            "loadgen.cpu_ms_per_op",
            cpu(2) - (spun_ms + metered_ms) / window_ops,
            "ms",
        );
        layer.set(
            "server.write_syscalls_per_op",
            (after.writes - before.writes) as f64 / window_ops,
            "count",
        );
        let (Some(s0), Some(s1)) = (&sched_before, &sched_after) else {
            return Err("the proxy did not answer SchedStats".into());
        };
        let batches = s1.batches.saturating_sub(s0.batches) as f64;
        let batched = s1.batched_requests.saturating_sub(s0.batched_requests) as f64;
        let bypass = s1.bypass.saturating_sub(s0.bypass) as f64;
        layer.set(
            "server.sched_mean_batch",
            batched / batches.max(1.0),
            "count",
        );
        layer.set(
            "server.sched_bypass_share",
            bypass / (bypass + batched).max(1.0),
            "ratio",
        );
        layer.set("server.proxy_rss_mb", proxy_rss, "MiB");
        layer.set("server.store_rss_mb", store_rss, "MiB");
        let acked_total = setup_ops + tally.acked;
        layer.set(
            "storage.disk_bytes_per_op",
            data_bytes as f64 / acked_total as f64,
            "B",
        );
        layer.set("loadgen.late_p99_ms", late_p99, "ms");
        layer.set("loadgen.pregen_s", pregen_s, "s");
        layer.set("host.steal_share", steal_share, "ratio");
        layer.set("host.slowness", window_slowness, "ratio");
        let trace_path = a
            .work_dir
            .join(format!("trace-{}-s{}.jsonl", w.name, a.seed));
        tracer
            .write_jsonl(&trace_path)
            .map_err(|e| format!("trace file: {e}"))?;
    }

    // --- Validity and provenance. ---
    let mut flags = Vec::new();
    if steal_share > spec::STEAL_LIMIT {
        flags.push(format!(
            "steal_share {steal_share:.3} > {}",
            spec::STEAL_LIMIT
        ));
    }
    if matches!(w.shape, Shape::Open { .. }) && late_p99 > spec::LATE_P99_LIMIT_MS {
        flags.push(format!(
            "late_p99_ms {late_p99:.3} > {}",
            spec::LATE_P99_LIMIT_MS
        ));
    }
    let rate = match w.shape {
        Shape::Open { rate } => num(rate),
        _ => "null".to_string(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run_line = format!(
        "{{\"run\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \
         \"level\": {}, \"fsync\": {}, \"offered_rate\": {rate}, \"nproc\": {nproc}, \"build\": {}, \
         \"steal_share\": {}, \"late_p99_ms\": {}, \"valid\": {}, \"flags\": [{}], \
         \"failed_share\": {}, \"opened_bundles\": {}, \"setup_s\": [{}], \"recovery_s\": [{}], \
         \"slowness\": {{\"setup\": {}, \"window\": {}, \"probe\": {}, \"recovery\": {}, \
         \"window_burst_ms_by_cpu\": [{}], \"kept_share\": {}}}, \
         \"pregen_s\": {}, \"grant_probe_ms\": [{}], \"per_slice\": [{}], \"failures\": [{}], \
         \"end_to_end\": {}, \"raw_end_to_end\": {}, \"per_layer\": {}}}}}",
        quote(w.name),
        a.seed,
        num(a.seconds),
        a.trace,
        a.smoke,
        quote(w.level_name),
        quote(if w.durable { spec::NODE_FSYNC } else { "in-memory" }),
        quote(&a.build_info),
        num(steal_share),
        num(late_p99),
        flags.is_empty(),
        flags.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", "),
        num(failed as f64 / attempted.max(1) as f64),
        tally.opened,
        list(&setup_s),
        list(&recovery),
        num(setup_slowness),
        num(window_slowness),
        num(probe_slowness),
        num(recovery_slowness),
        list(
            &meter
                .burst_ns_by_cpu(clock.start, clock.end)
                .iter()
                .map(|ns| ns / 1e6)
                .collect::<Vec<_>>()
        ),
        num(meter.kept_share()),
        num(pregen_s),
        [0.1, 0.25, 0.5, 0.75, 0.9]
            .iter()
            .map(|&q| num(quantile(&probe_grants, q)))
            .collect::<Vec<_>>()
            .join(", "),
        per_slice.iter().map(|s| s.len().to_string()).collect::<Vec<_>>().join(", "),
        tally.failures.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", "),
        e2e.to_json(),
        raw.to_json(),
        layer.to_json(),
    );
    let metrics = if a.trace { &layer } else { &e2e };
    let result_line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.to_json()
    );
    Ok((run_line, result_line))
}

fn list(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| num(v))
        .collect::<Vec<_>>()
        .join(", ")
}
