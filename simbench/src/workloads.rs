//! The three benchmark workloads, each built on a fresh simulated
//! machine per batch and driven through the crates' public entry
//! points: `KvService`, `run_memlat` and `run_kv_benchmark`.
//!
//! A batch is one complete simulation: build the machine, attach Quartz,
//! set up the workload, run it, and collect its virtual-time outputs.
//! Every batch of one seed is the same simulation, so its fingerprint
//! (every virtual output, rendered to a string) must repeat exactly.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use quartz::{NvmTarget, Quartz, QuartzConfig, QuartzStats};
use quartz_memsim::{MemSimConfig, MemStats, MemorySystem, Trace};
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, NodeId, Platform, PlatformConfig};
use quartz_threadsim::{Engine, RunReport, SimFailure};
use quartz_workloads::kvstore::{
    preload, run_kv_benchmark, KvBenchConfig, KvConfig, KvService, KvStore, ServiceConfig,
};
use quartz_workloads::{run_memlat, MemLatConfig, MemLatResult};

use crate::hooks::{HookTally, TimingHooks};
use crate::host::{Span, Stopwatch};

/// Processor family of every simulated machine.
const ARCH: Architecture = Architecture::SandyBridge;

/// `kv_service`: requests offered per batch, and the offered load —
/// past the protected 4-worker service's ~9 Mrps knee, so admission
/// shedding, deadline expiry and worker hand-offs all fire. The store
/// preload runs inside the timed run (the service's root thread does
/// it), so it is kept small.
const SERVICE_REQUESTS: u64 = 150_000;
const SERVICE_PRELOAD_KEYS: u64 = 2_000;
const SERVICE_OFFERED_RPS: f64 = 12.0e6;
const SERVICE_DEADLINE_US: u64 = 100;

/// `memlat_chase`: the fig11/12 4-chain chase over 8x the L3.
const CHASE_CHAINS: usize = 4;
const CHASE_ITERATIONS: u64 = 250_000;
/// Loads `run_memlat` issues per chain before it measures.
const CHASE_WARMUP_STEPS: u64 = 32;

/// `kv_persist`: a put-heavy persistent B+-tree run by two threads,
/// with a 1 us minimum epoch so epochs close at lock releases. The
/// modelled compute per op is small, so an op's virtual time is its
/// tree traffic, `pflush` and epoch work. At `KvBenchConfig`'s default
/// (1 us per put) the engine's hand-offs took as large a share of host
/// time as on `kv_service`, the workload meant to stress them.
const PERSIST_THREADS: usize = 2;
const PERSIST_OPS_PER_THREAD: u64 = 20_000;
const PERSIST_PUT_COMPUTE_NS: f64 = 100.0;
const PERSIST_GET_COMPUTE_NS: f64 = 80.0;
const PERSIST_PRELOAD_KEYS: u64 = 10_000;
const PERSIST_GET_FRACTION: f64 = 0.1;
const PERSIST_MIN_EPOCH_US: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    KvService,
    MemlatChase,
    KvPersist,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::KvService,
        Workload::MemlatChase,
        Workload::KvPersist,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvService => "kv_service",
            Workload::MemlatChase => "memlat_chase",
            Workload::KvPersist => "kv_persist",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn quartz_config(self) -> QuartzConfig {
        match self {
            Workload::KvService => {
                QuartzConfig::new(NvmTarget::optane_dcpmm()).with_max_epoch(Duration::from_us(100))
            }
            // Conf_1 of fig11/12: local DRAM emulating the remote
            // latency, at the validation experiments' 20 us epoch.
            Workload::MemlatChase => {
                QuartzConfig::new(NvmTarget::new(ARCH.params().remote_dram_ns.avg_ns as f64))
                    .with_max_epoch(Duration::from_us(20))
            }
            Workload::KvPersist => QuartzConfig::new(NvmTarget::optane_dcpmm())
                .with_max_epoch(Duration::from_us(100))
                .with_min_epoch(Duration::from_us(PERSIST_MIN_EPOCH_US)),
        }
    }
}

/// One finished batch.
pub struct Batch {
    /// Host seconds to build the machine and attach Quartz.
    pub machine_s: f64,
    /// Host seconds of workload set-up before the first timed op
    /// (service installation; B+-tree creation and preload).
    pub workload_s: f64,
    /// The timed ops.
    pub run: Span,
    /// The whole `Engine::run`.
    pub engine: Span,
    pub ops: u64,
    /// Ops whose result is missing or wrong.
    pub failed: u64,
    /// Every virtual-time output of the batch.
    pub fingerprint: String,
    /// Virtual per-layer outputs, by metric name.
    pub layer: Vec<(&'static str, f64)>,
    /// Ground-truth memory statistics at the end of the run.
    pub mem_stats: MemStats,
    /// Present on a traced batch.
    pub hooks: Option<HookTally>,
    pub trace: Option<Trace>,
}

/// Workload seed (keys, chain permutation) for a run seed: a SplitMix64
/// step, so it differs from the machine seed (DRAM jitter, counter
/// fidelity), which is the run seed itself.
fn workload_seed(seed: u64) -> u64 {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn machine(seed: u64) -> Arc<MemorySystem> {
    let platform = Platform::new(PlatformConfig::new(ARCH).with_fidelity_seed(seed));
    Arc::new(MemorySystem::new(
        platform,
        MemSimConfig::default().with_seed(seed ^ 0xA5A5),
    ))
}

fn attach(mem: &Arc<MemorySystem>, config: QuartzConfig) -> (Engine, Arc<Quartz>) {
    let engine = Engine::new(Arc::clone(mem));
    let quartz = Quartz::new(config, Arc::clone(mem)).expect("benchmark Quartz config is valid");
    quartz
        .attach(&engine)
        .expect("Quartz attaches to a fresh engine");
    (engine, quartz)
}

/// A machine configured exactly as `w`'s batches build theirs — Quartz
/// attached, so bandwidth throttles are programmed — for trace replay.
pub fn replay_machine(w: Workload, seed: u64) -> Arc<MemorySystem> {
    let mem = machine(seed);
    let _ = attach(&mem, w.quartz_config());
    mem
}

/// What a workload body hands back to [`run_batch`].
struct Outcome {
    workload_s: f64,
    run: Span,
    engine: Span,
    end: Option<RunReport>,
    ops: u64,
    failed: u64,
    result: String,
    layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Every op of the batch failed: the simulation did not complete.
    fn failure(workload_s: f64, engine: Span, ops: u64, why: String) -> Self {
        eprintln!("simbench: simulation failed: {why}");
        Outcome {
            workload_s,
            run: engine,
            engine,
            end: None,
            ops,
            failed: ops,
            result: format!("FAILED {why}"),
            layer: Vec::new(),
        }
    }
}

/// Runs one batch of `w` at `seed`. A traced batch routes the Quartz
/// hooks through a [`TimingHooks`] forwarder and records the memsim
/// event trace; an untraced batch runs the program exactly as built.
pub fn run_batch(w: Workload, seed: u64, traced: bool) -> Batch {
    let t = Instant::now();
    let mem = machine(seed);
    let (engine, quartz) = attach(&mem, w.quartz_config());
    let machine_s = t.elapsed().as_secs_f64();
    let hooks = traced.then(|| {
        let h = TimingHooks::new(Arc::clone(&quartz));
        engine.set_hooks(Arc::clone(&h) as Arc<dyn quartz_threadsim::Hooks>);
        mem.start_recording();
        h
    });
    let out = match w {
        Workload::KvService => kv_service(engine, &quartz, seed),
        Workload::MemlatChase => memlat_chase(engine, seed),
        Workload::KvPersist => kv_persist(engine, &quartz, seed),
    };
    let trace = traced.then(|| mem.stop_recording());
    let mem_stats = mem.stats();
    let qs = quartz.stats();
    let end_us = out.end.map_or(0.0, |r| r.end_time.as_ns_f64() * 1e-3);
    let mut layer = out.layer;
    layer.push(("threadsim.virtual_end_us", end_us));
    layer.extend(quartz_layer(&qs));
    layer.extend(memsim_layer(&mem_stats));
    let fingerprint = format!(
        "{}|{}|end={:?}|mem={:?}|quartz={}",
        w.name(),
        out.result,
        out.end,
        mem_stats,
        quartz_fingerprint(&qs)
    );
    Batch {
        machine_s,
        workload_s: out.workload_s,
        run: out.run,
        engine: out.engine,
        ops: out.ops,
        failed: out.failed,
        fingerprint,
        layer,
        mem_stats,
        hooks: hooks.map(|h| h.tally()),
        trace,
    }
}

/// The virtual-time part of the Quartz statistics (the slot-lock
/// telemetry fields are host measurements and are left out).
fn quartz_fingerprint(qs: &QuartzStats) -> String {
    let mut totals = qs.totals.clone();
    totals.lock_wait_ns = 0;
    totals.lock_acquisitions = 0;
    format!(
        "threads={} init={:?} totals={:?} degradation={:?}",
        qs.threads, qs.init_time, totals, qs.degradation
    )
}

fn us(d: Duration) -> f64 {
    d.as_ns_f64() * 1e-3
}

fn quartz_layer(qs: &QuartzStats) -> Vec<(&'static str, f64)> {
    let t = &qs.totals;
    vec![
        ("quartz.epochs", t.epochs() as f64),
        ("quartz.epochs_monitor", t.epochs_monitor as f64),
        ("quartz.skipped_min_epoch", t.skipped_min_epoch as f64),
        ("quartz.injected_us", us(t.injected)),
        ("quartz.overhead_us", us(t.overhead)),
        ("quartz.carried_overhead_us", us(t.carried_overhead)),
        ("quartz.pflushes", t.pflushes as f64),
        ("quartz.pflush_delay_us", us(t.pflush_delay)),
        ("quartz.write_term_us", us(t.write_term)),
    ]
}

fn memsim_layer(ms: &MemStats) -> Vec<(&'static str, f64)> {
    vec![
        ("memsim.loads", ms.total_loads() as f64),
        ("memsim.l1_hits", ms.l1_hits as f64),
        ("memsim.l2_hits", ms.l2_hits as f64),
        ("memsim.l3_hits", ms.l3_hits as f64),
        ("memsim.dram_local", ms.dram_local as f64),
        ("memsim.dram_remote", ms.dram_remote as f64),
        ("memsim.tlb_misses", ms.tlb_misses as f64),
        ("memsim.prefetches_issued", ms.prefetches_issued as f64),
        ("memsim.rfos", ms.rfos as f64),
        ("memsim.writebacks", ms.writebacks as f64),
        ("memsim.flushes", ms.flushes as f64),
        ("memsim.load_stall_us", us(ms.load_stall)),
        ("memsim.store_stall_us", us(ms.store_stall)),
    ]
}

fn service_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        requests: SERVICE_REQUESTS,
        offered_rps: SERVICE_OFFERED_RPS,
        deadline: Some(Duration::from_us(SERVICE_DEADLINE_US)),
        preload_keys: SERVICE_PRELOAD_KEYS,
        seed: workload_seed(seed),
        ..ServiceConfig::default()
    }
    .protected()
}

/// The protected open-loop service. `KvService` preloads its store
/// inside the root thread, so the preload is part of the timed run.
fn kv_service(engine: Engine, quartz: &Arc<Quartz>, seed: u64) -> Outcome {
    let t = Instant::now();
    let cfg = service_config(seed);
    let svc = KvService::try_install(&engine, Some(Arc::clone(quartz)), cfg)
        .expect("benchmark service config is valid");
    let slot = svc.result_slot();
    let workload_s = t.elapsed().as_secs_f64();
    let sw = Stopwatch::start();
    let report = engine.try_run(svc.into_root());
    let span = sw.stop();
    let result = slot.lock().take();
    let (report, r) = match (report, result) {
        (Ok(report), Some(r)) => (report, r),
        (report, _) => return Outcome::failure(workload_s, span, cfg.requests, why(report)),
    };
    let resolved = r.completed + r.shed + r.expired + r.failed;
    // A shed or expired request is a correct outcome of the protected
    // service; a lost response, or a request that resolved zero or
    // several ways (broken conservation), is a failed op.
    let failed = r.failed + r.offered.abs_diff(resolved) + r.offered.abs_diff(cfg.requests);
    Outcome {
        workload_s,
        run: span,
        engine: span,
        end: Some(report),
        ops: cfg.requests,
        failed: failed.min(cfg.requests),
        result: format!(
            "offered={} completed={} in_deadline={} shed={} expired={} failed={} retries={} \
             trips={} elapsed={:?} wakeups={} latency={}",
            r.offered,
            r.completed,
            r.served_in_deadline,
            r.shed,
            r.expired,
            r.failed,
            r.retries,
            r.breaker_trips,
            r.elapsed,
            r.wakeups,
            r.latency.to_json()
        ),
        layer: vec![
            ("workloads.served", r.completed as f64),
            ("workloads.shed", r.shed as f64),
            ("workloads.expired", r.expired as f64),
            ("workloads.retries", r.retries as f64),
            ("workloads.goodput_mrps", r.goodput_rps() * 1e-6),
            ("workloads.p50_us", r.latency.p50() as f64 * 1e-3),
            ("workloads.p999_us", r.latency.p999() as f64 * 1e-3),
            ("workloads.wakeups", r.wakeups as f64),
        ],
    }
}

fn why(report: Result<RunReport, SimFailure>) -> String {
    match report {
        Err(f) => f.to_string(),
        Ok(_) => "the workload deposited no result".into(),
    }
}

fn chase_config(mem: &MemorySystem, node: NodeId, seed: u64) -> MemLatConfig {
    MemLatConfig {
        chains: CHASE_CHAINS,
        lines_per_chain: (8 * mem.config().l3.size_bytes / 64) / CHASE_CHAINS as u64,
        iterations: CHASE_ITERATIONS,
        node,
        seed: workload_seed(seed),
    }
}

/// Runs the chase on `engine`'s machine, returning the result and the
/// host span of the `run_memlat` call (chain build, warm-up, chase).
fn chase(
    engine: Engine,
    node: NodeId,
    seed: u64,
) -> Result<(MemLatResult, Span, Span, RunReport), String> {
    let cfg = chase_config(engine.mem(), node, seed);
    let slot: Arc<Mutex<Option<(MemLatResult, Span)>>> = Arc::new(Mutex::new(None));
    let s = Arc::clone(&slot);
    let sw = Stopwatch::start();
    let report = engine.try_run(move |ctx| {
        let sw = Stopwatch::start();
        let r = run_memlat(ctx, &cfg);
        *s.lock().expect("result slot unpoisoned") = Some((r, sw.stop()));
    });
    let engine_span = sw.stop();
    let result = slot.lock().expect("result slot unpoisoned").take();
    match (report, result) {
        (Ok(report), Some((r, run))) => Ok((r, run, engine_span, report)),
        (report, _) => Err(why(report)),
    }
}

/// Conf_1 of the fig11/12 method: the chase on local DRAM under Quartz.
fn memlat_chase(engine: Engine, seed: u64) -> Outcome {
    let ops = CHASE_ITERATIONS * CHASE_CHAINS as u64;
    let mem = Arc::clone(engine.mem());
    match chase(engine, NodeId(0), seed) {
        Ok((r, run, engine_span, report)) => Outcome {
            workload_s: 0.0,
            run,
            engine: engine_span,
            end: Some(report),
            ops,
            // Every chase load reached memsim: building the chains
            // issues no simulated loads, so memsim counted exactly the
            // warm-up steps plus the measured loads.
            failed: ops
                .abs_diff(
                    mem.stats()
                        .total_loads()
                        .saturating_sub(CHASE_WARMUP_STEPS * CHASE_CHAINS as u64),
                )
                .min(ops),
            result: format!("{r:?}"),
            layer: vec![("workloads.chase_ns_per_iter", r.latency_per_iteration_ns())],
        },
        Err(why) => Outcome::failure(0.0, Span::default(), ops, why),
    }
}

/// Conf_2 of the fig11/12 method: the same chase, without Quartz, on
/// physically remote memory. Returns ns per iteration.
pub fn chase_reference(seed: u64) -> Result<f64, String> {
    let mem = machine(seed);
    let engine = Engine::new(Arc::clone(&mem));
    chase(engine, NodeId(1), seed).map(|(r, ..)| r.latency_per_iteration_ns())
}

/// Two threads of put-heavy `run_kv_benchmark` on a persistent
/// B+-tree: every put `pflush`es. Tree creation and preload run inside
/// the root thread before the timed call, and count as set-up.
fn kv_persist(engine: Engine, quartz: &Arc<Quartz>, seed: u64) -> Outcome {
    let cfg = KvBenchConfig {
        preload_keys: PERSIST_PRELOAD_KEYS,
        ops_per_thread: PERSIST_OPS_PER_THREAD,
        threads: PERSIST_THREADS,
        get_fraction: PERSIST_GET_FRACTION,
        put_compute_ns: PERSIST_PUT_COMPUTE_NS,
        get_compute_ns: PERSIST_GET_COMPUTE_NS,
        seed: workload_seed(seed),
        ..KvBenchConfig::default()
    };
    let ops = cfg.ops_per_thread * cfg.threads as u64;
    let slot = Arc::new(Mutex::new(None));
    let s = Arc::clone(&slot);
    let q = Arc::clone(quartz);
    let sw = Stopwatch::start();
    let report = engine.try_run(move |ctx| {
        let t = Instant::now();
        let store = Arc::new(KvStore::create(
            ctx,
            KvConfig::new(q.nvm_node()).with_persistence(),
        ));
        preload(ctx, &store, Some(&q), cfg.preload_keys);
        let workload_s = t.elapsed().as_secs_f64();
        let sw = Stopwatch::start();
        let r = run_kv_benchmark(ctx, &store, Some(q), &cfg);
        let run = sw.stop();
        let len = store.len();
        *s.lock().expect("result slot unpoisoned") = Some((workload_s, run, r, len));
    });
    let engine_span = sw.stop();
    let result = slot.lock().expect("result slot unpoisoned").take();
    let (report, (workload_s, run, r, len)) = match (report, result) {
        (Ok(report), Some(res)) => (report, res),
        (report, _) => return Outcome::failure(0.0, engine_span, ops, why(report)),
    };
    // Every op ran, and puts only overwrite preloaded keys, so the tree
    // still holds exactly the preloaded key space.
    let done = r.gets + r.puts;
    let mut failed = ops.abs_diff(done);
    if len != cfg.preload_keys {
        failed = ops;
    }
    Outcome {
        workload_s,
        run,
        engine: engine_span,
        end: Some(report),
        ops,
        failed: failed.min(ops),
        result: format!("{r:?} len={len}"),
        layer: vec![("workloads.virtual_ops_per_s", r.ops_per_sec())],
    }
}
