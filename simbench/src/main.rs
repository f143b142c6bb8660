//! `simbench` — host cost and correctness of the simulated machine,
//! end to end and layer by layer. See `README.md` beside this crate.
//!
//! ```text
//! simbench --workload <kv_service|memlat_chase|kv_persist> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one simulation at a time. For `--seconds` it
//! repeats untraced batches of the workload (a fresh machine each),
//! each between two slices of a frozen reference kernel that say how
//! fast the shared host ran around it (`reference.rs`), and reports the
//! end-to-end metrics from them at the reference host's speed; then it
//! runs one traced batch (timing hooks plus memsim trace recording) and
//! replays its trace into a freshly built machine, for the per-layer
//! metrics. The last stdout line is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Human-readable detail goes to stderr.
//!
//! Correctness gates, each counted into `failed`: every batch's
//! virtual outputs equal the first batch's and the traced batch's; the
//! replayed memsim statistics equal the live ones; the workload's own
//! invariants hold (service conservation, op counts, tree size). The
//! process exits 1 if any op failed, 2 on a usage error.

mod hooks;
mod host;
mod reference;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use reference::{Reference, StepCost, REFERENCE_STEP_NS};
use workloads::{Batch, Workload};

/// Timed batches always run, however short `--seconds` is, so every
/// median has a middle.
const MIN_BATCHES: usize = 3;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("sim_ops_per_host_s", "1/s"),
    ("host_cpu_ns_per_op", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units. Every workload prints
/// every one; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 59] = [
    ("threadsim.run_s", "s"),
    ("threadsim.sys_s", "s"),
    ("threadsim.offcpu_s", "s"),
    ("threadsim.handoff_share_pct", "%"),
    ("threadsim.self_s", "s"),
    ("threadsim.self_share_pct", "%"),
    ("threadsim.threads", "count"),
    ("threadsim.sync_events", "count"),
    ("threadsim.virtual_end_us", "us"),
    ("quartz.hook_s", "s"),
    ("quartz.hook_share_pct", "%"),
    ("quartz.hook_calls", "count"),
    ("quartz.hook_ns_per_call", "ns"),
    ("quartz.hook_overlaps", "count"),
    ("quartz.epochs", "count"),
    ("quartz.epochs_monitor", "count"),
    ("quartz.skipped_min_epoch", "count"),
    ("quartz.injected_us", "us"),
    ("quartz.overhead_us", "us"),
    ("quartz.carried_overhead_us", "us"),
    ("quartz.pflushes", "count"),
    ("quartz.pflush_delay_us", "us"),
    ("quartz.write_term_us", "us"),
    ("memsim.loads", "count"),
    ("memsim.l1_hits", "count"),
    ("memsim.l2_hits", "count"),
    ("memsim.l3_hits", "count"),
    ("memsim.dram_local", "count"),
    ("memsim.dram_remote", "count"),
    ("memsim.tlb_misses", "count"),
    ("memsim.prefetches_issued", "count"),
    ("memsim.rfos", "count"),
    ("memsim.writebacks", "count"),
    ("memsim.flushes", "count"),
    ("memsim.load_stall_us", "us"),
    ("memsim.store_stall_us", "us"),
    ("memsim.trace_events", "count"),
    ("memsim.replay_s", "s"),
    ("memsim.replay_ns_per_event", "ns"),
    ("memsim.replay_share_pct", "%"),
    ("workloads.served", "count"),
    ("workloads.shed", "count"),
    ("workloads.expired", "count"),
    ("workloads.retries", "count"),
    ("workloads.goodput_mrps", "Mrps"),
    ("workloads.p50_us", "us"),
    ("workloads.p999_us", "us"),
    ("workloads.wakeups", "count"),
    ("workloads.virtual_ops_per_s", "1/s"),
    ("workloads.chase_ns_per_iter", "ns"),
    ("setup.machine_s", "s"),
    ("setup.workload_s", "s"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.batches", "count"),
    ("bench.host_slowdown", "x"),
    ("bench.raw_sim_ops_per_host_s", "1/s"),
    ("bench.raw_host_cpu_ns_per_op", "ns"),
    ("emulation_error_pct", "%"),
    ("failed_op_pct", "%"),
];

const USAGE: &str = "usage: simbench --workload <kv_service|memlat_chase|kv_persist> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The median of `xs`, the mean of the middle two for an even count.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len().is_multiple_of(2) {
        (xs[mid - 1] + xs[mid]) / 2.0
    } else {
        xs[mid]
    }
}

/// `total / count`, or 0 when there is nothing to divide by.
fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    100.0 * per(part, whole)
}

/// FNV-1a, to print a short handle on a fingerprint.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Op tally across every simulation the run made.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
}

impl Gate {
    fn count(&mut self, ops: u64, failed: u64, what: &str) {
        self.attempted += ops;
        self.failed += failed;
        if failed > 0 {
            eprintln!("simbench: FAILED {failed} of {ops} ops: {what}");
        }
    }
}

/// How much slower than the reference host the host ran around one
/// batch: the reference kernel's cost per step in the slices just
/// before and just after the batch, over [`REFERENCE_STEP_NS`]. 1 on a
/// quiet reference host, 2 when the host runs at half that speed.
#[derive(Clone, Copy)]
struct Slowdown {
    wall: f64,
    cpu: f64,
}

impl Slowdown {
    fn around(before: StepCost, after: StepCost) -> Self {
        Slowdown {
            wall: (before.wall_ns + after.wall_ns) / (2.0 * REFERENCE_STEP_NS),
            cpu: (before.cpu_ns + after.cpu_ns) / (2.0 * REFERENCE_STEP_NS),
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The engine runs one simulated thread at a time, handing a token
    // between OS threads. Across CPUs each hand-off waits for the other
    // CPU to wake, which on a shared virtualised host is mostly the
    // hypervisor's scheduling noise; on one CPU it is a plain switch. So
    // each batch runs pinned to one CPU. The batches take the allowed
    // CPUs in turn, because a shared host's CPUs can differ in speed for
    // minutes at a time. Pinned, the benchmark cannot judge cross-CPU
    // wake-up latency or spin-before-park strategies (see README.md).
    let cpus = host::allowed_cpus().unwrap_or_else(|e| {
        eprintln!("simbench: running unpinned: {e}");
        Vec::new()
    });
    let pin = |batch: usize| {
        if let Some(&cpu) = cpus.get(batch % cpus.len().max(1)) {
            if let Err(e) = host::pin_to(cpu) {
                eprintln!("simbench: {e}");
            }
        }
    };
    let w = args.workload;
    let mut gate = Gate::default();

    // End-to-end phase: untraced batches for the measurement window.
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    pin(0);
    // The first batch warms up the process (allocator, page faults,
    // lazy statics) and is checked but not timed.
    let mut batches: Vec<Batch> = vec![workloads::run_batch(w, args.seed, false)];
    // Peak memory of one simulation plus the process baseline, before
    // the reference kernel allocates its tables. Later batches only add
    // allocator fragmentation that grows with their number, which no
    // user of a single simulation sees.
    let peak_rss_mb = host::peak_rss_mb();
    // Each timed batch is bracketed by two slices of the reference
    // kernel on the same CPU, which say how fast the host ran around it.
    let mut kernel = Reference::new();
    let mut slowdowns: Vec<Slowdown> = Vec::new();
    while slowdowns.len() < MIN_BATCHES || start.elapsed() < window {
        pin(batches.len());
        let before = kernel.slice();
        batches.push(workloads::run_batch(w, args.seed, false));
        slowdowns.push(Slowdown::around(before, kernel.slice()));
    }
    let reference = batches[0].fingerprint.clone();
    for (i, b) in batches.iter().enumerate() {
        if b.fingerprint == reference {
            gate.count(b.ops, b.failed, "workload invariants");
        } else {
            gate.count(b.ops, b.ops, &format!("batch {i} differs from batch 0"));
        }
    }

    // Per-layer phase: one traced batch, then its trace replayed.
    pin(batches.len());
    let traced = workloads::run_batch(w, args.seed, true);
    if traced.fingerprint == reference {
        gate.count(traced.ops, traced.failed, "workload invariants (traced)");
    } else {
        gate.count(traced.ops, traced.ops, "traced batch differs from untraced");
    }
    let trace = traced.trace.as_ref().expect("traced batch records a trace");
    let replay_mem = workloads::replay_machine(w, args.seed);
    let t = Instant::now();
    trace.replay(&replay_mem);
    let replay_s = t.elapsed().as_secs_f64();
    if replay_mem.stats() != traced.mem_stats {
        gate.count(0, traced.ops, "replayed memsim statistics differ from live");
    }
    let emulation_error_pct = if w == Workload::MemlatChase {
        let conf1 = traced
            .layer
            .iter()
            .find(|(k, _)| *k == "workloads.chase_ns_per_iter")
            .map_or(0.0, |(_, v)| *v);
        // The reference run chases as many loads as a batch does.
        match workloads::chase_reference(args.seed) {
            Ok(conf2) => {
                eprintln!("simbench: chase Conf_1 {conf1:.3} ns/iter, Conf_2 {conf2:.3} ns/iter");
                gate.count(traced.ops, 0, "Conf_2 reference");
                pct((conf1 - conf2).abs(), conf2)
            }
            Err(why) => {
                gate.count(traced.ops, traced.ops, &format!("Conf_2 reference: {why}"));
                0.0
            }
        }
    } else {
        0.0
    };

    // The timed batches, each with the host's slowdown around it.
    let timed = &batches[1..];
    let n = timed.len() as f64;
    let engine_mean = |f: fn(&Batch) -> f64| per(timed.iter().map(f).sum(), n);
    let untraced_engine_s = median(timed.iter().map(|b| b.engine.wall_s).collect());
    let over_timed = |f: &dyn Fn(&Batch, Slowdown) -> f64| -> f64 {
        median(
            timed
                .iter()
                .zip(&slowdowns)
                .map(|(b, &s)| f(b, s))
                .collect(),
        )
    };

    // The end-to-end host times are expressed at the reference host's
    // speed: each batch's time is divided by the host's slowdown around
    // it, and the median over the window's batches is reported. The
    // shared host's speed swings up to 2x for minutes at a time, and
    // wall and CPU time both follow it; the raw medians are reported
    // per layer as `bench.raw_*`, with the slowdown itself.
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert(
        "sim_ops_per_host_s",
        over_timed(&|b, s| per(b.ops as f64 * s.wall, b.run.wall_s)),
    );
    m.insert(
        "host_cpu_ns_per_op",
        over_timed(&|b, s| per(b.run.cpu_s * 1e9 / s.cpu, b.ops as f64)),
    );
    m.insert(
        "setup_s",
        over_timed(&|b, s| (b.machine_s + b.workload_s) / s.wall),
    );
    m.insert(
        "bench.raw_sim_ops_per_host_s",
        over_timed(&|b, _| per(b.ops as f64, b.run.wall_s)),
    );
    m.insert(
        "bench.raw_host_cpu_ns_per_op",
        over_timed(&|b, _| per(b.run.cpu_s * 1e9, b.ops as f64)),
    );
    m.insert("bench.host_slowdown", over_timed(&|_, s| s.wall));
    m.insert("peak_rss_mb", peak_rss_mb);

    // Engine host time is read around the untraced batches' `Engine::run`
    // calls, averaged per batch: the program as built, and more clock
    // ticks than one batch gives.
    let run_s = engine_mean(|b| b.engine.wall_s);
    let sys_s = engine_mean(|b| b.engine.sys_s);
    let offcpu_s = (run_s - engine_mean(|b| b.engine.cpu_s)).max(0.0);
    m.insert("threadsim.run_s", run_s);
    m.insert("threadsim.sys_s", sys_s);
    m.insert("threadsim.offcpu_s", offcpu_s);
    m.insert("threadsim.handoff_share_pct", pct(sys_s + offcpu_s, run_s));
    // Hook and replay time come from the traced batch, as shares of its
    // own `Engine::run`.
    let e = traced.engine;
    let h = traced.hooks.unwrap_or_default();
    m.extend(traced.layer.iter().copied());
    m.insert("threadsim.threads", h.threads as f64);
    m.insert("threadsim.sync_events", h.sync_events as f64);
    m.insert("quartz.hook_s", h.hook_s);
    m.insert("quartz.hook_share_pct", pct(h.hook_s, e.wall_s));
    m.insert("quartz.hook_calls", h.calls as f64);
    m.insert(
        "quartz.hook_ns_per_call",
        per(h.hook_s * 1e9, h.calls as f64),
    );
    m.insert("quartz.hook_overlaps", h.overlaps as f64);
    m.insert("memsim.trace_events", trace.len() as f64);
    m.insert("memsim.replay_s", replay_s);
    m.insert(
        "memsim.replay_ns_per_event",
        per(replay_s * 1e9, trace.len() as f64),
    );
    m.insert("memsim.replay_share_pct", pct(replay_s, e.wall_s));
    // Engine self time: the traced run minus its child layers, Quartz
    // hooks and memsim (replay time standing in for the live accesses).
    // What remains is the engine plus the workload's own host code.
    let self_s = (e.wall_s - h.hook_s - replay_s).max(0.0);
    m.insert("threadsim.self_s", self_s);
    m.insert("threadsim.self_share_pct", pct(self_s, e.wall_s));
    m.insert(
        "setup.machine_s",
        median(timed.iter().map(|b| b.machine_s).collect()),
    );
    m.insert(
        "setup.workload_s",
        median(timed.iter().map(|b| b.workload_s).collect()),
    );
    m.insert(
        "bench.trace_overhead_pct",
        pct(e.wall_s - untraced_engine_s, untraced_engine_s),
    );
    m.insert("bench.batches", n);
    m.insert("emulation_error_pct", emulation_error_pct);
    m.insert(
        "failed_op_pct",
        pct(gate.failed as f64, gate.attempted as f64),
    );

    let declared = || END_TO_END.iter().chain(PER_LAYER.iter());
    for name in m.keys() {
        assert!(
            declared().any(|(n, _)| n == name),
            "metric {name} is not declared"
        );
    }
    eprintln!(
        "simbench: {} seed {} — {} untraced batches of {} ops, fingerprint {:016x}",
        w.name(),
        args.seed,
        batches.len(),
        batches[0].ops,
        fnv1a(&reference)
    );
    for (name, unit) in declared() {
        eprintln!(
            "  {name:<30} {:>18.6} {unit}",
            m.get(name).copied().unwrap_or(0.0)
        );
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = m.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        metrics.join(", ")
    );
    if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
