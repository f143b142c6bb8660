//! The **fault matrix** — the graceful-degradation conformance study.
//!
//! Every workload × fault class cell runs the same seed twice on a
//! deterministic machine (perfect counters, no DRAM jitter): once
//! fault-free, once with the class's canonical [`FaultPlan`] installed
//! at the platform seam. The virtual-timeline drift between the two
//! runs must stay within the class's *declared* error bound
//! ([`FaultClass::error_bound_pct`]) — the degradation contract: wraps
//! and constant TSC skew are absorbed exactly, retry/fallback paths may
//! cost bounded overhead, lost monitor firings at most delay epoch
//! closes. Each faulted run's [`DegradationStats`] block is exported in
//! the JSON row, and the experiment's verdicts check that the
//! degradation paths actually fired.
//!
//! Entirely virtual-time quantities, so the experiment participates in
//! the byte-identical determinism guarantee at any `--jobs` count: the
//! injector's decision streams are pure functions of `(seed, seam,
//! sequence)` and the engine serializes execution.
//!
//! [`DegradationStats`]: quartz::stats::DegradationStats
//! [`FaultPlan`]: quartz_faults::FaultPlan

use std::sync::Arc;

use quartz::{NvmTarget, Quartz, QuartzConfig, QuartzStats};
use quartz_faults::FaultClass;
use quartz_memsim::MemorySystem;
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, NodeId};
use quartz_workloads::{run_memlat, run_multithreaded, MemLatConfig, MultiThreadedConfig};

use crate::exp::{offenders, ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::{f, Table};
use crate::{error_pct, run_workload, MachineSpec};

/// The workloads swept against every fault class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    /// Single-threaded pointer chase (latency-bound, PM-only mode).
    MemLat,
    /// Lock-heavy multi-threaded run (interposition-bound).
    MultiThreaded,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::MemLat, Workload::MultiThreaded];

    fn name(self) -> &'static str {
        match self {
            Workload::MemLat => "memlat",
            Workload::MultiThreaded => "multithreaded",
        }
    }
}

/// One matrix cell: a workload under one fault class.
#[derive(Clone, Copy, Debug)]
struct Cell {
    workload: Workload,
    class: FaultClass,
}

/// What one cell evaluation produced.
struct CellRow {
    label: String,
    class: FaultClass,
    baseline: f64,
    faulted: f64,
    err_pct: f64,
    total_faults: u64,
    stats: QuartzStats,
}

/// A deterministic machine so the baseline-vs-faulted comparison is
/// exact rather than statistical.
fn matrix_machine(seed: u64) -> Arc<MemorySystem> {
    MachineSpec::new(Architecture::Haswell)
        .with_seed(seed)
        .with_no_jitter()
        .with_perfect_counters()
        .build()
}

/// The emulation target: 400 ns NVM with a bandwidth cap, so the
/// thermal (throttle) seam is programmed at attach and its
/// readback-verify path is exercised.
fn matrix_target() -> QuartzConfig {
    QuartzConfig::new(NvmTarget::new(400.0).with_bandwidth_gbps(20.0))
        .with_max_epoch(Duration::from_us(20))
}

/// Runs one workload with an optional fault class installed, returning
/// the virtual metric (ns) and the emulator stats.
fn run_cell(
    workload: Workload,
    class: Option<FaultClass>,
    seed: u64,
    quick: bool,
) -> (f64, QuartzStats) {
    let mem = matrix_machine(seed);
    if let Some(class) = class {
        quartz_faults::install(mem.platform(), class.plan(seed));
    }
    /// The boxed per-workload runner: memory system in, virtual metric
    /// and attached emulator out.
    type Metric = Box<dyn FnOnce(Arc<MemorySystem>) -> (f64, Option<Arc<Quartz>>)>;
    let metric: Metric = match workload {
        Workload::MemLat => {
            let iters = if quick { 15_000 } else { 60_000 };
            Box::new(move |mem| {
                run_workload(mem, Some(matrix_target()), move |ctx, _| {
                    run_memlat(
                        ctx,
                        &MemLatConfig {
                            chains: 1,
                            lines_per_chain: 4096,
                            iterations: iters,
                            node: NodeId(0),
                            seed: 0xFA17,
                        },
                    )
                    .latency_per_iteration_ns()
                })
            })
        }
        Workload::MultiThreaded => {
            let cs = if quick { 60 } else { 200 };
            Box::new(move |mem| {
                let cfg = MultiThreadedConfig {
                    lines_per_chain: 1 << 12,
                    ..MultiThreadedConfig::cs_only(4, cs, NodeId(0))
                };
                run_workload(mem, Some(matrix_target()), move |ctx, _| {
                    run_multithreaded(ctx, &cfg).elapsed.as_ns_f64()
                })
            })
        }
    };
    let (value, quartz) = metric(mem);
    (value, quartz.expect("quartz attached").stats())
}

impl CellRow {
    /// Whether the drift stays inside the class's declared bound.
    fn within_bound(&self) -> bool {
        self.err_pct <= self.class.error_bound_pct() + 1e-9
    }

    /// The control and pure constant skew must be absorbed exactly;
    /// every other class must leave a trace in the degradation block,
    /// or the fault never reached its seam.
    fn expect_quiet(&self) -> bool {
        matches!(self.class, FaultClass::None | FaultClass::TscSkew)
    }
}

/// The degradation contract, judged over every cell.
fn matrix_verdicts(report: &mut ExpReport, rows: &[CellRow]) {
    report.verdict(
        "coverage",
        rows.len() == 16,
        format!(
            "{} cells (2 workloads x 8 fault classes required)",
            rows.len()
        ),
    );
    let violations: Vec<&str> = rows
        .iter()
        .filter(|r| !r.within_bound())
        .map(|r| r.label.as_str())
        .collect();
    report.verdict(
        "within_bounds",
        violations.is_empty(),
        format!(
            "bound_violations={} across {} cells",
            offenders(&violations),
            rows.len()
        ),
    );
    let drifted: Vec<&str> = rows
        .iter()
        .filter(|r| r.expect_quiet() && r.err_pct != 0.0)
        .map(|r| r.label.as_str())
        .collect();
    report.verdict(
        "absorbed_exactly",
        drifted.is_empty(),
        format!(
            "none/tsc_skew cells with nonzero drift={}",
            offenders(&drifted)
        ),
    );
    let silent: Vec<&str> = rows
        .iter()
        .filter(|r| !r.expect_quiet() && r.total_faults == 0)
        .map(|r| r.label.as_str())
        .collect();
    report.verdict(
        "no_silent_classes",
        silent.is_empty(),
        format!("silent_fault_classes={}", offenders(&silent)),
    );
    // The exported stats carry the degradation block exactly where
    // faults fired: present for the storm, absent from the control.
    let stats_of = |label: &str| rows.iter().find(|r| r.label == label).map(|r| &r.stats);
    let storm_faults = stats_of("memlat/storm").map_or(0, |s| s.degradation.total_faults());
    let control_clean =
        stats_of("memlat/none").is_some_and(|s| !s.to_json().contains("\"degradation\""));
    report.verdict(
        "degradation_exported",
        storm_faults >= 1 && control_clean,
        format!(
            "memlat/storm total_faults={storm_faults}, memlat/none degradation block absent={control_clean}"
        ),
    );
}

fn eval_cell(pt: &Pt<Cell>, quick: bool) -> CellRow {
    let cell = pt.data;
    let (baseline, _) = run_cell(cell.workload, None, pt.seed, quick);
    let (faulted, stats) = run_cell(cell.workload, Some(cell.class), pt.seed, quick);
    let err_pct = error_pct(faulted, baseline);
    CellRow {
        label: pt.label.clone(),
        class: cell.class,
        baseline,
        faulted,
        err_pct,
        total_faults: stats.degradation.total_faults(),
        stats,
    }
}

/// The workload × fault-class degradation conformance matrix.
pub struct FaultMatrix;

impl Experiment for FaultMatrix {
    fn name(&self) -> &'static str {
        "fault_matrix"
    }

    fn description(&self) -> &'static str {
        "graceful degradation: every workload x fault class within its declared error bound"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.1-§3.3 robustness (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let quick = ctx.quick();
        let mut points = Vec::new();
        for workload in Workload::ALL {
            for (i, class) in FaultClass::ALL.into_iter().enumerate() {
                points.push(Pt::new(
                    format!("{}/{}", workload.name(), class.name()),
                    0xFA_u64 + i as u64,
                    Cell { workload, class },
                ));
            }
        }
        let rows = ctx.grid(points, |pt| eval_cell(pt, quick));

        let mut table = Table::new(
            "Fault matrix — virtual-timeline drift under injected platform faults",
            &[
                "workload/class",
                "baseline ns",
                "faulted ns",
                "drift %",
                "bound %",
                "faults",
                "verdict",
            ],
        );
        let mut report = ExpReport::default();
        for r in &rows {
            let bound = r.class.error_bound_pct();
            table.row(&[
                r.label.clone(),
                f(r.baseline, 2),
                f(r.faulted, 2),
                f(r.err_pct, 3),
                f(bound, 1),
                r.total_faults.to_string(),
                if r.within_bound() {
                    "within"
                } else {
                    "EXCEEDED"
                }
                .into(),
            ]);
            report.stat(r.label.clone(), r.stats.to_json());
        }
        report.table(table);
        matrix_verdicts(&mut report, &rows);
        report.note(
            "(each cell is a same-seed A/B on a jitter-free machine with perfect counters: \
             drift is attributable to the injected fault alone)",
        );
        report.note(
            "(wrap and constant TSC skew rows must read ~0: wrap-aware delta math and \
             per-socket skew cancellation absorb them exactly)",
        );
        report
    }
}
