//! `overload_matrix` — the robustness headline: goodput and tail
//! latency of the open-loop KV service across offered loads straddling
//! the saturation knee, with and without the protection layer, under
//! injected service faults.
//!
//! The paper's KV results (Fig. 15/16) are closed-loop: each thread
//! issues its next operation only after the previous one completes, so
//! queueing never accumulates and slow media shows up as a mean-shift.
//! Real services face *open-loop* arrivals, and there NVM latency is
//! amplified by queueing into the tail percentiles long before the mean
//! moves. The matrix's `unprotected`/`none` slice is exactly that
//! open-loop service curve (N connection sources fanning into M
//! batching workers, coordinated-omission-free latency histograms) at
//! DRAM and at the calibrated asymmetric Optane DC PMM target
//! ([`NvmTarget::optane_dcpmm`]); unprotected cells measure goodput
//! against the deadline but do not enforce it. Past the knee an
//! unprotected open-loop service is unstable — queues (and therefore
//! sojourn times) grow with the run length, so the goodput measured
//! against a fixed deadline budget collapses while raw completions
//! stay flat. The protected configuration (deadline enforcement,
//! bounded admission window, seeded-backoff retries, per-worker
//! circuit breakers — see `quartz-workloads::kvstore::service`) sheds
//! the excess instead of queueing it, holding goodput near capacity
//! and the admitted tail within budget.
//!
//! The fault dimension injects the `quartz-faults` service-seam
//! classes ([`ServiceFaultClass`]): a persistently slow worker, a
//! worker that wedges mid-run, or nothing (the control). Each class
//! declares the worst protected-goodput degradation it may cause
//! relative to the fault-free protected cell at the same load
//! ([`ServiceFaultClass::goodput_bound_pct`]); the emitted JSON
//! carries the bounds and a per-cell conservation verdict
//! (`offered == served + shed + expired + failed`).
//!
//! Emits `BENCH_overload.json`; every cell is pure virtual-time
//! measurement with seeded fault decisions, so the file is
//! byte-identical at any `--jobs`.

use quartz::{NvmTarget, QuartzConfig};
use quartz_faults::{ServiceFaultClass, ServicePlanInjector};
use quartz_platform::Architecture;
use quartz_workloads::kvstore::{KvService, ServiceConfig, ServiceResult};

use crate::exp::{offenders, ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::json::Json;
use crate::report::{f, Table};
use crate::{build_engine, MachineSpec};

/// Machine seed for the overload cells.
const SEED: u64 = 23;

/// The per-request completion budget every cell measures goodput
/// against (and the protected cells enforce). ~25x the below-knee
/// p999, so it only bites once queueing dominates.
const DEADLINE_US: u64 = 100;

/// The fault classes the matrix sweeps (control first).
const FAULTS: [ServiceFaultClass; 3] = [
    ServiceFaultClass::None,
    ServiceFaultClass::SlowWorker,
    ServiceFaultClass::StuckWorker,
];

/// One matrix cell: memory x protection x offered load x fault.
#[derive(Clone)]
struct CellSpec {
    /// `"dram"` or `"optane"`.
    memory: &'static str,
    /// Emulated NVM target; `None` is the DRAM baseline.
    target: Option<NvmTarget>,
    /// `"unprotected"` or `"protected"`.
    mode: &'static str,
    protected: bool,
    fault: ServiceFaultClass,
    offered_rps: f64,
    requests: u64,
}

/// One measured cell, ready for the table and JSON.
#[derive(Clone)]
struct CellRow {
    memory: &'static str,
    mode: &'static str,
    fault: &'static str,
    offered_rps: f64,
    result: ServiceResult,
}

impl CellRow {
    fn label(&self) -> String {
        format!(
            "{}/{}/{}/load{:.0}M",
            self.memory,
            self.mode,
            self.fault,
            self.offered_rps / 1e6
        )
    }
}

impl CellSpec {
    fn eval(&self, arch: Architecture) -> CellRow {
        let mem = MachineSpec::new(arch).with_seed(SEED).build();
        let qc = self.target.map(|t| {
            QuartzConfig::new(t).with_max_epoch(quartz_platform::time::Duration::from_us(100))
        });
        let (engine, quartz) = build_engine(&mem, qc);
        let mut cfg = ServiceConfig {
            requests: self.requests,
            offered_rps: self.offered_rps,
            deadline: Some(quartz_platform::time::Duration::from_us(DEADLINE_US)),
            ..ServiceConfig::default()
        };
        if self.protected {
            cfg = cfg.protected();
        }
        let faults = std::sync::Arc::new(ServicePlanInjector::new(self.fault.plan(SEED)));
        let svc = KvService::try_install_with_faults(&engine, quartz, cfg, faults)
            .expect("valid service config");
        let slot = svc.result_slot();
        engine.run(svc.into_root());
        let result = slot.lock().take().expect("service deposited a result");
        CellRow {
            memory: self.memory,
            mode: self.mode,
            fault: self.fault.name(),
            offered_rps: self.offered_rps,
            result,
        }
    }
}

/// Runs the overload robustness matrix.
pub struct OverloadMatrix;

impl Experiment for OverloadMatrix {
    fn name(&self) -> &'static str {
        "overload_matrix"
    }

    fn description(&self) -> &'static str {
        "overload robustness: goodput/shed/tail across the knee, protected vs not, under service faults"
    }

    fn paper_ref(&self) -> &'static str {
        "robustness (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let arch = Architecture::SandyBridge;
        let requests: u64 = if ctx.quick() { 20_000 } else { 1_000_000 };
        // Loads straddle the 4-worker service's ~9 Mrps knee: one
        // comfortably below, one near it, the rest well past it, where
        // an unprotected open-loop service goes unstable.
        let loads: &[f64] = if ctx.quick() {
            &[2.0e6, 10.0e6, 20.0e6]
        } else {
            &[2.0e6, 6.0e6, 10.0e6, 20.0e6]
        };
        let mut points: Vec<Pt<CellSpec>> = Vec::new();
        for (memory, target) in [("dram", None), ("optane", Some(NvmTarget::optane_dcpmm()))] {
            for (mode, protected) in [("unprotected", false), ("protected", true)] {
                for fault in FAULTS {
                    for &offered_rps in loads {
                        points.push(Pt::new(
                            format!(
                                "{memory}/{mode}/{}/load{:.0}M",
                                fault.name(),
                                offered_rps / 1e6
                            ),
                            SEED,
                            CellSpec {
                                memory,
                                target,
                                mode,
                                protected,
                                fault,
                                offered_rps,
                                requests,
                            },
                        ));
                    }
                }
            }
        }
        let rows = ctx.grid(points, |p| p.data.eval(arch));

        let mut table = Table::new(
            "Overload matrix: goodput, shedding, and tails across the knee",
            &[
                "memory",
                "mode",
                "fault",
                "offered Mrps",
                "goodput Mrps",
                "served",
                "shed",
                "expired",
                "failed",
                "p999 us",
            ],
        );
        for r in &rows {
            table.row(&[
                r.memory.into(),
                r.mode.into(),
                r.fault.into(),
                f(r.offered_rps / 1e6, 2),
                f(r.result.goodput_rps() / 1e6, 2),
                r.result.completed.to_string(),
                r.result.shed.to_string(),
                r.result.expired.to_string(),
                r.result.failed.to_string(),
                f(r.result.latency.p999() as f64 / 1e3, 2),
            ]);
        }

        let mut report = ExpReport::default();
        report.table(table);
        // The headline: past the knee, unprotected goodput collapses
        // (everything completes, late) while protected goodput holds
        // near capacity by shedding the excess.
        let cell = |memory, mode, fault: &str, load: f64| {
            rows.iter()
                .find(|r| {
                    r.memory == memory
                        && r.mode == mode
                        && r.fault == fault
                        && r.offered_rps == load
                })
                .expect("matrix cell present")
        };
        let lo = loads[0];
        let hi = *loads.last().expect("nonempty loads");
        for memory in ["dram", "optane"] {
            let u_lo = cell(memory, "unprotected", "none", lo);
            let u_hi = cell(memory, "unprotected", "none", hi);
            let p_hi = cell(memory, "protected", "none", hi);
            report.note(format!(
                "({memory}: unprotected goodput {:.2} -> {:.2} Mrps from {:.0}M to \
                 {:.0}M offered (p999 {:.0} -> {:.0} us); protected holds {:.2} Mrps \
                 shedding {} of {} past the knee)",
                u_lo.result.goodput_rps() / 1e6,
                u_hi.result.goodput_rps() / 1e6,
                lo / 1e6,
                hi / 1e6,
                u_lo.result.latency.p999() as f64 / 1e3,
                u_hi.result.latency.p999() as f64 / 1e3,
                p_hi.result.goodput_rps() / 1e6,
                p_hi.result.shed,
                p_hi.result.offered,
            ));
        }
        // The open-loop story: approaching saturation, NVM degrades the
        // p999 tail before it moves the mean (the closed-loop kernels
        // can't see this); past the knee queueing dominates both.
        let (dram, nvm) = (
            slice(&rows, "dram", "unprotected", "none"),
            slice(&rows, "optane", "unprotected", "none"),
        );
        let ratios = |i: usize| {
            let (d, n) = (&dram[i].result, &nvm[i].result);
            (
                dram[i].offered_rps / 1e6,
                n.latency.mean_ns() / d.latency.mean_ns().max(f64::MIN_POSITIVE),
                n.latency.p999() as f64 / (d.latency.p999() as f64).max(1.0),
            )
        };
        let knee = dram.len().min(nvm.len());
        if knee >= 2 {
            // Among the pre-knee loads, the point where the tail has
            // departed the most while the mean has barely moved.
            let (load, mean_x, tail_x) = (0..knee - 1)
                .map(ratios)
                .max_by(|a, b| (a.2 / a.1).total_cmp(&(b.2 / b.1)))
                .expect("at least one pre-knee load");
            let (kload, kmean_x, ktail_x) = ratios(knee - 1);
            report.note(format!(
                "(below the knee NVM's penalty lands in the tail, not the mean — \
                 widest at {load:.2} Mrps: NVM/DRAM p999 {tail_x:.2}x vs mean \
                 {mean_x:.2}x; past the knee at {kload:.2} Mrps queueing dominates \
                 both: p999 {ktail_x:.2}x, mean {kmean_x:.2}x)"
            ));
        }
        report.note(format!(
            "({} requests per cell, {DEADLINE_US} us deadline budget in every cell, \
             conservation offered == served + shed + expired + failed asserted per cell; \
             fault plans seeded from {SEED})",
            requests
        ));
        report.bench_file("BENCH_overload.json", bench_json(ctx, &rows));
        overload_verdicts(&mut report, &rows);
        report
    }
}

/// One `memory`/`mode`/`fault` slice of the matrix, in sweep (offered
/// load) order.
fn slice<'a>(rows: &'a [CellRow], memory: &str, mode: &str, fault: &str) -> Vec<&'a CellRow> {
    rows.iter()
        .filter(|r| r.memory == memory && r.mode == mode && r.fault == fault)
        .collect()
}

/// The matrix's checks: request accounting in every cell, the
/// open-loop service curves of the unprotected fault-free slice, the
/// protection story past the knee, and the declared fault bounds.
fn overload_verdicts(report: &mut ExpReport, rows: &[CellRow]) {
    let failing = |bad: &dyn Fn(&CellRow) -> bool| -> Vec<String> {
        rows.iter().filter(|r| bad(r)).map(CellRow::label).collect()
    };
    let memories = ["dram", "optane"];
    let short: Vec<String> = memories
        .iter()
        .flat_map(|m| ["unprotected", "protected"].map(|mode| (m, mode)))
        .filter(|&(m, mode)| slice(rows, m, mode, "none").len() < 3)
        .map(|(m, mode)| format!("{m}/{mode}/none"))
        .collect();
    report.verdict(
        "coverage",
        rows.len() >= 36 && short.is_empty(),
        format!(
            "{} cells (>= 36 required), fault-free slices with < 3 loads={}",
            rows.len(),
            offenders(&short)
        ),
    );
    let unconserved = failing(&|r| {
        !r.result.conservation_holds() || r.result.served_in_deadline > r.result.completed
    });
    report.verdict(
        "conservation",
        unconserved.is_empty(),
        format!(
            "cells violating offered == served + shed + expired + failed or \
             served_in_deadline <= served={}",
            offenders(&unconserved)
        ),
    );
    let unordered = failing(&|r| {
        let l = &r.result.latency;
        !(l.p50() <= l.p99() && l.p99() <= l.p999())
    });
    report.verdict(
        "tails_ordered",
        unordered.is_empty(),
        format!("cells without p50 <= p99 <= p999={}", offenders(&unordered)),
    );

    // The open-loop service curves: the unprotected fault-free slice.
    let axis = |memory| -> Vec<f64> {
        slice(rows, memory, "unprotected", "none")
            .iter()
            .map(|r| r.offered_rps)
            .collect()
    };
    let (dram_axis, nvm_axis) = (axis("dram"), axis("optane"));
    report.verdict(
        "service_axis",
        dram_axis.len() >= 2 && dram_axis.windows(2).all(|w| w[0] < w[1]) && dram_axis == nvm_axis,
        format!(
            "unprotected fault-free offered axis dram {:?} vs optane {:?} Mrps (>= 2 strictly \
             increasing loads, same for both media)",
            dram_axis.iter().map(|v| v / 1e6).collect::<Vec<_>>(),
            nvm_axis.iter().map(|v| v / 1e6).collect::<Vec<_>>()
        ),
    );
    let off_curve = failing(&|r| {
        let res = &r.result;
        let achieved = res.achieved_rps();
        r.mode == "unprotected"
            && r.fault == "none"
            && !(res.completed > 0
                && achieved > 0.0
                && achieved <= 1.05 * r.offered_rps
                && res.latency.mean_ns() > 0.0
                && res.completed >= res.wakeups)
    });
    report.verdict(
        "service_curves",
        off_curve.is_empty(),
        format!(
            "unprotected fault-free cells without completed > 0, 0 < achieved <= 1.05 x \
             offered, mean > 0 and completed >= wakeups={}",
            offenders(&off_curve)
        ),
    );

    // The protection story, per memory, past the knee.
    let mut graceful = Vec::new();
    let mut divergence = Vec::new();
    let mut shedding = Vec::new();
    let mut wins = Vec::new();
    let (mut graceful_ok, mut divergence_ok, mut shedding_ok, mut wins_ok) =
        (true, true, true, true);
    for memory in memories {
        let prot = slice(rows, memory, "protected", "none");
        let unprot = slice(rows, memory, "unprotected", "none");
        // Protected goodput is monotone nondecreasing up to the knee,
        // then flat (graceful): never below 80% of the best point seen
        // so far along the load axis.
        let mut best = 0.0f64;
        let mut worst = f64::INFINITY;
        for c in &prot {
            let g = c.result.goodput_rps();
            graceful_ok &= g >= 0.8 * best;
            if best > 0.0 {
                worst = worst.min(g / best);
            }
            best = best.max(g);
        }
        graceful.push(format!("{memory} {worst:.2}"));
        let (u_lo, u_hi, p_hi) = (
            &unprot[0].result,
            &unprot[unprot.len() - 1].result,
            &prot[prot.len() - 1].result,
        );
        // Unprotected p999 diverges past the knee while protected p999
        // stays bounded by shedding and dropping expired work.
        let (u0, u1, p1) = (
            u_lo.latency.p999() as f64,
            u_hi.latency.p999() as f64,
            p_hi.latency.p999() as f64,
        );
        divergence_ok &= u1 > 3.0 * u0 && u1 > 2.0 * p1;
        divergence.push(format!(
            "{memory} unprotected {:.1} -> {:.1} us vs protected {:.1} us",
            u0 / 1e3,
            u1 / 1e3,
            p1 / 1e3
        ));
        shedding_ok &= p_hi.shed > 0;
        shedding.push(format!("{memory} shed {}", p_hi.shed));
        // The headline: protected goodput beats unprotected past the
        // knee (the unprotected service completes everything, late).
        wins_ok &= p_hi.goodput_rps() > u_hi.goodput_rps();
        wins.push(format!(
            "{memory} {:.2} vs {:.2} Mrps",
            p_hi.goodput_rps() / 1e6,
            u_hi.goodput_rps() / 1e6
        ));
    }
    report.verdict(
        "graceful_goodput",
        graceful_ok,
        format!(
            "protected fault-free goodput / best so far, minimum: {} (>= 0.80 required)",
            graceful.join(", ")
        ),
    );
    report.verdict(
        "tail_divergence",
        divergence_ok,
        format!(
            "p999 at the lowest -> highest load: {} (> 3x growth and > 2x protected required)",
            divergence.join("; ")
        ),
    );
    report.verdict(
        "sheds_past_knee",
        shedding_ok,
        format!("protected at the highest load: {}", shedding.join(", ")),
    );
    report.verdict(
        "protection_wins",
        wins_ok,
        format!(
            "protected vs unprotected goodput at the highest load: {}",
            wins.join(", ")
        ),
    );

    // Fault cells stay within their declared protected-goodput
    // degradation bounds, relative to the fault-free protected cell at
    // the same memory and load.
    let mut over_bound = Vec::new();
    let mut worst_drop = 0.0f64;
    for memory in memories {
        let clean = slice(rows, memory, "protected", "none");
        for fault in &FAULTS[1..] {
            for c in slice(rows, memory, "protected", fault.name()) {
                let Some(base) = clean.iter().find(|b| b.offered_rps == c.offered_rps) else {
                    over_bound.push(c.label());
                    continue;
                };
                let base = base.result.goodput_rps();
                if base <= 0.0 {
                    continue;
                }
                let drop = (1.0 - c.result.goodput_rps() / base).max(0.0) * 100.0;
                worst_drop = worst_drop.max(drop);
                if drop > fault.goodput_bound_pct() + 1e-9 {
                    over_bound.push(c.label());
                }
            }
        }
    }
    report.verdict(
        "fault_bounds",
        over_bound.is_empty(),
        format!(
            "worst protected goodput drop {worst_drop:.1}%, cells past their class bound={}",
            offenders(&over_bound)
        ),
    );
}

/// Renders `BENCH_overload.json`: one object per matrix cell in
/// deterministic sweep order, plus the declared per-fault goodput
/// bounds. Pure virtual-time measurement — byte-identical across hosts
/// and `--jobs`.
fn bench_json(ctx: &ExpCtx, rows: &[CellRow]) -> String {
    let cells: Vec<Json> = rows
        .iter()
        .map(|r| {
            let res = &r.result;
            Json::obj(vec![
                ("memory", Json::str(r.memory)),
                ("mode", Json::str(r.mode)),
                ("fault", Json::str(r.fault)),
                ("offered_rps", Json::Num(r.offered_rps.round())),
                ("offered", Json::Int(res.offered as i64)),
                ("served", Json::Int(res.completed as i64)),
                (
                    "served_in_deadline",
                    Json::Int(res.served_in_deadline as i64),
                ),
                ("shed", Json::Int(res.shed as i64)),
                ("expired", Json::Int(res.expired as i64)),
                ("failed", Json::Int(res.failed as i64)),
                ("retries", Json::Int(res.retries as i64)),
                ("breaker_trips", Json::Int(res.breaker_trips as i64)),
                ("goodput_rps", Json::Num(round3(res.goodput_rps()))),
                ("achieved_rps", Json::Num(round3(res.achieved_rps()))),
                ("p50_ns", Json::Int(res.latency.p50() as i64)),
                ("p99_ns", Json::Int(res.latency.p99() as i64)),
                ("p999_ns", Json::Int(res.latency.p999() as i64)),
                ("conservation_ok", Json::Bool(res.conservation_holds())),
            ])
        })
        .collect();
    let bounds: Vec<Json> = FAULTS
        .iter()
        .map(|c| {
            Json::obj(vec![
                ("fault", Json::str(c.name())),
                ("goodput_bound_pct", Json::Num(c.goodput_bound_pct())),
            ])
        })
        .collect();
    let obj = Json::obj(vec![
        ("schema", Json::Int(1)),
        ("bench", Json::str("overload_matrix")),
        ("quick", Json::Bool(ctx.quick())),
        ("deadline_us", Json::Int(DEADLINE_US as i64)),
        ("fault_bounds", Json::Arr(bounds)),
        ("cells", Json::Arr(cells)),
    ]);
    obj.render() + "\n"
}

fn round3(v: f64) -> f64 {
    (v * 1e3).round() / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declares_a_deadline_and_the_control_first() {
        const { assert!(DEADLINE_US > 0) };
        assert_eq!(
            FAULTS.map(ServiceFaultClass::name),
            ["none", "slow_worker", "stuck_worker"]
        );
    }
}
