//! The **failure taxonomy self-test** — deliberately failing
//! micro-workloads asserting that every [`SimFailure`] class is
//! contained, classified, and diagnosed by name.
//!
//! Each scenario drives [`Engine::try_run`] into one failure mode and
//! checks the returned classification:
//!
//! * `deadlock/*` must come back as [`SimFailure::Deadlock`] with the
//!   actual lock cycle named (`t1 -(m1)-> t2, t2 -(m0)-> t1`);
//! * `panic/child` must come back as [`SimFailure::ThreadPanic`]
//!   carrying the sim-thread id and the original payload;
//! * `hang/virtual_spin` must trip the host-side watchdog and come back
//!   as [`SimFailure::Hang`] naming the scheduler-token holder;
//! * `livelock/cas_storm` must trip the consecutive-failed-CAS streak
//!   detector and come back as [`SimFailure::Livelock`] naming the
//!   spinning thread set (progress in virtual time, none in the data);
//! * `timeout/recv_expiry` must come back `ok`: a legitimate
//!   `recv_timeout`/`send_timeout` expiry is a pending virtual-time
//!   event, and neither the armed watchdog nor the deadlock detector
//!   may misread the timed wait as lost progress;
//! * `deadlock/quartz_reap` additionally checks the emulator-side
//!   containment: the attached Quartz instance reaps every orphaned
//!   per-thread slot and flags the undrained flush as an epoch-state
//!   anomaly, so the runtime stays usable for the next run.
//!
//! A misclassification or an unexpected diagnostic fails the
//! experiment's `classified` or `diagnosed` verdict, which quarantines
//! it and makes `repro` exit non-zero — the self-test *is* the
//! assertion. The table prints only deterministic diagnostics (thread
//! ids, cycles, configured budgets — never host-dependent sim-times of
//! the hang path), so the experiment participates in the byte-identical
//! `--jobs` guarantee.
//!
//! [`Engine::try_run`]: quartz_threadsim::Engine::try_run
//! [`SimFailure`]: quartz_threadsim::SimFailure

use std::sync::Arc;

use quartz::{NvmTarget, Quartz, QuartzConfig};
use quartz_memsim::MemorySystem;
use quartz_platform::time::Duration;
use quartz_platform::Architecture;
use quartz_threadsim::{Engine, SimFailure};

use crate::exp::{offenders, ExpCtx, ExpReport, Experiment};
use crate::grid::Pt;
use crate::report::Table;
use crate::MachineSpec;

/// The watchdog budget used by the hang scenario. Host time, but a
/// configured constant, so it may appear in deterministic output.
const HANG_BUDGET_MS: u64 = 25;

/// The consecutive-failed-CAS threshold for the livelock scenario.
/// Low enough to fire quickly, far above any legitimate retry streak
/// in these micro-workloads.
const LIVELOCK_THRESHOLD: u64 = 400;

/// One deliberately failing (or deliberately healthy) micro-workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scenario {
    /// Control: a healthy multi-threaded run must classify as `ok`.
    Clean,
    /// Classic ABBA lock inversion between two children.
    DeadlockAbba,
    /// A child thread panics with a known payload.
    PanicChild,
    /// The root spins in virtual time forever; the watchdog must name it.
    HangVirtualSpin,
    /// A no-progress CAS storm between two children; the streak
    /// detector must name the spinning thread set.
    LivelockCasStorm,
    /// ABBA deadlock with Quartz attached: slots must be reaped.
    DeadlockQuartzReap,
    /// A legitimate `recv_timeout` expiry on a never-fed channel, with
    /// the watchdog armed: a *timed* wait is a pending virtual-time
    /// event, not a hang or deadlock, and must classify as `ok`.
    TimeoutRecvExpiry,
}

impl Scenario {
    const ALL: [Scenario; 7] = [
        Scenario::Clean,
        Scenario::DeadlockAbba,
        Scenario::PanicChild,
        Scenario::HangVirtualSpin,
        Scenario::LivelockCasStorm,
        Scenario::DeadlockQuartzReap,
        Scenario::TimeoutRecvExpiry,
    ];

    fn name(self) -> &'static str {
        match self {
            Scenario::Clean => "clean/control",
            Scenario::DeadlockAbba => "deadlock/abba",
            Scenario::PanicChild => "panic/child",
            Scenario::HangVirtualSpin => "hang/virtual_spin",
            Scenario::LivelockCasStorm => "livelock/cas_storm",
            Scenario::DeadlockQuartzReap => "deadlock/quartz_reap",
            Scenario::TimeoutRecvExpiry => "timeout/recv_expiry",
        }
    }

    /// The [`SimFailure::kind`] (or `"ok"`) the scenario must produce.
    fn expected(self) -> &'static str {
        match self {
            Scenario::Clean | Scenario::TimeoutRecvExpiry => "ok",
            Scenario::DeadlockAbba | Scenario::DeadlockQuartzReap => "deadlock",
            Scenario::PanicChild => "panic",
            Scenario::HangVirtualSpin => "hang",
            Scenario::LivelockCasStorm => "livelock",
        }
    }

    /// The diagnostic the scenario must produce: the whole line for the
    /// deliberate failures (threads, locks, payload and budgets are
    /// fixed by construction), the leading words for the healthy runs,
    /// whose line ends in a virtual timestamp.
    fn diagnostic(self) -> String {
        const CYCLE: &str = "t1 -(m1)-> t2, t2 -(m0)-> t1";
        match self {
            Scenario::Clean => "completed at ".to_string(),
            Scenario::DeadlockAbba => CYCLE.to_string(),
            Scenario::PanicChild => "t1 \"injected fault\"".to_string(),
            Scenario::HangVirtualSpin => format!("t0 exceeded {HANG_BUDGET_MS}ms watchdog budget"),
            Scenario::LivelockCasStorm => {
                format!("t1+t2 failed {LIVELOCK_THRESHOLD} consecutive CAS without progress")
            }
            Scenario::DeadlockQuartzReap => format!("{CYCLE}; reaped=3 anomalies=1"),
            Scenario::TimeoutRecvExpiry => {
                "recv_timeout + send_timeout expired cleanly at ".to_string()
            }
        }
    }
}

/// One evaluated scenario, ready for the table.
struct Row {
    label: String,
    scenario: Scenario,
    observed: String,
    diagnostic: String,
}

impl Row {
    fn classified(&self) -> bool {
        self.observed == self.scenario.expected()
    }

    fn diagnosed(&self) -> bool {
        let want = self.scenario.diagnostic();
        if self.scenario.expected() == "ok" {
            self.diagnostic.starts_with(&want)
        } else {
            self.diagnostic == want
        }
    }
}

/// A fully deterministic machine: classification diagnostics must be
/// byte-identical run to run.
fn taxonomy_machine(seed: u64) -> Arc<MemorySystem> {
    MachineSpec::new(Architecture::IvyBridge)
        .with_seed(seed)
        .with_no_jitter()
        .with_perfect_counters()
        .build()
}

/// The deterministic one-line diagnostic of a classified failure:
/// deadlock cycles as `t1 -(m1)-> t2, t2 -(m0)-> t1`, the panicking
/// thread with its payload, the hang's token holder and budget, the
/// livelock's spinning set and threshold. Never a host-dependent
/// sim-time.
fn describe(failure: &SimFailure) -> String {
    match failure {
        SimFailure::Deadlock(report) => report
            .cycle
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        SimFailure::ThreadPanic {
            thread, message, ..
        } => format!("t{} \"{}\"", thread.0, message),
        SimFailure::Hang { thread, budget, .. } => {
            format!("t{} exceeded {:?} watchdog budget", thread.0, budget)
        }
        SimFailure::Livelock {
            threads, threshold, ..
        } => {
            let spinners = threads
                .iter()
                .map(|t| format!("t{}", t.0))
                .collect::<Vec<_>>()
                .join("+");
            format!("{spinners} failed {threshold} consecutive CAS without progress")
        }
        other => other.to_string(),
    }
}

/// The ABBA child pair used by both deadlock scenarios.
fn spawn_abba(ctx: &mut quartz_threadsim::ThreadCtx) {
    let a = ctx.mutex_new();
    let b = ctx.mutex_new();
    let k1 = ctx.spawn(move |c| {
        c.mutex_lock(a);
        c.compute_ns(5_000.0);
        c.mutex_lock(b); // waits for k2 forever
    });
    let k2 = ctx.spawn(move |c| {
        c.mutex_lock(b);
        c.compute_ns(5_000.0);
        c.mutex_lock(a); // waits for k1 forever
    });
    ctx.join(k1);
    ctx.join(k2);
}

fn eval(pt: &Pt<Scenario>) -> Row {
    let scenario = pt.data;
    let mem = taxonomy_machine(pt.seed);
    let engine = Engine::new(Arc::clone(&mem));
    let mut quartz = None;
    let outcome = match scenario {
        Scenario::Clean => engine.try_run(|ctx| {
            let m = ctx.mutex_new();
            let kids: Vec<_> = (0..2)
                .map(|_| {
                    ctx.spawn(move |c| {
                        c.mutex_lock(m);
                        c.compute_ns(10_000.0);
                        c.mutex_unlock(m);
                    })
                })
                .collect();
            for k in kids {
                ctx.join(k);
            }
        }),
        Scenario::DeadlockAbba => engine.try_run(spawn_abba),
        Scenario::PanicChild => engine.try_run(|ctx| {
            let k = ctx.spawn(|c| {
                c.compute_ns(2_000.0);
                panic!("injected fault");
            });
            ctx.join(k);
        }),
        Scenario::HangVirtualSpin => {
            engine.set_watchdog(Some(std::time::Duration::from_millis(HANG_BUDGET_MS)));
            engine.try_run(|ctx| loop {
                ctx.compute_ns(10.0);
            })
        }
        Scenario::LivelockCasStorm => {
            engine.set_livelock_threshold(LIVELOCK_THRESHOLD);
            let a = engine.atomic_u64(0);
            engine.try_run(move |ctx| {
                let kids: Vec<_> = (0..2)
                    .map(|_| {
                        ctx.spawn(move |c| loop {
                            c.compute_ns(25.0);
                            // The expected value never appears, so
                            // nobody ever makes progress — the
                            // definitional livelock.
                            let _ = a.compare_exchange(c, 99, 100);
                        })
                    })
                    .collect();
                for k in kids {
                    ctx.join(k);
                }
            })
        }
        Scenario::DeadlockQuartzReap => {
            let q = Quartz::new(
                QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0))
                    .with_max_epoch(Duration::from_us(50)),
                Arc::clone(&mem),
            )
            .expect("valid quartz config");
            q.attach(&engine).expect("attach");
            quartz = Some(Arc::clone(&q));
            engine.try_run(move |ctx| {
                let buf = q.pmalloc(ctx, 4096).expect("pmalloc");
                ctx.store(buf);
                q.pflush_opt(ctx, buf); // left pending on purpose
                spawn_abba(ctx);
            })
        }
        Scenario::TimeoutRecvExpiry => {
            // Same watchdog the hang scenario uses: if timed waits were
            // misread as lost progress, this budget would trip.
            engine.set_watchdog(Some(std::time::Duration::from_millis(HANG_BUDGET_MS)));
            let never_fed = engine.channel::<u64>();
            let slot = engine.bounded_channel::<u64>(1);
            engine.try_run(move |ctx| {
                use quartz_threadsim::{RecvTimeoutError, SendTimeoutError};
                let r = ctx.chan_recv_timeout(&never_fed, Duration::from_us(500));
                assert!(
                    matches!(r, Err(RecvTimeoutError::Timeout)),
                    "never-fed channel must expire, got {r:?}"
                );
                // Same discipline on the send side: a full bounded
                // slot with no drainer expires instead of wedging.
                ctx.chan_send(&slot, 1);
                let s = ctx.chan_send_timeout(&slot, 2, Duration::from_us(500));
                assert!(
                    matches!(s, Err(SendTimeoutError::Timeout(2))),
                    "full slot must expire the timed send"
                );
            })
        }
    };
    let (observed, mut diagnostic) = match &outcome {
        Ok(report) if scenario == Scenario::TimeoutRecvExpiry => (
            "ok".to_string(),
            format!(
                "recv_timeout + send_timeout expired cleanly at {} \
                 (watchdog armed, no hang/deadlock)",
                report.end_time
            ),
        ),
        Ok(report) => (
            "ok".to_string(),
            format!("completed at {}", report.end_time),
        ),
        Err(failure) => (failure.kind().to_string(), describe(failure)),
    };
    // Emulator-side containment: every orphaned per-thread slot reaped,
    // the undrained flush flagged as an epoch-state anomaly.
    if let Some(q) = quartz {
        let d = q.stats().degradation;
        diagnostic.push_str(&format!(
            "; reaped={} anomalies={}",
            d.orphan_slots_reaped, d.epoch_state_anomalies
        ));
    }
    Row {
        label: pt.label.clone(),
        scenario,
        observed,
        diagnostic,
    }
}

/// The failure-containment self-test experiment.
pub struct FailureModes;

impl Experiment for FailureModes {
    fn name(&self) -> &'static str {
        "failure_modes"
    }

    fn description(&self) -> &'static str {
        "failure containment: deadlock/panic/hang classified with named diagnostics"
    }

    fn paper_ref(&self) -> &'static str {
        "robustness (extension)"
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        let points: Vec<Pt<Scenario>> = Scenario::ALL
            .into_iter()
            .map(|s| Pt::new(s.name(), 0xFA11, s))
            .collect();
        let rows = ctx.grid(points, eval);

        let mut table = Table::new(
            "Failure taxonomy self-test — deliberate failures, expected classifications",
            &["scenario", "expected", "observed", "diagnostic"],
        );
        for r in &rows {
            table.row(&[
                r.label.clone(),
                r.scenario.expected().to_string(),
                r.observed.clone(),
                r.diagnostic.clone(),
            ]);
        }
        let mut report = ExpReport::with_table(table);
        report.note(format!(
            "(hang detection is host-timed — watchdog budget {HANG_BUDGET_MS} ms — but the \
             classification and named token holder are deterministic; host-dependent \
             sim-times are omitted from the table)"
        ));
        report.note(
            "(deadlock/quartz_reap also checks emulator containment: all 3 orphaned \
             per-thread slots reaped and the undrained flush counted as an epoch-state \
             anomaly, leaving the runtime clean for subsequent runs)",
        );
        let total = Scenario::ALL.len();
        let misclassified: Vec<&str> = rows
            .iter()
            .filter(|r| !r.classified())
            .map(|r| r.label.as_str())
            .collect();
        report.verdict(
            "classified",
            rows.len() == total && misclassified.is_empty(),
            format!(
                "{}/{total} scenarios classified as expected; misclassified={}",
                rows.len() - misclassified.len(),
                offenders(&misclassified)
            ),
        );
        let undiagnosed: Vec<&str> = rows
            .iter()
            .filter(|r| !r.diagnosed())
            .map(|r| r.label.as_str())
            .collect();
        report.verdict(
            "diagnosed",
            undiagnosed.is_empty(),
            format!(
                "{}/{total} diagnostics name the expected threads, locks, payload and \
                 budgets; mismatched={}",
                rows.len() - undiagnosed.len(),
                offenders(&undiagnosed)
            ),
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_misclassified_scenario_fails_its_verdicts() {
        let row = |scenario: Scenario, observed: &str, diagnostic: String| Row {
            label: scenario.name().to_string(),
            scenario,
            observed: observed.to_string(),
            diagnostic,
        };
        let good = row(
            Scenario::DeadlockAbba,
            "deadlock",
            Scenario::DeadlockAbba.diagnostic(),
        );
        assert!(good.classified() && good.diagnosed());
        // A three-edge cycle is not the ABBA pair.
        let long = row(
            Scenario::DeadlockAbba,
            "deadlock",
            format!("{}, t3 -(m2)-> t1", Scenario::DeadlockAbba.diagnostic()),
        );
        assert!(long.classified() && !long.diagnosed());
        let missed = row(Scenario::HangVirtualSpin, "ok", "completed at 5 ns".into());
        assert!(!missed.classified() && !missed.diagnosed());
        let clean = row(Scenario::Clean, "ok", "completed at 22154.000 ns".into());
        assert!(clean.classified() && clean.diagnosed());
    }
}
