//! Interposition hot-path contention microbenchmark: the cost the
//! sharded per-thread registry (`quartz::registry`) keeps off the
//! interposition path.
//!
//! N simulated threads hammer lock/unlock with and without monitor
//! pressure, and the emulator's own host-side telemetry reports
//! slot-lock acquisitions and the host nanoseconds spent *waiting* on
//! them. With the sharded design the monitor's age scan takes no
//! per-thread lock, so monitor pressure must not add measurable wait.
//!
//! The seed's single global `Mutex<HashMap>` discipline was measured
//! against the sharded slots on real OS threads when the registry was
//! sharded; that A/B is kept as evidence in
//! `results/contention__2__*.csv`, not rerun here.

use std::time::Instant;

use quartz::{NvmTarget, QuartzConfig};
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, NodeId};

use crate::exp::{ExpCtx, ExpReport, Experiment};
use crate::report::{f, Table};
use crate::{run_workload, MachineSpec};

/// A lock/unlock storm under the real emulator. Returns
/// `(host_ns_per_event, events, lock_wait_ns, epochs)` where an "event"
/// is one slot-lock acquisition (interposition touching shared state).
fn emulated_storm(threads: u64, rounds: u64, monitor_pressure: bool) -> (f64, u64, u64, u64) {
    let mem = MachineSpec::new(Architecture::IvyBridge)
        .with_seed(7)
        .build();
    let max_epoch = if monitor_pressure {
        Duration::from_us(20)
    } else {
        Duration::from_ms(10)
    };
    let cfg = QuartzConfig::new(NvmTarget::new(400.0))
        .with_max_epoch(max_epoch)
        .with_min_epoch(Duration::ZERO); // every unlock closes an epoch
    let host_t0 = Instant::now();
    let (_, quartz) = run_workload(mem, Some(cfg), move |ctx, _| {
        let m = ctx.mutex_new();
        let lines = ctx.mem().config().l3.size_bytes / 64;
        let mut kids = Vec::new();
        for k in 0..threads {
            kids.push(ctx.spawn(move |c| {
                let buf = c.alloc_on(NodeId(0), lines * 64);
                let mut idx = 17 * k + 1;
                for _ in 0..rounds {
                    c.mutex_lock(m);
                    for _ in 0..4 {
                        idx = (idx.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1)) % lines;
                        c.load(buf.offset_by(idx * 64));
                    }
                    c.mutex_unlock(m);
                }
            }));
        }
        for kid in kids {
            ctx.join(kid);
        }
    });
    let host_ns = host_t0.elapsed().as_nanos() as f64;
    let stats = quartz.expect("quartz attached").stats();
    let events = stats.totals.lock_acquisitions.max(1);
    (
        host_ns / events as f64,
        events,
        stats.totals.lock_wait_ns,
        stats.totals.epochs(),
    )
}

/// Runs the contention study. Host-timed (wall-clock `Instant` around
/// real OS threads), so it is the one experiment excluded from the
/// byte-identical determinism contract; it always evaluates serially.
pub struct Contention;

impl Experiment for Contention {
    fn name(&self) -> &'static str {
        "contention"
    }

    fn description(&self) -> &'static str {
        "interposition hot-path contention: emulated unlock storm with slot-lock telemetry"
    }

    fn paper_ref(&self) -> &'static str {
        "§3.2 (extension)"
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, ctx: &ExpCtx) -> ExpReport {
        // The real emulator under a synchronization storm.
        let rounds = if ctx.quick() { 150 } else { 600 };
        let mut storm = Table::new(
            "Contention (1) — emulated unlock storm, host-side slot-lock telemetry",
            &[
                "sim threads",
                "monitor",
                "events",
                "host ns/event",
                "lock wait ns",
                "epochs",
            ],
        );
        for threads in [1u64, 2, 4, 8] {
            for pressure in [false, true] {
                let (ns_per_event, events, wait_ns, epochs) =
                    emulated_storm(threads, rounds, pressure);
                storm.row(&[
                    threads.to_string(),
                    if pressure {
                        "20 µs epochs"
                    } else {
                        "10 ms epochs"
                    }
                    .into(),
                    events.to_string(),
                    f(ns_per_event, 1),
                    wait_ns.to_string(),
                    epochs.to_string(),
                ]);
            }
        }
        let mut report = ExpReport::default();
        report.table(storm);
        report
            .note("(the monitor's age scan is lock-free: monitor pressure multiplies epochs")
            .note(" but must not grow per-event cost or slot-lock wait)");
        report
    }
}
