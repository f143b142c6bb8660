//! Golden hook-event logs of runs that exercise every wake path.
//!
//! A change to how the engine picks the next thread or event, or hands
//! the scheduler token between OS threads, must leave every scheduling
//! decision and virtual clock as it was. Each scenario below runs one
//! simulation, records every hook call's thread id and `now()` (plus,
//! where a scenario says so, the outcome of a channel or barrier call),
//! and pins the FNV-1a hash of that log plus the `RunReport`.
//!
//! - `mixed_sync`: a mutex, a condition variable, bounded channels with
//!   timed sends and receives, an open-loop timer source, a signalling
//!   monitor timer and atomics.
//! - `edge_paths`: barrier generations behind the `before_barrier` hook,
//!   a barrier waiter that ran ahead of its releaser, `join` on a
//!   finished thread, `chan_try_send`/`chan_try_recv`
//!   returning Full, Empty and Closed, a rendezvous channel, a thread-side
//!   close waking parked receivers and blocked senders, a timed send
//!   expiring on a full queue, and the timer-causality case of a thread
//!   that jumps far ahead of a gated open-loop source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use quartz_memsim::{MemSimConfig, MemorySystem};
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, Platform, PlatformConfig};
use quartz_threadsim::{AtomicEvent, Engine, Hooks, RecvTimeoutError, RunReport, ThreadCtx};

/// Requests the `mixed_sync` open-loop source injects.
const REQUESTS: u64 = 240;

/// Records `(hook, thread, now)` for every hook call.
#[derive(Default)]
struct Recorder {
    log: Mutex<Vec<String>>,
}

impl Recorder {
    fn push(&self, what: &str, ctx: &ThreadCtx) {
        self.log
            .lock()
            .unwrap()
            .push(format!("{what} {} {}", ctx.thread_id(), ctx.now().as_ps()));
    }
}

impl Hooks for Recorder {
    fn on_thread_start(&self, ctx: &mut ThreadCtx) {
        self.push("start", ctx);
    }
    fn on_thread_exit(&self, ctx: &mut ThreadCtx) {
        self.push("exit", ctx);
    }
    fn before_mutex_lock(&self, ctx: &mut ThreadCtx) {
        self.push("lock", ctx);
    }
    fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
        self.push("unlock", ctx);
    }
    fn before_cond_notify(&self, ctx: &mut ThreadCtx) {
        self.push("notify", ctx);
    }
    fn before_barrier(&self, ctx: &mut ThreadCtx) {
        self.push("barrier", ctx);
    }
    fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &AtomicEvent) {
        let what = format!("atomic {} {:?} {:?}", ev.op.name(), ev.phase, ev.outcome);
        self.push(&what, ctx);
    }
    fn on_signal(&self, ctx: &mut ThreadCtx) {
        self.push("signal", ctx);
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One pinned run.
struct Scenario {
    name: &'static str,
    /// Builds the run on a fresh engine whose hooks are the recorder.
    run: fn(Engine, Arc<Recorder>) -> RunReport,
    /// Fingerprint of the log plus the `RunReport`.
    golden: u64,
    /// Lower bound on the log length, so a run that silently stops
    /// exercising the hooks cannot pass.
    min_events: usize,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "mixed_sync",
        run: mixed_sync,
        golden: 0x03c6_a4a5_12c0_8bbf,
        min_events: 1_000,
    },
    Scenario {
        name: "edge_paths",
        run: edge_paths,
        golden: 0x5113_1917_608e_689b,
        min_events: 90,
    },
];

/// Runs `scenario`; returns the log's fingerprint and its length.
fn event_log(scenario: &Scenario) -> (u64, usize) {
    let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
    let mem = Arc::new(MemorySystem::new(
        platform,
        MemSimConfig::default().with_seed(11),
    ));
    let engine = Engine::new(mem);
    let rec = Arc::new(Recorder::default());
    engine.set_hooks(rec.clone());
    let report = (scenario.run)(engine, Arc::clone(&rec));

    let log = rec.log.lock().unwrap();
    let mut h = Fnv::new();
    for line in log.iter() {
        h.write(line);
        h.write("\n");
    }
    h.write(&format!("{report:?}"));
    (h.0, log.len())
}

fn mixed_sync(engine: Engine, _rec: Arc<Recorder>) -> RunReport {
    // Open-loop arrivals into a small bounded queue, at LCG-varied gaps.
    let requests = engine.bounded_channel::<u64>(4);
    let feed = requests.clone();
    let mut sent = 0u64;
    let mut lcg = 0x2545_f491u64;
    engine.add_open_loop_source(Duration::from_ns(700), &[requests.id()], move |api| {
        api.send(&feed, sent);
        sent += 1;
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        api.reschedule_in(Duration::from_ns(200 + (lcg >> 33) % 1_500));
        if sent == REQUESTS {
            api.stop();
        }
    });
    // A monitor that signals every live thread.
    engine.add_timer(Duration::from_us(9), |api| {
        let live = api.live_threads().to_vec();
        for t in live {
            api.signal_thread(t);
        }
    });

    let done = engine.bounded_channel::<u64>(2);
    let served = engine.atomic_u64(0);
    engine.run(move |ctx| {
        let m = ctx.mutex_new();
        let cv = ctx.cond_new();
        let halfway = ctx.atomic_u64(0);
        let shared = ctx.alloc_local(64 * 64);
        let mut workers = Vec::new();
        for w in 0..3u64 {
            let requests = requests.clone();
            let done = done.clone();
            workers.push(ctx.spawn(move |c| {
                loop {
                    match c.chan_recv_timeout(&requests, Duration::from_ns(2_500)) {
                        Ok(v) => {
                            c.mutex_lock(m);
                            c.store(shared.offset_by((v % 64) * 64));
                            served.fetch_add(c, 1);
                            c.compute_ns(150.0 + (v % 7) as f64 * 40.0);
                            c.mutex_unlock(m);
                            if let Err(e) = c.chan_send_timeout(&done, v, Duration::from_ns(300)) {
                                // Full past the deadline: block instead.
                                c.chan_send(&done, e.into_inner());
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            // Idle: poke a counter with a CAS loop.
                            let mut cur = served.load(c);
                            while let Err(seen) = served.compare_exchange(c, cur, cur) {
                                cur = seen;
                            }
                            c.compute_ns(100.0 * (w + 1) as f64);
                        }
                        Err(RecvTimeoutError::Closed) => break,
                    }
                }
            }));
        }
        // A waiter parked on the condvar until half the requests are in.
        let waiter = ctx.spawn(move |c| {
            c.mutex_lock(m);
            while halfway.load(c) == 0 {
                c.cond_wait(cv, m);
            }
            c.mutex_unlock(m);
            c.load(shared);
        });
        for got in 1..=REQUESTS {
            let v = ctx
                .chan_recv(&done)
                .expect("a worker answers every request");
            ctx.load(shared.offset_by((v % 64) * 64));
            if got == REQUESTS / 2 {
                ctx.mutex_lock(m);
                halfway.store(ctx, 1);
                ctx.cond_notify_all(cv);
                ctx.mutex_unlock(m);
            }
            if got.is_multiple_of(16) {
                ctx.yield_now();
            }
        }
        for t in workers {
            ctx.join(t);
        }
        ctx.join(waiter);
    })
}

/// Arrivals the `edge_paths` gated source offers.
const GATED_ARRIVALS: u64 = 40;

fn edge_paths(engine: Engine, rec: Arc<Recorder>) -> RunReport {
    // Timer causality: a source admits an arrival only while fewer than
    // 4 are unreleased. A thread that jumps 2 ms ahead reaches its next
    // op boundary with every firing due; the engine must interleave the
    // firings with the consumer that releases the gauge, not batch them.
    let arrivals = engine.channel::<u64>();
    let feed = arrivals.clone();
    let gauge = Arc::new(AtomicU64::new(0));
    let g_src = Arc::clone(&gauge);
    let mut n = 0u64;
    engine.add_open_loop_source(Duration::from_us(10), &[arrivals.id()], move |api| {
        if g_src.load(Ordering::Relaxed) < 4 {
            g_src.fetch_add(1, Ordering::Relaxed);
            api.send(&feed, n);
        }
        n += 1;
        if n == GATED_ARRIVALS {
            api.stop();
        }
    });

    engine.run(move |ctx| {
        let r = &rec;
        let rc = Arc::clone(r);
        let consumer = ctx.spawn(move |c| {
            while let Some(v) = c.chan_recv(&arrivals) {
                c.compute_ns(1_000.0);
                gauge.fetch_sub(1, Ordering::Relaxed);
                rc.push(&format!("arrival {v}"), c);
            }
        });
        let staller = ctx.spawn(|c| {
            c.compute_ns(2_000_000.0);
            c.compute_ns(1_000.0);
        });

        // Three barrier generations across the root and two parties.
        let b = ctx.barrier_new(3);
        let parties: Vec<_> = (0..2u64)
            .map(|p| {
                let rc = Arc::clone(r);
                ctx.spawn(move |c| {
                    for g in 0..3u64 {
                        c.compute_ns(300.0 * (p + 1) as f64 + 70.0 * g as f64);
                        let leader = c.barrier_wait(b);
                        rc.push(&format!("released g{g} leader={leader}"), c);
                    }
                })
            })
            .collect();
        for g in 0..3u64 {
            ctx.compute_ns(450.0 * g as f64);
            let leader = ctx.barrier_wait(b);
            r.push(&format!("released g{g} leader={leader}"), ctx);
        }

        // A barrier whose waiter ran ahead of the releaser inside the
        // lookahead window: the releaser's lookahead is bound by the
        // release instant, not by the waiter's later clock, which sets
        // where the two threads' atomics interleave. The root yields
        // to the new thread, which arrives first at a later clock.
        let pair = ctx.barrier_new(2);
        let counter = ctx.atomic_u64(0);
        let ahead = ctx.spawn(move |c| {
            c.compute_ns(1_500.0);
            c.barrier_wait(pair);
            for _ in 0..40 {
                counter.fetch_add(c, 1);
                c.compute_ns(100.0);
            }
        });
        ctx.compute_ns(100.0);
        ctx.yield_now();
        ctx.compute_ns(200.0);
        ctx.barrier_wait(pair);
        for _ in 0..40 {
            counter.fetch_add(ctx, 1);
            ctx.compute_ns(100.0);
        }

        // A rendezvous: each send pairs with a parked receiver.
        let rv = ctx.chan_new_bounded::<u64>(0);
        let rv_tx = rv.clone();
        let rendezvous = ctx.spawn(move |c| {
            for v in 0..4u64 {
                c.chan_send(&rv_tx, v);
                c.compute_ns(120.0);
            }
        });
        for _ in 0..4 {
            ctx.compute_ns(200.0);
            let v = ctx.chan_recv(&rv);
            r.push(&format!("rendezvous {v:?}"), ctx);
        }

        // Non-blocking ops on a one-slot queue, then a timed send that
        // expires on the full queue.
        let slot = ctx.chan_new_bounded::<u64>(1);
        let outcome = format!("try_send {:?}", ctx.chan_try_send(&slot, 1));
        r.push(&outcome, ctx);
        let outcome = format!("try_send {:?}", ctx.chan_try_send(&slot, 2));
        r.push(&outcome, ctx);
        let outcome = format!(
            "send_timeout {:?}",
            ctx.chan_send_timeout(&slot, 3, Duration::from_ns(800))
        );
        r.push(&outcome, ctx);
        let outcome = format!("try_recv {:?}", ctx.chan_try_recv(&slot));
        r.push(&outcome, ctx);
        let outcome = format!("try_recv {:?}", ctx.chan_try_recv(&slot));
        r.push(&outcome, ctx);

        // A thread-side close wakes two parked receivers of an empty
        // channel and two blocked senders of a full one.
        let empty = ctx.chan_new::<u64>();
        let full = ctx.chan_new_bounded::<u64>(1);
        ctx.chan_send(&full, 0);
        let mut closed_waiters = Vec::new();
        for k in 0..2u64 {
            let (empty, rc) = (empty.clone(), Arc::clone(r));
            closed_waiters.push(ctx.spawn(move |c| {
                c.compute_ns(50.0 * k as f64);
                let got = if k == 0 {
                    format!("{:?}", c.chan_recv(&empty))
                } else {
                    format!("{:?}", c.chan_recv_timeout(&empty, Duration::from_us(50)))
                };
                rc.push(&format!("recv after close {got}"), c);
            }));
            let (full, rc) = (full.clone(), Arc::clone(r));
            closed_waiters.push(ctx.spawn(move |c| {
                c.compute_ns(60.0 * k as f64);
                let got = c.chan_send_timeout(&full, k + 10, Duration::from_us(50));
                rc.push(&format!("send after close {got:?}"), c);
            }));
        }
        ctx.compute_ns(3_000.0);
        ctx.chan_close(&empty);
        ctx.chan_close(&full);
        let outcome = format!("try_send {:?}", ctx.chan_try_send(&full, 5));
        r.push(&outcome, ctx);
        let outcome = format!("try_recv {:?}", ctx.chan_try_recv(&full));
        r.push(&outcome, ctx);
        let outcome = format!("try_recv {:?}", ctx.chan_try_recv(&full));
        r.push(&outcome, ctx);

        // `join` on threads that finished long ago.
        for t in parties.into_iter().chain([ahead, rendezvous]) {
            ctx.join(t);
            r.push("joined finished", ctx);
        }
        for t in closed_waiters {
            ctx.join(t);
        }
        ctx.join(consumer);
        ctx.join(staller);
    })
}

/// Runs the scenario named `name` and checks it against its golden row.
fn check(name: &str) {
    let s = SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .expect("scenario is in the table");
    let (fp, events) = event_log(s);
    assert!(
        events > s.min_events,
        "{name}: the run exercised the hooks: {events} events"
    );
    assert_eq!(
        fp, s.golden,
        "{name}: threadsim event log fingerprint {fp:#018x} moved from the golden value"
    );
}

#[test]
fn mixed_sync_run_matches_golden_event_log() {
    check("mixed_sync");
}

#[test]
fn edge_paths_run_matches_golden_event_log() {
    check("edge_paths");
}
