//! Golden hook-event log of one run that exercises every wake path.
//!
//! A change to how the engine hands the scheduler token between OS
//! threads (when the permit is sent, which lock is held) must leave
//! every scheduling decision and virtual clock as it was. This test
//! runs one simulation mixing a mutex, a condition variable, bounded
//! channels with timed sends and receives, an open-loop timer source, a
//! signalling monitor timer and atomics, records every hook call's
//! thread id and `now()`, and pins the FNV-1a hash of that log plus the
//! `RunReport`.

use std::sync::{Arc, Mutex};

use quartz_memsim::{MemSimConfig, MemorySystem};
use quartz_platform::time::Duration;
use quartz_platform::{Architecture, Platform, PlatformConfig};
use quartz_threadsim::{AtomicEvent, Engine, Hooks, RecvTimeoutError, ThreadCtx};

/// The fingerprint of [`event_log`].
const GOLDEN_EVENT_LOG: u64 = 0x03c6_a4a5_12c0_8bbf;

/// Requests the open-loop source injects.
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

/// Runs the simulation; returns the log's fingerprint and its length.
fn event_log() -> (u64, usize) {
    let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
    let mem = Arc::new(MemorySystem::new(
        platform,
        MemSimConfig::default().with_seed(11),
    ));
    let engine = Engine::new(mem);
    let rec = Arc::new(Recorder::default());
    engine.set_hooks(rec.clone());

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
    let report = engine.run(move |ctx| {
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
    });

    let log = rec.log.lock().unwrap();
    let mut h = Fnv::new();
    for line in log.iter() {
        h.write(line);
        h.write("\n");
    }
    h.write(&format!("{report:?}"));
    (h.0, log.len())
}

#[test]
fn mixed_sync_run_matches_golden_event_log() {
    let (fp, events) = event_log();
    assert!(
        events > 1_000,
        "the run exercised the hooks: {events} events"
    );
    assert_eq!(
        fp, GOLDEN_EVENT_LOG,
        "threadsim event log fingerprint {fp:#018x} moved from the golden value"
    );
}
