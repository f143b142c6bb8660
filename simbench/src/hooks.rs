//! A timing forwarder for the Quartz interposition hooks.
//!
//! Installed with `Engine::set_hooks` after `Quartz::attach` (which
//! installs Quartz itself), it delegates every `Hooks` method to the
//! wrapped `Quartz` and accumulates the host time spent inside each
//! call. A hook may hand the scheduler token to another simulated
//! thread (delay injection spins in virtual time, and the engine
//! yields at quantum boundaries), so the other thread's work then lands
//! inside the hook's interval: `hook_s` is an upper bound. `overlaps`
//! counts hook entries made while another thread's hook was still open,
//! the visible part of that slack; with a single simulated thread it is
//! 0 and the bound is exact.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use quartz::Quartz;
use quartz_threadsim::{AtomicEvent, Hooks, SimFailure, ThreadCtx};

pub struct TimingHooks {
    inner: Arc<Quartz>,
    hook_ns: AtomicU64,
    calls: AtomicU64,
    threads: AtomicU64,
    sync_events: AtomicU64,
    open: AtomicU64,
    overlaps: AtomicU64,
}

/// What the forwarder measured over one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HookTally {
    pub hook_s: f64,
    pub calls: u64,
    /// Simulated threads that registered (`on_thread_start`).
    pub threads: u64,
    /// Interposed synchronization points: mutex lock/unlock, condvar
    /// notify, barrier, atomic.
    pub sync_events: u64,
    pub overlaps: u64,
}

impl TimingHooks {
    pub fn new(inner: Arc<Quartz>) -> Arc<Self> {
        Arc::new(TimingHooks {
            inner,
            hook_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            threads: AtomicU64::new(0),
            sync_events: AtomicU64::new(0),
            open: AtomicU64::new(0),
            overlaps: AtomicU64::new(0),
        })
    }

    pub fn tally(&self) -> HookTally {
        HookTally {
            hook_s: self.hook_ns.load(Relaxed) as f64 * 1e-9,
            calls: self.calls.load(Relaxed),
            threads: self.threads.load(Relaxed),
            sync_events: self.sync_events.load(Relaxed),
            overlaps: self.overlaps.load(Relaxed),
        }
    }

    fn timed(&self, f: impl FnOnce()) {
        if self.open.fetch_add(1, Relaxed) > 0 {
            self.overlaps.fetch_add(1, Relaxed);
        }
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        self.open.fetch_sub(1, Relaxed);
        self.hook_ns.fetch_add(ns, Relaxed);
        self.calls.fetch_add(1, Relaxed);
    }

    fn timed_sync(&self, f: impl FnOnce()) {
        self.sync_events.fetch_add(1, Relaxed);
        self.timed(f);
    }
}

impl Hooks for TimingHooks {
    fn on_thread_start(&self, ctx: &mut ThreadCtx) {
        self.threads.fetch_add(1, Relaxed);
        self.timed(|| self.inner.on_thread_start(ctx));
    }
    fn on_thread_exit(&self, ctx: &mut ThreadCtx) {
        self.timed(|| self.inner.on_thread_exit(ctx));
    }
    fn before_mutex_lock(&self, ctx: &mut ThreadCtx) {
        self.timed_sync(|| self.inner.before_mutex_lock(ctx));
    }
    fn before_mutex_unlock(&self, ctx: &mut ThreadCtx) {
        self.timed_sync(|| self.inner.before_mutex_unlock(ctx));
    }
    fn before_cond_notify(&self, ctx: &mut ThreadCtx) {
        self.timed_sync(|| self.inner.before_cond_notify(ctx));
    }
    fn before_barrier(&self, ctx: &mut ThreadCtx) {
        self.timed_sync(|| self.inner.before_barrier(ctx));
    }
    fn on_atomic(&self, ctx: &mut ThreadCtx, ev: &AtomicEvent) {
        self.timed_sync(|| self.inner.on_atomic(ctx, ev));
    }
    fn on_signal(&self, ctx: &mut ThreadCtx) {
        self.timed(|| self.inner.on_signal(ctx));
    }
    fn on_sim_failure(&self, failure: &SimFailure) {
        self.timed(|| self.inner.on_sim_failure(failure));
    }
}
