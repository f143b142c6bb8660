//! A frozen reference kernel that measures how fast the host is
//! running right now.
//!
//! The benchmark's host is a shared virtual machine whose speed swings
//! by up to 2x, for seconds to many minutes at a time, with no steal
//! time accounted: identical batches of the workloads ran at 2.3M loads
//! per second in one hour and 5.5M in another. Both wall and CPU time
//! follow the swing, so no statistic over a 10 s window removes it.
//! What does is timing, around every batch, a fixed piece of host work
//! of the same kind as the simulator's and expressing the batch's host
//! time at the speed this kernel runs on a quiet host.
//!
//! The kernel is a small cache model, the kind of work memsim does: a
//! pointer chase over a permutation of 256Ki line addresses drives a
//! 16-way set-associative LRU tag array of 4,096 sets, and every line's
//! page is counted in a hash map, as a TLB model would look it up. Its
//! code and inputs are fixed here, apart from the crates under test, so
//! a change to the program cannot move it. Its tables (about 2 MiB) are
//! small enough that a short untimed warm-up restores them to the
//! host's caches after a batch, so its timing does not depend on what
//! the batch before it left there: on a quiet host the slices before
//! and after a batch agree within a few percent on every workload.

use std::collections::HashMap;

use crate::host::{Span, Stopwatch};

/// Line addresses the chase visits, as a single cycle.
const LINES: usize = 1 << 18;
const SETS: usize = 4096;
const WAYS: usize = 16;
/// Steps of one timed slice, about 10 ms on the reference host: long
/// enough to span several scheduler time slices when the CPU is shared.
const SLICE_STEPS: u64 = 250_000;
/// Steps run untimed before each slice, to bring the kernel's tables
/// back into the host's caches after a batch has evicted them.
const WARM_STEPS: u64 = LINES as u64 / 4;

/// Host nanoseconds per step on the reference host when it is quiet
/// (see `README.md`, "Host"): the speed the end-to-end host times are
/// expressed at.
pub const REFERENCE_STEP_NS: f64 = 39.0;

/// Host nanoseconds per kernel step over one slice.
#[derive(Clone, Copy, Debug)]
pub struct StepCost {
    pub wall_ns: f64,
    pub cpu_ns: f64,
}

pub struct Reference {
    next: Vec<u32>,
    tags: Vec<u64>,
    stamps: Vec<u32>,
    pages: HashMap<u64, u64>,
    at: u32,
    clock: u32,
    hits: u64,
}

impl Reference {
    pub fn new() -> Self {
        // Sattolo's shuffle with a fixed xorshift generator: one cycle
        // through every line, the same on every run.
        let mut next: Vec<u32> = (0..LINES as u32).collect();
        let mut x: u64 = 0x1234_5678_9ABC_DEF1;
        for i in (1..LINES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        let mut r = Reference {
            next,
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            pages: HashMap::new(),
            at: 0,
            clock: 0,
            hits: 0,
        };
        // Once round the cycle, so the tables start full.
        r.steps(LINES as u64);
        r
    }

    fn steps(&mut self, n: u64) {
        for _ in 0..n {
            self.at = self.next[self.at as usize];
            // Spread lines over a 16x larger address space than the
            // tag array covers, so most lookups miss and evict.
            let line = u64::from(self.at).wrapping_mul(0x9E37_79B9) >> 8;
            let set = (line as usize) % SETS;
            let ways = set * WAYS..(set + 1) * WAYS;
            self.clock = self.clock.wrapping_add(1);
            match self.tags[ways.clone()].iter().position(|&t| t == line) {
                Some(w) => {
                    self.hits += 1;
                    self.stamps[set * WAYS + w] = self.clock;
                }
                None => {
                    let lru = ways
                        .min_by_key(|&i| self.stamps[i])
                        .expect("a set has ways");
                    self.tags[lru] = line;
                    self.stamps[lru] = self.clock;
                }
            }
            *self.pages.entry((line >> 6) & 0x3FFF).or_insert(0) += 1;
        }
    }

    /// Runs one warmed, timed slice.
    pub fn slice(&mut self) -> StepCost {
        self.steps(WARM_STEPS);
        let sw = Stopwatch::start();
        self.steps(SLICE_STEPS);
        let s: Span = sw.stop();
        std::hint::black_box(self.hits);
        StepCost {
            wall_ns: s.wall_s * 1e9 / SLICE_STEPS as f64,
            cpu_ns: s.cpu_s * 1e9 / SLICE_STEPS as f64,
        }
    }
}
