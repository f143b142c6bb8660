//! Golden fingerprints of seeded multi-core access sequences.
//!
//! A host-speed change to the memory system (how caches are probed,
//! which cores a coherence action visits, how the DRAM throttle is read)
//! must leave every simulated result as it was. Each scenario below
//! drives a fixed pseudo-random sequence on a 2×16-core Sandy Bridge and
//! folds every `AccessResult` and store/flush cost, then the final
//! `MemStats` and every core's raw PMU counts, into one FNV-1a hash
//! pinned in its table row.
//!
//! - `mixed_coherence`: `load`, `store`, `flush` and `store_stream` from
//!   six cores on both sockets over a working set twice the L1, so lines
//!   are evicted from L1 into L2 and other cores' copies live in either
//!   level.
//! - `dram_paths`: loads and stores from cores on both sockets over a
//!   working set four times the L3 on each node, so nearly every miss
//!   reaches DRAM and dirty L3 victims are written back. Sequential runs
//!   establish prefetch streams; runs issued back to back (without
//!   waiting out the stall) hit prefetches still in flight, and the
//!   random traffic between them evicts in-flight lines from the L3.
//!   Partway through, the kernel module throttles socket 0's channels,
//!   then one channel of socket 1, so later transfers must see the new
//!   register values.

use quartz_memsim::{Addr, MemSimConfig, MemStats, MemorySystem};
use quartz_platform::pmu::RawEvent;
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{Architecture, NodeId, Platform, PlatformConfig, SocketId};

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

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One pinned access sequence.
struct Scenario {
    name: &'static str,
    /// Drives the sequence on a fresh memory system, hashing one entry
    /// per operation into the log; returns the number of entries.
    run: fn(&MemorySystem, &mut Fnv) -> u64,
    /// Fingerprint of the log, the final stats and the PMU counts.
    golden: u64,
    /// Whether the PMU counts are folded in (the `mixed_coherence`
    /// fingerprint was pinned before they were).
    fold_pmu: bool,
    /// Checks that the run exercised the paths it exists for, so a
    /// sequence that silently stops reaching them cannot pass.
    exercised: fn(&MemStats) -> bool,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "mixed_coherence",
        run: mixed_coherence,
        golden: 0xcb6d_6636_1d60_9ec6,
        fold_pmu: false,
        exercised: |s| s.snoop_hitm > 0 && s.l2_hits > 0 && s.stream_stores > 0,
    },
    Scenario {
        name: "dram_paths",
        run: dram_paths,
        golden: 0x7860_222e_3c67_300e,
        fold_pmu: true,
        exercised: |s| {
            s.dram_local > 0
                && s.dram_remote > 0
                && s.prefetch_inflight_hits > 0
                && s.prefetches_issued > 0
                && s.writebacks > 0
                && s.rfos > 0
        },
    },
];

/// Cores issuing `mixed_coherence`: three on socket 0, three on socket 1.
const MIXED_CORES: [usize; 6] = [0, 1, 2, 5, 16, 17];

fn mixed_coherence(m: &MemorySystem, h: &mut Fnv) -> u64 {
    const OPS: u64 = 40_000;
    // 1024 lines per node: twice the 32 KiB L1, well inside the L2.
    let lines = 1024u64;
    let bases: Vec<Addr> = [NodeId(0), NodeId(1)]
        .iter()
        .map(|&n| m.alloc(n, lines * 64).unwrap())
        .collect();
    let mut rng = SplitMix(0x51_7cc1_b727_220a);
    let mut now = SimTime::ZERO;
    for i in 0..OPS {
        let r = rng.next();
        let core = MIXED_CORES[(r % MIXED_CORES.len() as u64) as usize];
        // Skew towards a hot set of 64 lines so cores share lines often.
        let line = if (r >> 8).is_multiple_of(4) {
            (r >> 16) % lines
        } else {
            (r >> 16) % 64
        };
        let addr = bases[((r >> 12) % 2) as usize].offset_by(line * 64);
        let entry = match (r >> 40) % 100 {
            0..=54 => {
                let a = m.load(core, addr, now);
                now += a.stall;
                format!("{i} L c{core} {a:?}")
            }
            55..=89 => {
                let d = m.store(core, addr, now);
                now += d;
                format!("{i} S c{core} {d:?}")
            }
            90..=95 => {
                let d = m.flush(core, addr, now);
                now += d;
                format!("{i} F c{core} {d:?}")
            }
            _ => {
                let d = m.store_stream(core, addr, now);
                now += d;
                format!("{i} N c{core} {d:?}")
            }
        };
        h.write(&entry);
        now += Duration::from_ns(1);
    }
    OPS
}

/// Cores issuing `dram_paths`: two on socket 0, two on socket 1.
const DRAM_CORES: [usize; 4] = [0, 3, 16, 30];

fn dram_paths(m: &MemorySystem, h: &mut Fnv) -> u64 {
    const ROUNDS: u64 = 6_000;
    // 4× the 2 MiB L3 on each node.
    let lines = 4 * 32 * 1024u64;
    let bases: Vec<Addr> = [NodeId(0), NodeId(1)]
        .iter()
        .map(|&n| m.alloc(n, lines * 64).unwrap())
        .collect();
    let kmod = m.platform().kernel_module();
    let mut rng = SplitMix(0xd7a3_0b5e_11c4_9f02);
    let mut now = SimTime::ZERO;
    let mut entries = 0u64;
    for i in 0..ROUNDS {
        if i == ROUNDS / 3 {
            kmod.set_dimm_throttle(SocketId(0), 0x60).unwrap();
        }
        if i == 2 * ROUNDS / 3 {
            kmod.set_dimm_throttle_channel(SocketId(1), 1, 0x40)
                .unwrap();
        }
        let r = rng.next();
        let core = DRAM_CORES[(r % DRAM_CORES.len() as u64) as usize];
        let base = bases[((r >> 4) % 2) as usize];
        let start = (r >> 16) % lines;
        match (r >> 8) % 8 {
            // A sequential run of 8–39 lines. Runs that wait out each
            // stall see landed prefetches as L3 hits; back-to-back runs
            // catch them still in flight.
            0..=2 => {
                let back_to_back = (r >> 12).is_multiple_of(2);
                let len = 8 + (r >> 40) % 32;
                for k in 0..len {
                    let addr = base.offset_by(((start + k) % lines) * 64);
                    let a = m.load(core, addr, now);
                    now += if back_to_back {
                        Duration::from_ns(1)
                    } else {
                        a.stall
                    };
                    h.write(&format!("{i}.{k} Q c{core} {a:?}"));
                    entries += 1;
                }
            }
            // Stores dirty lines that later leave the L3 as write-backs.
            3..=4 => {
                let d = m.store(core, base.offset_by(start * 64), now);
                now += d;
                h.write(&format!("{i} S c{core} {d:?}"));
                entries += 1;
            }
            // Random loads: DRAM misses that also evict prefetched lines.
            _ => {
                let a = m.load(core, base.offset_by(start * 64), now);
                now += a.stall;
                h.write(&format!("{i} L c{core} {a:?}"));
                entries += 1;
            }
        }
        now += Duration::from_ns(1);
    }
    entries
}

/// Runs `scenario`; returns its fingerprint, entry count and final stats.
fn access_log(scenario: &Scenario) -> (u64, u64, MemStats) {
    let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
    let m = MemorySystem::new(platform, MemSimConfig::default().with_seed(7));
    let mut h = Fnv::new();
    let entries = (scenario.run)(&m, &mut h);
    let stats = m.stats();
    h.write(&format!("{stats:?}"));
    if scenario.fold_pmu {
        let pmu = m.platform().pmu();
        for core in 0..m.platform().topology().num_cores() {
            for ev in RawEvent::ALL {
                h.write(&format!("{core} {ev:?} {}", pmu.raw(core, ev)));
            }
        }
    }
    (h.0, entries, stats)
}

/// Runs the scenario named `name` and checks it against its golden row.
fn check(name: &str) {
    let s = SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .expect("scenario is in the table");
    let (fp, entries, stats) = access_log(s);
    assert!(entries > 0, "{name}: no operations ran");
    assert!(
        (s.exercised)(&stats),
        "{name}: the run missed a path it pins: {stats:?}"
    );
    assert_eq!(
        fp, s.golden,
        "{name}: memsim access log fingerprint {fp:#018x} moved from the golden value"
    );
}

#[test]
fn multi_core_access_log_matches_golden_fingerprint() {
    check("mixed_coherence");
}

#[test]
fn dram_paths_access_log_matches_golden_fingerprint() {
    check("dram_paths");
}
