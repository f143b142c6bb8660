//! Golden fingerprint of a seeded multi-core access sequence.
//!
//! A host-speed change to the memory system (how caches are probed,
//! which cores a coherence action visits) must leave every simulated
//! result as it was. This test drives a fixed pseudo-random mix of
//! `load`, `store`, `flush` and `store_stream` from six cores on both
//! sockets of a 2×16-core Sandy Bridge, over a working set twice the L1,
//! so lines are evicted from L1 into L2 and other cores' copies live in
//! either level. Every `AccessResult` and store/flush cost, plus the
//! final `MemStats`, is folded into one FNV-1a hash pinned below.

use quartz_memsim::{Addr, MemSimConfig, MemorySystem};
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{Architecture, NodeId, Platform, PlatformConfig};

/// The fingerprint of [`access_log`].
const GOLDEN_ACCESS_LOG: u64 = 0xcb6d_6636_1d60_9ec6;

/// Operations in the sequence.
const OPS: u64 = 40_000;

/// Cores issuing the sequence: three on socket 0, three on socket 1.
const CORES: [usize; 6] = [0, 1, 2, 5, 16, 17];

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

/// Runs the sequence; returns its fingerprint and the number of entries.
fn access_log() -> (u64, u64) {
    let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
    let m = MemorySystem::new(platform, MemSimConfig::default().with_seed(7));
    // 1024 lines per node: twice the 32 KiB L1, well inside the L2.
    let lines = 1024u64;
    let bases: Vec<Addr> = [NodeId(0), NodeId(1)]
        .iter()
        .map(|&n| m.alloc(n, lines * 64).unwrap())
        .collect();
    let mut rng = SplitMix(0x51_7cc1_b727_220a);
    let mut h = Fnv::new();
    let mut now = SimTime::ZERO;
    let mut entries = 0u64;
    for i in 0..OPS {
        let r = rng.next();
        let core = CORES[(r % CORES.len() as u64) as usize];
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
        entries += 1;
        now += Duration::from_ns(1);
    }
    h.write(&format!("{:?}", m.stats()));
    (h.0, entries)
}

#[test]
fn multi_core_access_log_matches_golden_fingerprint() {
    let (fp, entries) = access_log();
    assert_eq!(entries, OPS);
    assert_eq!(
        fp, GOLDEN_ACCESS_LOG,
        "memsim access log fingerprint {fp:#018x} moved from the golden value"
    );
}
