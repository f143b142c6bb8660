//! DRAM node timing: service latency, per-access jitter, and channel
//! bandwidth with thermal throttling.
//!
//! Each node has a small number of channels (matching the
//! `THRT_PWR_DIMM_[0:2]` registers). A line transfer occupies one channel
//! for `64 bytes / (peak_bw * throttle_fraction)`; when demand exceeds the
//! throttled service rate the channel queue backs up and accesses wait,
//! which is how throttling reduces measured STREAM bandwidth linearly
//! (paper Fig. 8) and how saturation inflates loaded latency.

use quartz_platform::thermal::ThermalControl;
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{NodeId, SocketId};

use crate::addr::LINE_SIZE;

/// Channel scheduling state for every node.
///
/// Channel occupancy is strict FCFS (`next_free` per channel), so
/// capacity is conserved exactly; but the *charged* queue wait forgives
/// up to `skew_tolerance`, because simulated threads run within a
/// scheduling quantum of each other and a thread that ran slightly ahead
/// must not make logically-concurrent accesses of its peers look
/// serialized behind it. Under genuine saturation the backlog grows far
/// past the tolerance and real waits are charged.
#[derive(Debug)]
pub struct DramChannels {
    /// `next_free[node][channel]`.
    next_free: Vec<Vec<SimTime>>,
    /// `transfer[node][channel]`: the throttle register value the
    /// channel's transfer time was last computed from, and that time.
    /// A transfer recomputes it only when the register has changed.
    transfer: Vec<Vec<(u32, Duration)>>,
    channel_bw_gbps: f64,
    skew_tolerance: Duration,
    thermal: ThermalControl,
}

/// Outcome of reserving a channel slot for one line transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// Time spent waiting for the channel to become free.
    pub queue_wait: Duration,
    /// Time the line occupies the channel.
    pub transfer_time: Duration,
    /// Instant the transfer completes.
    pub completes_at: SimTime,
}

impl DramChannels {
    /// Creates channel state for `nodes` nodes of `channels` channels
    /// each.
    pub fn new(
        nodes: usize,
        channels: usize,
        channel_bw_gbps: f64,
        skew_tolerance: Duration,
        thermal: ThermalControl,
    ) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert!(channel_bw_gbps > 0.0, "bandwidth must be positive");
        let mut c = DramChannels {
            next_free: vec![vec![SimTime::ZERO; channels]; nodes],
            transfer: vec![vec![(0, Duration::ZERO); channels]; nodes],
            channel_bw_gbps,
            skew_tolerance,
            thermal,
        };
        for node in 0..nodes {
            for ch in 0..channels {
                let raw = c.throttle_value(NodeId(node), ch);
                c.transfer[node][ch] = (raw, c.transfer_time_at(raw));
            }
        }
        c
    }

    /// Number of channels per node.
    pub fn channels(&self) -> usize {
        self.next_free[0].len()
    }

    /// The channel a cache line maps to (line interleaving).
    pub fn channel_of(&self, line: u64) -> usize {
        (line as usize) % self.channels()
    }

    /// The throttle register value of a channel of `node`. Throttle
    /// registers live on the IMC of the socket that owns the node
    /// (socket k owns node k on our machines).
    fn throttle_value(&self, node: NodeId, channel: usize) -> u32 {
        self.thermal.throttle_value(SocketId(node.0), channel)
    }

    /// Time one line transfer occupies a channel whose throttle register
    /// holds `raw`.
    fn transfer_time_at(&self, raw: u32) -> Duration {
        let frac = ThermalControl::fraction_of(raw).max(1.0 / 4095.0);
        let ns = LINE_SIZE as f64 / (self.channel_bw_gbps * frac);
        Duration::from_ns_f64(ns)
    }

    /// Reserves the line's channel for one transfer starting no earlier
    /// than `now`; advances the channel's free time.
    pub fn reserve(&mut self, node: NodeId, line: u64, now: SimTime) -> Transfer {
        let ch = self.channel_of(line);
        let raw = self.throttle_value(node, ch);
        if self.transfer[node.0][ch].0 != raw {
            self.transfer[node.0][ch] = (raw, self.transfer_time_at(raw));
        }
        let transfer_time = self.transfer[node.0][ch].1;
        let slot = &mut self.next_free[node.0][ch];
        let fcfs_start = (*slot).max(now);
        // Forgive waits within the scheduler's clock-skew tolerance.
        let queue_wait = fcfs_start
            .saturating_duration_since(now)
            .saturating_sub(self.skew_tolerance);
        *slot = fcfs_start + transfer_time;
        let completes_at = now + queue_wait + transfer_time;
        Transfer {
            queue_wait,
            transfer_time,
            completes_at,
        }
    }

    /// Clears all queue state (trial reset).
    pub fn reset(&mut self) {
        for node in &mut self.next_free {
            node.fill(SimTime::ZERO);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_platform::kmod::KernelModule;
    use quartz_platform::{Architecture, Platform, PlatformConfig};

    fn channels() -> (DramChannels, KernelModule) {
        let platform = Platform::new(PlatformConfig::new(Architecture::SandyBridge));
        let kmod = platform.kernel_module();
        (
            DramChannels::new(2, 3, 12.8, Duration::ZERO, platform.thermal_view()),
            kmod,
        )
    }

    #[test]
    fn unloaded_transfer_has_no_wait() {
        let (mut c, _) = channels();
        let t = c.reserve(NodeId(0), 0, SimTime::from_ns(100));
        assert_eq!(t.queue_wait, Duration::ZERO);
        // 64 B at 12.8 GB/s = 5 ns.
        assert_eq!(t.transfer_time, Duration::from_ns(5));
        assert_eq!(t.completes_at, SimTime::from_ns(105));
    }

    #[test]
    fn back_to_back_transfers_queue() {
        let (mut c, _) = channels();
        let now = SimTime::from_ns(0);
        let t1 = c.reserve(NodeId(0), 3, now); // all line 3 -> channel 0
        let t2 = c.reserve(NodeId(0), 3, now);
        assert_eq!(t1.queue_wait, Duration::ZERO);
        assert_eq!(t2.queue_wait, Duration::from_ns(5));
        assert_eq!(t2.completes_at, SimTime::from_ns(10));
    }

    #[test]
    fn different_channels_do_not_interfere() {
        let (mut c, _) = channels();
        let now = SimTime::ZERO;
        c.reserve(NodeId(0), 0, now);
        let t = c.reserve(NodeId(0), 1, now);
        assert_eq!(t.queue_wait, Duration::ZERO);
    }

    #[test]
    fn different_nodes_do_not_interfere() {
        let (mut c, _) = channels();
        let now = SimTime::ZERO;
        c.reserve(NodeId(0), 0, now);
        let t = c.reserve(NodeId(1), 0, now);
        assert_eq!(t.queue_wait, Duration::ZERO);
    }

    #[test]
    fn throttle_halving_doubles_transfer_time() {
        let (mut c, kmod) = channels();
        // Throttle node 1's channels to ~half.
        kmod.set_dimm_throttle(SocketId(1), 0xFFF / 2).unwrap();
        let t = c.reserve(NodeId(1), 0, SimTime::ZERO);
        let full = c.reserve(NodeId(0), 0, SimTime::ZERO);
        let ratio = t.transfer_time.as_ns_f64() / full.transfer_time.as_ns_f64();
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn reset_clears_queues() {
        let (mut c, _) = channels();
        c.reserve(NodeId(0), 0, SimTime::ZERO);
        c.reset();
        let t = c.reserve(NodeId(0), 0, SimTime::ZERO);
        assert_eq!(t.queue_wait, Duration::ZERO);
    }
}
