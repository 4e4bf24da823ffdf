//! Simulated block devices with FIFO request queues.

use crate::time::{Ns, US};

/// Identifier of a simulated device within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevId(pub u32);

impl DevId {
    /// Index into the engine's device table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Service-time model of a device. Completion time for a request of `b`
/// bytes submitted at `t` is
/// `max(t, queue_free) + base + b * per_byte + jitter`,
/// where jitter is uniform in `[0, jitter)` drawn from the engine RNG.
#[derive(Debug, Clone, Copy)]
pub struct DeviceModel {
    /// Fixed per-request latency (command setup, flash page access).
    pub base: Ns,
    /// Transfer time per byte, in femtoseconds (ns per byte × 10⁶) so the
    /// model stays in integer arithmetic. 1 GB/s ⇒ 1_000_000.
    pub fs_per_byte: u64,
    /// Uniform jitter upper bound.
    pub jitter: Ns,
    /// Internal parallelism: independent channels requests spread over
    /// (NVMe queue/flash-die parallelism). Requests pick the channel
    /// that frees up first.
    pub channels: u32,
}

impl DeviceModel {
    /// A fast NVMe-class SSD: ~20µs base, ~2 GB/s per channel, 8
    /// channels, small jitter.
    pub fn nvme_ssd() -> Self {
        Self {
            base: 20 * US,
            fs_per_byte: 500_000,
            jitter: 5 * US,
            channels: 8,
        }
    }

    /// Deterministic service time excluding jitter.
    pub fn service(&self, bytes: u64) -> Ns {
        self.base + bytes.saturating_mul(self.fs_per_byte) / 1_000_000
    }
}

/// Dynamic per-device state.
#[derive(Debug)]
pub struct DeviceState {
    /// The service model.
    pub model: DeviceModel,
    /// Per-channel next-free times.
    pub channel_free: Vec<Ns>,
    /// Total requests served.
    pub requests: u64,
    /// Total bytes transferred.
    pub bytes: u64,
}

impl DeviceState {
    /// Creates an idle device.
    pub fn new(model: DeviceModel) -> Self {
        Self {
            channel_free: vec![0; model.channels.max(1) as usize],
            model,
            requests: 0,
            bytes: 0,
        }
    }

    /// Enqueues a request at `now` with pre-drawn `jitter` on the
    /// earliest-free channel; returns its completion time.
    pub fn submit(&mut self, now: Ns, bytes: u64, jitter: Ns) -> Ns {
        let (ci, _) = self
            .channel_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("device has at least one channel");
        let start = self.channel_free[ci].max(now);
        let done = start + self.model.service(bytes) + jitter;
        self.channel_free[ci] = done;
        self.requests += 1;
        self.bytes += bytes;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_base_plus_transfer() {
        let m = DeviceModel {
            base: 1000,
            fs_per_byte: 2_000_000, // 2 ns/byte
            jitter: 0,
            channels: 1,
        };
        assert_eq!(m.service(0), 1000);
        assert_eq!(m.service(500), 2000);
    }

    #[test]
    fn requests_queue_fifo_per_channel() {
        let mut d = DeviceState::new(DeviceModel {
            base: 100,
            fs_per_byte: 0,
            jitter: 0,
            channels: 1,
        });
        assert_eq!(d.submit(0, 0, 0), 100);
        assert_eq!(d.submit(0, 0, 0), 200, "second request queues");
        assert_eq!(d.submit(500, 0, 0), 600, "idle device starts immediately");
        assert_eq!(d.requests, 3);
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut d = DeviceState::new(DeviceModel {
            base: 100,
            fs_per_byte: 0,
            jitter: 0,
            channels: 2,
        });
        assert_eq!(d.submit(0, 0, 0), 100);
        assert_eq!(d.submit(0, 0, 0), 100, "second request uses channel 2");
        assert_eq!(d.submit(0, 0, 0), 200, "third queues on channel 1");
    }

    #[test]
    fn nvme_model_is_sane() {
        let m = DeviceModel::nvme_ssd();
        // A 4 KiB read should be tens of microseconds.
        let t = m.service(4096);
        assert!(t > 20 * US && t < 100 * US, "t = {t}");
    }
}
