//! HBM (stacked DRAM) service model.
//!
//! Each GPU's local memory is 3D-stacked HBM (paper Table III: 512 GB/s).
//! The model captures the two effects relevant to remote-request service
//! time: a fixed access latency and bank-level bandwidth serialization.
//! Physical protection of HBM itself is assumed (paper threat model), so
//! no memory encryption is modeled here — only the channel needs crypto.

use mgpu_types::{ByteSize, Cycle, Duration};

/// A bandwidth-limited, fixed-latency memory device.
///
/// # Examples
///
/// ```
/// use mgpu_sim::dram::Hbm;
/// use mgpu_types::{ByteSize, Cycle, Duration};
///
/// let mut hbm = Hbm::new(512, Duration::cycles(200));
/// let done = hbm.access(Cycle::ZERO, ByteSize::CACHELINE);
/// assert_eq!(done, Cycle::new(201)); // 200 latency + 1 cycle at 512 B/cy
/// ```
#[derive(Debug, Clone)]
pub struct Hbm {
    bytes_per_cycle: u32,
    latency: Duration,
    next_free: Cycle,
}

impl Hbm {
    /// Creates an HBM stack with the given bandwidth (bytes/cycle) and
    /// access latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` is zero.
    #[must_use]
    pub fn new(bytes_per_cycle: u32, latency: Duration) -> Self {
        assert!(bytes_per_cycle > 0, "HBM bandwidth must be non-zero");
        Hbm {
            bytes_per_cycle,
            latency,
            next_free: Cycle::ZERO,
        }
    }

    /// Services an access of `size` bytes arriving at `now`; returns the
    /// completion time. Requests serialize on the device's data bus.
    #[inline]
    pub fn access(&mut self, now: Cycle, size: ByteSize) -> Cycle {
        let start = now.max(self.next_free);
        let occupancy = Duration::cycles(
            size.as_u64()
                .div_ceil(u64::from(self.bytes_per_cycle))
                .max(1),
        );
        self.next_free = start + occupancy;
        start + self.latency + occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_access_latency() {
        let mut hbm = Hbm::new(512, Duration::cycles(200));
        assert_eq!(
            hbm.access(Cycle::ZERO, ByteSize::CACHELINE),
            Cycle::new(201)
        );
    }

    #[test]
    fn accesses_serialize_on_the_bus() {
        let mut hbm = Hbm::new(64, Duration::cycles(100));
        // Page read: 4096/64 = 64 cycles occupancy.
        let a = hbm.access(Cycle::ZERO, ByteSize::PAGE);
        assert_eq!(a, Cycle::new(164));
        // Second request queues behind the 64-cycle occupancy.
        let b = hbm.access(Cycle::ZERO, ByteSize::CACHELINE);
        assert_eq!(b, Cycle::new(64 + 100 + 1));
    }

    #[test]
    fn idle_device_serves_immediately() {
        let mut hbm = Hbm::new(64, Duration::cycles(100));
        hbm.access(Cycle::ZERO, ByteSize::CACHELINE);
        let done = hbm.access(Cycle::new(1000), ByteSize::CACHELINE);
        assert_eq!(done, Cycle::new(1101));
    }

    #[test]
    fn tiny_access_still_occupies_one_cycle() {
        let mut hbm = Hbm::new(512, Duration::cycles(10));
        let done = hbm.access(Cycle::ZERO, ByteSize::new(8));
        assert_eq!(done, Cycle::new(11));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = Hbm::new(0, Duration::ZERO);
    }
}
