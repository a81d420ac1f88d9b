//! The fleet of secure NICs plus the replay-protection (ACK) tables.
//!
//! [`NicPool`] groups everything the event loop needs from the security
//! layer: one [`SecureNic`] per node (crypto pipeline, OTP buffers,
//! metadata batcher) plus the per-sender replay-protection ACK windows,
//! held as a [`CreditGate`]: an outgoing MAC-carrying block (or batch
//! closer) takes one window credit until its ACK returns; an exhausted
//! window answers [`Reject::AwaitCredit`] and the block parks at the
//! gate until a release unparks it, oldest first.

use crate::flow::{CreditGate, Reject};
use crate::node::{PreparedBlock, SecureNic};
use mgpu_types::{ByteSize, Cycle, DenseNodeMap, NodeId, SystemConfig};

/// A block's row in the engine's per-block table. A prepared,
/// MAC-carrying block waiting for a replay-table entry parks as its id:
/// its wire parts and counter stay in the table.
pub type BlockId = u32;

/// Per-node security state for one simulation run.
#[derive(Debug)]
pub struct NicPool {
    nics: DenseNodeMap<SecureNic>,
    /// Replay-table (ACK window) credits per sender. Signed: trailer
    /// flushes take a credit unconditionally and may transiently
    /// overdraw. Blocked senders park their prepared blocks here.
    gate: CreditGate<BlockId>,
}

impl NicPool {
    /// Builds the pool. With `secure` false no NICs are instantiated
    /// (unsecure baseline); the ACK windows still exist, but no block of
    /// an unsecure run carries a MAC, so they are never drawn on.
    #[must_use]
    pub fn new(config: &SystemConfig, secure: bool) -> Self {
        let nics = if secure {
            NodeId::all(config.gpu_count)
                .map(|n| (n, SecureNic::new(n, config)))
                .collect()
        } else {
            DenseNodeMap::new()
        };
        let capacity = i64::from(config.security.ack_table_entries);
        let gate = CreditGate::new(NodeId::all(config.gpu_count), capacity);
        NicPool { nics, gate }
    }

    /// Prepares the next protected block from `owner` to `dst`.
    pub fn prepare_send(&mut self, owner: NodeId, now: Cycle, dst: NodeId) -> PreparedBlock {
        self.nics
            .get_mut(owner)
            .expect("owner nic")
            .prepare_send(now, dst)
    }

    /// Runs receive-side crypto at `requester` for a block from `owner`;
    /// returns when the plaintext becomes usable.
    pub fn receive(&mut self, requester: NodeId, now: Cycle, owner: NodeId, ctr: u64) -> Cycle {
        self.nics
            .get_mut(requester)
            .expect("requester nic")
            .receive(now, owner, ctr)
    }

    /// When `owner`'s batcher next needs a timeout check (`None` when
    /// `owner` has no NIC or no open batch).
    #[must_use]
    pub fn next_flush_deadline(&self, owner: NodeId) -> Option<Cycle> {
        self.nics.get(owner)?.next_flush_deadline()
    }

    /// Flushes `owner`'s timed-out batches. Only a NIC with an open batch
    /// arms a flush check, so `owner` always has one.
    pub fn flush_due(&mut self, owner: NodeId, now: Cycle) -> Vec<(NodeId, ByteSize)> {
        self.nics.get_mut(owner).expect("owner nic").flush_due(now)
    }

    /// Requests a replay-table (ACK window) credit at `owner` for an
    /// outgoing MAC-carrying block. [`Reject::AwaitCredit`] means the
    /// window is exhausted and nothing was taken — park the block with
    /// [`NicPool::defer`]; the returning ACK unparks it.
    pub fn admit_ack(&mut self, owner: NodeId) -> Result<(), Reject> {
        self.gate.admit(owner)
    }

    /// Takes a replay-table credit at `owner` unconditionally, possibly
    /// overdrawing the window (batch trailer flushes are never parked).
    pub fn overdraw_ack(&mut self, owner: NodeId) {
        self.gate.overdraw(owner);
    }

    /// Parks a prepared block at `owner` until a window credit frees.
    pub fn defer(&mut self, owner: NodeId, block: BlockId) {
        self.gate.park(owner, block);
    }

    /// Releases one replay-table credit at `owner` (its ACK returned)
    /// and unparks the oldest parked block, if any.
    pub fn release_ack(&mut self, owner: NodeId) -> Option<BlockId> {
        self.gate.release(owner)
    }

    /// Advances every NIC's scheme to `now`, processing any pending
    /// interval boundaries. Used by the observability sampler so interval
    /// samples reflect the boundary allocation instead of lagging until
    /// each node's next send/receive (timing-equivalent — see
    /// [`crate::timeseries`]).
    pub fn advance_all(&mut self, now: Cycle) {
        for nic in self.nics.values_mut() {
            nic.advance(now);
        }
    }

    /// The NICs in ascending node order (observability sampling).
    pub fn iter_nics(&self) -> impl Iterator<Item = (NodeId, &SecureNic)> {
        self.nics.iter()
    }

    /// Free replay-table credits at `node` (negative while trailer
    /// flushes transiently overdraw).
    #[must_use]
    pub fn ack_free(&self, node: NodeId) -> i64 {
        self.gate.free(node)
    }

    /// Blocks parked at `node`, waiting for a window credit.
    #[must_use]
    pub fn parked_len(&self, node: NodeId) -> usize {
        self.gate.parked_len(node)
    }

    /// ACK-window credits granted at `node` so far (admissions plus
    /// trailer overdraws).
    #[must_use]
    pub fn ack_grants(&self, node: NodeId) -> u64 {
        self.gate.grants(node)
    }

    /// Aggregated OTP statistics, pads issued, and mean blocks per closed
    /// batch across the fleet: each NIC's mean weighted by its closed
    /// batches, so a NIC that closed few batches counts for few.
    #[must_use]
    pub fn otp_summary(&self) -> (mgpu_secure::OtpStats, u64, f64) {
        let mut otp = mgpu_secure::OtpStats::default();
        let mut pads_issued = 0;
        let mut closed_blocks = 0.0;
        let mut closed_batches = 0u64;
        for nic in self.nics.values() {
            otp.merge(nic.otp_stats());
            pads_issued += nic.pads_issued();
            let (full, flush) = nic.batch_closes();
            closed_blocks += nic.mean_batch_occupancy() * (full + flush) as f64;
            closed_batches += full + flush;
        }
        let mean_occupancy = if closed_batches > 0 {
            closed_blocks / closed_batches as f64
        } else {
            0.0
        };
        (otp, pads_issued, mean_occupancy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::OtpSchemeKind;

    fn pool() -> NicPool {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.scheme = OtpSchemeKind::Private;
        cfg.security.ack_table_entries = 2;
        NicPool::new(&cfg, true)
    }

    #[test]
    fn ack_window_backpressures_and_releases_fifo() {
        let mut p = pool();
        let owner = NodeId::gpu(1);
        assert!(p.admit_ack(owner).is_ok());
        assert!(p.admit_ack(owner).is_ok());
        assert_eq!(
            p.admit_ack(owner),
            Err(Reject::AwaitCredit),
            "window of 2 is full"
        );
        p.defer(owner, 70);
        p.defer(owner, 80);
        assert_eq!(p.parked_len(owner), 2);
        assert_eq!(p.release_ack(owner), Some(70), "oldest parked unparks");
        assert_eq!(p.release_ack(owner), Some(80), "next parked unparks");
        assert!(p.release_ack(owner).is_none());
        assert_eq!(p.ack_grants(owner), 2);
    }

    #[test]
    fn trailer_reservation_can_overdraw() {
        let mut p = pool();
        let owner = NodeId::gpu(2);
        assert!(p.admit_ack(owner).is_ok());
        assert!(p.admit_ack(owner).is_ok());
        // A batch-closing trailer takes a credit even when the window is
        // full...
        p.overdraw_ack(owner);
        // ...so three releases are needed before a new block fits.
        assert!(p.release_ack(owner).is_none());
        assert_eq!(p.admit_ack(owner), Err(Reject::AwaitCredit));
        p.release_ack(owner);
        p.release_ack(owner);
        assert!(p.admit_ack(owner).is_ok());
    }

    #[test]
    fn fleet_occupancy_is_blocks_per_closed_batch() {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.scheme = OtpSchemeKind::Dynamic;
        cfg.security.batching.enabled = true;
        cfg.security.batching.batch_size = 16;
        let mut p = NicPool::new(&cfg, true);
        // GPU 1 fills two 16-block batches; GPU 2 sends one block whose
        // batch closes by timeout.
        for i in 0..32 {
            p.prepare_send(NodeId::gpu(1), Cycle::new(10_000 + i), NodeId::gpu(3));
        }
        p.prepare_send(NodeId::gpu(2), Cycle::new(10_000), NodeId::gpu(3));
        assert_eq!(p.flush_due(NodeId::gpu(2), Cycle::MAX).len(), 1);
        // 33 blocks over 3 batches, not the mean of the per-NIC means
        // (16 and 1).
        let (_, _, occupancy) = p.otp_summary();
        assert!((occupancy - 11.0).abs() < 1e-12, "{occupancy}");
    }

    #[test]
    fn unsecure_pool_has_no_nics_but_keeps_windows() {
        let cfg = SystemConfig::paper_4gpu();
        let mut p: NicPool = NicPool::new(&cfg, false);
        assert_eq!(p.iter_nics().count(), 0);
        assert!(p.next_flush_deadline(NodeId::gpu(1)).is_none());
        assert!(p.admit_ack(NodeId::gpu(1)).is_ok());
    }
}
