//! The fleet of secure NICs plus the replay-protection (ACK) tables.
//!
//! [`NicPool`] groups everything the event loop needs from the security
//! layer: one [`SecureNic`] per node (crypto pipeline, OTP buffers,
//! metadata batcher) plus the per-sender replay-protection ACK windows,
//! held as a [`CreditGate`]: an outgoing MAC-carrying block (or batch
//! closer) takes one window credit until its ACK returns; an exhausted
//! window answers [`Reject::AwaitCredit`] and the block parks at the
//! gate until a release unparks it under the configured arbitration.

use crate::flow::{CreditGate, Reject};
use crate::node::{PreparedBlock, SecureNic};
use mgpu_sim::link::WireParts;
use mgpu_types::{ByteSize, Cycle, DenseNodeMap, NodeId, SystemConfig};

/// A prepared, MAC-carrying block parked until a replay-table entry
/// frees: `(pending index, wire parts, message counter)`.
pub type DeferredBlock = (usize, WireParts, u64);

/// Per-node security state for one simulation run.
#[derive(Debug)]
pub struct NicPool {
    nics: DenseNodeMap<SecureNic>,
    /// Replay-table (ACK window) credits per sender. Signed: trailer
    /// flushes take a credit unconditionally and may transiently
    /// overdraw. Blocked senders park their prepared blocks here.
    gate: CreditGate<DeferredBlock>,
}

impl NicPool {
    /// Builds the pool. With `secure` false no NICs are instantiated
    /// (unsecure baseline), but the ACK-table counters still exist so the
    /// ablation paths can exercise them.
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
        let gate = CreditGate::new(
            NodeId::all(config.gpu_count),
            capacity,
            config.flow.arbitration,
        );
        NicPool { nics, gate }
    }

    /// Nodes with a NIC, in ascending order.
    #[must_use]
    pub fn owners(&self) -> Vec<NodeId> {
        self.nics.keys().collect()
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

    /// The ACK message size `node` sends (zero under metadata-free
    /// ablation).
    #[must_use]
    pub fn ack_bytes(&self, node: NodeId) -> ByteSize {
        self.nics[node].ack_bytes()
    }

    /// When `owner`'s batcher next needs a timeout check (`None` when
    /// `owner` has no NIC or no open batch).
    #[must_use]
    pub fn next_flush_deadline(&self, owner: NodeId) -> Option<Cycle> {
        self.nics.get(owner)?.next_flush_deadline()
    }

    /// Flushes `owner`'s timed-out batches; empty when `owner` has no NIC.
    pub fn flush_due(&mut self, owner: NodeId, now: Cycle) -> Vec<(NodeId, ByteSize)> {
        match self.nics.get_mut(owner) {
            Some(nic) => nic.flush_due(now),
            None => Vec::new(),
        }
    }

    /// Force-closes all of `owner`'s open batches (end of run).
    pub fn flush_all(&mut self, owner: NodeId) -> Vec<(NodeId, ByteSize)> {
        self.nics.get_mut(owner).expect("nic").flush_all()
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
    /// `priority` is the fixed-priority arbitration key (the originating
    /// request index: lower unparks first); round-robin ignores it.
    pub fn defer(&mut self, owner: NodeId, priority: u64, block: DeferredBlock) {
        self.gate.park(owner, priority, block);
    }

    /// Releases one replay-table credit at `owner` (its ACK returned)
    /// and unparks the next parked block under the configured
    /// arbitration, if any.
    pub fn release_ack(&mut self, owner: NodeId) -> Option<DeferredBlock> {
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

    /// ACK-window credits granted at `node` so far (admissions plus
    /// trailer overdraws).
    #[must_use]
    pub fn ack_grants(&self, node: NodeId) -> u64 {
        self.gate.grants(node)
    }

    /// Aggregated OTP statistics, pads issued, and mean batch occupancy
    /// across the fleet.
    #[must_use]
    pub fn otp_summary(&self) -> (mgpu_secure::OtpStats, u64, f64) {
        let mut otp = mgpu_secure::OtpStats::default();
        let mut pads_issued = 0;
        let mut occupancy_sum = 0.0;
        let mut occupancy_n = 0u32;
        for nic in self.nics.values() {
            otp.merge(nic.otp_stats());
            pads_issued += nic.pads_issued();
            let occ = nic.mean_batch_occupancy();
            if occ > 0.0 {
                occupancy_sum += occ;
                occupancy_n += 1;
            }
        }
        let mean_occupancy = if occupancy_n > 0 {
            occupancy_sum / f64::from(occupancy_n)
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
        p.defer(owner, 7, (7, WireParts::new(), 1));
        p.defer(owner, 8, (8, WireParts::new(), 2));
        let first = p.release_ack(owner).expect("oldest parked unparks");
        assert_eq!(first.0, 7);
        let second = p.release_ack(owner).expect("next parked unparks");
        assert_eq!(second.0, 8);
        assert!(p.release_ack(owner).is_none());
        assert_eq!(p.ack_grants(owner), 2);
    }

    #[test]
    fn fixed_priority_arbitration_unparks_oldest_request_first() {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.scheme = OtpSchemeKind::Private;
        cfg.security.ack_table_entries = 1;
        cfg.flow.arbitration = mgpu_types::ArbitrationKind::FixedPriority;
        let mut p: NicPool = NicPool::new(&cfg, true);
        let owner = NodeId::gpu(1);
        assert!(p.admit_ack(owner).is_ok());
        // Parked out of request order: fixed priority unparks index 3 first.
        p.defer(owner, 9, (9, WireParts::new(), 1));
        p.defer(owner, 3, (3, WireParts::new(), 2));
        assert_eq!(p.release_ack(owner).expect("unparks").0, 3);
        assert_eq!(p.release_ack(owner).expect("unparks").0, 9);
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
    fn unsecure_pool_has_no_nics_but_keeps_windows() {
        let cfg = SystemConfig::paper_4gpu();
        let mut p: NicPool = NicPool::new(&cfg, false);
        assert!(p.owners().is_empty());
        assert!(p.flush_due(NodeId::gpu(1), Cycle::ZERO).is_empty());
        assert!(p.admit_ack(NodeId::gpu(1)).is_ok());
    }
}
