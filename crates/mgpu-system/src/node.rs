//! Per-node secure NIC: crypto engine + OTP scheme + metadata batcher.
//!
//! The NIC sits between a node's memory system and its links. For every
//! outgoing data block it consults the OTP scheme (exposed pad latency),
//! decides the block's wire metadata (batched or not), and reports when
//! the block's batch closes so the simulation can charge the batched MAC
//! and the single ACK. Incoming blocks symmetrically pay the receive-side
//! pad latency.
//!
//! The NIC also owns the node's replay-protection (ACK) window, a
//! [`CreditGate`]: an outgoing MAC-carrying block (or batch trailer)
//! takes one window credit until its ACK returns; an exhausted window
//! answers [`crate::flow::Reject::AwaitCredit`] and the block parks at
//! the gate until a release unparks it, oldest first.

use crate::flow::CreditGate;
use mgpu_crypto::AesEngine;
use mgpu_secure::batching::{ClosedBatch, SenderBatcher};
use mgpu_secure::protocol::WireFormat;
use mgpu_secure::schemes::{build_scheme, OtpScheme, SchemeTelemetry};
use mgpu_sim::link::{TrafficClass, WireParts};
use mgpu_types::{Cycle, Duration, NodeId, SystemConfig};

/// Per-block latency budget of deadline-aware batch close
/// (`BatchingConfig::deadline_close`): a batch tries to emit its MAC
/// trailer before its oldest block has been queued this long.
const DEADLINE_SLACK: Duration = Duration::cycles(96);

/// A block's row in the engine's per-block table. A prepared,
/// MAC-carrying block waiting for a replay-table entry parks as its id:
/// its wire parts and counter stay in the table.
pub type BlockId = u32;

/// What the NIC decided for one outgoing block.
#[derive(Debug, Clone)]
pub struct PreparedBlock {
    /// Cycle at which the (encrypted, MACed) block is ready for the wire.
    pub ready: Cycle,
    /// The message counter carried by the block.
    pub counter: u64,
    /// Wire components to transmit together with the data.
    pub parts: WireParts,
    /// `true` when this block closed a batch (or is unbatched): exactly
    /// these blocks trigger an ACK from the receiver.
    pub acks: bool,
}

/// A node's secure network interface.
pub struct SecureNic {
    engine: AesEngine,
    scheme: Box<dyn OtpScheme>,
    wire: WireFormat,
    batching: bool,
    charge_metadata: bool,
    batcher: SenderBatcher,
    /// The cycle of the `FlushCheck` this NIC last asked the engine to
    /// schedule, until a check fires at that cycle.
    flush_armed: Option<Cycle>,
    /// Replay-table (ACK window) credits. Signed: trailer flushes take a
    /// credit unconditionally and may transiently overdraw. Blocked
    /// sends park their prepared blocks here.
    ack_window: CreditGate<BlockId>,
}

impl core::fmt::Debug for SecureNic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureNic")
            .field("scheme", &self.scheme.kind())
            .field("batching", &self.batching)
            .finish_non_exhaustive()
    }
}

impl SecureNic {
    /// Builds the NIC for node `me` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configured scheme is `Unsecure` (the simulation
    /// bypasses the NIC entirely in that case).
    #[must_use]
    pub fn new(me: NodeId, config: &SystemConfig) -> Self {
        let mut engine = AesEngine::new(config.security.aes_latency);
        let scheme = build_scheme(me, config, &mut engine);
        let b = &config.security.batching;
        let mut batcher = SenderBatcher::new(b.batch_size, b.flush_timeout);
        if b.deadline_close {
            batcher = batcher.with_deadline_close(DEADLINE_SLACK);
        }
        let d = &config.security.defense;
        if d.close_jitter {
            // Each sender draws from its own jitter subsequence so an
            // observer cannot cancel the offsets across ports.
            let seed = d.jitter_seed.wrapping_add(u64::from(me.raw()) << 16);
            batcher = batcher.with_close_jitter(d.jitter_bound, seed);
        }
        SecureNic {
            engine,
            scheme,
            wire: WireFormat::default(),
            batching: b.enabled,
            charge_metadata: config.security.charge_metadata_traffic,
            batcher,
            flush_armed: None,
            ack_window: CreditGate::new(i64::from(config.security.ack_table_entries)),
        }
    }

    /// Prepares one outgoing data block to `dst` whose payload is ready at
    /// `now`. Returns timing, metadata parts, and whether an ACK is due.
    pub fn prepare_send(&mut self, now: Cycle, dst: NodeId) -> PreparedBlock {
        self.scheme.advance(now, &mut self.engine);
        let outcome = self.scheme.on_send(now, dst, &mut self.engine);
        let exposed = outcome.timing.exposed_latency(self.engine.latency());
        let ready = now + exposed;

        let mut parts = WireParts::of(self.wire.header + self.wire.block, TrafficClass::Data);
        let acks;
        if !self.charge_metadata {
            // +SecureCommu ablation: latency modeled, metadata bytes free,
            // and no ACK bandwidth either.
            acks = false;
        } else if self.batching {
            parts.push(
                self.wire.msg_ctr + self.wire.sender_id,
                TrafficClass::Counter,
            );
            // The first block of a batch carries its length field.
            if self.batcher.peek_slot(dst).1 == 0 {
                parts.push(self.wire.batch_len, TrafficClass::BatchHeader);
            }
            acks = self.batcher.add_block(now, dst).is_some();
            if acks {
                parts.push(self.wire.msg_mac, TrafficClass::Mac);
            }
        } else {
            parts.push(self.wire.msg_ctr, TrafficClass::Counter);
            parts.push(self.wire.msg_mac, TrafficClass::Mac);
            parts.push(self.wire.sender_id, TrafficClass::SenderId);
            acks = true;
        }
        PreparedBlock {
            ready,
            counter: outcome.counter,
            parts,
            acks,
        }
    }

    /// Runs the flush check that fires at `now`: closes the batches past
    /// their flush deadline and writes them to `flushed`, replacing its
    /// contents. Each one owes its destination a standalone
    /// `WireFormat::msg_mac` trailer, and an ACK follows from each.
    pub fn flush_due(&mut self, now: Cycle, flushed: &mut Vec<ClosedBatch>) {
        if self.flush_armed == Some(now) {
            self.flush_armed = None;
        }
        self.batcher.flush_due(now, flushed);
    }

    /// Pays the receive-side pad latency for a block from `src` carrying
    /// counter `ctr`, arriving at `now`. Returns when the data is usable.
    pub fn receive(&mut self, now: Cycle, src: NodeId, ctr: u64) -> Cycle {
        self.scheme.advance(now, &mut self.engine);
        let timing = self.scheme.on_recv(now, src, ctr, &mut self.engine);
        now + timing.exposed_latency(self.engine.latency())
    }

    /// Next deadline at which [`flush_due`] would close something
    /// (`None` with no open batch: unbatched and metadata-free NICs never
    /// feed the batcher).
    ///
    /// [`flush_due`]: SecureNic::flush_due
    #[must_use]
    pub fn next_flush_deadline(&self) -> Option<Cycle> {
        self.batcher.next_deadline()
    }

    /// The cycle at which the engine must schedule a flush check after
    /// the batcher changed at `now`: the next open deadline, no earlier
    /// than `now`. `None` with no open batch, or when the check last
    /// armed is still pending at exactly that cycle. That skip is exact
    /// only while deadlines are fixed when a batch opens and lie after
    /// its opening cycle: the pending check pops first and flushes every
    /// batch due by then, and any batch opened later is not yet due.
    /// Under deadline-aware close every request arms a check.
    pub fn arm_flush_check(&mut self, now: Cycle) -> Option<Cycle> {
        let at = self.batcher.next_deadline()?.max(now);
        if self.flush_armed == Some(at) && self.batcher.deadlines_fixed() {
            return None;
        }
        self.flush_armed = Some(at);
        Some(at)
    }

    /// Mean blocks per closed batch.
    #[must_use]
    pub fn mean_batch_occupancy(&self) -> f64 {
        self.batcher.mean_occupancy()
    }

    /// The scheme's accumulated OTP statistics.
    #[must_use]
    pub fn otp_stats(&self) -> &mgpu_secure::OtpStats {
        self.scheme.stats()
    }

    /// Total pads issued by the engine (generation work).
    #[must_use]
    pub fn pads_issued(&self) -> u64 {
        self.engine.issued()
    }

    /// Lets the scheme process interval boundaries during idle periods.
    pub fn advance(&mut self, now: Cycle) {
        self.scheme.advance(now, &mut self.engine);
    }

    /// The scheme's interval-resolved internals for observability
    /// sampling; `None` for non-adaptive schemes.
    #[must_use]
    pub fn scheme_telemetry(&self) -> Option<SchemeTelemetry> {
        self.scheme.telemetry()
    }

    /// The node's replay-table (ACK) window.
    #[must_use]
    pub(crate) fn ack_window(&self) -> &CreditGate<BlockId> {
        &self.ack_window
    }

    /// The node's replay-table (ACK) window, to admit, overdraw, park
    /// and release.
    pub(crate) fn ack_window_mut(&mut self) -> &mut CreditGate<BlockId> {
        &mut self.ack_window
    }

    /// Cumulative `(closed full, closed by flush)` batch counts.
    #[must_use]
    pub fn batch_closes(&self) -> (u64, u64) {
        (self.batcher.closed_full(), self.batcher.closed_by_flush())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::OtpSchemeKind;

    fn config(scheme: OtpSchemeKind, batching: bool) -> SystemConfig {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.scheme = scheme;
        cfg.security.batching.enabled = batching;
        cfg
    }

    #[test]
    fn unbatched_block_carries_full_metadata() {
        let mut nic = SecureNic::new(NodeId::gpu(1), &config(OtpSchemeKind::Private, false));
        let p = nic.prepare_send(Cycle::new(10_000), NodeId::gpu(2));
        let total: u64 = p.parts.iter().map(|(b, _)| b.as_u64()).sum();
        // header 8 + block 64 + ctr 8 + mac 8 + id 1.
        assert_eq!(total, 89);
        assert!(p.acks);
        assert_eq!(p.counter, 0);
        // Warm pad: only the XOR cycle is exposed.
        assert_eq!(p.ready, Cycle::new(10_001));
    }

    #[test]
    fn batched_blocks_amortize_mac() {
        let mut nic = SecureNic::new(NodeId::gpu(1), &config(OtpSchemeKind::Dynamic, true));
        let dst = NodeId::gpu(2);
        let mut acks = 0;
        let mut mac_bytes = 0u64;
        for i in 0..16u64 {
            let p = nic.prepare_send(Cycle::new(10_000 + i), dst);
            if p.acks {
                acks += 1;
            }
            mac_bytes += p
                .parts
                .iter()
                .filter(|(_, c)| *c == TrafficClass::Mac)
                .map(|(b, _)| b.as_u64())
                .sum::<u64>();
        }
        // One ACK and one 8 B MAC for the whole 16-block batch.
        assert_eq!(acks, 1);
        assert_eq!(mac_bytes, 8);
    }

    #[test]
    fn batch_header_only_on_first_block() {
        let mut nic = SecureNic::new(NodeId::gpu(1), &config(OtpSchemeKind::Dynamic, true));
        let dst = NodeId::gpu(2);
        let first = nic.prepare_send(Cycle::new(10_000), dst);
        let second = nic.prepare_send(Cycle::new(10_001), dst);
        let has_header =
            |p: &PreparedBlock| p.parts.iter().any(|(_, c)| c == TrafficClass::BatchHeader);
        assert!(has_header(&first));
        assert!(!has_header(&second));
    }

    #[test]
    fn flush_returns_pending_batches() {
        let mut nic = SecureNic::new(NodeId::gpu(1), &config(OtpSchemeKind::Dynamic, true));
        let dst = NodeId::gpu(2);
        nic.prepare_send(Cycle::new(100), dst);
        nic.prepare_send(Cycle::new(110), dst);
        let mut flushed = Vec::new();
        nic.flush_due(Cycle::new(150), &mut flushed);
        assert!(flushed.is_empty());
        nic.flush_due(Cycle::new(400), &mut flushed);
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].dst, dst);
        // After a flush, the next block restarts a batch (header again).
        let p = nic.prepare_send(Cycle::new(500), dst);
        assert!(p.parts.iter().any(|(_, c)| c == TrafficClass::BatchHeader));
    }

    #[test]
    fn flush_check_arms_once_per_cycle_until_it_fires() {
        let mut nic = SecureNic::new(NodeId::gpu(1), &config(OtpSchemeKind::Dynamic, true));
        let mut flushed = Vec::new();
        let mut flush = |nic: &mut SecureNic, now| {
            nic.flush_due(Cycle::new(now), &mut flushed);
            flushed.len()
        };
        assert_eq!(nic.arm_flush_check(Cycle::new(100)), None, "no open batch");
        nic.prepare_send(Cycle::new(100), NodeId::gpu(2));
        // The 160-cycle timeout puts the deadline at 260.
        assert_eq!(nic.arm_flush_check(Cycle::new(100)), Some(Cycle::new(260)));
        nic.prepare_send(Cycle::new(120), NodeId::gpu(2));
        assert_eq!(nic.arm_flush_check(Cycle::new(120)), None, "already armed");
        // A batch to another peer leaves the earliest deadline at 260.
        nic.prepare_send(Cycle::new(130), NodeId::gpu(3));
        assert_eq!(nic.arm_flush_check(Cycle::new(130)), None);
        // A check firing at another cycle leaves the armed one pending.
        assert_eq!(flush(&mut nic, 200), 0);
        assert_eq!(nic.arm_flush_check(Cycle::new(200)), None);
        // The armed check fires at 260 and flushes the first batch; the
        // node arms again, at the second batch's deadline.
        assert_eq!(flush(&mut nic, 260), 1);
        assert_eq!(nic.arm_flush_check(Cycle::new(260)), Some(Cycle::new(290)));
        assert_eq!(flush(&mut nic, 290), 1);
        assert_eq!(nic.arm_flush_check(Cycle::new(290)), None, "all closed");
        // An overdue deadline arms at `now`, once.
        nic.prepare_send(Cycle::new(300), NodeId::gpu(2));
        assert_eq!(nic.arm_flush_check(Cycle::new(500)), Some(Cycle::new(500)));
        assert_eq!(nic.arm_flush_check(Cycle::new(500)), None);
        assert_eq!(flush(&mut nic, 500), 1);
    }

    #[test]
    fn deadline_close_arms_a_check_on_every_request() {
        let mut cfg = config(OtpSchemeKind::Dynamic, true);
        cfg.security.batching.deadline_close = true;
        let mut nic = SecureNic::new(NodeId::gpu(1), &cfg);
        nic.prepare_send(Cycle::new(100), NodeId::gpu(2));
        let first = nic.arm_flush_check(Cycle::new(100));
        assert!(first.is_some());
        // Deadlines move with every added block, so a same-cycle
        // duplicate is not provably idle and is still scheduled.
        assert_eq!(nic.arm_flush_check(Cycle::new(100)), first);
    }

    /// The metadata-free ablation sends no MAC-carrying block and never
    /// feeds the batcher, batching on or off: it needs no ACK and no
    /// flush check, which is why the engine has no zero-byte ACK path.
    #[test]
    fn metadata_free_ablation() {
        for batching in [false, true] {
            let mut cfg = config(OtpSchemeKind::Private, batching);
            cfg.security.charge_metadata_traffic = false;
            let mut nic = SecureNic::new(NodeId::gpu(1), &cfg);
            for i in 0..40u64 {
                let now = Cycle::new(10_000 + i);
                let p = nic.prepare_send(now, NodeId::gpu(2 + (i % 3) as u16));
                let total: u64 = p.parts.iter().map(|(b, _)| b.as_u64()).sum();
                assert_eq!(total, 72, "batching={batching}: data + header only");
                assert!(!p.acks, "batching={batching}");
                // Crypto latency still applies (ready > now).
                assert!(p.ready > now);
                assert_eq!(nic.next_flush_deadline(), None, "batching={batching}");
            }
        }
    }

    /// Every `prepare_send` path fits the fixed-capacity `WireParts` the
    /// engine stores per block: batching off and on, metadata charged or
    /// not, and the first, middle and batch-closing blocks of a batch.
    /// A one-block batch (first block is also the closer) is the fullest
    /// list: data, counter + sender ID, batch header and MAC.
    #[test]
    fn every_prepared_block_fits_wire_parts() {
        let mut fullest = 0;
        for batching in [false, true] {
            for charge in [false, true] {
                for batch_size in [1, 2, 16] {
                    let mut cfg = config(OtpSchemeKind::Dynamic, batching);
                    cfg.security.charge_metadata_traffic = charge;
                    cfg.security.batching.batch_size = batch_size;
                    let mut nic = SecureNic::new(NodeId::gpu(1), &cfg);
                    // Two whole batches to each of two peers.
                    for i in 0..4 * u64::from(batch_size) {
                        let dst = NodeId::gpu(2 + (i % 2) as u16);
                        let p = nic.prepare_send(Cycle::new(10_000 + i), dst);
                        assert!(p.parts.len() <= WireParts::CAPACITY);
                        for (bytes, class) in p.parts.iter() {
                            assert!(
                                u16::try_from(bytes.as_u64()).is_ok(),
                                "{class:?} part of {bytes} does not fit u16"
                            );
                        }
                        fullest = fullest.max(p.parts.len());
                    }
                }
            }
        }
        assert_eq!(fullest, WireParts::CAPACITY);
    }

    #[test]
    fn receive_pays_pad_latency() {
        let mut nic = SecureNic::new(NodeId::gpu(1), &config(OtpSchemeKind::Private, false));
        // Warm window: hit -> 1 cycle.
        let usable = nic.receive(Cycle::new(10_000), NodeId::gpu(3), 0);
        assert_eq!(usable, Cycle::new(10_001));
        // Out-of-sync counter -> full latency exposed.
        let usable = nic.receive(Cycle::new(20_000), NodeId::gpu(3), 99);
        assert_eq!(usable, Cycle::new(20_041));
    }

    #[test]
    fn stats_flow_through() {
        let mut nic = SecureNic::new(NodeId::gpu(1), &config(OtpSchemeKind::Cached, false));
        nic.prepare_send(Cycle::new(10_000), NodeId::gpu(2));
        nic.receive(Cycle::new(10_000), NodeId::gpu(2), 0);
        assert_eq!(nic.otp_stats().total(mgpu_types::Direction::Send), 1);
        assert_eq!(nic.otp_stats().total(mgpu_types::Direction::Recv), 1);
        assert!(nic.pads_issued() > 0);
    }
}
