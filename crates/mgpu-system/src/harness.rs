//! Wire-level adversary harness: runs the *functional* secure channel in
//! lockstep with the timing simulation and injects seeded faults on the
//! wire between egress and ingress.
//!
//! The timing simulation (`simulation.rs`) models *when* bytes move; this
//! harness proves *that* the defenses catch a hostile interconnect while
//! they move. For every protected block the simulation delivers, the
//! harness seals a real AES-GCM block between functional [`Endpoint`]s
//! and, per the [`FaultPlan`]'s schedule, replays it, flips MAC bytes,
//! drops or forges the ACK, tampers with batch trailers, or reorders
//! blocks within a batch. Every injection must surface through an
//! existing defense — `ReplayGuard`, `MacStorage`, GCM tag verification,
//! or the sender's ACK timeout — and is accounted in a
//! [`SecurityEventLog`]; a defense error on *untouched* traffic is a
//! false positive. After each detection the harness retransmits the
//! genuine messages so one injection cannot mask the next.

use mgpu_secure::adversary::{FaultKind, FaultPlan, SecurityEvent, SecurityEventLog};
use mgpu_secure::channel::{Ack, BatchTrailer, Endpoint, WireBlock, BATCH_NONCE_BIT, BLOCK_SIZE};
use mgpu_secure::key_exchange::KeyExchange;
use mgpu_types::{Cycle, DenseNodeMap, Duration, NodeId, PairId, PairTable, SystemConfig};

/// Session key-exchange seed for the harness's functional endpoints. The
/// adversary model grants wire access, not key access, so any fixed seed
/// works and keeps runs reproducible.
const HARNESS_BOOT_KEY: [u8; 16] = [0x42; 16];

/// Receive-side bookkeeping for one in-flight batch on a `src → dst`
/// stream.
#[derive(Debug, Default)]
struct OpenBatch {
    /// Clean copies of every wire block, for post-detection retransmission.
    wires: Vec<WireBlock>,
    /// A fault already injected into this batch, with its injection time;
    /// it will be detected (or missed) when the trailer verifies.
    poison: Option<(FaultKind, Cycle)>,
    /// A block withheld by the adversary to swap with the next one
    /// (reorder attack staging).
    held: Option<WireBlock>,
}

/// The adversary-in-the-middle driver for one simulation run.
///
/// The simulation calls [`WireHarness::on_block`] for each protected
/// block it delivers, [`WireHarness::on_flush`] when a batcher timeout
/// closes a batch, and [`WireHarness::finish`] at end of run; each call
/// returns how many wire crossings the adversary tampered with (for the
/// topology's per-link accounting). [`WireHarness::into_log`] yields the
/// final ledger.
#[derive(Debug)]
pub struct WireHarness {
    endpoints: DenseNodeMap<Endpoint>,
    plan: FaultPlan,
    log: SecurityEventLog,
    batching: bool,
    /// How long the sender waits on a missing ACK before flagging it.
    ack_timeout: Duration,
    open: PairTable<OpenBatch>,
    seq: PairTable<u64>,
    /// When true, detections are additionally queued for the
    /// observability trace (drained via [`WireHarness::take_trace`]).
    tracing: bool,
    trace: Vec<SecurityEvent>,
}

impl WireHarness {
    /// Builds the harness for `config`: one functional endpoint per node,
    /// mirroring the configured batch size, and the seeded fault
    /// schedule from `config.adversary`.
    #[must_use]
    pub fn new(config: &SystemConfig) -> Self {
        let kx = KeyExchange::boot(HARNESS_BOOT_KEY);
        let batching = config.security.batching.enabled;
        let endpoints = NodeId::all(config.gpu_count)
            .map(|n| {
                let ep = Endpoint::new(n, config.gpu_count, &kx);
                let ep = if batching {
                    ep.with_batch_size(config.security.batching.batch_size)
                } else {
                    ep
                };
                (n, ep)
            })
            .collect();
        WireHarness {
            endpoints,
            plan: FaultPlan::new(&config.adversary),
            log: SecurityEventLog::new(),
            batching,
            // One round trip plus slack: a sender that still sees the
            // entry outstanding after this long knows the ACK was lost.
            ack_timeout: Duration::cycles(4 * config.link_latency.as_u64()),
            open: PairTable::new(),
            seq: PairTable::new(),
            tracing: config.observability.enabled,
            trace: Vec::new(),
        }
    }

    /// Drains detections queued since the last call (empty unless
    /// observability is enabled for the run).
    pub fn take_trace(&mut self) -> Vec<SecurityEvent> {
        std::mem::take(&mut self.trace)
    }

    /// Consumes the harness, returning the accumulated event log.
    #[must_use]
    pub fn into_log(self) -> SecurityEventLog {
        self.log
    }

    /// Deterministic per-message payload: the harness checks decrypted
    /// plaintext against this, independent of the fault schedule.
    fn payload(src: NodeId, dst: NodeId, seq: u64) -> [u8; BLOCK_SIZE] {
        let tag = (u64::from(src.raw()) << 48) | (u64::from(dst.raw()) << 32) | seq;
        let mut block = [0u8; BLOCK_SIZE];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (tag
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left((i % 64) as u32)
                >> 8) as u8;
        }
        block
    }

    fn next_seq(&mut self, src: NodeId, dst: NodeId) -> u64 {
        let s = self.seq.get_or_insert_with(PairId::new(src, dst), || 0);
        let out = *s;
        *s += 1;
        out
    }

    fn ep(&mut self, node: NodeId) -> &mut Endpoint {
        self.endpoints.get_mut(node).expect("node within system")
    }

    fn detect(&mut self, kind: FaultKind, src: NodeId, dst: NodeId, injected: Cycle, at: Cycle) {
        let event = SecurityEvent {
            kind,
            src,
            dst,
            injected_at: injected,
            detected_at: at,
        };
        if self.tracing {
            self.trace.push(event);
        }
        self.log.record_detection(event);
    }

    /// Flips one random bit of an 8-byte MAC.
    fn flip_mac_byte(&mut self, mac: &mut [u8; 8]) {
        let byte = self.plan.pick(mac.len());
        let bit = self.plan.pick(8) as u8;
        mac[byte] ^= 1 << bit;
    }

    /// A protected block crosses the wire from `src` to `dst` now.
    /// Returns the number of tampered crossings.
    pub fn on_block(&mut self, now: Cycle, src: NodeId, dst: NodeId) -> u64 {
        if self.batching {
            self.on_batched_block(now, src, dst)
        } else {
            self.on_unbatched_block(now, src, dst)
        }
    }

    fn on_unbatched_block(&mut self, now: Cycle, src: NodeId, dst: NodeId) -> u64 {
        let seq = self.next_seq(src, dst);
        let block = Self::payload(src, dst, seq);
        let wire = self.ep(src).seal_block(dst, &block);
        match self.plan.draw(&FaultKind::UNBATCHED_BLOCK) {
            None => match self.ep(dst).open_block(&wire) {
                Ok((plain, ack)) => {
                    if plain != block {
                        self.log.record_false_positive();
                    }
                    self.deliver_ack(now, src, &ack, None)
                }
                Err(_) => {
                    self.log.record_false_positive();
                    0
                }
            },
            Some(FaultKind::FlipMac) => {
                let mut bad = wire.clone();
                self.flip_mac_byte(bad.mac.as_mut().expect("unbatched block has MAC"));
                match self.ep(dst).open_block(&bad) {
                    Err(_) => self.detect(FaultKind::FlipMac, src, dst, now, now),
                    Ok(_) => self.log.record_miss(FaultKind::FlipMac),
                }
                // Verify-before-freshness: the forged copy must not have
                // burned the counter, so the genuine retransmission lands.
                match self.ep(dst).open_block(&wire) {
                    Ok((_, ack)) => {
                        self.deliver_ack(now, src, &ack, None);
                    }
                    Err(_) => self.log.record_false_positive(),
                }
                1
            }
            Some(FaultKind::ReplayBlock) => {
                // Deliver the genuine block first, then replay it.
                match self.ep(dst).open_block(&wire) {
                    Ok((_, ack)) => {
                        self.deliver_ack(now, src, &ack, None);
                    }
                    Err(_) => self.log.record_false_positive(),
                }
                match self.ep(dst).open_block(&wire) {
                    Err(_) => self.detect(FaultKind::ReplayBlock, src, dst, now, now),
                    Ok(_) => self.log.record_miss(FaultKind::ReplayBlock),
                }
                1
            }
            fault @ Some(FaultKind::DropAck | FaultKind::ForgeAck) => {
                match self.ep(dst).open_block(&wire) {
                    Ok((_, ack)) => self.deliver_ack(now, src, &ack, fault),
                    Err(_) => {
                        self.log.record_false_positive();
                        0
                    }
                }
            }
            Some(_) => unreachable!("draw restricted to UNBATCHED_BLOCK kinds"),
        }
    }

    /// Delivers (or attacks) the ACK returning to `to`. Returns tampered
    /// crossings.
    fn deliver_ack(&mut self, now: Cycle, to: NodeId, ack: &Ack, fault: Option<FaultKind>) -> u64 {
        let (src, dst) = (to, ack.from);
        match fault {
            Some(FaultKind::ForgeAck) => {
                let mut bad = *ack;
                self.flip_mac_byte(&mut bad.mac);
                match self.ep(to).accept_ack(&bad) {
                    Err(_) => self.detect(FaultKind::ForgeAck, src, dst, now, now),
                    Ok(()) => self.log.record_miss(FaultKind::ForgeAck),
                }
                // The outstanding entry survives the forgery; the genuine
                // ACK (retransmitted by the receiver) still clears it.
                if self.ep(to).accept_ack(ack).is_err() {
                    self.log.record_false_positive();
                }
                1
            }
            Some(FaultKind::DropAck) => {
                // The ACK never arrives. The sender notices the entry
                // still outstanding once its timeout expires.
                if self.ep(to).ack_outstanding(ack.from, ack.counter) {
                    let detected = now + self.ack_timeout;
                    self.detect(FaultKind::DropAck, src, dst, now, detected);
                } else {
                    self.log.record_miss(FaultKind::DropAck);
                }
                // Receiver retransmits the ACK after the timeout.
                if self.ep(to).accept_ack(ack).is_err() {
                    self.log.record_false_positive();
                }
                1
            }
            _ => {
                if self.ep(to).accept_ack(ack).is_err() {
                    self.log.record_false_positive();
                }
                0
            }
        }
    }

    fn on_batched_block(&mut self, now: Cycle, src: NodeId, dst: NodeId) -> u64 {
        let key = PairId::new(src, dst);
        let seq = self.next_seq(src, dst);
        let block = Self::payload(src, dst, seq);
        let (wire, trailer) = self.ep(src).seal_batched_block(dst, &block);
        let mut tampered = 0u64;

        let held = self
            .open
            .get_or_insert_with(key, OpenBatch::default)
            .held
            .take();
        if let Some(mut early) = held {
            // Apply the staged reorder: swap the two blocks' batch-index
            // labels, then deliver both. Lazy verification accepts them;
            // the trailer's batched MAC covers MAC *order* and trips.
            let mut late = wire.clone();
            let (e, l) = (
                early.batch.expect("batched block"),
                late.batch.expect("batched block"),
            );
            early.batch = Some((e.0, l.1));
            late.batch = Some((l.0, e.1));
            for swapped in [&early, &late] {
                if self.ep(dst).open_batched_block(swapped).is_err() {
                    // Reordering is invisible until the trailer; an error
                    // here means a defense fired on plausible traffic.
                    self.log.record_false_positive();
                }
            }
            let state = self.open.get_or_insert_with(key, OpenBatch::default);
            state.poison = Some((FaultKind::ReorderBatch, now));
            state.wires.push(wire.clone());
            tampered += 2;
        } else {
            let poisoned = self.open.get(key).is_some_and(|s| s.poison.is_some());
            let fault = if poisoned {
                None // one poison per batch keeps attribution exact
            } else {
                self.plan.draw(&FaultKind::BATCHED_BLOCK)
            };
            match fault {
                Some(FaultKind::FlipMac) => {
                    // Batched blocks carry no wire MAC; flipping ciphertext
                    // corrupts the MAC recomputed at the receiver.
                    let mut bad = wire.clone();
                    let byte = self.plan.pick(bad.ciphertext.len());
                    let bit = self.plan.pick(8) as u8;
                    bad.ciphertext[byte] ^= 1 << bit;
                    match self.ep(dst).open_batched_block(&bad) {
                        // Lazy path: tampering is latent until the trailer.
                        Ok(_) => {
                            self.open.get_or_insert_with(key, OpenBatch::default).poison =
                                Some((FaultKind::FlipMac, now));
                        }
                        // Caught even earlier than expected (e.g. storage
                        // guard) — still a detection.
                        Err(_) => self.detect(FaultKind::FlipMac, src, dst, now, now),
                    }
                    self.open
                        .get_or_insert_with(key, OpenBatch::default)
                        .wires
                        .push(wire.clone());
                    tampered += 1;
                }
                Some(FaultKind::ReplayBlock) => {
                    if self.ep(dst).open_batched_block(&wire).is_err() {
                        self.log.record_false_positive();
                    }
                    // The duplicate hits an occupied MsgMAC-storage slot.
                    match self.ep(dst).open_batched_block(&wire) {
                        Err(_) => self.detect(FaultKind::ReplayBlock, src, dst, now, now),
                        Ok(_) => self.log.record_miss(FaultKind::ReplayBlock),
                    }
                    self.open
                        .get_or_insert_with(key, OpenBatch::default)
                        .wires
                        .push(wire.clone());
                    tampered += 1;
                }
                Some(FaultKind::ReorderBatch) if trailer.is_none() => {
                    // Stage: withhold this block, swap it with the next.
                    let state = self.open.get_or_insert_with(key, OpenBatch::default);
                    state.held = Some(wire.clone());
                    state.wires.push(wire.clone());
                }
                _ => {
                    // Clean delivery (includes ReorderBatch drawn on the
                    // batch-closing block, where no partner can follow —
                    // the injection simply does not happen).
                    match self.ep(dst).open_batched_block(&wire) {
                        Ok((plain, ack)) => {
                            if plain != block {
                                self.log.record_false_positive();
                            }
                            if let Some(ack) = ack {
                                self.deliver_ack(now, src, &ack, None);
                            }
                        }
                        Err(_) => self.log.record_false_positive(),
                    }
                    self.open
                        .get_or_insert_with(key, OpenBatch::default)
                        .wires
                        .push(wire.clone());
                }
            }
        }

        if let Some(trailer) = trailer {
            tampered += self.on_trailer(now, src, dst, &trailer);
        }
        tampered
    }

    /// A batch trailer crosses the wire. Returns tampered crossings.
    fn on_trailer(&mut self, now: Cycle, src: NodeId, dst: NodeId, trailer: &BatchTrailer) -> u64 {
        let state = self.open.remove(PairId::new(src, dst)).unwrap_or_default();

        if let Some((kind, injected_at)) = state.poison {
            // A fault latent in this batch must surface when the genuine
            // trailer fails to verify against the corrupted stored MACs.
            match self.ep(dst).accept_trailer(trailer) {
                Err(_) => self.detect(kind, src, dst, injected_at, now),
                Ok(Some(ack)) => {
                    // The poison went undetected and the batch completed —
                    // a hole. Finish the exchange and report the miss.
                    self.log.record_miss(kind);
                    self.deliver_ack(now, src, &ack, None);
                    return 0;
                }
                Ok(None) => self.log.record_miss(kind),
            }
            // Recovery: drop the poisoned receive state and retransmit
            // the clean blocks; the trailer retransmission below is
            // itself a fresh attack opportunity.
            self.ep(dst).discard_batch(src, trailer.id);
            for wire in &state.wires {
                if self.ep(dst).open_batched_block(wire).is_err() {
                    self.log.record_false_positive();
                }
            }
        }

        self.deliver_trailer(now, src, dst, trailer)
    }

    /// Delivers (or attacks) a trailer whose batch is cleanly stored at
    /// the receiver. Returns tampered crossings.
    fn deliver_trailer(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        trailer: &BatchTrailer,
    ) -> u64 {
        match self.plan.draw(&FaultKind::TRAILER) {
            None => {
                match self.ep(dst).accept_trailer(trailer) {
                    Ok(Some(ack)) => {
                        self.deliver_ack(now, src, &ack, None);
                    }
                    _ => self.log.record_false_positive(),
                }
                0
            }
            Some(FaultKind::TamperTrailerMac) => {
                let mut bad = *trailer;
                self.flip_mac_byte(&mut bad.mac);
                match self.ep(dst).accept_trailer(&bad) {
                    Err(_) => self.detect(FaultKind::TamperTrailerMac, src, dst, now, now),
                    Ok(_) => self.log.record_miss(FaultKind::TamperTrailerMac),
                }
                // Stored MACs and batch id survive (fixed in
                // `accept_trailer`): the genuine trailer completes.
                match self.ep(dst).accept_trailer(trailer) {
                    Ok(Some(ack)) => {
                        self.deliver_ack(now, src, &ack, None);
                    }
                    _ => self.log.record_false_positive(),
                }
                1
            }
            Some(FaultKind::TamperTrailerLen) => {
                let shrink = self.plan.next_u64().is_multiple_of(2);
                let bad = BatchTrailer {
                    len: if shrink {
                        trailer.len - 1
                    } else {
                        trailer.len + 1
                    },
                    ..*trailer
                };
                match self.ep(dst).accept_trailer(&bad) {
                    // Under-length: impossible count, rejected inline.
                    Err(_) => self.detect(FaultKind::TamperTrailerLen, src, dst, now, now),
                    // Over-length: parks awaiting a block that never
                    // comes; the sender's ACK timeout flags it.
                    Ok(None) => {
                        if self
                            .ep(src)
                            .ack_outstanding(dst, trailer.id | BATCH_NONCE_BIT)
                        {
                            let detected = now + self.ack_timeout;
                            self.detect(FaultKind::TamperTrailerLen, src, dst, now, detected);
                        } else {
                            self.log.record_miss(FaultKind::TamperTrailerLen);
                        }
                    }
                    Ok(Some(_)) => self.log.record_miss(FaultKind::TamperTrailerLen),
                }
                match self.ep(dst).accept_trailer(trailer) {
                    Ok(Some(ack)) => {
                        self.deliver_ack(now, src, &ack, None);
                    }
                    _ => self.log.record_false_positive(),
                }
                1
            }
            fault @ Some(FaultKind::DropAck | FaultKind::ForgeAck) => {
                match self.ep(dst).accept_trailer(trailer) {
                    Ok(Some(ack)) => self.deliver_ack(now, src, &ack, fault),
                    _ => {
                        self.log.record_false_positive();
                        0
                    }
                }
            }
            Some(_) => unreachable!("draw restricted to TRAILER kinds"),
        }
    }

    /// The `src` batcher's flush timeout fired for its batch towards
    /// `dst`. Returns tampered crossings.
    pub fn on_flush(&mut self, now: Cycle, src: NodeId, dst: NodeId) -> u64 {
        let mut tampered = 0;
        // A block withheld for reordering loses its swap partner when the
        // batch closes under it: release it clean.
        let held = self
            .open
            .get_mut(PairId::new(src, dst))
            .and_then(|s| s.held.take());
        if let Some(wire) = held {
            if self.ep(dst).open_batched_block(&wire).is_err() {
                self.log.record_false_positive();
            }
        }
        if let Some(trailer) = self.ep(src).flush_batch(dst) {
            tampered += self.on_trailer(now, src, dst, &trailer);
        }
        tampered
    }

    /// End of run: flush every still-open batch. Returns per-source
    /// tampered-crossing counts.
    #[must_use]
    pub fn finish(&mut self, now: Cycle) -> Vec<(NodeId, u64)> {
        let keys: Vec<PairId> = self.open.keys().collect();
        let mut per_src: DenseNodeMap<u64> = DenseNodeMap::new();
        for pair in keys {
            let n = self.on_flush(now, pair.src, pair.dst);
            if n > 0 {
                *per_src.get_or_insert_with(pair.src, || 0) += n;
            }
        }
        per_src.iter().map(|(n, &count)| (n, count)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::AdversaryConfig;

    fn config(rate: u32, batching: bool) -> SystemConfig {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.batching.enabled = batching;
        cfg.adversary = AdversaryConfig::active(rate);
        cfg
    }

    fn drive(cfg: &SystemConfig, blocks: usize) -> SecurityEventLog {
        let mut h = WireHarness::new(cfg);
        let pairs = [
            (NodeId::gpu(1), NodeId::gpu(2)),
            (NodeId::gpu(2), NodeId::gpu(3)),
            (NodeId::gpu(3), NodeId::gpu(1)),
        ];
        for i in 0..blocks {
            let (src, dst) = pairs[i % pairs.len()];
            h.on_block(Cycle::new(i as u64 * 10), src, dst);
        }
        let _ = h.finish(Cycle::new(blocks as u64 * 10));
        h.into_log()
    }

    #[test]
    fn clean_run_logs_nothing() {
        for batching in [false, true] {
            let log = drive(&config(0, batching), 200);
            assert!(log.is_clean(), "batching={batching}: {log:?}");
        }
    }

    #[test]
    fn unbatched_faults_are_all_detected() {
        let log = drive(&config(300, false), 600);
        assert!(log.total_injected() > 0);
        assert_eq!(log.total_missed(), 0, "{log:?}");
        assert_eq!(log.false_positives(), 0, "{log:?}");
        assert!((log.detection_rate() - 1.0).abs() < f64::EPSILON);
        for kind in FaultKind::UNBATCHED_BLOCK {
            assert!(log.injected_of(kind) > 0, "no {kind} injected");
        }
    }

    #[test]
    fn batched_faults_are_all_detected() {
        let log = drive(&config(300, true), 900);
        assert!(log.total_injected() > 0);
        assert_eq!(log.total_missed(), 0, "{log:?}");
        assert_eq!(log.false_positives(), 0, "{log:?}");
        for kind in FaultKind::ALL {
            assert!(log.injected_of(kind) > 0, "no {kind} injected: {log:?}");
        }
    }

    #[test]
    fn same_seed_same_log() {
        let a = drive(&config(150, true), 500);
        let b = drive(&config(150, true), 500);
        assert_eq!(a, b);
    }

    #[test]
    fn dropped_acks_detect_after_timeout() {
        let log = drive(&config(1000, false), 200);
        if log.detected_of(FaultKind::DropAck) > 0 {
            assert!(log.mean_time_to_detection() > 0.0);
        }
        assert_eq!(log.total_missed(), 0);
    }
}
