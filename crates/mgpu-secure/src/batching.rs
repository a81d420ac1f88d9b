//! Security-metadata batching (paper §IV-C).
//!
//! Bursty communication lets the sender amortize the `MsgMAC` and the ACK
//! over a whole group of blocks headed to the same destination: per-block
//! decryption metadata (`MsgCTR`, sender ID) still travels with every 64 B
//! block, but only one *batched* MAC — the MAC over the ordered
//! concatenation of the per-block MACs (paper Fig. 20 / Formula 5) — and
//! one ACK are exchanged per batch.
//!
//! Verification is **lazy** (paper adopts the lazy integrity verification
//! of Shi et al.): the receiver decrypts and forwards each block
//! immediately, storing its per-block MAC in the *MsgMAC storage*; when
//! every block of the batch has arrived (in any order), the batched MAC is
//! recomputed in order and compared. The storage is bounded (paper §IV-D:
//! `max(16, 64) × peers × 8 B = 2 KB` per GPU).
//!
//! This module owns the sender's close policy, which counts blocks and
//! never sees a MAC, and the receiver's MsgMAC storage. The sender-side
//! batched-MAC input — the open batch's per-block MACs concatenated in
//! send order — is built in `crate::channel::Endpoint`, one reused buffer
//! per peer, and sealed in place there by the same `AesGcm` instance that
//! seals the blocks, so trailer MACs ride the runtime-selected crypto
//! backend (hardware AES-NI/PCLMULQDQ when available) like block seals.
//! The receiver recomputes it over the ordered concatenation that
//! [`MacStorage::complete`] hands its verifier.

use mgpu_types::{Cycle, DenseNodeMap, Duration, MgpuError, NodeId};

/// A per-block message authentication code (8 B on the wire, §IV-D).
pub type MsgMac = [u8; 8];

/// Identifier of a batch within a sender→receiver stream.
pub type BatchId = u64;

/// A batch closed by the sender, ready for its trailer (batched MAC) to be
/// transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClosedBatch {
    /// Destination node.
    pub dst: NodeId,
    /// Sequential batch id within this sender→dst stream.
    pub id: BatchId,
    /// Number of blocks in the batch (the value of the 1 B length field).
    pub len: u32,
}

#[derive(Debug)]
struct OpenBatch {
    id: BatchId,
    /// When [`SenderBatcher::flush_due`] should close this batch: the
    /// opening cycle plus `flush_timeout`, plus any close jitter.
    flush_at: Cycle,
    len: u32,
}

/// Batch-close jitter policy (passive-observer defense): every batch's
/// flush deadline is pushed *later* by a deterministic pseudo-random
/// offset in `[0, bound)`, derived from `seed`, the destination and the
/// batch id. A co-located observer timing MAC-trailer emissions then sees
/// a decorrelated close cadence instead of the fixed `flush_timeout`
/// period, at the cost of up to `bound` extra cycles of metadata latency
/// per flushed batch. Size-triggered closes are untouched — only the
/// timeout path is jittered, since only its periodicity leaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloseJitter {
    /// Exclusive upper bound on the deadline offset.
    pub bound: Duration,
    /// Seed of the deterministic offset sequence.
    pub seed: u64,
}

impl CloseJitter {
    /// The offset applied to the batch `(dst, id)`'s flush deadline:
    /// a SplitMix64 hash of the seed and the batch's stream position,
    /// reduced into `[0, bound)`. Pure, so runs stay reproducible.
    #[must_use]
    pub fn offset(&self, dst: NodeId, id: BatchId) -> Duration {
        let bound = self.bound.as_u64();
        if bound == 0 {
            return Duration::ZERO;
        }
        let mut z = self
            .seed
            .wrapping_add(u64::from(dst.raw()) << 32)
            .wrapping_add(id)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Duration::cycles((z ^ (z >> 31)) % bound)
    }
}

/// Sender-side batch assembly: groups outgoing blocks per destination.
///
/// A batch closes when it reaches `batch_size` blocks, or — so trickle
/// traffic is not held hostage — when [`SenderBatcher::flush_due`] finds it
/// past its flush deadline (the fixed timeout, later under close jitter).
///
/// # Examples
///
/// ```
/// use mgpu_secure::batching::SenderBatcher;
/// use mgpu_types::{Cycle, Duration, NodeId};
///
/// let mut batcher = SenderBatcher::new(4, Duration::cycles(160));
/// let dst = NodeId::gpu(2);
/// for _ in 0..3 {
///     assert!(batcher.add_block(Cycle::new(10), dst).is_none());
/// }
/// // The fourth block completes the batch.
/// let batch = batcher.add_block(Cycle::new(12), dst).unwrap();
/// assert_eq!(batch.len, 4);
/// assert_eq!(batch.id, 0);
/// ```
#[derive(Debug)]
pub struct SenderBatcher {
    batch_size: u32,
    flush_timeout: Duration,
    jitter: Option<CloseJitter>,
    open: DenseNodeMap<OpenBatch>,
    next_id: DenseNodeMap<BatchId>,
    closed_full: u64,
    closed_flush: u64,
    blocks: u64,
}

impl SenderBatcher {
    /// Creates a batcher with the given batch size and flush timeout.
    ///
    /// # Panics
    ///
    /// Panics unless `batch_size` is in `1..=255`: the wire format carries
    /// the batch length in a 1 B field ([`ClosedBatch::len`]), so a larger
    /// batch would silently wrap on the wire. The bound is enforced here
    /// (panic, not clamp) because a wrapped length is a protocol
    /// correctness bug, not a tunable.
    #[must_use]
    pub fn new(batch_size: u32, flush_timeout: Duration) -> Self {
        assert!(
            (1..=255).contains(&batch_size),
            "batch size must fit the 1 B wire length field (1..=255), got {batch_size}"
        );
        SenderBatcher {
            batch_size,
            flush_timeout,
            jitter: None,
            open: DenseNodeMap::new(),
            next_id: DenseNodeMap::new(),
            closed_full: 0,
            closed_flush: 0,
            blocks: 0,
        }
    }

    /// Enables batch-close jitter: each batch's flush deadline is offset
    /// by a seeded pseudo-random amount in `[0, bound)`.
    #[must_use]
    pub fn with_close_jitter(mut self, bound: Duration, seed: u64) -> Self {
        self.jitter = Some(CloseJitter { bound, seed });
        self
    }

    fn take_id(&mut self, dst: NodeId) -> BatchId {
        let id = self.next_id.get_or_insert_with(dst, || 0);
        let out = *id;
        *id += 1;
        out
    }

    /// The flush deadline of batch `id` toward `dst` opened at `opened_at`.
    fn flush_deadline(&self, dst: NodeId, id: BatchId, opened_at: Cycle) -> Cycle {
        let base = opened_at + self.flush_timeout;
        match self.jitter {
            Some(j) => base + j.offset(dst, id),
            None => base,
        }
    }

    /// Adds one outgoing block for `dst`; returns the closed batch if this
    /// block completed it.
    pub fn add_block(&mut self, now: Cycle, dst: NodeId) -> Option<ClosedBatch> {
        self.blocks += 1;
        if !self.open.contains_key(dst) {
            let id = self.take_id(dst);
            let flush_at = self.flush_deadline(dst, id, now);
            self.open.insert(
                dst,
                OpenBatch {
                    id,
                    flush_at,
                    len: 0,
                },
            );
        }
        let batch = self.open.get_mut(dst).expect("just inserted");
        batch.len += 1;
        if batch.len < self.batch_size {
            return None;
        }
        let (id, len) = (batch.id, batch.len);
        self.open.remove(dst);
        self.closed_full += 1;
        Some(ClosedBatch { dst, id, len })
    }

    /// The `(batch id, index)` slot the *next* block added for `dst` will
    /// occupy — the wire labeling a streaming sender attaches to a block
    /// before handing it to [`add_block`].
    ///
    /// [`add_block`]: SenderBatcher::add_block
    #[must_use]
    pub fn peek_slot(&self, dst: NodeId) -> (BatchId, u32) {
        match self.open.get(dst) {
            Some(b) => (b.id, b.len),
            None => (self.next_id.get(dst).copied().unwrap_or(0), 0),
        }
    }

    /// Forces the open batch toward `dst` (if any) closed, regardless of
    /// its age.
    pub fn flush_dst(&mut self, dst: NodeId) -> Option<ClosedBatch> {
        self.open.remove(dst).map(|b| {
            self.closed_flush += 1;
            ClosedBatch {
                dst,
                id: b.id,
                len: b.len,
            }
        })
    }

    /// The configured maximum blocks per batch.
    #[must_use]
    pub fn batch_size(&self) -> u32 {
        self.batch_size
    }

    /// Closes every batch whose flush deadline has passed at time `now`
    /// (age ≥ `flush_timeout`, plus any close jitter) and writes them to
    /// `closed`, replacing its contents, in ascending destination order.
    /// Reusing one `closed` buffer makes the call allocation-free once it
    /// has grown.
    pub fn flush_due(&mut self, now: Cycle, closed: &mut Vec<ClosedBatch>) {
        closed.clear();
        closed.extend(
            self.open
                .iter()
                .filter(|(_, b)| now >= b.flush_at)
                .map(|(dst, b)| ClosedBatch {
                    dst,
                    id: b.id,
                    len: b.len,
                }),
        );
        for batch in closed.iter() {
            self.open.remove(batch.dst);
        }
        self.closed_flush += closed.len() as u64;
    }

    /// The earliest deadline among open batches, if any — when the system
    /// should next call [`flush_due`].
    ///
    /// [`flush_due`]: SenderBatcher::flush_due
    #[must_use]
    pub fn next_deadline(&self) -> Option<Cycle> {
        self.open.values().map(|b| b.flush_at).min()
    }

    /// Whether every batch's flush deadline lies strictly after its
    /// opening cycle, i.e. `flush_timeout` is non-zero. Deadlines are
    /// always fixed when a batch opens, with or without close jitter.
    #[must_use]
    pub fn deadlines_fixed(&self) -> bool {
        self.flush_timeout > Duration::ZERO
    }

    /// Batches closed because they filled up.
    #[must_use]
    pub fn closed_full(&self) -> u64 {
        self.closed_full
    }

    /// Batches closed by timeout/drain.
    #[must_use]
    pub fn closed_by_flush(&self) -> u64 {
        self.closed_flush
    }

    /// Mean occupancy of closed batches (blocks per batch).
    #[must_use]
    pub fn mean_occupancy(&self) -> f64 {
        let closed = self.closed_full + self.closed_flush;
        if closed == 0 {
            0.0
        } else {
            let pending: u64 = self.open.values().map(|b| u64::from(b.len)).sum();
            (self.blocks - pending) as f64 / closed as f64
        }
    }
}

/// Receiver-side MsgMAC storage and lazy batch verification.
///
/// Stores each arriving block's recomputed MAC under its `(sender, batch,
/// index)` slot; once the batch trailer (expected length + batched MAC) and
/// all blocks are present, the batch verifies and is removed.
///
/// # Examples
///
/// ```
/// use mgpu_secure::batching::MacStorage;
/// use mgpu_types::NodeId;
///
/// let mut storage = MacStorage::new(64 * 4);
/// let src = NodeId::gpu(1);
/// // Blocks may arrive out of order.
/// storage.store_block(src, 0, 1, [0xBB; 8]).unwrap();
/// storage.store_block(src, 0, 0, [0xAA; 8]).unwrap();
/// // Trailer announces 2 blocks; verification closure sees the ordered
/// // concatenation.
/// let verified = storage
///     .complete(src, 0, 2, |ordered| *ordered == [[0xAA; 8], [0xBB; 8]].concat())
///     .unwrap();
/// assert!(verified);
/// ```
#[derive(Debug)]
pub struct MacStorage {
    capacity_macs: usize,
    /// Per-sender list of in-flight batches. A sender rarely has more than
    /// one or two batches outstanding, so linear search beats tree lookup.
    slots: DenseNodeMap<Vec<BatchSlot>>,
    /// Retired per-batch MAC vectors, reused so steady-state verification
    /// does not allocate.
    spare: Vec<Vec<(u32, MsgMac)>>,
    /// Reusable buffer for the ordered concatenation handed to `verify`,
    /// rebuilt at every completion (so `verify` may overwrite it).
    concat_scratch: Vec<u8>,
    stored: usize,
    peak: usize,
    verified_batches: u64,
    rejected_completions: u64,
}

#[derive(Debug)]
struct BatchSlot {
    batch: BatchId,
    /// `(index, MAC)` entries kept sorted by index, so completion reads
    /// them in order without building an intermediate map.
    macs: Vec<(u32, MsgMac)>,
}

/// Ceiling on retired MAC vectors kept for reuse — bounds the pool while
/// still covering every concurrently open batch in practice.
const SPARE_SLOT_POOL: usize = 64;

impl MacStorage {
    /// Creates storage bounded to `capacity_macs` in-flight MACs (paper:
    /// 64 per peer, i.e. 2 KB per GPU at 8 B each in a 4-GPU system).
    #[must_use]
    pub fn new(capacity_macs: usize) -> Self {
        MacStorage {
            capacity_macs,
            slots: DenseNodeMap::new(),
            spare: Vec::new(),
            concat_scratch: Vec::new(),
            stored: 0,
            peak: 0,
            verified_batches: 0,
            rejected_completions: 0,
        }
    }

    /// Retires a finished slot's MAC vector into the reuse pool.
    fn retire(&mut self, slot: BatchSlot) -> usize {
        let freed = slot.macs.len();
        self.stored -= freed;
        if self.spare.len() < SPARE_SLOT_POOL {
            let mut macs = slot.macs;
            macs.clear();
            self.spare.push(macs);
        }
        freed
    }

    /// Stores the recomputed MAC of block `index` of `(src, batch)`.
    ///
    /// # Errors
    ///
    /// Returns [`MgpuError::Protocol`] if the storage is full or the slot
    /// is already occupied (duplicate delivery).
    pub fn store_block(
        &mut self,
        src: NodeId,
        batch: BatchId,
        index: u32,
        mac: MsgMac,
    ) -> Result<(), MgpuError> {
        if self.stored >= self.capacity_macs {
            return Err(MgpuError::Protocol(format!(
                "MsgMAC storage full ({} MACs)",
                self.capacity_macs
            )));
        }
        let list = self.slots.get_or_insert_with(src, Vec::new);
        let slot = match list.iter().position(|s| s.batch == batch) {
            Some(pos) => &mut list[pos],
            None => {
                let macs = self.spare.pop().unwrap_or_default();
                list.push(BatchSlot { batch, macs });
                list.last_mut().expect("just pushed")
            }
        };
        match slot.macs.binary_search_by_key(&index, |e| e.0) {
            Ok(_) => {
                return Err(MgpuError::Protocol(format!(
                    "duplicate block {index} in batch {batch} from {src}"
                )));
            }
            Err(pos) => slot.macs.insert(pos, (index, mac)),
        }
        self.stored += 1;
        self.peak = self.peak.max(self.stored);
        Ok(())
    }

    /// Number of blocks currently stored for `(src, batch)`.
    #[must_use]
    pub fn pending(&self, src: NodeId, batch: BatchId) -> usize {
        self.slots
            .get(src)
            .and_then(|list| list.iter().find(|s| s.batch == batch))
            .map_or(0, |s| s.macs.len())
    }

    /// Completes a batch: checks that exactly `expected_len` consecutive
    /// blocks `0..expected_len` are present, hands their ordered
    /// concatenation to `verify` (a scratch copy it may overwrite, e.g. by
    /// sealing it in place), and frees the storage **only when
    /// verification succeeds**.
    ///
    /// On a length mismatch or a `verify == false` outcome the stored MACs
    /// are retained (and [`rejected_completions`] is incremented): the
    /// trailer that failed may be an attacker's forgery, and discarding the
    /// slot would let that forgery permanently block the genuine trailer —
    /// the same re-insert discipline [`crate::replay::ReplayGuard::accept_ack`]
    /// applies to a mismatched ACK. Use [`discard`] to reclaim a slot whose
    /// genuine trailer will never verify (tampered blocks awaiting
    /// retransmission).
    ///
    /// # Errors
    ///
    /// Returns [`MgpuError::Protocol`] if the batch is unknown or blocks
    /// are missing or extra.
    ///
    /// [`rejected_completions`]: MacStorage::rejected_completions
    /// [`discard`]: MacStorage::discard
    pub fn complete<F>(
        &mut self,
        src: NodeId,
        batch: BatchId,
        expected_len: u32,
        verify: F,
    ) -> Result<bool, MgpuError>
    where
        F: FnOnce(&mut [u8]) -> bool,
    {
        let pos = self
            .slots
            .get(src)
            .and_then(|list| list.iter().position(|s| s.batch == batch))
            .ok_or_else(|| MgpuError::Protocol(format!("unknown batch {batch} from {src}")))?;
        let slot = &self.slots.get(src).expect("position implies list")[pos];
        // Entries are sorted and duplicate-free, so the slot holds exactly
        // the blocks `0..expected_len` iff the count matches and the
        // endpoints are 0 and expected_len - 1.
        let count = slot.macs.len() as u32;
        let contiguous = count == expected_len
            && slot.macs.first().is_none_or(|e| e.0 == 0)
            && slot.macs.last().is_none_or(|e| e.0 + 1 == expected_len);
        if !contiguous {
            self.rejected_completions += 1;
            return Err(MgpuError::Protocol(format!(
                "batch {batch} from {src}: expected blocks 0..{expected_len}, got {count}"
            )));
        }
        self.concat_scratch.clear();
        let slot = &self.slots.get(src).expect("checked above")[pos];
        for (_, mac) in &slot.macs {
            self.concat_scratch.extend_from_slice(mac);
        }
        let ok = verify(&mut self.concat_scratch);
        if ok {
            let slot = self
                .slots
                .get_mut(src)
                .expect("checked above")
                .swap_remove(pos);
            self.retire(slot);
            self.verified_batches += 1;
        } else {
            self.rejected_completions += 1;
        }
        Ok(ok)
    }

    /// Drops everything stored for `(src, batch)` and returns how many
    /// MACs were freed. Recovery path after a batch provably cannot verify
    /// (e.g. tampered blocks that the sender will retransmit).
    pub fn discard(&mut self, src: NodeId, batch: BatchId) -> usize {
        let Some(list) = self.slots.get_mut(src) else {
            return 0;
        };
        let Some(pos) = list.iter().position(|s| s.batch == batch) else {
            return 0;
        };
        let slot = list.swap_remove(pos);
        self.retire(slot)
    }

    /// High-water mark of stored MACs (for the paper's 2 KB sizing check).
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Batches verified successfully so far.
    #[must_use]
    pub fn verified_batches(&self) -> u64 {
        self.verified_batches
    }

    /// Completion attempts rejected (wrong length or failed verification)
    /// with the slot retained — each one is a detected attack or a
    /// protocol violation.
    #[must_use]
    pub fn rejected_completions(&self) -> u64 {
        self.rejected_completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flush(b: &mut SenderBatcher, now: Cycle) -> Vec<ClosedBatch> {
        let mut closed = Vec::new();
        b.flush_due(now, &mut closed);
        closed
    }

    #[test]
    fn batches_close_at_size() {
        let mut b = SenderBatcher::new(16, Duration::cycles(160));
        let dst = NodeId::gpu(2);
        for i in 0..15u8 {
            assert!(b.add_block(Cycle::new(u64::from(i)), dst).is_none());
        }
        let closed = b.add_block(Cycle::new(15), dst).expect("full");
        assert_eq!(closed.len, 16);
        assert_eq!(b.closed_full(), 1);
    }

    #[test]
    fn batch_ids_are_sequential_per_destination() {
        let mut b = SenderBatcher::new(2, Duration::cycles(160));
        let d1 = NodeId::gpu(2);
        let d2 = NodeId::gpu(3);
        b.add_block(Cycle::ZERO, d1);
        let b0 = b.add_block(Cycle::ZERO, d1).unwrap();
        b.add_block(Cycle::ZERO, d2);
        let c0 = b.add_block(Cycle::ZERO, d2).unwrap();
        b.add_block(Cycle::ZERO, d1);
        let b1 = b.add_block(Cycle::ZERO, d1).unwrap();
        assert_eq!(b0.id, 0);
        assert_eq!(b1.id, 1);
        assert_eq!(c0.id, 0); // independent stream
    }

    #[test]
    fn timeout_flushes_partial_batches() {
        let mut b = SenderBatcher::new(16, Duration::cycles(160));
        let dst = NodeId::gpu(2);
        b.add_block(Cycle::new(10), dst);
        b.add_block(Cycle::new(20), dst);
        assert!(flush(&mut b, Cycle::new(100)).is_empty());
        assert_eq!(b.next_deadline(), Some(Cycle::new(170)));
        let flushed = flush(&mut b, Cycle::new(170));
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].len, 2);
        assert_eq!(b.closed_by_flush(), 1);
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn flush_past_every_deadline_drains_everything() {
        let mut b = SenderBatcher::new(16, Duration::cycles(160));
        b.add_block(Cycle::ZERO, NodeId::gpu(3));
        b.add_block(Cycle::new(5), NodeId::gpu(2));
        let drained = flush(&mut b, Cycle::MAX);
        let dsts: Vec<NodeId> = drained.iter().map(|c| c.dst).collect();
        assert_eq!(dsts, [NodeId::gpu(2), NodeId::gpu(3)], "ascending dst");
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn mean_occupancy() {
        let mut b = SenderBatcher::new(4, Duration::cycles(160));
        let dst = NodeId::gpu(2);
        for _ in 0..4 {
            b.add_block(Cycle::ZERO, dst);
        }
        b.add_block(Cycle::ZERO, dst);
        flush(&mut b, Cycle::MAX);
        // Two closed batches: 4 + 1 blocks.
        assert!((b.mean_occupancy() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn only_fixed_future_deadlines_count_as_fixed() {
        let timeout = Duration::cycles(160);
        assert!(SenderBatcher::new(16, timeout).deadlines_fixed());
        assert!(SenderBatcher::new(16, timeout)
            .with_close_jitter(Duration::cycles(64), 7)
            .deadlines_fixed());
        // A zero timeout puts a new batch's deadline on its own cycle.
        assert!(!SenderBatcher::new(16, Duration::ZERO).deadlines_fixed());
    }

    #[test]
    fn later_blocks_keep_the_opening_deadline() {
        // Flush timing is the age >= flush_timeout rule: a later block
        // does not move the deadline its batch opened with.
        let mut b = SenderBatcher::new(16, Duration::cycles(160));
        let dst = NodeId::gpu(2);
        b.add_block(Cycle::new(10), dst);
        b.add_block(Cycle::new(90), dst);
        assert_eq!(b.next_deadline(), Some(Cycle::new(170)));
        assert!(flush(&mut b, Cycle::new(169)).is_empty());
        assert_eq!(flush(&mut b, Cycle::new(170)).len(), 1);
    }

    #[test]
    fn close_jitter_offsets_are_bounded_deterministic_and_varying() {
        let j = CloseJitter {
            bound: Duration::cycles(64),
            seed: 7,
        };
        let dst = NodeId::gpu(2);
        let offsets: Vec<u64> = (0..32).map(|id| j.offset(dst, id).as_u64()).collect();
        assert!(offsets.iter().all(|&o| o < 64), "offset escaped the bound");
        // Deterministic: the same (dst, id) always maps to the same offset.
        assert_eq!(j.offset(dst, 5), j.offset(dst, 5));
        // Varying: consecutive batches must not share one offset (which
        // would just shift, not break, the observable period).
        assert!(
            offsets.windows(2).any(|w| w[0] != w[1]),
            "offsets constant across batch ids: {offsets:?}"
        );
        // Distinct destinations draw from distinct subsequences.
        assert_ne!(
            (0..32)
                .map(|id| j.offset(NodeId::gpu(3), id).as_u64())
                .collect::<Vec<_>>(),
            offsets
        );
    }

    #[test]
    fn jittered_deadline_shifts_within_bound_and_keeps_size_closes() {
        let dst = NodeId::gpu(2);
        let mut plain = SenderBatcher::new(4, Duration::cycles(160));
        let mut jittered =
            SenderBatcher::new(4, Duration::cycles(160)).with_close_jitter(Duration::cycles(64), 7);
        plain.add_block(Cycle::new(10), dst);
        jittered.add_block(Cycle::new(10), dst);
        let base = plain.next_deadline().unwrap();
        let moved = jittered.next_deadline().unwrap();
        assert!(
            moved >= base && moved < base + Duration::cycles(64),
            "jittered deadline {moved} outside [{base}, {base}+64)"
        );
        // Size-triggered closes are untouched by the jitter policy.
        for i in 2..=4u8 {
            let closed = jittered.add_block(Cycle::new(11), dst);
            assert_eq!(closed.is_some(), i == 4);
        }
        assert_eq!(jittered.closed_full(), 1);
    }

    #[test]
    fn storage_tolerates_out_of_order() {
        let mut s = MacStorage::new(256);
        let src = NodeId::gpu(1);
        let order = [3u32, 0, 2, 1];
        for &i in &order {
            s.store_block(src, 7, i, [i as u8; 8]).unwrap();
        }
        assert_eq!(s.pending(src, 7), 4);
        let expected = [[0u8; 8], [1; 8], [2; 8], [3; 8]].concat();
        let ok = s.complete(src, 7, 4, |c| *c == expected).unwrap();
        assert!(ok);
        assert_eq!(s.pending(src, 7), 0);
        assert_eq!(s.verified_batches(), 1);
    }

    #[test]
    fn storage_rejects_duplicates_and_overflow() {
        let mut s = MacStorage::new(2);
        let src = NodeId::gpu(1);
        s.store_block(src, 0, 0, [0; 8]).unwrap();
        assert!(matches!(
            s.store_block(src, 0, 0, [1; 8]),
            Err(MgpuError::Protocol(_))
        ));
        s.store_block(src, 0, 1, [1; 8]).unwrap();
        assert!(matches!(
            s.store_block(src, 1, 0, [2; 8]),
            Err(MgpuError::Protocol(_))
        ));
        assert_eq!(s.peak(), 2);
    }

    #[test]
    fn incomplete_batch_fails_completion() {
        let mut s = MacStorage::new(64);
        let src = NodeId::gpu(1);
        s.store_block(src, 0, 0, [0; 8]).unwrap();
        s.store_block(src, 0, 2, [2; 8]).unwrap();
        // Block 1 missing.
        assert!(s.complete(src, 0, 3, |_| true).is_err());
        // Unknown batch.
        assert!(s.complete(src, 5, 1, |_| true).is_err());
    }

    #[test]
    fn failed_verification_reports_false() {
        let mut s = MacStorage::new(64);
        let src = NodeId::gpu(1);
        s.store_block(src, 0, 0, [0xAA; 8]).unwrap();
        let ok = s.complete(src, 0, 1, |_| false).unwrap();
        assert!(!ok);
        assert_eq!(s.verified_batches(), 0);
    }

    #[test]
    fn batch_size_boundary_255_is_accepted() {
        let mut b = SenderBatcher::new(255, Duration::cycles(160));
        let dst = NodeId::gpu(2);
        for _ in 0..254 {
            assert!(b.add_block(Cycle::ZERO, dst).is_none());
        }
        let closed = b.add_block(Cycle::ZERO, dst).expect("full at 255");
        assert_eq!(closed.len, 255);
    }

    #[test]
    #[should_panic(expected = "1 B wire length field")]
    fn batch_size_256_overflows_length_field_and_panics() {
        let _ = SenderBatcher::new(256, Duration::cycles(160));
    }

    #[test]
    #[should_panic(expected = "1 B wire length field")]
    fn batch_size_zero_panics() {
        let _ = SenderBatcher::new(0, Duration::cycles(160));
    }

    #[test]
    fn peek_slot_tracks_open_batch_and_next_id() {
        let mut b = SenderBatcher::new(3, Duration::cycles(160));
        let dst = NodeId::gpu(2);
        assert_eq!(b.peek_slot(dst), (0, 0));
        b.add_block(Cycle::ZERO, dst);
        assert_eq!(b.peek_slot(dst), (0, 1));
        b.add_block(Cycle::ZERO, dst);
        assert!(b.add_block(Cycle::ZERO, dst).is_some());
        // Batch 0 closed: the next block opens batch 1 at index 0.
        assert_eq!(b.peek_slot(dst), (1, 0));
    }

    #[test]
    fn flush_dst_closes_only_that_destination() {
        let mut b = SenderBatcher::new(16, Duration::cycles(160));
        b.add_block(Cycle::ZERO, NodeId::gpu(2));
        b.add_block(Cycle::ZERO, NodeId::gpu(3));
        let closed = b.flush_dst(NodeId::gpu(2)).expect("open batch");
        assert_eq!(closed.dst, NodeId::gpu(2));
        assert_eq!(closed.len, 1);
        assert!(b.flush_dst(NodeId::gpu(2)).is_none());
        // GPU 3's batch is untouched.
        assert_eq!(b.peek_slot(NodeId::gpu(3)), (0, 1));
        assert_eq!(b.batch_size(), 16);
    }

    #[test]
    fn wrong_length_completion_retains_slot_for_genuine_trailer() {
        // Satellite regression: an attacker trailer with a wrong length
        // must not discard the legitimately stored MACs.
        let mut s = MacStorage::new(64);
        let src = NodeId::gpu(1);
        for i in 0..4u32 {
            s.store_block(src, 0, i, [i as u8; 8]).unwrap();
        }
        assert!(s.complete(src, 0, 5, |_| true).is_err());
        assert_eq!(s.rejected_completions(), 1);
        assert_eq!(s.pending(src, 0), 4, "slot survived the forged trailer");
        // The genuine trailer still verifies afterwards.
        let expected = [[0u8; 8], [1; 8], [2; 8], [3; 8]].concat();
        assert!(s.complete(src, 0, 4, |c| *c == expected).unwrap());
        assert_eq!(s.pending(src, 0), 0);
    }

    #[test]
    fn failed_verification_retains_slot_and_counts() {
        let mut s = MacStorage::new(64);
        let src = NodeId::gpu(1);
        s.store_block(src, 0, 0, [0xAA; 8]).unwrap();
        assert!(!s.complete(src, 0, 1, |_| false).unwrap());
        assert_eq!(s.rejected_completions(), 1);
        // Retained: a retransmitted genuine trailer can still complete.
        assert_eq!(s.pending(src, 0), 1);
        assert!(s.complete(src, 0, 1, |_| true).unwrap());
    }

    #[test]
    fn discard_frees_capacity() {
        let mut s = MacStorage::new(2);
        let src = NodeId::gpu(1);
        s.store_block(src, 0, 0, [0; 8]).unwrap();
        s.store_block(src, 0, 1, [1; 8]).unwrap();
        assert!(s.store_block(src, 1, 0, [2; 8]).is_err(), "full");
        assert_eq!(s.discard(src, 0), 2);
        assert_eq!(s.discard(src, 0), 0);
        s.store_block(src, 1, 0, [2; 8]).unwrap();
    }

    #[test]
    fn paper_storage_sizing() {
        // §IV-D: max(16, 64) MACs × 4 peers × 8 B = 2 KB per GPU.
        let macs = 64 * 4;
        assert_eq!(macs * 8, 2048);
        let s = MacStorage::new(macs);
        assert_eq!(s.capacity_macs, 256);
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn any_permutation_reassembles(n in 1u32..64, seed in any::<u64>()) {
                let mut order: Vec<u32> = (0..n).collect();
                // Simple deterministic shuffle from the seed.
                let mut state = seed | 1;
                for i in (1..order.len()).rev() {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let j = (state >> 33) as usize % (i + 1);
                    order.swap(i, j);
                }
                let mut s = MacStorage::new(n as usize);
                let src = NodeId::gpu(1);
                for &i in &order {
                    s.store_block(src, 0, i, [(i % 251) as u8; 8]).unwrap();
                }
                let expected: Vec<MsgMac> = (0..n).map(|i| [(i % 251) as u8; 8]).collect();
                let expected = expected.concat();
                prop_assert!(s.complete(src, 0, n, |c| *c == expected).unwrap());
            }

            #[test]
            fn batcher_conserves_blocks(
                blocks in proptest::collection::vec(0usize..3, 1..200),
                batch_size in 1u32..20) {
                let peers = [NodeId::gpu(2), NodeId::gpu(3), NodeId::CPU];
                let mut b = SenderBatcher::new(batch_size, Duration::cycles(160));
                let mut closed_blocks = 0u64;
                for (t, &p) in blocks.iter().enumerate() {
                    if let Some(batch) = b.add_block(Cycle::new(t as u64), peers[p]) {
                        closed_blocks += u64::from(batch.len);
                    }
                }
                for batch in flush(&mut b, Cycle::MAX) {
                    closed_blocks += u64::from(batch.len);
                }
                prop_assert_eq!(closed_blocks, blocks.len() as u64);
                prop_assert_eq!(b.next_deadline(), None);
            }
        }
    }
}
