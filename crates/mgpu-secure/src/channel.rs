//! Functional secure channel: the full protocol over real AES-GCM bits.
//!
//! The timing simulation (`mgpu-system`) models *when* things happen; this
//! module proves *that* the protocol works: every block is genuinely
//! encrypted, authenticated, replay-protected and — under batching —
//! lazily verified from the MsgMAC storage, using the workspace's
//! from-scratch crypto. Integration tests and the `secure_channel` example
//! drive attacks (bit flips, replays, reordering) against it.
//!
//! All functional crypto here — per-block GCM seals and batch-trailer
//! MACs — funnels through [`AesGcm`]'s in-place operations, which dispatch
//! to the runtime-selected `mgpu_crypto::backend::Backend`: hardware
//! AES-NI/PCLMULQDQ where the CPU supports it, the portable software
//! paths otherwise, bit-identical either way (`MGPU_CRYPTO_BACKEND=soft`
//! forces the software paths). Blocks travel by value as 64-byte arrays,
//! so no send, receive or batch close touches the heap once the per-peer
//! tables have grown.

use crate::batching::{BatchId, ClosedBatch, MacStorage, MsgMac, SenderBatcher};
use crate::key_exchange::KeyExchange;
use crate::replay::ReplayGuard;
use mgpu_crypto::pad::PadSeed;
use mgpu_crypto::AesGcm;
use mgpu_types::{Cycle, DenseNodeMap, Duration, MgpuError, NodeId};

/// Payload size of one protected block (a 64 B cacheline).
pub const BLOCK_SIZE: usize = 64;

/// Batch-id counters live in a disjoint nonce space from block counters:
/// ACKs for batch trailers echo `id | BATCH_NONCE_BIT` as their counter.
pub const BATCH_NONCE_BIT: u64 = 1 << 63;

/// One protected block on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBlock {
    /// Sending node (the 1 B sender ID of the protocol).
    pub sender: NodeId,
    /// Receiving node.
    pub receiver: NodeId,
    /// `MsgCTR` — selects the pad on both sides.
    pub counter: u64,
    /// 64 B of ciphertext.
    pub ciphertext: [u8; BLOCK_SIZE],
    /// Per-block `MsgMAC`; `None` for batched blocks, whose integrity is
    /// carried by the batch trailer instead.
    pub mac: Option<MsgMac>,
    /// Batch membership: `(batch id, index within batch)`.
    pub batch: Option<(BatchId, u32)>,
}

/// The per-batch trailer: one batched MAC covering the whole group
/// (paper Fig. 19b sends this once per n blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchTrailer {
    /// Sending node.
    pub sender: NodeId,
    /// Receiving node.
    pub receiver: NodeId,
    /// Batch id within the sender→receiver stream.
    pub id: BatchId,
    /// Number of blocks in the batch (the 1 B length field).
    pub len: u32,
    /// MAC over the ordered concatenation of the per-block MACs.
    pub mac: MsgMac,
}

/// The acknowledgement returned for replay protection: echoes the MAC of
/// the block (unbatched) or of the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Node sending the ACK (the original receiver).
    pub from: NodeId,
    /// Echoed counter (block `MsgCTR`, or batch id in the batch nonce
    /// space).
    pub counter: u64,
    /// Echoed MAC.
    pub mac: MsgMac,
}

/// One node's end of the secure communication fabric.
///
/// # Examples
///
/// ```
/// use mgpu_secure::channel::Endpoint;
/// use mgpu_secure::key_exchange::KeyExchange;
/// use mgpu_types::NodeId;
///
/// let kx = KeyExchange::boot([1u8; 16]);
/// let mut gpu1 = Endpoint::new(NodeId::gpu(1), 4, &kx);
/// let mut gpu2 = Endpoint::new(NodeId::gpu(2), 4, &kx);
///
/// let block = [0xCD; 64];
/// let wire = gpu1.seal_block(NodeId::gpu(2), &block);
/// let (plain, ack) = gpu2.open_block(&wire).expect("authentic");
/// assert_eq!(plain, block);
/// gpu1.accept_ack(&ack).expect("fresh");
/// ```
#[derive(Debug)]
pub struct Endpoint {
    id: NodeId,
    gcm: DenseNodeMap<AesGcm>,
    send_ctr: DenseNodeMap<u64>,
    guard: ReplayGuard,
    batcher: SenderBatcher,
    /// Per peer, the open batch's per-block MACs concatenated in send
    /// order: the batched-MAC input (paper Formula 5), sealed in place and
    /// cleared at every close.
    open_macs: DenseNodeMap<Vec<u8>>,
    storage: MacStorage,
    /// Trailers that arrived before all of their blocks did, listed per
    /// sender (at most a handful in flight, so linear search by batch id).
    early_trailers: DenseNodeMap<Vec<BatchTrailer>>,
    /// Highest batch id accepted per sender (trailer replay protection).
    last_batch: DenseNodeMap<BatchId>,
}

impl Endpoint {
    /// Creates the endpoint for node `id` in a system with `gpu_count`
    /// GPUs, deriving session keys for every peer from the boot exchange.
    #[must_use]
    pub fn new(id: NodeId, gpu_count: u16, kx: &KeyExchange) -> Self {
        let mut gcm = DenseNodeMap::with_gpu_count(gpu_count);
        for peer in id.peers(gpu_count) {
            gcm.insert(peer, AesGcm::new(&kx.pair_key(id, peer)));
        }
        Endpoint {
            id,
            gcm,
            send_ctr: DenseNodeMap::with_gpu_count(gpu_count),
            guard: ReplayGuard::new(),
            batcher: Self::sender_batcher(16),
            open_macs: DenseNodeMap::with_gpu_count(gpu_count),
            storage: MacStorage::new(64 * gpu_count as usize),
            early_trailers: DenseNodeMap::with_gpu_count(gpu_count),
            last_batch: DenseNodeMap::with_gpu_count(gpu_count),
        }
    }

    /// The functional channel adds blocks at `Cycle::ZERO` and closes
    /// partial batches only through [`Endpoint::flush_batch`], so its
    /// batcher's clock never runs and the flush timeout never fires.
    fn sender_batcher(batch_size: u32) -> SenderBatcher {
        SenderBatcher::new(batch_size, Duration::cycles(160))
    }

    /// Rebuilds the endpoint's sender batcher with `batch_size` blocks
    /// per batch, so the functional channel can mirror a
    /// [`BatchingConfig`]'s batch size instead of the default 16.
    ///
    /// Call before any traffic is sealed; an open batch would be lost.
    ///
    /// [`BatchingConfig`]: mgpu_types::BatchingConfig
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is outside `1..=255` (the 1 B wire length
    /// field), per [`SenderBatcher::new`].
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: u32) -> Self {
        self.batcher = Self::sender_batcher(batch_size);
        self
    }

    /// This endpoint's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    fn gcm_for(&self, peer: NodeId) -> &AesGcm {
        self.gcm.get(peer).expect("peer within system")
    }

    fn next_ctr(&mut self, peer: NodeId) -> u64 {
        let ctr = self.send_ctr.get_or_insert_with(peer, || 0);
        let out = *ctr;
        *ctr += 1;
        out
    }

    /// The GCM nonce of a message on the `sender → receiver` stream: its
    /// pad seed. The same 12 bytes are the message's AAD, which binds the
    /// clear header (sender, receiver, counter) to its MAC.
    fn nonce(sender: NodeId, receiver: NodeId, counter: u64) -> [u8; 12] {
        PadSeed::new(sender.raw(), receiver.raw(), counter).to_nonce()
    }

    /// Seals one block for `peer` under the next counter: the wire block
    /// (no MAC or batch slot filled in yet) and its 8 B `MsgMAC`.
    fn seal(&mut self, peer: NodeId, block: &[u8; BLOCK_SIZE]) -> (WireBlock, MsgMac) {
        let counter = self.next_ctr(peer);
        let nonce = Self::nonce(self.id, peer, counter);
        let mut ciphertext = *block;
        let tag = self
            .gcm_for(peer)
            .seal_in_place(&nonce, &nonce, &mut ciphertext);
        let wire = WireBlock {
            sender: self.id,
            receiver: peer,
            counter,
            ciphertext,
            mac: None,
            batch: None,
        };
        (wire, tag[..8].try_into().expect("8-byte prefix"))
    }

    /// Seals one unbatched block for `peer`: encrypt, MAC, register the
    /// outstanding `(counter, MAC)` for replay protection.
    pub fn seal_block(&mut self, peer: NodeId, block: &[u8; BLOCK_SIZE]) -> WireBlock {
        let (mut wire, mac) = self.seal(peer, block);
        self.guard.register_outstanding(peer, wire.counter, mac);
        wire.mac = Some(mac);
        wire
    }

    /// Opens one unbatched block: freshness check, verify MAC, decrypt,
    /// and produce the ACK to return.
    ///
    /// # Errors
    ///
    /// * [`MgpuError::ReplayDetected`] — the counter did not advance.
    /// * [`MgpuError::AuthenticationFailed`] — MAC mismatch (tampering).
    /// * [`MgpuError::Protocol`] — the block claims batch membership or
    ///   carries no MAC.
    pub fn open_block(&mut self, wire: &WireBlock) -> Result<([u8; BLOCK_SIZE], Ack), MgpuError> {
        if wire.batch.is_some() {
            return Err(MgpuError::Protocol(
                "batched block passed to open_block; use open_batched_block".into(),
            ));
        }
        let mac = wire
            .mac
            .ok_or_else(|| MgpuError::Protocol("unbatched block without a MsgMAC".into()))?;
        let nonce = Self::nonce(wire.sender, self.id, wire.counter);
        // Verify first, record freshness second: a forged message must not
        // burn the counter it claims, or an attacker could block the
        // genuine message by sending garbage ahead of it.
        let mut plaintext = wire.ciphertext;
        self.gcm_for(wire.sender)
            .open_in_place(&nonce, &nonce, &mut plaintext, &mac)
            .map_err(|_| MgpuError::AuthenticationFailed {
                context: format!(
                    "block MAC mismatch from {} at counter {}",
                    wire.sender, wire.counter
                ),
            })?;
        self.guard.check_fresh(wire.sender, wire.counter)?;
        let ack = Ack {
            from: self.id,
            counter: wire.counter,
            mac,
        };
        Ok((plaintext, ack))
    }

    /// Seals one block for `peer` into the currently open batch: the
    /// per-block MAC is withheld from the wire and appended to the peer's
    /// batched-MAC input. When this block fills the batch, the closing
    /// [`BatchTrailer`] is returned alongside it.
    ///
    /// This is the streaming form of [`Endpoint::seal_batch`]: blocks go
    /// on the wire as they are produced, the trailer follows when the
    /// batch closes (or when [`Endpoint::flush_batch`] is called on a
    /// timeout).
    pub fn seal_batched_block(
        &mut self,
        peer: NodeId,
        block: &[u8; BLOCK_SIZE],
    ) -> (WireBlock, Option<BatchTrailer>) {
        let (batch_id, index) = self.batcher.peek_slot(peer);
        let (mut wire, mac) = self.seal(peer, block);
        self.open_macs
            .get_or_insert_with(peer, Vec::new)
            .extend_from_slice(&mac);
        // Functional path: timing is modelled elsewhere, so batches close
        // on size here and on explicit `flush_batch` calls, never on the
        // batcher's own clock.
        let trailer = self
            .batcher
            .add_block(Cycle::ZERO, peer)
            .map(|closed| self.close_batch(closed));
        wire.batch = Some((batch_id, index));
        (wire, trailer)
    }

    /// Closes the open batch towards `peer` (timeout flush), returning its
    /// trailer, or `None` when no batch is open. Other peers' open batches
    /// are untouched.
    pub fn flush_batch(&mut self, peer: NodeId) -> Option<BatchTrailer> {
        self.batcher
            .flush_dst(peer)
            .map(|closed| self.close_batch(closed))
    }

    /// MACs the peer's batched-MAC input (sealing it in place), clears it
    /// for the next batch, registers the batch as outstanding and builds
    /// its trailer.
    fn close_batch(&mut self, closed: ClosedBatch) -> BatchTrailer {
        let peer = closed.dst;
        let concat = self
            .open_macs
            .get_mut(peer)
            .expect("a closed batch has MACs");
        let gcm = self.gcm.get(peer).expect("peer within system");
        let mac = Self::batched_mac(gcm, self.id, peer, closed.id, concat);
        concat.clear();
        self.guard
            .register_outstanding(peer, closed.id | BATCH_NONCE_BIT, mac);
        BatchTrailer {
            sender: self.id,
            receiver: peer,
            id: closed.id,
            len: closed.len,
            mac,
        }
    }

    /// Seals a group of blocks for `peer` as one batch: per-block MACs are
    /// withheld from the wire; the returned trailer carries the single
    /// batched MAC (paper Formula 5).
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty, longer than the batch size (it would
    /// span several batches — use [`Endpoint::seal_batched_block`]), or if
    /// a batch towards `peer` is already open.
    pub fn seal_batch(
        &mut self,
        peer: NodeId,
        blocks: &[[u8; BLOCK_SIZE]],
    ) -> (Vec<WireBlock>, BatchTrailer) {
        assert!(!blocks.is_empty(), "batch must contain at least one block");
        assert!(
            blocks.len() as u32 <= self.batcher.batch_size(),
            "{} blocks exceed the batch size {}",
            blocks.len(),
            self.batcher.batch_size()
        );
        assert_eq!(
            self.batcher.peek_slot(peer).1,
            0,
            "a batch towards {peer} is already open"
        );
        let mut wires = Vec::with_capacity(blocks.len());
        let mut trailer = None;
        for block in blocks {
            let (wire, done) = self.seal_batched_block(peer, block);
            wires.push(wire);
            if let Some(done) = done {
                trailer = Some(done);
            }
        }
        let trailer = trailer
            .or_else(|| self.flush_batch(peer))
            .expect("open batch for peer");
        (wires, trailer)
    }

    /// The batched MAC of batch `id` on the `sender → receiver` stream: a
    /// GCM tag over the ordered MAC concatenation in the dedicated batch
    /// nonce space. Both ends compute it here, sealing `concat` in place
    /// (each caller discards the buffer afterwards); static over explicit
    /// borrows so callers can hold other `self` fields mutably.
    fn batched_mac(
        gcm: &AesGcm,
        sender: NodeId,
        receiver: NodeId,
        id: BatchId,
        concat: &mut [u8],
    ) -> MsgMac {
        let nonce = Self::nonce(sender, receiver, id | BATCH_NONCE_BIT);
        let tag = gcm.seal_in_place(&nonce, &nonce, concat);
        tag[..8].try_into().expect("8-byte prefix")
    }

    /// Opens one *batched* block lazily: the plaintext is returned
    /// immediately (after freshness check); the recomputed per-block MAC is
    /// parked in the MsgMAC storage. If this block completes a batch whose
    /// trailer already arrived, the batch verifies now and the ACK is
    /// returned.
    ///
    /// # Errors
    ///
    /// * [`MgpuError::ReplayDetected`] — stale counter.
    /// * [`MgpuError::Protocol`] — not a batched block, duplicate index, or
    ///   storage overflow.
    /// * [`MgpuError::AuthenticationFailed`] — the completing batch failed
    ///   verification.
    pub fn open_batched_block(
        &mut self,
        wire: &WireBlock,
    ) -> Result<([u8; BLOCK_SIZE], Option<Ack>), MgpuError> {
        let (batch_id, index) = wire.batch.ok_or_else(|| {
            MgpuError::Protocol("unbatched block passed to open_batched_block".into())
        })?;
        // Batched blocks may arrive out of order within their batch, so the
        // strict per-block counter check does not apply. Replay protection
        // still holds: a duplicated block hits an occupied MsgMAC-storage
        // slot (rejected below), and a replayed *batch* is caught by the
        // trailer's batch-id freshness check in `accept_trailer`.
        let nonce = Self::nonce(wire.sender, self.id, wire.counter);
        // Lazy verification: decrypt now, verify when the batch completes.
        let mut plaintext = wire.ciphertext;
        let tag =
            self.gcm_for(wire.sender)
                .decrypt_and_tag_in_place(&nonce, &nonce, &mut plaintext);
        let mac: MsgMac = tag[..8].try_into().expect("8-byte prefix");
        self.storage
            .store_block(wire.sender, batch_id, index, mac)?;
        // If the trailer is already here and all blocks arrived, finish.
        let parked = self
            .early_trailers
            .get(wire.sender)
            .and_then(|list| list.iter().find(|t| t.id == batch_id))
            .copied();
        let ack = if let Some(trailer) = parked {
            if self.storage.pending(wire.sender, batch_id) as u32 == trailer.len {
                self.remove_early_trailer(wire.sender, batch_id);
                Some(self.finish_batch(&trailer)?)
            } else {
                None
            }
        } else {
            None
        };
        Ok((plaintext, ack))
    }

    /// Unparks the early trailer for `(src, id)`, if present.
    fn remove_early_trailer(&mut self, src: NodeId, id: BatchId) {
        if let Some(list) = self.early_trailers.get_mut(src) {
            if let Some(pos) = list.iter().position(|t| t.id == id) {
                list.swap_remove(pos);
            }
        }
    }

    /// Processes a batch trailer. If every block already arrived the batch
    /// verifies immediately and the ACK is returned; otherwise the trailer
    /// is parked until the last block lands.
    ///
    /// # Errors
    ///
    /// Returns [`MgpuError::AuthenticationFailed`] if the batched MAC does
    /// not match, [`MgpuError::ReplayDetected`] for a stale batch id, or
    /// [`MgpuError::Protocol`] on malformed batches — including a trailer
    /// whose length field claims fewer blocks than already arrived.
    pub fn accept_trailer(&mut self, trailer: &BatchTrailer) -> Result<Option<Ack>, MgpuError> {
        // Batch ids advance monotonically per stream: a replayed batch
        // (blocks + trailer re-sent wholesale) trips this check. Batch ids
        // get their own freshness domain, separate from block counters.
        // Freshness is recorded only when the batch *verifies* (in
        // `finish_batch`) — a tampered trailer must not burn the id it
        // claims, or the genuine trailer could never complete its batch.
        if let Some(&last) = self.last_batch.get(trailer.sender) {
            if trailer.id <= last {
                return Err(MgpuError::ReplayDetected {
                    counter: trailer.id,
                });
            }
        }
        let pending = self.storage.pending(trailer.sender, trailer.id) as u32;
        if pending > trailer.len {
            // An under-length trailer can never match the stored MACs —
            // reject it inline instead of parking it forever.
            return Err(MgpuError::Protocol(format!(
                "trailer for batch {} from {} claims {} blocks but {pending} already arrived",
                trailer.id, trailer.sender, trailer.len
            )));
        }
        if pending == trailer.len {
            Ok(Some(self.finish_batch(trailer)?))
        } else {
            let list = self
                .early_trailers
                .get_or_insert_with(trailer.sender, Vec::new);
            match list.iter_mut().find(|t| t.id == trailer.id) {
                Some(slot) => *slot = *trailer,
                None => list.push(*trailer),
            }
            Ok(None)
        }
    }

    fn finish_batch(&mut self, trailer: &BatchTrailer) -> Result<Ack, MgpuError> {
        let sender = trailer.sender;
        let id = trailer.id;
        let me = self.id;
        // Verify inside the closure with a locally recomputed batched MAC.
        // The closure borrows the session cipher — a field disjoint from
        // `storage` — and seals the storage's concatenation scratch in
        // place, so nothing is cloned.
        let gcm = self.gcm.get(sender).expect("peer within system");
        let trailer_mac = trailer.mac;
        let ok = self.storage.complete(sender, id, trailer.len, |concat| {
            Self::batched_mac(gcm, sender, me, id, concat) == trailer_mac
        })?;
        if !ok {
            return Err(MgpuError::AuthenticationFailed {
                context: format!("batched MAC mismatch for batch {id} from {sender}"),
            });
        }
        // Only a verified batch advances the trailer-replay horizon, and it
        // sweeps out any parked (possibly forged, over-length) trailer
        // still waiting under this batch id.
        self.last_batch.insert(sender, id);
        self.remove_early_trailer(sender, id);
        Ok(Ack {
            from: me,
            counter: id | BATCH_NONCE_BIT,
            mac: trailer_mac,
        })
    }

    /// Validates an ACK against the outstanding table (replay protection's
    /// sender side).
    ///
    /// # Errors
    ///
    /// See [`ReplayGuard::accept_ack`].
    pub fn accept_ack(&mut self, ack: &Ack) -> Result<(), MgpuError> {
        self.guard.accept_ack(ack.from, ack.counter, ack.mac)
    }

    /// Whether the message/batch sent to `peer` under `counter` (batch ids
    /// carry the batch-nonce bit) is still awaiting its ACK — the sender's
    /// window into dropped acknowledgements.
    #[must_use]
    pub fn ack_outstanding(&self, peer: NodeId, counter: u64) -> bool {
        self.guard.is_outstanding(peer, counter)
    }

    /// Drops the receive-side state parked for batch `id` from `src` —
    /// stored MsgMACs and any early trailer — freeing the storage for a
    /// retransmission after a failed batch verification. Returns the
    /// number of MACs discarded.
    pub fn discard_batch(&mut self, src: NodeId, id: BatchId) -> usize {
        self.remove_early_trailer(src, id);
        self.storage.discard(src, id)
    }

    /// Messages/batches still awaiting acknowledgement.
    #[must_use]
    pub fn outstanding_acks(&self) -> usize {
        self.guard.outstanding()
    }

    /// High-water mark of the receive-side MsgMAC storage.
    #[must_use]
    pub fn mac_storage_peak(&self) -> usize {
        self.storage.peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Endpoint, Endpoint) {
        let kx = KeyExchange::boot([42; 16]);
        (
            Endpoint::new(NodeId::gpu(1), 4, &kx),
            Endpoint::new(NodeId::gpu(2), 4, &kx),
        )
    }

    #[test]
    fn unbatched_roundtrip_with_ack() {
        let (mut a, mut b) = pair();
        let block = [0x5A; 64];
        let wire = a.seal_block(b.id(), &block);
        assert_eq!(a.outstanding_acks(), 1);
        let (plain, ack) = b.open_block(&wire).unwrap();
        assert_eq!(plain, block);
        a.accept_ack(&ack).unwrap();
        assert_eq!(a.outstanding_acks(), 0);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_across_counters() {
        let (mut a, b) = pair();
        let block = [0x5A; 64];
        let w1 = a.seal_block(b.id(), &block);
        let w2 = a.seal_block(b.id(), &block);
        assert_ne!(w1.ciphertext, block);
        // Same plaintext, fresh counter => fresh pad => fresh ciphertext.
        assert_ne!(w1.ciphertext, w2.ciphertext);
        assert_eq!(w1.counter + 1, w2.counter);
    }

    #[test]
    fn tampered_block_is_rejected() {
        let (mut a, mut b) = pair();
        let mut wire = a.seal_block(b.id(), &[1; 64]);
        wire.ciphertext[10] ^= 0x80;
        let err = b.open_block(&wire).unwrap_err();
        assert!(matches!(err, MgpuError::AuthenticationFailed { .. }));
    }

    #[test]
    fn replayed_block_is_rejected() {
        let (mut a, mut b) = pair();
        let wire = a.seal_block(b.id(), &[1; 64]);
        b.open_block(&wire).unwrap();
        let err = b.open_block(&wire).unwrap_err();
        assert!(matches!(err, MgpuError::ReplayDetected { .. }));
    }

    #[test]
    fn forged_ack_is_rejected() {
        let (mut a, mut b) = pair();
        let wire = a.seal_block(b.id(), &[1; 64]);
        let (_, mut ack) = b.open_block(&wire).unwrap();
        ack.mac[0] ^= 1;
        assert!(matches!(
            a.accept_ack(&ack),
            Err(MgpuError::AuthenticationFailed { .. })
        ));
        // Original entry still outstanding for the genuine ACK.
        assert_eq!(a.outstanding_acks(), 1);
    }

    #[test]
    fn batch_roundtrip_in_order() {
        let (mut a, mut b) = pair();
        let blocks: Vec<[u8; 64]> = (0..16u8).map(|i| [i; 64]).collect();
        let (wires, trailer) = a.seal_batch(b.id(), &blocks);
        assert_eq!(trailer.len, 16);
        let mut ack = None;
        for (i, wire) in wires.iter().enumerate() {
            let (plain, maybe_ack) = b.open_batched_block(wire).unwrap();
            assert_eq!(plain, blocks[i]);
            assert!(maybe_ack.is_none());
        }
        // Trailer arrives after all blocks: verification completes.
        if let Some(got) = b.accept_trailer(&trailer).unwrap() {
            ack = Some(got);
        }
        let ack = ack.expect("batch verified");
        a.accept_ack(&ack).unwrap();
        assert_eq!(a.outstanding_acks(), 0);
    }

    #[test]
    fn batch_roundtrip_out_of_order_with_early_trailer() {
        let (mut a, mut b) = pair();
        let blocks: Vec<[u8; 64]> = (0..8u8).map(|i| [i.wrapping_mul(37); 64]).collect();
        let (mut wires, trailer) = a.seal_batch(b.id(), &blocks);
        // Trailer first (races ahead on the wire).
        assert!(b.accept_trailer(&trailer).unwrap().is_none());
        // Blocks arrive in reverse order — but counters must still advance;
        // reverse order would trip the freshness check, so interleave
        // plausibly: deliver evens then odds.
        let evens: Vec<WireBlock> = wires.iter().step_by(2).cloned().collect();
        let odds: Vec<WireBlock> = wires.iter().skip(1).step_by(2).cloned().collect();
        wires.clear();
        let mut ack = None;
        for wire in evens.iter() {
            let (_, got) = b.open_batched_block(wire).unwrap();
            assert!(got.is_none());
        }
        for wire in odds.iter() {
            let (_, got) = b.open_batched_block(wire).unwrap();
            if let Some(got) = got {
                ack = Some(got);
            }
        }
        let ack = ack.expect("last block completed the batch");
        a.accept_ack(&ack).unwrap();
    }

    #[test]
    fn tampered_batched_block_fails_lazy_verification() {
        let (mut a, mut b) = pair();
        let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
        let (mut wires, trailer) = a.seal_batch(b.id(), &blocks);
        wires[2].ciphertext[0] ^= 1;
        for wire in &wires {
            // Lazy: decryption always "succeeds" — tampering surfaces at
            // batch completion, not here.
            b.open_batched_block(wire).unwrap();
        }
        let err = b.accept_trailer(&trailer).unwrap_err();
        assert!(matches!(err, MgpuError::AuthenticationFailed { .. }));
    }

    #[test]
    fn tampered_trailer_fails() {
        let (mut a, mut b) = pair();
        let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
        let (wires, mut trailer) = a.seal_batch(b.id(), &blocks);
        for wire in &wires {
            b.open_batched_block(wire).unwrap();
        }
        trailer.mac[5] ^= 4;
        assert!(matches!(
            b.accept_trailer(&trailer),
            Err(MgpuError::AuthenticationFailed { .. })
        ));
    }

    #[test]
    fn block_and_batch_nonce_spaces_are_disjoint() {
        // Batch id 0 must not collide with block counter 0.
        let (mut a, mut b) = pair();
        let (wires, trailer) = a.seal_batch(b.id(), &[[7; 64]]);
        for wire in &wires {
            b.open_batched_block(wire).unwrap();
        }
        let ack = b.accept_trailer(&trailer).unwrap().expect("verified");
        assert_eq!(ack.counter, BATCH_NONCE_BIT);
        a.accept_ack(&ack).unwrap();
        // A plain block with counter equal to the batch count still works.
        let wire = a.seal_block(b.id(), &[8; 64]);
        b.open_block(&wire).unwrap();
    }

    #[test]
    fn mac_storage_peak_is_bounded_by_batch() {
        let (mut a, mut b) = pair();
        let blocks: Vec<[u8; 64]> = (0..16u8).map(|i| [i; 64]).collect();
        let (wires, trailer) = a.seal_batch(b.id(), &blocks);
        for wire in &wires {
            b.open_batched_block(wire).unwrap();
        }
        b.accept_trailer(&trailer).unwrap();
        assert_eq!(b.mac_storage_peak(), 16);
    }

    fn small_batch_pair() -> (Endpoint, Endpoint) {
        let kx = KeyExchange::boot([42; 16]);
        (
            Endpoint::new(NodeId::gpu(1), 4, &kx).with_batch_size(4),
            Endpoint::new(NodeId::gpu(2), 4, &kx),
        )
    }

    #[test]
    fn streaming_batch_emits_trailer_when_full() {
        let (mut a, mut b) = small_batch_pair();
        let mut trailers = Vec::new();
        let mut acks = Vec::new();
        for i in 0..8u8 {
            let (wire, trailer) = a.seal_batched_block(b.id(), &[i; 64]);
            let (plain, _) = b.open_batched_block(&wire).unwrap();
            assert_eq!(plain, [i; 64]);
            if let Some(t) = trailer {
                // Batch closes exactly on the 4th and 8th block.
                assert_eq!(i % 4, 3);
                assert_eq!(t.len, 4);
                acks.push(b.accept_trailer(&t).unwrap().expect("batch complete"));
                trailers.push(t);
            }
        }
        assert_eq!(trailers.len(), 2);
        assert_eq!(trailers[0].id + 1, trailers[1].id);
        for ack in &acks {
            a.accept_ack(ack).unwrap();
        }
        assert_eq!(a.outstanding_acks(), 0);
    }

    #[test]
    fn flush_batch_closes_partial_batch() {
        let (mut a, mut b) = small_batch_pair();
        assert!(a.flush_batch(b.id()).is_none(), "nothing open yet");
        let (wire, none) = a.seal_batched_block(b.id(), &[9; 64]);
        assert!(none.is_none());
        let trailer = a.flush_batch(b.id()).expect("partial batch flushed");
        assert_eq!(trailer.len, 1);
        assert!(a.ack_outstanding(b.id(), trailer.id | BATCH_NONCE_BIT));
        b.open_batched_block(&wire).unwrap();
        let ack = b.accept_trailer(&trailer).unwrap().expect("verified");
        a.accept_ack(&ack).unwrap();
        assert!(!a.ack_outstanding(b.id(), trailer.id | BATCH_NONCE_BIT));
    }

    #[test]
    fn interleaved_peers_keep_separate_batched_mac_inputs() {
        let kx = KeyExchange::boot([42; 16]);
        let mut a = Endpoint::new(NodeId::gpu(1), 4, &kx).with_batch_size(4);
        let mut b = Endpoint::new(NodeId::gpu(2), 4, &kx);
        let mut c = Endpoint::new(NodeId::gpu(3), 4, &kx);
        // Blocks alternate b, c, b, c, ...: b's batch closes on size at
        // its fourth block (the seventh sent), while c's, three blocks in,
        // stays open until `flush_batch`. Each trailer verifies only if
        // its batched-MAC input held that peer's MACs alone.
        let mut b_trailer = None;
        for i in 0..7u8 {
            let (peer, rx) = if i % 2 == 0 {
                (b.id(), &mut b)
            } else {
                (c.id(), &mut c)
            };
            let (wire, trailer) = a.seal_batched_block(peer, &[i; 64]);
            let (plain, _) = rx.open_batched_block(&wire).unwrap();
            assert_eq!(plain, [i; 64]);
            if let Some(t) = trailer {
                assert_eq!((i, t.receiver, t.len), (6, b.id(), 4), "only b fills");
                b_trailer = Some(t);
            }
        }
        let c_trailer = a.flush_batch(c.id()).expect("c's batch is open");
        assert_eq!(c_trailer.len, 3);
        let b_ack = b.accept_trailer(&b_trailer.expect("b closed on size"));
        let c_ack = c.accept_trailer(&c_trailer);
        a.accept_ack(&b_ack.unwrap().expect("b's batch verifies"))
            .unwrap();
        a.accept_ack(&c_ack.unwrap().expect("c's batch verifies"))
            .unwrap();
        assert_eq!(a.outstanding_acks(), 0);
    }

    #[test]
    fn under_length_trailer_is_rejected_inline() {
        let (mut a, mut b) = small_batch_pair();
        let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
        let (wires, trailer) = a.seal_batch(b.id(), &blocks);
        for wire in &wires {
            b.open_batched_block(wire).unwrap();
        }
        let forged = BatchTrailer {
            len: trailer.len - 1,
            ..trailer
        };
        // Fewer blocks claimed than arrived: impossible, flagged inline
        // rather than parked forever.
        assert!(matches!(
            b.accept_trailer(&forged),
            Err(MgpuError::Protocol(_))
        ));
        // The genuine trailer still completes the batch.
        let ack = b.accept_trailer(&trailer).unwrap().expect("verified");
        a.accept_ack(&ack).unwrap();
    }

    #[test]
    fn over_length_trailer_parks_then_genuine_completes() {
        let (mut a, mut b) = small_batch_pair();
        let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
        let (wires, trailer) = a.seal_batch(b.id(), &blocks);
        for wire in &wires {
            b.open_batched_block(wire).unwrap();
        }
        let forged = BatchTrailer {
            len: trailer.len + 1,
            ..trailer
        };
        // Claims a block that will never come: parks awaiting it.
        assert!(b.accept_trailer(&forged).unwrap().is_none());
        // The genuine trailer verifies and sweeps the forged parked one.
        let ack = b.accept_trailer(&trailer).unwrap().expect("verified");
        a.accept_ack(&ack).unwrap();
    }

    #[test]
    fn tampered_trailer_does_not_burn_the_batch_id() {
        let (mut a, mut b) = small_batch_pair();
        let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
        let (wires, trailer) = a.seal_batch(b.id(), &blocks);
        for wire in &wires {
            b.open_batched_block(wire).unwrap();
        }
        let mut forged = trailer;
        forged.mac[3] ^= 0x10;
        assert!(matches!(
            b.accept_trailer(&forged),
            Err(MgpuError::AuthenticationFailed { .. })
        ));
        // Stored MACs and the batch id both survive the forgery: the
        // genuine trailer still verifies.
        let ack = b.accept_trailer(&trailer).unwrap().expect("verified");
        a.accept_ack(&ack).unwrap();
        // A *replay* of the now-verified trailer is still rejected.
        assert!(matches!(
            b.accept_trailer(&trailer),
            Err(MgpuError::ReplayDetected { .. })
        ));
    }

    #[test]
    fn discard_batch_enables_retransmission_after_tamper() {
        let (mut a, mut b) = small_batch_pair();
        let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
        let (wires, trailer) = a.seal_batch(b.id(), &blocks);
        let mut tampered = wires.clone();
        tampered[1].ciphertext[7] ^= 2;
        for wire in &tampered {
            b.open_batched_block(wire).unwrap();
        }
        assert!(matches!(
            b.accept_trailer(&trailer),
            Err(MgpuError::AuthenticationFailed { .. })
        ));
        // Recovery: drop the poisoned batch state, retransmit clean.
        assert_eq!(b.discard_batch(a.id(), trailer.id), 4);
        for wire in &wires {
            b.open_batched_block(wire).unwrap();
        }
        let ack = b.accept_trailer(&trailer).unwrap().expect("verified");
        a.accept_ack(&ack).unwrap();
    }

    #[test]
    #[should_panic(expected = "exceed the batch size")]
    fn seal_batch_larger_than_batch_size_panics() {
        let (mut a, b) = small_batch_pair();
        let blocks: Vec<[u8; 64]> = (0..5u8).map(|i| [i; 64]).collect();
        let _ = a.seal_batch(b.id(), &blocks);
    }

    #[test]
    fn wrong_key_cannot_open() {
        let kx1 = KeyExchange::boot([1; 16]);
        let kx2 = KeyExchange::boot([2; 16]);
        let mut a = Endpoint::new(NodeId::gpu(1), 4, &kx1);
        let mut b = Endpoint::new(NodeId::gpu(2), 4, &kx2);
        let wire = a.seal_block(b.id(), &[9; 64]);
        assert!(matches!(
            b.open_block(&wire),
            Err(MgpuError::AuthenticationFailed { .. })
        ));
    }
}
