//! Wire protocol message sizes.
//!
//! Every protected 64 B block transfer carries security metadata in
//! addition to the ciphertext: the message counter (`MsgCTR`), the message
//! authentication code (`MsgMAC`), the sender ID, and — for replay
//! protection — an acknowledgement flowing back to the sender (paper
//! §II-C). The paper measures that this metadata inflates interconnect
//! traffic by ~36.5 % on average (Fig. 12); the batching scheme amortizes
//! the MAC and ACK over a whole batch (§IV-C).
//!
//! [`WireFormat`] is the one table of those sizes. The simulator's
//! `SecureNic::prepare_send` (crate `mgpu-system`) alone composes each
//! block's metadata parts from it, and the event loop sizes requests,
//! responses, batch trailers and ACKs from it, so every byte the fabric
//! charges traces back to a field here. The measured metadata share is
//! Fig. 12 of the reproduction.

use mgpu_types::ByteSize;

/// Byte sizes of every message component on the wire.
///
/// # Examples
///
/// ```
/// use mgpu_secure::protocol::WireFormat;
///
/// let w = WireFormat::default();
/// // Unbatched: every 64 B block pays counter + MAC + sender ID forward
/// // and one ACK backward.
/// assert_eq!((w.msg_ctr + w.msg_mac + w.sender_id).as_u64(), 17);
/// assert_eq!(w.ack_message().as_u64(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFormat {
    /// Payload of one direct-access block (a cacheline).
    pub block: ByteSize,
    /// Baseline message header (address, type, routing) present even in an
    /// unsecure system.
    pub header: ByteSize,
    /// Size of a remote-read *request* packet (header only, no payload).
    pub request: ByteSize,
    /// `MsgCTR` travelling with each protected block.
    pub msg_ctr: ByteSize,
    /// `MsgMAC` — 8 B per the paper's MsgMAC storage sizing (§IV-D).
    pub msg_mac: ByteSize,
    /// Sender identifier.
    pub sender_id: ByteSize,
    /// The ACK message used for replay protection: echoed MAC (or counter)
    /// plus a routing header.
    pub ack: ByteSize,
    /// The batch-length field prepended to the first block of a batch
    /// (paper: 1 B).
    pub batch_len: ByteSize,
}

impl Default for WireFormat {
    fn default() -> Self {
        WireFormat {
            block: ByteSize::CACHELINE,
            header: ByteSize::new(8),
            request: ByteSize::new(16),
            msg_ctr: ByteSize::new(8),
            msg_mac: ByteSize::new(8),
            sender_id: ByteSize::new(1),
            ack: ByteSize::new(16),
            batch_len: ByteSize::new(1),
        }
    }
}

impl WireFormat {
    /// The ACK message flowing back per unbatched block (or per batch when
    /// batching is enabled).
    #[must_use]
    pub fn ack_message(&self) -> ByteSize {
        self.ack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_match_paper_components() {
        let w = WireFormat::default();
        assert_eq!(w.block, ByteSize::CACHELINE);
        assert_eq!(w.msg_ctr.as_u64(), 8); // 64-bit counter
        assert_eq!(w.msg_mac.as_u64(), 8); // paper §IV-D: 8 B MsgMAC
        assert_eq!(w.sender_id.as_u64(), 1);
        assert_eq!(w.batch_len.as_u64(), 1); // paper §IV-C: 1 B length
    }
}
