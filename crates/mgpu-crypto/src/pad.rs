//! Pad seeds and the OTP buffer entry size.
//!
//! The paper (Fig. 4) derives every pad from a unique seed combining the
//! message counter, sender ID and receiver ID. A [`PadSeed`] captures that
//! triple; the functional channel turns it into the AES-GCM nonce, so the
//! GCM keystream is the pad. [`ENTRY_BITS`] is the storage cost of one OTP
//! buffer entry (§IV-D), which Table I multiplies out.

/// The (sender, receiver, counter) triple that uniquely identifies a pad.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::pad::PadSeed;
///
/// let nonce = PadSeed::new(1, 2, 99).to_nonce();
/// assert_eq!(nonce, [0, 1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 99]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PadSeed {
    /// Sending node's raw ID.
    pub sender: u16,
    /// Receiving node's raw ID.
    pub receiver: u16,
    /// Per-pair message counter (`MsgCTR`).
    pub counter: u64,
}

impl PadSeed {
    /// Creates a seed from its components.
    #[must_use]
    pub const fn new(sender: u16, receiver: u16, counter: u64) -> Self {
        PadSeed {
            sender,
            receiver,
            counter,
        }
    }

    /// The GCM-style 12-byte nonce form of this seed (sender ‖ receiver ‖
    /// counter), used by the functional secure channel.
    #[must_use]
    pub fn to_nonce(self) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        nonce[0..2].copy_from_slice(&self.sender.to_be_bytes());
        nonce[2..4].copy_from_slice(&self.receiver.to_be_bytes());
        nonce[4..12].copy_from_slice(&self.counter.to_be_bytes());
        nonce
    }
}

/// The storage cost of one OTP buffer entry in bits (paper §IV-D: "an OTP
/// buffer entry consists of a valid bit (1 bit), an encryption pad (512
/// bits), an authentication pad (128 bits), and a counter (64 bits)").
pub const ENTRY_BITS: u64 = 1 + 512 + 128 + 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_layout() {
        let nonce = PadSeed::new(0x0102, 0x0304, 0x05060708090a0b0c).to_nonce();
        assert_eq!(&nonce[0..2], &[0x01, 0x02]);
        assert_eq!(&nonce[2..4], &[0x03, 0x04]);
        assert_eq!(
            &nonce[4..12],
            &[0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c]
        );
    }

    #[test]
    fn entry_bits_match_paper_table_i() {
        assert_eq!(ENTRY_BITS, 705);
        // 32 entries -> 2820 bytes -> "2.75 KB" in Table I.
        assert_eq!((ENTRY_BITS * 32).div_ceil(8), 2820);
    }
}
