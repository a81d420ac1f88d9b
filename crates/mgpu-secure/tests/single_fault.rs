//! Single-fault property tests over the defense primitives.
//!
//! Every *single* mutation an on-wire adversary can make — a replayed or
//! regressed counter, a flipped ACK byte, a forged batched MAC, a wrong
//! trailer length, a within-batch reorder — must be rejected, and every
//! fault-free delivery (including arbitrary arrival orders) must be
//! accepted. These are the unit-level counterparts of the end-to-end
//! `WireHarness` campaign in `mgpu-system`.

use mgpu_secure::batching::{MacStorage, MsgMac};
use mgpu_secure::replay::ReplayGuard;
use mgpu_types::NodeId;
use proptest::prelude::*;

/// Deterministic, index-distinct per-block MAC (valid for `i < 251`).
fn mac_of(i: u32) -> MsgMac {
    [(i % 251) as u8; 8]
}

/// Deterministic shuffle of `0..n` from a seed (same LCG as the in-crate
/// batching property tests).
fn shuffled(n: u32, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..order.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// A `MacStorage` holding batch 0 from `src`, blocks stored in `order`,
/// with `macs[i]` in slot `order[i]`.
fn storage_with(src: NodeId, order: &[u32], mac_at: impl Fn(u32) -> MsgMac) -> MacStorage {
    let mut s = MacStorage::new(order.len());
    for &i in order {
        s.store_block(src, 0, i, mac_at(i)).unwrap();
    }
    s
}

proptest! {
    #[test]
    fn replay_guard_accepts_strictly_advancing_counters(
        start in 0u64..1_000_000,
        increments in proptest::collection::vec(1u64..1_000, 1..64),
    ) {
        let mut g = ReplayGuard::new();
        let src = NodeId::gpu(1);
        let mut ctr = start;
        for inc in increments {
            ctr += inc;
            prop_assert!(g.check_fresh(src, ctr).is_ok());
        }
        prop_assert_eq!(g.replays_detected(), 0);
    }

    #[test]
    fn replay_guard_detects_every_replayed_counter(
        start in 0u64..1_000_000,
        increments in proptest::collection::vec(1u64..1_000, 1..64),
        pick in any::<u64>(),
    ) {
        let mut g = ReplayGuard::new();
        let src = NodeId::gpu(2);
        let mut accepted = Vec::new();
        let mut ctr = start;
        for inc in increments {
            ctr += inc;
            accepted.push(ctr);
            g.check_fresh(src, ctr).unwrap();
        }
        // Replaying ANY previously accepted counter must fail...
        let replayed = accepted[(pick as usize) % accepted.len()];
        prop_assert!(g.check_fresh(src, replayed).is_err());
        prop_assert_eq!(g.replays_detected(), 1);
        // ...and detection does not poison freshness for genuine traffic.
        prop_assert!(g.check_fresh(src, ctr + 1).is_ok());
    }

    #[test]
    fn forged_ack_never_clears_outstanding_state(
        ctr in any::<u64>(),
        mac_seed in any::<u64>(),
        byte in 0usize..8,
        xor in 1u8..=255,
    ) {
        let mac: MsgMac = mac_seed.to_le_bytes();
        let mut g = ReplayGuard::new();
        let dst = NodeId::gpu(3);
        g.register_outstanding(dst, ctr, mac);
        let mut forged = mac;
        forged[byte] ^= xor;
        prop_assert!(g.accept_ack(dst, ctr, forged).is_err());
        prop_assert!(
            g.is_outstanding(dst, ctr),
            "a forged ACK must not clear the outstanding slot"
        );
        prop_assert_eq!(g.ack_mismatches(), 1);
        // The genuine ACK still lands afterwards.
        prop_assert!(g.accept_ack(dst, ctr, mac).is_ok());
        prop_assert!(!g.is_outstanding(dst, ctr));
    }

    #[test]
    fn mac_storage_accepts_any_fault_free_permutation(
        n in 1u32..64,
        seed in any::<u64>(),
    ) {
        let src = NodeId::gpu(1);
        let mut s = storage_with(src, &shuffled(n, seed), mac_of);
        let genuine = (0..n).map(mac_of).collect::<Vec<_>>().concat();
        prop_assert!(s.complete(src, 0, n, |c| *c == genuine).unwrap());
        prop_assert_eq!(s.pending(src, 0), 0);
        prop_assert_eq!(s.rejected_completions(), 0);
    }

    #[test]
    fn mac_storage_rejects_every_single_byte_mac_forgery(
        n in 1u32..64,
        seed in any::<u64>(),
        pos_pick in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let src = NodeId::gpu(1);
        let mut s = storage_with(src, &shuffled(n, seed), mac_of);
        let genuine = (0..n).map(mac_of).collect::<Vec<_>>().concat();
        // The trailer attests a concatenation that differs in one byte
        // (equivalently: one per-block MAC was flipped on the wire).
        let mut forged = genuine.clone();
        let pos = (pos_pick as usize) % forged.len();
        forged[pos] ^= xor;
        prop_assert!(!s.complete(src, 0, n, |c| *c == forged).unwrap());
        // The slot survives the forgery, so the genuine trailer completes.
        prop_assert_eq!(s.pending(src, 0), n as usize);
        prop_assert_eq!(s.rejected_completions(), 1);
        prop_assert!(s.complete(src, 0, n, |c| *c == genuine).unwrap());
    }

    #[test]
    fn mac_storage_detects_any_within_batch_reorder(
        n in 2u32..64,
        pick in any::<u64>(),
    ) {
        let src = NodeId::gpu(1);
        let i = (pick as u32) % n;
        let j = (i + 1 + ((pick >> 32) as u32) % (n - 1)) % n;
        prop_assert!(i != j);
        // Blocks i and j arrive with swapped index labels.
        let swap = move |k: u32| mac_of(if k == i { j } else if k == j { i } else { k });
        let mut s = storage_with(src, &(0..n).collect::<Vec<_>>(), swap);
        let genuine = (0..n).map(mac_of).collect::<Vec<_>>().concat();
        prop_assert!(!s.complete(src, 0, n, |c| *c == genuine).unwrap());
        prop_assert_eq!(s.pending(src, 0), n as usize);
    }

    #[test]
    fn mac_storage_rejects_wrong_trailer_length_and_retains_slot(
        n in 1u32..64,
        seed in any::<u64>(),
        wrong in 0u32..128,
    ) {
        prop_assume!(wrong != n);
        let src = NodeId::gpu(1);
        let mut s = storage_with(src, &shuffled(n, seed), mac_of);
        let genuine = (0..n).map(mac_of).collect::<Vec<_>>().concat();
        prop_assert!(s.complete(src, 0, wrong, |_| true).is_err());
        // Length mismatch must not discard the stored MACs (a forged
        // trailer would otherwise permanently block the genuine one).
        prop_assert_eq!(s.pending(src, 0), n as usize);
        prop_assert_eq!(s.rejected_completions(), 1);
        prop_assert!(s.complete(src, 0, n, |c| *c == genuine).unwrap());
    }
}
