//! Node and communication-pair identifiers.

use core::fmt;

/// Identifies a processor in the multi-GPU system.
///
/// The CPU is always node `0`; GPUs are numbered `1..=gpu_count`. This
/// matches the paper's system model of one host CPU plus N GPUs sharing a
/// unified address space.
///
/// # Examples
///
/// ```
/// use mgpu_types::NodeId;
///
/// let gpu1 = NodeId::gpu(1);
/// assert!(gpu1.is_gpu());
/// assert_eq!(gpu1.gpu_index(), Some(1));
/// assert_eq!(NodeId::CPU.gpu_index(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// The host CPU (node 0).
    pub const CPU: NodeId = NodeId(0);

    /// Creates the identifier for the `index`-th GPU (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `index` is zero (index 0 is reserved for the CPU).
    #[must_use]
    pub fn gpu(index: u16) -> Self {
        assert!(index > 0, "GPU indices are 1-based; 0 is the CPU");
        NodeId(index)
    }

    /// Creates a node identifier from a raw index (0 = CPU, n>0 = GPU n).
    #[must_use]
    pub const fn from_raw(raw: u16) -> Self {
        NodeId(raw)
    }

    /// Raw numeric value (0 = CPU, n = GPU n).
    #[must_use]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Returns `true` when this node is the host CPU.
    #[must_use]
    pub const fn is_cpu(self) -> bool {
        self.0 == 0
    }

    /// Returns `true` when this node is a GPU.
    #[must_use]
    pub const fn is_gpu(self) -> bool {
        self.0 != 0
    }

    /// The 1-based GPU index, or `None` for the CPU.
    #[must_use]
    pub const fn gpu_index(self) -> Option<u16> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0)
        }
    }

    /// Iterates over all nodes of a system with `gpu_count` GPUs
    /// (CPU first, then GPUs in index order).
    pub fn all(gpu_count: u16) -> impl Iterator<Item = NodeId> {
        (0..=gpu_count).map(NodeId)
    }

    /// Iterates over the peers of `self` in a system with `gpu_count` GPUs,
    /// i.e. every node except `self`.
    pub fn peers(self, gpu_count: u16) -> impl Iterator<Item = NodeId> {
        NodeId::all(gpu_count).filter(move |&n| n != self)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_cpu() {
            write!(f, "CPU")
        } else {
            write!(f, "GPU{}", self.0)
        }
    }
}

/// An ordered (source, destination) pair of nodes — one direction of a
/// communication path.
///
/// # Examples
///
/// ```
/// use mgpu_types::{NodeId, PairId};
///
/// let p = PairId::new(NodeId::gpu(1), NodeId::gpu(2));
/// assert_eq!((p.src, p.dst), (NodeId::gpu(1), NodeId::gpu(2)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PairId {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
}

impl PairId {
    /// Creates a directed pair.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst`; a node never encrypts traffic to itself.
    #[must_use]
    #[inline]
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        assert_ne!(src, dst, "communication pair must connect distinct nodes");
        PairId { src, dst }
    }

    /// Whether this pair crosses the CPU–GPU (PCIe) boundary.
    #[must_use]
    pub fn involves_cpu(self) -> bool {
        self.src.is_cpu() || self.dst.is_cpu()
    }
}

impl fmt::Display for PairId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}->{}", self.src, self.dst)
    }
}

/// Communication direction as seen from one endpoint.
///
/// The paper's OTP tables are split into a *send* table (pads this node uses
/// to encrypt outgoing data) and a *receive* table (pads used to decrypt and
/// authenticate incoming data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Outgoing traffic: this node encrypts and MACs.
    Send,
    /// Incoming traffic: this node decrypts and verifies.
    Recv,
}

impl Direction {
    /// Both directions, send first.
    pub const BOTH: [Direction; 2] = [Direction::Send, Direction::Recv];
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Send => f.write_str("send"),
            Direction::Recv => f.write_str("recv"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_is_node_zero() {
        assert_eq!(NodeId::CPU.raw(), 0);
        assert!(NodeId::CPU.is_cpu());
        assert!(!NodeId::CPU.is_gpu());
    }

    #[test]
    fn gpu_indices_are_one_based() {
        let g = NodeId::gpu(3);
        assert!(g.is_gpu());
        assert_eq!(g.gpu_index(), Some(3));
        assert_eq!(g.to_string(), "GPU3");
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn gpu_zero_panics() {
        let _ = NodeId::gpu(0);
    }

    #[test]
    fn all_nodes_enumerates_cpu_and_gpus() {
        let nodes: Vec<_> = NodeId::all(4).collect();
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[0], NodeId::CPU);
        assert_eq!(nodes[4], NodeId::gpu(4));
    }

    #[test]
    fn peers_excludes_self() {
        let peers: Vec<_> = NodeId::gpu(2).peers(4).collect();
        assert_eq!(peers.len(), 4);
        assert!(!peers.contains(&NodeId::gpu(2)));
        assert!(peers.contains(&NodeId::CPU));
    }

    #[test]
    fn pairs_know_when_they_cross_the_cpu_boundary() {
        let p = PairId::new(NodeId::CPU, NodeId::gpu(1));
        assert!(p.involves_cpu());
        assert!(!PairId::new(NodeId::gpu(1), NodeId::gpu(2)).involves_cpu());
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn self_pair_panics() {
        let _ = PairId::new(NodeId::gpu(1), NodeId::gpu(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::CPU.to_string(), "CPU");
        assert_eq!(
            PairId::new(NodeId::gpu(1), NodeId::CPU).to_string(),
            "GPU1->CPU"
        );
        assert_eq!(Direction::Send.to_string(), "send");
        assert_eq!(Direction::Recv.to_string(), "recv");
    }
}
