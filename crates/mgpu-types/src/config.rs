//! System and security configuration (paper Table III).

use crate::error::ConfigError;
use crate::units::Duration;
use core::fmt;

/// Which OTP buffer management scheme a node runs.
///
/// `Private`, `Shared` and `Cached` are the prior CPU-oriented schemes of
/// Rogers et al. (PACT'06) revisited by the paper; `Dynamic` is the paper's
/// proposed EWMA-driven allocator. Metadata batching is orthogonal and
/// configured by [`BatchingConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OtpSchemeKind {
    /// No encryption at all: the unsecure baseline every figure normalizes to.
    Unsecure,
    /// Separate send/receive pad table entries per source–destination pair.
    Private,
    /// A single shared send counter per node; receivers can only pre-generate
    /// pads for back-to-back messages from the same sender.
    Shared,
    /// An LRU cache of pad-table entries; hits behave like `Private`,
    /// misses fall back to `Shared` semantics.
    Cached,
    /// The paper's dynamic allocator: the pad pool is re-partitioned across
    /// directions and peers every interval using EWMA-weighted traffic.
    Dynamic,
}

impl fmt::Display for OtpSchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OtpSchemeKind::Unsecure => "unsecure",
            OtpSchemeKind::Private => "private",
            OtpSchemeKind::Shared => "shared",
            OtpSchemeKind::Cached => "cached",
            OtpSchemeKind::Dynamic => "dynamic",
        };
        f.write_str(s)
    }
}

/// Shape of the GPU-to-GPU interconnect fabric.
///
/// The paper evaluates a fully-connected 4-GPU system (one direct link per
/// ordered pair). Real NVLink fabrics are rings and switch hierarchies
/// where traffic from different pairs shares physical hops — which is
/// where per-hop metadata amplification makes the paper's Dynamic and
/// Batching schemes matter more. The CPU keeps a direct PCIe link to
/// every GPU in all variants; only GPU–GPU routing changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// One direct NVLink-class link per ordered GPU pair (paper Fig. 2).
    #[default]
    FullyConnected,
    /// GPUs form a ring; GPU–GPU traffic is forwarded around the shorter
    /// arc (ties go the ascending-index way) through intermediate GPUs.
    Ring,
    /// GPUs attach in groups of `radix` to leaf switches; multiple leaves
    /// hang off one root switch. GPU–GPU traffic crosses its leaf (and
    /// the root when the destination sits under another leaf).
    Switch {
        /// GPU ports per leaf switch (≥ 2).
        radix: u16,
    },
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::FullyConnected => f.write_str("fully-connected"),
            TopologyKind::Ring => f.write_str("ring"),
            TopologyKind::Switch { radix } => write!(f, "switch-r{radix}"),
        }
    }
}

impl TopologyKind {
    /// Validates the topology for a system with `gpu_count` GPUs.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the shape cannot host the GPUs: a ring
    /// needs at least 3 GPUs to differ from direct links, and a switch
    /// radix below 2 cannot aggregate anything.
    pub fn validate(&self, gpu_count: u16) -> Result<(), ConfigError> {
        match self {
            TopologyKind::FullyConnected => Ok(()),
            TopologyKind::Ring => {
                if gpu_count < 3 {
                    return Err(ConfigError::new(format!(
                        "a ring needs at least 3 GPUs, got {gpu_count}"
                    )));
                }
                Ok(())
            }
            TopologyKind::Switch { radix } => {
                if *radix < 2 {
                    return Err(ConfigError::new(format!(
                        "switch radix must be >= 2, got {radix}"
                    )));
                }
                Ok(())
            }
        }
    }
}

/// Parameters of the paper's `Dynamic` OTP allocator (§IV-B, Table III).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicConfig {
    /// EWMA forgetting rate for the send/receive direction split (paper α).
    pub alpha: f64,
    /// EWMA forgetting rate for the per-destination split (paper β).
    pub beta: f64,
    /// Monitoring / re-allocation interval in cycles (paper T).
    pub interval: Duration,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        // Paper Table III: α = 0.9, β = 0.5, T = 1000.
        DynamicConfig {
            alpha: 0.9,
            beta: 0.5,
            interval: Duration::cycles(1000),
        }
    }
}

impl DynamicConfig {
    /// Validates that the EWMA rates lie in `(0, 1]` and the interval is
    /// non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(ConfigError::new(format!(
                "alpha must be in (0, 1], got {}",
                self.alpha
            )));
        }
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return Err(ConfigError::new(format!(
                "beta must be in (0, 1], got {}",
                self.beta
            )));
        }
        if self.interval == Duration::ZERO {
            return Err(ConfigError::new("interval must be non-zero"));
        }
        Ok(())
    }
}

/// Parameters of the paper's security-metadata batching (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingConfig {
    /// Whether batching is enabled at all.
    pub enabled: bool,
    /// Maximum blocks per batch (paper n = 16 for direct block access).
    pub batch_size: u32,
    /// A batch that has been open this long is flushed even if not full, so
    /// trickle traffic is not delayed indefinitely. The paper's burstiness
    /// analysis (Fig. 15) motivates a bound on the order of 160 cycles.
    pub flush_timeout: Duration,
}

impl Default for BatchingConfig {
    fn default() -> Self {
        BatchingConfig {
            enabled: false,
            batch_size: 16,
            flush_timeout: Duration::cycles(160),
        }
    }
}

impl BatchingConfig {
    /// Validates the batch size (must be ≥ 1 and fit the 1 B length header).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `batch_size` is 0 or exceeds 255.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_size == 0 {
            return Err(ConfigError::new("batch_size must be >= 1"));
        }
        if self.batch_size > 255 {
            return Err(ConfigError::new(
                "batch_size must fit the 1-byte length header (<= 255)",
            ));
        }
        Ok(())
    }
}

/// Traffic-shape defenses against *passive* contention observers
/// (co-tenants sampling shared-port queue depths, grant timing and byte
/// counters — the NVBleed-style threat model, as opposed to the active
/// tampering adversary of [`AdversaryConfig`]).
///
/// Two independent, deterministic countermeasures:
///
/// * **Constant-rate shaping** (`constant_rate`): every `shape_period`
///   cycles each node pads its per-peer ctrl-VC traffic with chaff up to
///   a `shape_bytes` envelope, so the metadata channel an observer sees
///   carries the same byte profile regardless of scheme or workload
///   (whenever real ctrl traffic stays under the envelope).
/// * **Batch-close jitter** (`close_jitter`): each open metadata batch's
///   flush deadline is perturbed by a seeded, bounded pseudo-random
///   offset in `[0, jitter_bound)`, decorrelating the MAC-trailer cadence
///   an observer would use to recover the victim's batch-close phase.
///
/// Both default **off**; the defaults reproduce the undefended golden
/// matrix bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseConfig {
    /// Whether constant-rate ctrl-VC shaping (chaff padding) is active.
    pub constant_rate: bool,
    /// Shaping envelope: ctrl-VC bytes per directed pair per period that
    /// the channel is padded up to. Real traffic above the envelope is
    /// never delayed — the defense only guarantees indistinguishability
    /// while the envelope bounds the true ctrl rate.
    pub shape_bytes: u32,
    /// Shaping envelope on arbitration grants: ctrl-VC grants per
    /// directed pair per period the channel is padded up to. Byte counts
    /// alone are not the whole channel — a co-located observer also sees
    /// *how many* arbitration slots the control VC takes, so chaff is
    /// emitted as exactly the deficit number of messages. Must not
    /// exceed `shape_bytes` (every chaff message carries >= 1 byte).
    pub shape_grants: u32,
    /// Shaping period in cycles (chaff cadence).
    pub shape_period: Duration,
    /// Whether randomized batch-close jitter is active.
    pub close_jitter: bool,
    /// Exclusive upper bound on the per-batch deadline perturbation.
    pub jitter_bound: Duration,
    /// Seed of the deterministic jitter sequence (mixed per node/batch).
    pub jitter_seed: u64,
}

impl Default for DefenseConfig {
    fn default() -> Self {
        DefenseConfig {
            constant_rate: false,
            shape_bytes: 256,
            shape_grants: 4,
            shape_period: Duration::cycles(250),
            close_jitter: false,
            jitter_bound: Duration::cycles(64),
            jitter_seed: 0x5EED_CAFE_D00D_F00D,
        }
    }
}

impl DefenseConfig {
    /// Constant-rate shaping enabled with the default envelope.
    #[must_use]
    pub fn constant_rate() -> Self {
        DefenseConfig {
            constant_rate: true,
            ..DefenseConfig::default()
        }
    }

    /// Batch-close jitter enabled with the default bound.
    #[must_use]
    pub fn jittered() -> Self {
        DefenseConfig {
            close_jitter: true,
            ..DefenseConfig::default()
        }
    }

    /// Validates the active defenses' parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when an enabled defense has a degenerate
    /// envelope or bound.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.constant_rate {
            if self.shape_bytes == 0 {
                return Err(ConfigError::new(
                    "shape_bytes must be >= 1 when constant_rate shaping is enabled",
                ));
            }
            if self.shape_period == Duration::ZERO {
                return Err(ConfigError::new(
                    "shape_period must be non-zero when constant_rate shaping is enabled",
                ));
            }
            if self.shape_grants == 0 {
                return Err(ConfigError::new(
                    "shape_grants must be >= 1 when constant_rate shaping is enabled",
                ));
            }
            if self.shape_grants > self.shape_bytes {
                return Err(ConfigError::new(
                    "shape_grants must not exceed shape_bytes (each chaff \
                     message carries at least one byte)",
                ));
            }
        }
        if self.close_jitter && self.jitter_bound == Duration::ZERO {
            return Err(ConfigError::new(
                "jitter_bound must be non-zero when close_jitter is enabled",
            ));
        }
        Ok(())
    }
}

/// Configuration of the wire-level adversary used by the fault-injection
/// harness (threat model of paper §II-C: an attacker with physical access
/// to the interconnect who can replay, tamper with, reorder or drop
/// messages, but cannot break the cryptography).
///
/// The adversary is fully deterministic: the same `seed` and
/// `rate_permille` produce the same injection schedule, so detection
/// counts are reproducible across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversaryConfig {
    /// Whether the fault-injection harness is active. When enabled on a
    /// secure run, every simulated block also crosses a functional
    /// AES-GCM channel where the adversary may strike.
    pub enabled: bool,
    /// Seed of the adversary's deterministic injection schedule.
    pub seed: u64,
    /// Injection probability per opportunity, in permille (0..=1000).
    /// `0` means the adversary is present but never strikes — the
    /// false-positive control run.
    pub rate_permille: u32,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            enabled: false,
            seed: 0xADF0_0D5E,
            rate_permille: 20,
        }
    }
}

impl AdversaryConfig {
    /// An enabled adversary with the given injection rate (per mille).
    #[must_use]
    pub fn active(rate_permille: u32) -> Self {
        AdversaryConfig {
            enabled: true,
            rate_permille,
            ..AdversaryConfig::default()
        }
    }

    /// Validates the injection rate.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `rate_permille` exceeds 1000.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rate_permille > 1000 {
            return Err(ConfigError::new(format!(
                "rate_permille is a probability in 0..=1000, got {}",
                self.rate_permille
            )));
        }
        Ok(())
    }
}

/// Observability (time-series collection) configuration.
///
/// When enabled, the simulation samples per-node allocator state, OTP
/// hit/miss deltas, ACK-window depth and per-hop fabric counters at every
/// repartition-interval boundary, and keeps a bounded ring buffer of
/// protocol events. Collection is strictly passive: enabling it must not
/// change any simulated timing (pinned by the golden parity tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ObservabilityConfig {
    /// Whether the time-series collector is active. Off by default: the
    /// hot path then carries only a dead `Option` check.
    pub enabled: bool,
}

impl ObservabilityConfig {
    /// Collection enabled.
    #[must_use]
    pub fn enabled() -> Self {
        ObservabilityConfig { enabled: true }
    }
}

/// Security-layer configuration shared by all schemes.
#[derive(Debug, Clone, PartialEq)]
pub struct SecurityConfig {
    /// Active OTP buffer management scheme.
    pub scheme: OtpSchemeKind,
    /// OTP buffer multiplier `N` of the paper's `OTP Nx` notation: pads per
    /// source–destination pair per direction under `Private` sizing.
    pub otp_multiplier: u32,
    /// AES-GCM pad-generation latency in cycles (paper: 40).
    pub aes_latency: Duration,
    /// Dynamic-allocator parameters (used when `scheme == Dynamic`).
    pub dynamic: DynamicConfig,
    /// Metadata-batching parameters.
    pub batching: BatchingConfig,
    /// Traffic-shape defenses against passive contention observers.
    /// Off by default; the undefended defaults are bit-for-bit neutral.
    pub defense: DefenseConfig,
    /// Capacity of the replay-protection table holding each outgoing
    /// message's `(MsgCTR, MsgMAC)` until its ACK returns (paper §II-C).
    /// A full table stalls further protected sends; batching consumes one
    /// entry per *batch* instead of per block, which is where much of its
    /// benefit comes from.
    pub ack_table_entries: u32,
    /// When `false`, metadata bytes are not charged to the interconnect —
    /// the paper's `+SecureCommu` ablation (Fig. 11). Normal runs set `true`
    /// (the `+Traffic` configuration).
    pub charge_metadata_traffic: bool,
}

impl Default for SecurityConfig {
    fn default() -> Self {
        SecurityConfig {
            scheme: OtpSchemeKind::Private,
            otp_multiplier: 4,
            aes_latency: Duration::cycles(40),
            dynamic: DynamicConfig::default(),
            batching: BatchingConfig::default(),
            defense: DefenseConfig::default(),
            ack_table_entries: 28,
            charge_metadata_traffic: true,
        }
    }
}

/// Most OTP buffer entries a valid config gives one node
/// ([`SystemConfig::total_otp_buffers_per_node`]). Every pad is allocated
/// up front, so a larger pool is a config error, not a slow run; the
/// largest any experiment uses is 1,024 (128 GPUs at OTP 4x).
const MAX_OTP_BUFFERS_PER_NODE: u32 = 65_536;

/// Full simulated-system configuration (paper Table III).
///
/// # Examples
///
/// ```
/// use mgpu_types::SystemConfig;
///
/// let cfg = SystemConfig::paper_4gpu();
/// assert_eq!(cfg.total_otp_buffers_per_node(), 32);
/// cfg.validate().expect("paper config is valid");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of GPUs (the CPU is always present in addition).
    pub gpu_count: u16,
    /// Shape of the GPU-to-GPU interconnect fabric.
    pub topology: TopologyKind,
    /// GPU–GPU link bandwidth in bytes per cycle (NVLink2-class: 50 GB/s at
    /// 1 GHz = 50 B/cy).
    pub gpu_link_bytes_per_cycle: u32,
    /// CPU–GPU link bandwidth in bytes per cycle (PCIe v4: 32 GB/s = 32 B/cy).
    pub pcie_bytes_per_cycle: u32,
    /// One-way link propagation latency in cycles.
    pub link_latency: Duration,
    /// HBM access latency model in cycles for remote-end service time.
    pub dram_latency: Duration,
    /// Maximum in-flight remote requests per GPU — the memory-level
    /// parallelism the CUs' wavefronts sustain. Bounds how much added
    /// communication latency can be hidden by overlap.
    pub max_outstanding: u32,
    /// Security-layer configuration.
    pub security: SecurityConfig,
    /// Wire-level adversary (fault-injection harness) configuration.
    /// Disabled by default; has no effect on unsecure runs.
    pub adversary: AdversaryConfig,
    /// Time-series observability configuration. Disabled by default and
    /// guaranteed timing-neutral when enabled.
    pub observability: ObservabilityConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper_4gpu()
    }
}

impl SystemConfig {
    /// The paper's baseline 4-GPU system (Table III).
    #[must_use]
    pub fn paper_4gpu() -> Self {
        SystemConfig {
            gpu_count: 4,
            topology: TopologyKind::FullyConnected,
            gpu_link_bytes_per_cycle: 50,
            pcie_bytes_per_cycle: 32,
            link_latency: Duration::cycles(100),
            dram_latency: Duration::cycles(200),
            max_outstanding: 128,
            security: SecurityConfig::default(),
            adversary: AdversaryConfig::default(),
            observability: ObservabilityConfig::default(),
        }
    }

    /// The paper's 8-GPU scaling configuration (§V-D: 64 OTP buffers per GPU).
    #[must_use]
    pub fn paper_8gpu() -> Self {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = 8;
        // 64 buffers / (8 peers * 2 directions) = 4 per pair-direction.
        cfg.security.otp_multiplier = 4;
        cfg
    }

    /// The paper's 16-GPU scaling configuration (§V-D: 128 OTP buffers per
    /// GPU).
    #[must_use]
    pub fn paper_16gpu() -> Self {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = 16;
        // 128 buffers / (16 peers * 2 directions) = 4 per pair-direction.
        cfg.security.otp_multiplier = 4;
        cfg
    }

    /// The same system with a different fabric shape.
    #[must_use]
    pub fn with_topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Peers each node communicates with (everyone but itself).
    #[must_use]
    pub fn peers_per_node(&self) -> u32 {
        u32::from(self.gpu_count) // node count - 1
    }

    /// Total OTP buffer entries per node under `Private` sizing:
    /// `peers × 2 directions × multiplier`. All schemes are given this same
    /// capacity for a fair comparison (paper §III-A).
    #[must_use]
    pub fn total_otp_buffers_per_node(&self) -> u32 {
        self.peers_per_node() * 2 * self.security.otp_multiplier
    }

    /// Validates the whole configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] describing the first invalid field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.gpu_count < 2 {
            return Err(ConfigError::new(
                "at least 2 GPUs are required for inter-GPU communication",
            ));
        }
        self.topology.validate(self.gpu_count)?;
        if self.gpu_link_bytes_per_cycle == 0 || self.pcie_bytes_per_cycle == 0 {
            return Err(ConfigError::new("link bandwidth must be non-zero"));
        }
        if self.security.otp_multiplier == 0 {
            return Err(ConfigError::new("otp_multiplier must be >= 1"));
        }
        // At most 65,535 peers, so only the multiplier can overflow.
        let pool = (self.peers_per_node() * 2).checked_mul(self.security.otp_multiplier);
        if pool.is_none_or(|n| n > MAX_OTP_BUFFERS_PER_NODE) {
            return Err(ConfigError::new(format!(
                "{} peers x 2 x otp_multiplier {} exceeds {MAX_OTP_BUFFERS_PER_NODE} \
                 OTP buffers per node",
                self.peers_per_node(),
                self.security.otp_multiplier
            )));
        }
        if self.max_outstanding == 0 {
            return Err(ConfigError::new("max_outstanding must be >= 1"));
        }
        if self.security.aes_latency == Duration::ZERO {
            return Err(ConfigError::new("aes_latency must be non-zero"));
        }
        if self.security.ack_table_entries == 0 {
            return Err(ConfigError::new("ack_table_entries must be >= 1"));
        }
        self.security.dynamic.validate()?;
        self.security.batching.validate()?;
        self.security.defense.validate()?;
        self.adversary.validate()?;
        self.validate_shaping_envelope()
    }

    /// Rejects a constant-rate shaping envelope the ctrl VCs cannot
    /// sustain. Chaff tops every directed pair up to its quota, so a VC
    /// that cannot carry the quota builds a backlog that outgrows
    /// simulated time, and real requests, trailers and ACKs queue behind
    /// it without bound.
    fn validate_shaping_envelope(&self) -> Result<(), ConfigError> {
        let d = &self.security.defense;
        if !d.constant_rate {
            return Ok(());
        }
        // CPU pairs are shaped too, so the slower port speed bounds it.
        let bw = u128::from(self.pcie_bytes_per_cycle.min(self.gpu_link_bytes_per_cycle));
        let period = u128::from(d.shape_period.as_u64());
        let bytes = u128::from(d.shape_bytes);
        if bytes > period * bw {
            return Err(ConfigError::new(format!(
                "shaping envelope of {bytes} B per {period} cycles exceeds the \
                 {bw} B/cycle ctrl VC bandwidth"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_4gpu_matches_table_iii() {
        let cfg = SystemConfig::paper_4gpu();
        assert_eq!(cfg.gpu_count, 4);
        assert_eq!(cfg.gpu_link_bytes_per_cycle, 50);
        assert_eq!(cfg.pcie_bytes_per_cycle, 32);
        assert_eq!(cfg.security.aes_latency, Duration::cycles(40));
        assert_eq!(cfg.security.dynamic.alpha, 0.9);
        assert_eq!(cfg.security.dynamic.beta, 0.5);
        assert_eq!(cfg.security.dynamic.interval, Duration::cycles(1000));
        cfg.validate().unwrap();
    }

    #[test]
    fn otp_buffer_totals_match_paper_section_iii() {
        // Paper: "In a 4-GPU system with OTP 4x, there are 4 × 2 × 4 = 32
        // OTP buffers in each GPU with the Private scheme."
        assert_eq!(SystemConfig::paper_4gpu().total_otp_buffers_per_node(), 32);
        // §V-D: 64 per GPU at 8 GPUs, 128 per GPU at 16 GPUs.
        assert_eq!(SystemConfig::paper_8gpu().total_otp_buffers_per_node(), 64);
        assert_eq!(
            SystemConfig::paper_16gpu().total_otp_buffers_per_node(),
            128
        );
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = 1;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.otp_multiplier = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.dynamic.alpha = 1.5;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.batching.batch_size = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.batching.batch_size = 300;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.adversary.rate_permille = 1001;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.defense.constant_rate = true;
        cfg.security.defense.shape_bytes = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.defense.constant_rate = true;
        cfg.security.defense.shape_period = Duration::ZERO;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.defense.close_jitter = true;
        cfg.security.defense.jitter_bound = Duration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_bounds_the_otp_pool() {
        let with = |mut cfg: SystemConfig, multiplier| {
            cfg.security.otp_multiplier = multiplier;
            cfg.validate()
        };
        // Overflows u32, and a pool far past any experiment's.
        assert!(with(SystemConfig::paper_4gpu(), u32::MAX).is_err());
        assert!(with(SystemConfig::paper_4gpu(), 1 << 20).is_err());
        // Fig. 8's largest pool (4 GPUs at 16x) and the 128-GPU sweep's.
        with(SystemConfig::paper_4gpu(), 16).unwrap();
        let mut big = SystemConfig::paper_4gpu();
        big.gpu_count = 128;
        with(big.with_topology(TopologyKind::Switch { radix: 4 }), 4).unwrap();
    }

    #[test]
    fn defenses_default_off_and_constructors_validate() {
        let cfg = SystemConfig::paper_4gpu();
        assert!(!cfg.security.defense.constant_rate);
        assert!(!cfg.security.defense.close_jitter);

        let shaped = DefenseConfig::constant_rate();
        assert!(shaped.constant_rate && !shaped.close_jitter);
        shaped.validate().unwrap();

        let jittered = DefenseConfig::jittered();
        assert!(jittered.close_jitter && !jittered.constant_rate);
        jittered.validate().unwrap();

        let mut both = SystemConfig::paper_4gpu();
        both.security.defense.constant_rate = true;
        both.security.defense.close_jitter = true;
        both.validate().unwrap();
    }

    #[test]
    fn shaping_envelope_must_fit_the_ctrl_vcs() {
        let mut cfg = SystemConfig::paper_8gpu().with_topology(TopologyKind::Ring);
        cfg.security.defense = DefenseConfig {
            shape_bytes: 512,
            shape_grants: 32,
            shape_period: Duration::cycles(40),
            ..DefenseConfig::constant_rate()
        };
        cfg.validate()
            .expect("the leakage experiment's envelope fits the ctrl VCs");
        // The 32 B/cy PCIe VCs carry at most 1280 B per 40 cycles.
        cfg.security.defense.shape_bytes = 1280;
        cfg.validate()
            .expect("an envelope at the bandwidth bound fits");
        cfg.security.defense.shape_bytes = 1281;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn topology_defaults_and_validation() {
        assert_eq!(TopologyKind::default(), TopologyKind::FullyConnected);
        assert_eq!(
            SystemConfig::paper_4gpu().topology,
            TopologyKind::FullyConnected
        );

        let ring = SystemConfig::paper_4gpu().with_topology(TopologyKind::Ring);
        ring.validate().unwrap();

        let mut tiny_ring = ring;
        tiny_ring.gpu_count = 2;
        assert!(tiny_ring.validate().is_err());

        let sw = SystemConfig::paper_8gpu().with_topology(TopologyKind::Switch { radix: 4 });
        sw.validate().unwrap();
        let bad = SystemConfig::paper_8gpu().with_topology(TopologyKind::Switch { radix: 1 });
        assert!(bad.validate().is_err());
    }

    #[test]
    fn topology_display_names() {
        assert_eq!(TopologyKind::FullyConnected.to_string(), "fully-connected");
        assert_eq!(TopologyKind::Ring.to_string(), "ring");
        assert_eq!(TopologyKind::Switch { radix: 4 }.to_string(), "switch-r4");
    }

    #[test]
    fn adversary_defaults_and_constructor() {
        let cfg = SystemConfig::paper_4gpu();
        assert!(!cfg.adversary.enabled);
        cfg.adversary.validate().unwrap();

        let adv = AdversaryConfig::active(100);
        assert!(adv.enabled);
        assert_eq!(adv.rate_permille, 100);
        adv.validate().unwrap();
        AdversaryConfig {
            rate_permille: 1000,
            ..adv
        }
        .validate()
        .unwrap();
    }

    #[test]
    fn observability_defaults_off_and_constructor_enables() {
        let mut cfg = SystemConfig::paper_4gpu();
        assert!(!cfg.observability.enabled);
        cfg.observability = ObservabilityConfig::enabled();
        assert!(cfg.observability.enabled);
        cfg.validate().unwrap();
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(OtpSchemeKind::Private.to_string(), "private");
        assert_eq!(OtpSchemeKind::Dynamic.to_string(), "dynamic");
    }
}
