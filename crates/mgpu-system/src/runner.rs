//! The paper's scheme configurations, built from a base system.
//!
//! Every experiment, test and benchmark names its cells with these
//! builders, so a scheme means the same configuration wherever it
//! appears.

/// Convenience constructors for the paper's standard configurations.
pub mod configs {
    use mgpu_types::{OtpSchemeKind, SecurityConfig, SystemConfig};

    /// The unsecure twin of `base`: the same system with the security
    /// layer off — the baseline every normalized time divides by. The
    /// security settings reset to their defaults, which an unsecure run
    /// never reads, so configs that differ only there (batch size,
    /// Dynamic interval, AES latency) share one baseline.
    #[must_use]
    pub fn unsecure(base: &SystemConfig) -> SystemConfig {
        let mut cfg = base.clone();
        cfg.security = SecurityConfig {
            scheme: OtpSchemeKind::Unsecure,
            ..SecurityConfig::default()
        };
        cfg
    }

    /// `Private (OTP Nx)`.
    #[must_use]
    pub fn private(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = base.clone();
        cfg.security.scheme = OtpSchemeKind::Private;
        cfg.security.otp_multiplier = multiplier;
        cfg.security.batching.enabled = false;
        cfg
    }

    /// `Shared` with the same total buffer budget.
    #[must_use]
    pub fn shared(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = private(base, multiplier);
        cfg.security.scheme = OtpSchemeKind::Shared;
        cfg
    }

    /// `Cached (OTP Nx)`.
    #[must_use]
    pub fn cached(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = private(base, multiplier);
        cfg.security.scheme = OtpSchemeKind::Cached;
        cfg
    }

    /// The paper's `Dynamic (OTP Nx)` without batching.
    #[must_use]
    pub fn dynamic(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = private(base, multiplier);
        cfg.security.scheme = OtpSchemeKind::Dynamic;
        cfg
    }

    /// The paper's full proposal: `Dynamic` + metadata `Batching`.
    #[must_use]
    pub fn batching(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = dynamic(base, multiplier);
        cfg.security.batching.enabled = true;
        cfg
    }

    /// `Dynamic` with load-triggered repartitioning: the OTP pool is
    /// repartitioned when the observed arrival rate shifts, instead of
    /// at every fixed interval.
    #[must_use]
    pub fn load_dynamic(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = dynamic(base, multiplier);
        cfg.security.dynamic.load_triggered = true;
        cfg
    }

    /// `Dynamic` + `Batching` with deadline-aware batch close: open
    /// batches close early when the oldest queued block's SLO slack
    /// drops below the estimated time to fill the batch.
    #[must_use]
    pub fn deadline_batching(base: &SystemConfig, multiplier: u32) -> SystemConfig {
        let mut cfg = batching(base, multiplier);
        cfg.security.batching.deadline_close = true;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::{Duration, OtpSchemeKind, SystemConfig};

    #[test]
    fn config_constructors_set_fields() {
        let base = SystemConfig::paper_4gpu();
        assert_eq!(configs::private(&base, 16).security.otp_multiplier, 16);
        assert_eq!(
            configs::shared(&base, 4).security.scheme,
            OtpSchemeKind::Shared
        );
        let b = configs::batching(&base, 4);
        assert!(b.security.batching.enabled);
        assert_eq!(b.security.scheme, OtpSchemeKind::Dynamic);
    }

    #[test]
    fn unsecure_turns_off_scheme_and_batching() {
        let a = configs::batching(&SystemConfig::paper_4gpu(), 4);
        let cfg = configs::unsecure(&a);
        assert_eq!(cfg.security.scheme, OtpSchemeKind::Unsecure);
        assert!(!cfg.security.batching.enabled);
        // Configs that differ only in batch size, Dynamic interval and AES
        // latency simulate identically with security off: one twin.
        let mut b = a.clone();
        b.security.batching.batch_size = 64;
        b.security.dynamic.interval = Duration::cycles(250);
        b.security.aes_latency = Duration::cycles(10);
        assert_eq!(cfg, configs::unsecure(&b));
    }
}
