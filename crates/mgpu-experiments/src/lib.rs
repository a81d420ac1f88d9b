//! Reproduction harness: one experiment per table/figure of the paper's
//! motivation and evaluation sections.
//!
//! Every experiment is pure (deterministic seeds) and returns
//! [`report::Table`]s that render as aligned text or CSV. The `repro`
//! binary runs any subset:
//!
//! ```text
//! cargo run -p mgpu-experiments --bin repro --release -- fig21 fig23
//! cargo run -p mgpu-experiments --bin repro --release -- all
//! ```
//!
//! See `EXPERIMENTS.md` at the workspace root for the paper-vs-measured
//! record produced from these runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod common;
pub mod evaluation;
pub mod leakage;
pub mod motivation;
pub mod report;
pub mod serving;
pub mod timeline;
pub mod topology;

pub use common::Mode;
pub use report::Table;

/// A runnable experiment bound to a paper artifact.
pub struct Experiment {
    /// Short id (`table1`, `fig08`, …) used on the command line.
    pub id: &'static str,
    /// What the paper artifact shows.
    pub title: &'static str,
    /// Produces the result tables.
    pub run: fn(Mode) -> Vec<Table>,
}

impl core::fmt::Debug for Experiment {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Experiment")
            .field("id", &self.id)
            .field("title", &self.title)
            .finish_non_exhaustive()
    }
}

/// The complete registry, in paper order.
#[must_use]
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Private OTP storage overhead",
            run: motivation::table1,
        },
        Experiment {
            id: "fig08",
            title: "Private vs OTP buffer entries",
            run: motivation::fig08,
        },
        Experiment {
            id: "fig09",
            title: "Prior OTP buffer management schemes",
            run: motivation::fig09,
        },
        Experiment {
            id: "fig10",
            title: "OTP latency-hiding distribution (prior schemes)",
            run: motivation::fig10,
        },
        Experiment {
            id: "fig11",
            title: "Secure communication vs metadata traffic",
            run: motivation::fig11,
        },
        Experiment {
            id: "fig12",
            title: "Traffic increase from security metadata",
            run: motivation::fig12,
        },
        Experiment {
            id: "fig13",
            title: "Send/recv mix over time (mm)",
            run: motivation::fig13,
        },
        Experiment {
            id: "fig14",
            title: "Receive-source mix over time (mm)",
            run: motivation::fig14,
        },
        Experiment {
            id: "fig15",
            title: "16-block accumulation intervals",
            run: |m| motivation::burstiness(m, 16),
        },
        Experiment {
            id: "fig16",
            title: "32-block accumulation intervals",
            run: |m| motivation::burstiness(m, 32),
        },
        Experiment {
            id: "fig21",
            title: "Main result: execution times with 4 GPUs",
            run: evaluation::fig21,
        },
        Experiment {
            id: "fig22",
            title: "OTP distribution: Private vs Cached vs Ours",
            run: evaluation::fig22,
        },
        Experiment {
            id: "fig23",
            title: "Communication traffic: Private vs Cached vs Ours",
            run: evaluation::fig23,
        },
        Experiment {
            id: "fig24",
            title: "Execution times with 8 GPUs",
            run: |m| evaluation::scale(m, 8),
        },
        Experiment {
            id: "fig25",
            title: "Execution times with 16 GPUs",
            run: |m| evaluation::scale(m, 16),
        },
        Experiment {
            id: "fig26",
            title: "AES-GCM latency sensitivity",
            run: evaluation::fig26,
        },
        Experiment {
            id: "table3",
            title: "Simulated system configuration",
            run: evaluation::table3,
        },
        Experiment {
            id: "table4",
            title: "Evaluated benchmarks",
            run: evaluation::table4,
        },
        Experiment {
            id: "ablation-batch",
            title: "Ablation: batch-size sweep",
            run: evaluation::ablation_batch_size,
        },
        Experiment {
            id: "ablation-interval",
            title: "Ablation: Dynamic interval sweep",
            run: evaluation::ablation_interval,
        },
        Experiment {
            id: "attack_campaign",
            title: "Adversary campaign: injection-rate sweep vs detection",
            run: attack::attack_campaign,
        },
        Experiment {
            id: "topology_scaling",
            title: "Fabric shapes: per-hop metadata amplification sweep",
            run: topology::topology_scaling,
        },
        Experiment {
            id: "ring8_smoke",
            title: "8-GPU ring scheme-comparison smoke",
            run: topology::ring8_smoke,
        },
        Experiment {
            id: "timeline",
            title: "Interval-resolved dynamic-allocation timeline",
            run: timeline::timeline,
        },
        Experiment {
            id: "serving",
            title: "Serving: open-loop tail latency under SLOs",
            run: serving::serving,
        },
        Experiment {
            id: "leakage",
            title: "Leakage: passive observer vs traffic-shape defenses",
            run: leakage::leakage,
        },
    ]
}

/// Looks up an experiment by id.
#[must_use]
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = registry().iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 19);
    }

    #[test]
    fn find_known_and_unknown() {
        assert!(find("fig21").is_some());
        assert!(find("fig99").is_none());
    }

    #[test]
    fn every_experiment_runs_in_quick_mode_table1_table4() {
        // The cheap, purely-analytic experiments run end to end here;
        // the simulation-backed ones are covered by their module tests.
        for id in ["table1", "table4"] {
            let exp = find(id).unwrap();
            let tables = (exp.run)(Mode::Quick);
            assert!(!tables.is_empty(), "{id}");
            assert!(!tables[0].is_empty(), "{id}");
        }
    }
}
