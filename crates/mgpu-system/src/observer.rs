//! Passive contention-channel adversary: what a co-tenant learns from
//! shared fabric ports.
//!
//! The active adversary ([`crate::harness`]) rewrites bytes in flight;
//! this module models the *passive* threat the paper's integrity
//! machinery cannot address — an NVBleed-style co-tenant that never
//! touches the victim's traffic but shares switch ports with it and
//! watches congestion. [`PassiveObserver`] is deliberately restricted to
//! signals such a co-tenant could measure on its own port: per-port byte
//! throughput deltas, control-channel byte/grant counts, queue depths
//! and serialization backlogs — all read from the recorded
//! [`Timeline`], never from protocol state.
//!
//! Leakage is scored two ways:
//!
//! * **Workload/scheme classification** — a windowed feature vector per
//!   run ([`PassiveObserver::features`]) feeds a nearest-centroid
//!   classifier ([`NearestCentroid`]) trained on seeded runs. Accuracy
//!   above chance = the contention channel leaks which protected
//!   configuration is running.
//! * **Batch-phase recovery** — the metadata batcher's timeout flushes
//!   put a periodic signature on the control channel;
//!   [`PassiveObserver::phase_probe`] recovers its phase by circular
//!   averaging, scored against the ground-truth close times in the
//!   trace ([`close_phase`]). The resultant length (`lock`) measures
//!   how confidently *any* phase can be read off.
//!
//! The traffic-shape defenses ([`mgpu_types::DefenseConfig`]) target
//! exactly these scores: constant-rate chaff makes the control-channel
//! features workload-independent, and batch-close jitter (bound on the
//! order of the flush period) destroys the phase lock.

use crate::timeseries::{FabricSample, Timeline, TraceEvent};
use mgpu_types::Duration;
use std::collections::BTreeMap;

/// Which fabric-sample signals the observer folds into its features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSet {
    /// Control-channel signals only (control byte/grant deltas and duty
    /// cycle): the channel the constant-rate defense shapes. This is the
    /// headline leakage score — at-chance accuracy here means the
    /// shaped channel carries no workload information.
    Ctrl,
    /// Control plus data-port signals (data byte deltas, busy horizon,
    /// queue depth): residual leakage outside the shaped channel, which
    /// traffic shaping of the metadata path does not claim to remove.
    Full,
}

/// One run's windowed observation, flattened to a fixed-length vector
/// (ports in observer order, features per port in a fixed order).
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    /// Feature values; equal length for every run observed by the same
    /// [`PassiveObserver`].
    pub values: Vec<f64>,
}

/// An estimated periodic phase on the control channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseEstimate {
    /// Phase in cycles, in `[0, period)`.
    pub phase: f64,
    /// Resultant length in `[0, 1]`: 1 = perfectly concentrated
    /// (phase fully recoverable), 0 = no periodic structure.
    pub lock: f64,
}

/// A passive co-tenant tapping a fixed set of fabric ports.
#[derive(Debug, Clone)]
pub struct PassiveObserver {
    ports: Vec<String>,
    features: FeatureSet,
}

fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Successive differences of a cumulative counter series.
fn deltas(cumulative: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut prev = 0u64;
    cumulative
        .map(|c| {
            let d = c.saturating_sub(prev);
            prev = c;
            d as f64
        })
        .collect()
}

/// Circular mean of weighted angles over `period`; `None` when the
/// total weight is zero.
fn circular_mean(points: impl Iterator<Item = (f64, f64)>, period: f64) -> Option<PhaseEstimate> {
    let (mut sx, mut sy, mut w_total) = (0.0f64, 0.0f64, 0.0f64);
    for (t, w) in points {
        let theta = (t.rem_euclid(period)) / period * std::f64::consts::TAU;
        sx += w * theta.cos();
        sy += w * theta.sin();
        w_total += w;
    }
    if w_total <= 0.0 {
        return None;
    }
    let phase = sy.atan2(sx).rem_euclid(std::f64::consts::TAU) / std::f64::consts::TAU * period;
    let lock = (sx * sx + sy * sy).sqrt() / w_total;
    Some(PhaseEstimate { phase, lock })
}

/// Circular distance between two phases over `period` (cycles, in
/// `[0, period / 2]`).
#[must_use]
pub fn circular_error(a: f64, b: f64, period: f64) -> f64 {
    let d = (a - b).rem_euclid(period);
    d.min(period - d)
}

/// Ground-truth batch-flush phase: the circular mean of the trace's
/// timeout-close cycles over `period`. This is what the observer tries
/// to recover; it needs the protocol-side trace, which a real co-tenant
/// does not have.
#[must_use]
pub fn close_phase(timeline: &Timeline, period: Duration) -> Option<PhaseEstimate> {
    let p = period.as_u64() as f64;
    circular_mean(
        timeline.events.iter().filter_map(|r| match r.event {
            TraceEvent::BatchClose { full: false, .. } => Some((r.cycle.as_u64() as f64, 1.0)),
            _ => None,
        }),
        p,
    )
}

impl PassiveObserver {
    /// An observer tapping `ports` (timeline port labels, e.g. `"gpu1"`)
    /// and folding `features` into its vectors.
    #[must_use]
    pub fn on_ports(ports: &[&str], features: FeatureSet) -> Self {
        PassiveObserver {
            ports: ports.iter().map(|p| (*p).to_string()).collect(),
            features,
        }
    }

    fn port_rows<'t>(&self, timeline: &'t Timeline, port: &str) -> Vec<&'t FabricSample> {
        timeline.fabric.iter().filter(|f| f.port == port).collect()
    }

    /// Flattens one run's timeline into the observer's feature vector.
    /// Ports with no samples contribute zeros, so vectors from runs of
    /// different lengths stay comparable.
    #[must_use]
    pub fn features(&self, timeline: &Timeline) -> FeatureVector {
        let mut values = Vec::new();
        for port in &self.ports {
            let rows = self.port_rows(timeline, port);
            let ctrl_bytes: Vec<f64> = rows.iter().map(|r| r.ctrl_bytes_delta as f64).collect();
            let ctrl_grants = deltas(rows.iter().map(|r| r.ctrl_grants));
            let duty = if rows.is_empty() {
                0.0
            } else {
                ctrl_bytes.iter().filter(|&&b| b > 0.0).count() as f64 / rows.len() as f64
            };
            for series in [&ctrl_bytes, &ctrl_grants] {
                let (m, s) = mean_std(series);
                values.push(m);
                values.push(s);
            }
            values.push(duty);
            if self.features == FeatureSet::Full {
                let data_bytes: Vec<f64> = rows.iter().map(|r| r.bytes_delta as f64).collect();
                let horizons: Vec<f64> = rows.iter().map(|r| r.busy_horizon as f64).collect();
                let depths: Vec<f64> = rows.iter().map(|r| r.queue_depth as f64).collect();
                for series in [&data_bytes, &horizons, &depths] {
                    let (m, s) = mean_std(series);
                    values.push(m);
                    values.push(s);
                }
            }
        }
        FeatureVector { values }
    }

    /// Recovers the dominant periodic phase of the observed control
    /// channels over `period`, by circular averaging of per-window
    /// control-grant counts. Each window's grants are attributed to its
    /// midpoint (the sampler only knows the boundary). `None` when the
    /// observed ports carried no control grants.
    #[must_use]
    pub fn phase_probe(&self, timeline: &Timeline, period: Duration) -> Option<PhaseEstimate> {
        let p = period.as_u64() as f64;
        let half_window = timeline.interval.as_u64() as f64 / 2.0;
        let mut points: Vec<(f64, f64)> = Vec::new();
        for port in &self.ports {
            let rows = self.port_rows(timeline, port);
            let grants = deltas(rows.iter().map(|r| r.ctrl_grants));
            points.extend(
                rows.iter()
                    .zip(grants)
                    .filter(|(_, g)| *g > 0.0)
                    .map(|(r, g)| (r.cycle.as_u64() as f64 - half_window, g)),
            );
        }
        circular_mean(points.into_iter(), p)
    }
}

/// Nearest-centroid classifier over z-score-normalized feature vectors.
///
/// Deliberately simple: with a handful of seeded training runs per
/// class, anything fancier would overfit — and if even a centroid
/// classifier beats chance, the channel demonstrably leaks.
#[derive(Debug, Clone)]
pub struct NearestCentroid {
    /// Per-dimension training mean (for normalization).
    mean: Vec<f64>,
    /// Per-dimension training standard deviation (zero-variance
    /// dimensions normalize with 1.0).
    std: Vec<f64>,
    /// Class label -> centroid in normalized space, label-ascending.
    centroids: Vec<(String, Vec<f64>)>,
}

impl NearestCentroid {
    /// Trains on `(label, features)` examples.
    ///
    /// # Panics
    ///
    /// Panics if `examples` is empty or the vectors have uneven lengths.
    #[must_use]
    pub fn train(examples: &[(String, FeatureVector)]) -> Self {
        let dim = examples
            .first()
            .expect("at least one example")
            .1
            .values
            .len();
        assert!(
            examples.iter().all(|(_, v)| v.values.len() == dim),
            "uneven feature-vector lengths"
        );
        let n = examples.len() as f64;
        let mut mean = vec![0.0f64; dim];
        for (_, v) in examples {
            for (m, x) in mean.iter_mut().zip(&v.values) {
                *m += x / n;
            }
        }
        let mut std = vec![0.0f64; dim];
        for (_, v) in examples {
            for ((s, m), x) in std.iter_mut().zip(&mean).zip(&v.values) {
                *s += (x - m).powi(2) / n;
            }
        }
        for s in &mut std {
            *s = s.sqrt();
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        let normalize = |v: &FeatureVector| -> Vec<f64> {
            v.values
                .iter()
                .zip(&mean)
                .zip(&std)
                .map(|((x, m), s)| (x - m) / s)
                .collect()
        };
        let mut by_label: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for (label, v) in examples {
            let nv = normalize(v);
            let entry = by_label
                .entry(label.as_str())
                .or_insert_with(|| (vec![0.0; dim], 0.0));
            for (c, x) in entry.0.iter_mut().zip(&nv) {
                *c += x;
            }
            entry.1 += 1.0;
        }
        let centroids = by_label
            .into_iter()
            .map(|(label, (sum, count))| {
                (
                    label.to_string(),
                    sum.into_iter().map(|x| x / count).collect(),
                )
            })
            .collect();
        NearestCentroid {
            mean,
            std,
            centroids,
        }
    }

    /// The class whose centroid is nearest to `v` (Euclidean, in
    /// normalized space). Ties break toward the lexicographically first
    /// label, keeping classification deterministic.
    #[must_use]
    pub fn classify(&self, v: &FeatureVector) -> &str {
        let nv: Vec<f64> = v
            .values
            .iter()
            .zip(&self.mean)
            .zip(&self.std)
            .map(|((x, m), s)| (x - m) / s)
            .collect();
        self.centroids
            .iter()
            .min_by(|(_, a), (_, b)| {
                let da: f64 = a.iter().zip(&nv).map(|(c, x)| (c - x).powi(2)).sum();
                let db: f64 = b.iter().zip(&nv).map(|(c, x)| (c - x).powi(2)).sum();
                da.partial_cmp(&db).expect("finite distances")
            })
            .map(|(label, _)| label.as_str())
            .expect("trained on at least one class")
    }

    /// Class labels in centroid order (label-ascending).
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.centroids.iter().map(|(l, _)| l.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::TraceRecord;
    use mgpu_types::{Cycle, NodeId};

    fn sample(cycle: u64, port: &str, ctrl_bytes_delta: u64, ctrl_grants: u64) -> FabricSample {
        FabricSample {
            cycle: Cycle::new(cycle),
            port: port.to_string(),
            bytes_delta: 10 * ctrl_bytes_delta,
            queue_depth: 1,
            busy_horizon: 5,
            grants: ctrl_grants + 2,
            ctrl_bytes_delta,
            ctrl_grants,
        }
    }

    fn timeline(interval: u64, fabric: Vec<FabricSample>, events: Vec<TraceRecord>) -> Timeline {
        Timeline {
            interval: Duration::cycles(interval),
            samples: Vec::new(),
            fabric,
            events,
            events_dropped: 0,
            scope_counts: BTreeMap::new(),
        }
    }

    #[test]
    fn features_fold_ctrl_series_per_port() {
        let tl = timeline(
            100,
            vec![
                sample(100, "gpu1", 64, 2),
                sample(200, "gpu1", 0, 2),
                sample(100, "gpu2", 16, 1),
            ],
            Vec::new(),
        );
        let obs = PassiveObserver::on_ports(&["gpu1", "gpu2"], FeatureSet::Ctrl);
        let v = obs.features(&tl);
        // 5 features per port: ctrl-bytes mean/std, ctrl-grant-delta
        // mean/std, duty cycle.
        assert_eq!(v.values.len(), 10);
        assert!((v.values[0] - 32.0).abs() < 1e-9); // gpu1 ctrl bytes mean
        assert!((v.values[4] - 0.5).abs() < 1e-9); // gpu1 duty cycle
        assert!((v.values[5] - 16.0).abs() < 1e-9); // gpu2 ctrl bytes mean
        let full = PassiveObserver::on_ports(&["gpu1", "gpu2"], FeatureSet::Full).features(&tl);
        assert_eq!(full.values.len(), 22);
    }

    #[test]
    fn missing_port_contributes_zeros() {
        let tl = timeline(100, vec![sample(100, "gpu1", 8, 1)], Vec::new());
        let obs = PassiveObserver::on_ports(&["gpu3"], FeatureSet::Ctrl);
        let v = obs.features(&tl);
        assert_eq!(v.values, vec![0.0; 5]);
    }

    #[test]
    fn nearest_centroid_separates_clusters() {
        let ex = |label: &str, base: f64, jitter: f64| {
            (
                label.to_string(),
                FeatureVector {
                    values: vec![base + jitter, 2.0 * base - jitter],
                },
            )
        };
        let model = NearestCentroid::train(&[
            ex("low", 10.0, 1.0),
            ex("low", 10.0, -1.0),
            ex("high", 100.0, 2.0),
            ex("high", 100.0, -2.0),
        ]);
        assert_eq!(model.classify(&ex("", 11.0, 0.0).1), "low");
        assert_eq!(model.classify(&ex("", 95.0, 0.0).1), "high");
        assert_eq!(model.labels().collect::<Vec<_>>(), vec!["high", "low"]);
    }

    #[test]
    fn phase_probe_recovers_synthetic_periodicity() {
        // Control grants bump once per 160-cycle period, in the window
        // ending at 40 + 160k: midpoint 20 + 160k, phase 20.
        let mut fabric = Vec::new();
        let mut grants = 0u64;
        for k in 0..40u64 {
            for w in 0..4u64 {
                let cycle = 160 * k + 40 * (w + 1);
                if w == 0 {
                    grants += 3;
                }
                fabric.push(sample(cycle, "gpu1", 0, grants));
            }
        }
        let tl = timeline(40, fabric, Vec::new());
        let obs = PassiveObserver::on_ports(&["gpu1"], FeatureSet::Ctrl);
        let est = obs.phase_probe(&tl, Duration::cycles(160)).expect("signal");
        assert!(est.lock > 0.99, "lock {}", est.lock);
        assert!(
            circular_error(est.phase, 20.0, 160.0) < 1.0,
            "phase {}",
            est.phase
        );
    }

    #[test]
    fn uniform_grants_have_no_phase_lock() {
        let mut fabric = Vec::new();
        let mut grants = 0u64;
        for k in 0..160u64 {
            grants += 1; // one grant every window, every phase equally
            fabric.push(sample(40 * (k + 1), "gpu1", 0, grants));
        }
        let tl = timeline(40, fabric, Vec::new());
        let obs = PassiveObserver::on_ports(&["gpu1"], FeatureSet::Ctrl);
        let est = obs.phase_probe(&tl, Duration::cycles(160)).expect("signal");
        assert!(est.lock < 0.05, "lock {}", est.lock);
    }

    #[test]
    fn close_phase_reads_flush_closes_only() {
        let events = vec![
            TraceRecord {
                cycle: Cycle::new(37),
                event: TraceEvent::BatchClose {
                    node: NodeId::gpu(1),
                    full: false,
                },
            },
            TraceRecord {
                cycle: Cycle::new(37 + 160),
                event: TraceEvent::BatchClose {
                    node: NodeId::gpu(1),
                    full: false,
                },
            },
            TraceRecord {
                cycle: Cycle::new(99),
                event: TraceEvent::BatchClose {
                    node: NodeId::gpu(2),
                    full: true, // size close: not part of the cadence
                },
            },
        ];
        let tl = timeline(40, Vec::new(), events);
        let truth = close_phase(&tl, Duration::cycles(160)).expect("closes");
        assert!((truth.phase - 37.0).abs() < 1e-6);
        assert!(truth.lock > 0.999);
        assert!(
            close_phase(&timeline(40, Vec::new(), Vec::new()), Duration::cycles(160)).is_none()
        );
    }

    #[test]
    fn circular_error_wraps() {
        assert!((circular_error(10.0, 150.0, 160.0) - 20.0).abs() < 1e-9);
        assert!((circular_error(150.0, 10.0, 160.0) - 20.0).abs() < 1e-9);
        assert!((circular_error(80.0, 0.0, 160.0) - 80.0).abs() < 1e-9);
    }
}
