//! Interval-resolved observability for the dynamic OTP repartitioner.
//!
//! The paper's headline mechanism — EWMA-driven repartitioning every
//! `T` cycles (Formulas 1–4, §IV-B) — is invisible in end-of-run
//! aggregates. [`TimeSeriesCollector`] samples the system at every
//! repartition boundary: per-node EWMA direction weight `S`, per-peer
//! send/recv window allocations, OTP hit/partial/miss deltas, batch
//! occupancy, replay (ACK) window headroom, and per-port fabric byte
//! deltas and queue depths. A bounded ring buffer additionally traces
//! discrete protocol events (repartitions, batch closes, ACK timeouts,
//! adversary detections), and per-event-type scope counters account for
//! the simulation hot path.
//!
//! # Timing neutrality
//!
//! Collection is opt-in ([`mgpu_types::ObservabilityConfig`]) and must
//! not perturb the simulated machine. The sampler forces each scheme's
//! interval processing *at* the boundary (instead of lazily at the next
//! send/receive), which is timing-equivalent: window targets are always
//! computed against the boundary cycle, boundary processing is
//! idempotent, and pad readiness depends only on the boundary, not on
//! when it is processed. The golden-parity suite pins this — cycles,
//! traffic, OTP statistics and ACK counts are bit-identical with
//! observability on or off. The one intentional exception is
//! `pads_issued`: eager boundary processing issues pads for trailing
//! boundaries that an idle node's lazy path would never reach, so that
//! work counter may read slightly higher on observed runs.
//!
//! The timeline is fully deterministic (no wall-clock anywhere), so
//! observed runs stay reproducible run-to-run.

use crate::node::SecureNic;
use mgpu_secure::adversary::{FaultKind, SecurityEvent};
use mgpu_sim::stats::percentile;
use mgpu_sim::topology::Topology;
use mgpu_types::{Cycle, DenseNodeMap, Duration, NodeId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// One per-node sample taken at a repartition-interval boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalSample {
    /// Boundary cycle the sample was taken at.
    pub cycle: Cycle,
    /// The sampled node.
    pub node: NodeId,
    /// EWMA send-direction weight `S_i`; `None` for non-adaptive schemes.
    pub send_weight: Option<f64>,
    /// Cumulative repartitions completed by this node's scheme.
    pub rebalances: u64,
    /// Per-peer send-window allocation (pads); empty for non-adaptive
    /// schemes.
    pub send_alloc: BTreeMap<NodeId, u32>,
    /// Per-peer recv-window allocation (pads).
    pub recv_alloc: BTreeMap<NodeId, u32>,
    /// OTP pad hits this interval (send + recv).
    pub otp_hits: u64,
    /// OTP partial-latency pads this interval.
    pub otp_partials: u64,
    /// OTP misses this interval.
    pub otp_misses: u64,
    /// Batches closed full this interval.
    pub batch_closed_full: u64,
    /// Batches closed by flush timeout this interval.
    pub batch_closed_flush: u64,
    /// Running mean blocks per closed batch (cumulative).
    pub batch_occupancy: f64,
    /// Free replay-table (ACK window) entries; negative when trailer
    /// flushes transiently overdraw the table.
    pub ack_window_free: i64,
    /// Cumulative ACK-window credit grants the node's gate has issued
    /// (admissions plus trailer overdraws).
    pub ack_window_grants: u64,
}

impl IntervalSample {
    /// Pad hit rate over this interval's OTP operations, if any occurred.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.otp_hits + self.otp_partials + self.otp_misses;
        if total == 0 {
            None
        } else {
            Some(self.otp_hits as f64 / total as f64)
        }
    }
}

/// One per-fabric-port sample taken at an interval boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricSample {
    /// Boundary cycle the sample was taken at.
    pub cycle: Cycle,
    /// Egress port label (`"gpu1"`, `"switch0"`, ...).
    pub port: String,
    /// Bytes that crossed the port since the previous sample.
    pub bytes_delta: u64,
    /// True occupancy at the boundary: grants whose service had not yet
    /// completed when the sample was taken — queued entries, not time.
    /// (This field used to carry the serialization backlog in cycles,
    /// which now lives in [`FabricSample::busy_horizon`].)
    pub queue_depth: u64,
    /// Cycles until the port's serializer frees (its busy-time backlog
    /// at the boundary). The old, mislabeled `queue_depth` value.
    pub busy_horizon: u64,
    /// Cumulative grants (messages booked) on the port's timed server.
    pub grants: u64,
    /// Control-VC bytes granted on pairs leaving this port since the
    /// previous sample. Control messages ride per-pair VCs, but they all
    /// share the node's physical port, so this sum is what a tap on the
    /// port observes. Node ports only; switch rows read 0 (control VCs
    /// are end-to-end). Chaff padding is included — on the wire it is
    /// indistinguishable from real metadata.
    pub ctrl_bytes_delta: u64,
    /// Cumulative control-VC grants on pairs leaving this port (node
    /// ports only; switch rows read 0).
    pub ctrl_grants: u64,
}

/// A discrete protocol event captured in the bounded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node's scheme completed one or more repartitions.
    Repartition {
        /// The repartitioning node.
        node: NodeId,
        /// Its cumulative repartition count after the event.
        rebalances: u64,
    },
    /// A metadata batch closed.
    BatchClose {
        /// The sending node whose batch closed.
        node: NodeId,
        /// `true` when it filled; `false` when the flush timeout fired.
        full: bool,
    },
    /// A defense fired only after the sender's ACK timeout expired.
    AckTimeout {
        /// The injected fault that the timeout surfaced.
        kind: FaultKind,
        /// Sender of the affected stream.
        src: NodeId,
        /// Receiver of the affected stream.
        dst: NodeId,
    },
    /// A defense detected an adversary injection inline.
    AdversaryDetection {
        /// The injected fault kind.
        kind: FaultKind,
        /// Sender of the affected stream.
        src: NodeId,
        /// Receiver of the affected stream.
        dst: NodeId,
    },
}

/// A trace event with its timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle the event occurred (for detections: the detection time).
    pub cycle: Cycle,
    /// The event.
    pub event: TraceEvent,
}

/// Summary statistics folded into `BENCH_repro.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineSummary {
    /// Number of interval samples taken.
    pub intervals: usize,
    /// Trace events retained in the ring buffer.
    pub trace_events: usize,
    /// Trace events evicted because the ring filled.
    pub events_dropped: u64,
    /// Median per-interval OTP hit rate.
    pub hit_rate_p50: Option<f64>,
    /// 90th-percentile per-interval OTP hit rate.
    pub hit_rate_p90: Option<f64>,
    /// Median fabric-port queue depth at boundaries (pending entries).
    pub queue_depth_p50: Option<f64>,
    /// 90th-percentile fabric-port queue depth at boundaries (pending
    /// entries).
    pub queue_depth_p90: Option<f64>,
    /// Median fabric-port busy horizon at boundaries (cycles until the
    /// serializer frees).
    pub busy_horizon_p50: Option<f64>,
    /// 90th-percentile fabric-port busy horizon at boundaries (cycles).
    pub busy_horizon_p90: Option<f64>,
}

/// The finished observability record attached to a
/// [`crate::RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Sampling interval (the repartition interval `T`).
    pub interval: Duration,
    /// Per-node interval samples, in (cycle, node) order.
    pub samples: Vec<IntervalSample>,
    /// Per-port fabric samples, in (cycle, port) order.
    pub fabric: Vec<FabricSample>,
    /// Bounded protocol-event trace (oldest events evicted first).
    pub events: Vec<TraceRecord>,
    /// Events evicted from the trace ring.
    pub events_dropped: u64,
    /// Events processed by the simulation loop, per event type.
    pub scope_counts: BTreeMap<&'static str, u64>,
}

/// Formats an `f64` as a JSON value (`null` for non-finite, whose bare
/// `Display` form would not parse as JSON).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn node_label(n: NodeId) -> String {
    n.to_string().to_ascii_lowercase()
}

fn alloc_json(alloc: &BTreeMap<NodeId, u32>) -> String {
    let mut s = String::from("{");
    for (i, (peer, pads)) in alloc.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":{}", node_label(*peer), pads);
    }
    s.push('}');
    s
}

impl Timeline {
    /// Serializes the timeline as JSON Lines: one `meta` record, then one
    /// `interval` record per node-sample, one `fabric` record per
    /// port-sample, and one `event` record per trace entry. The schema is
    /// documented in `EXPERIMENTS.md`.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"kind\":\"meta\",\"interval\":{},\"intervals\":{},\"fabric_samples\":{},\"trace_events\":{},\"events_dropped\":{},\"scopes\":{{",
            self.interval.as_u64(),
            self.samples.len(),
            self.fabric.len(),
            self.events.len(),
            self.events_dropped,
        );
        for (i, (name, count)) in self.scope_counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{count}");
        }
        out.push_str("}}\n");

        for s in &self.samples {
            let _ = writeln!(
                out,
                "{{\"kind\":\"interval\",\"cycle\":{},\"node\":\"{}\",\"send_weight\":{},\"rebalances\":{},\"send_alloc\":{},\"recv_alloc\":{},\"otp_hits\":{},\"otp_partials\":{},\"otp_misses\":{},\"hit_rate\":{},\"batch_closed_full\":{},\"batch_closed_flush\":{},\"batch_occupancy\":{},\"ack_window_free\":{},\"ack_window_grants\":{}}}",
                s.cycle.as_u64(),
                node_label(s.node),
                s.send_weight.map_or_else(|| "null".to_string(), json_f64),
                s.rebalances,
                alloc_json(&s.send_alloc),
                alloc_json(&s.recv_alloc),
                s.otp_hits,
                s.otp_partials,
                s.otp_misses,
                s.hit_rate().map_or_else(|| "null".to_string(), json_f64),
                s.batch_closed_full,
                s.batch_closed_flush,
                json_f64(s.batch_occupancy),
                s.ack_window_free,
                s.ack_window_grants,
            );
        }
        for f in &self.fabric {
            let _ = writeln!(
                out,
                "{{\"kind\":\"fabric\",\"cycle\":{},\"port\":\"{}\",\"bytes_delta\":{},\"queue_depth\":{},\"busy_horizon\":{},\"grants\":{},\"ctrl_bytes_delta\":{},\"ctrl_grants\":{}}}",
                f.cycle.as_u64(),
                f.port,
                f.bytes_delta,
                f.queue_depth,
                f.busy_horizon,
                f.grants,
                f.ctrl_bytes_delta,
                f.ctrl_grants,
            );
        }
        for r in &self.events {
            let cycle = r.cycle.as_u64();
            let _ = match &r.event {
                TraceEvent::Repartition { node, rebalances } => writeln!(
                    out,
                    "{{\"kind\":\"event\",\"cycle\":{cycle},\"event\":\"repartition\",\"node\":\"{}\",\"rebalances\":{rebalances}}}",
                    node_label(*node),
                ),
                TraceEvent::BatchClose { node, full } => writeln!(
                    out,
                    "{{\"kind\":\"event\",\"cycle\":{cycle},\"event\":\"batch_close\",\"node\":\"{}\",\"full\":{full}}}",
                    node_label(*node),
                ),
                TraceEvent::AckTimeout { kind, src, dst } => writeln!(
                    out,
                    "{{\"kind\":\"event\",\"cycle\":{cycle},\"event\":\"ack_timeout\",\"fault\":\"{kind:?}\",\"src\":\"{}\",\"dst\":\"{}\"}}",
                    node_label(*src),
                    node_label(*dst),
                ),
                TraceEvent::AdversaryDetection { kind, src, dst } => writeln!(
                    out,
                    "{{\"kind\":\"event\",\"cycle\":{cycle},\"event\":\"adversary_detection\",\"fault\":\"{kind:?}\",\"src\":\"{}\",\"dst\":\"{}\"}}",
                    node_label(*src),
                    node_label(*dst),
                ),
            };
        }
        out
    }

    /// Folds the series into summary percentiles.
    #[must_use]
    pub fn summary(&self) -> TimelineSummary {
        let hit_rates: Vec<f64> = self
            .samples
            .iter()
            .filter_map(IntervalSample::hit_rate)
            .collect();
        let depths: Vec<f64> = self.fabric.iter().map(|f| f.queue_depth as f64).collect();
        let horizons: Vec<f64> = self.fabric.iter().map(|f| f.busy_horizon as f64).collect();
        TimelineSummary {
            intervals: self.samples.len(),
            trace_events: self.events.len(),
            events_dropped: self.events_dropped,
            hit_rate_p50: percentile(&hit_rates, 50.0),
            hit_rate_p90: percentile(&hit_rates, 90.0),
            queue_depth_p50: percentile(&depths, 50.0),
            queue_depth_p90: percentile(&depths, 90.0),
            busy_horizon_p50: percentile(&horizons, 50.0),
            busy_horizon_p90: percentile(&horizons, 90.0),
        }
    }
}

/// Capacity of the protocol-event ring buffer. When full, the oldest
/// record is dropped (and counted) rather than growing without bound.
const TRACE_CAPACITY: usize = 4096;

/// Per-run state of the observability layer. Lives inside the event loop
/// only when `config.observability.enabled`; every hook is behind an
/// `Option` so disabled runs pay nothing.
#[derive(Debug)]
pub struct TimeSeriesCollector {
    interval: Duration,
    trace_capacity: usize,
    samples: Vec<IntervalSample>,
    fabric: Vec<FabricSample>,
    trace: VecDeque<TraceRecord>,
    events_dropped: u64,
    scope_counts: BTreeMap<&'static str, u64>,
    /// Cumulative (hits, partials, misses) per node at the last sample.
    prev_otp: BTreeMap<NodeId, (u64, u64, u64)>,
    /// Cumulative (closed full, closed by flush) per node at the last
    /// sample.
    prev_batches: BTreeMap<NodeId, (u64, u64)>,
    /// Rebalance count per node at the last sample (repartition trace).
    prev_rebalances: BTreeMap<NodeId, u64>,
    /// Cumulative bytes per port label at the last sample.
    prev_port_bytes: BTreeMap<String, u64>,
    /// Cumulative control-VC bytes per port label at the last sample.
    prev_port_ctrl_bytes: BTreeMap<String, u64>,
}

impl TimeSeriesCollector {
    /// Creates a collector sampling every `interval` cycles (the
    /// repartition interval `T`).
    #[must_use]
    pub fn new(interval: Duration) -> Self {
        TimeSeriesCollector {
            interval,
            trace_capacity: TRACE_CAPACITY,
            samples: Vec::new(),
            fabric: Vec::new(),
            trace: VecDeque::new(),
            events_dropped: 0,
            scope_counts: BTreeMap::new(),
            prev_otp: BTreeMap::new(),
            prev_batches: BTreeMap::new(),
            prev_rebalances: BTreeMap::new(),
            prev_port_bytes: BTreeMap::new(),
            prev_port_ctrl_bytes: BTreeMap::new(),
        }
    }

    /// Counts one simulation-loop event of type `name` (cycle-accounting
    /// scope for the hot path).
    pub fn note_event(&mut self, name: &'static str) {
        *self.scope_counts.entry(name).or_insert(0) += 1;
    }

    /// Appends a record to the bounded trace, evicting the oldest when
    /// full.
    pub fn record_trace(&mut self, cycle: Cycle, event: TraceEvent) {
        if self.trace.len() == self.trace_capacity {
            self.trace.pop_front();
            self.events_dropped += 1;
        }
        self.trace.push_back(TraceRecord { cycle, event });
    }

    /// Classifies a harness detection into the trace: detections whose
    /// `detected_at` trails `injected_at` surfaced through the sender's
    /// ACK timeout (dropped ACKs, over-length trailers); all others fired
    /// inline.
    pub fn record_security_event(&mut self, ev: &SecurityEvent) {
        let event = if ev.detected_at > ev.injected_at {
            TraceEvent::AckTimeout {
                kind: ev.kind,
                src: ev.src,
                dst: ev.dst,
            }
        } else {
            TraceEvent::AdversaryDetection {
                kind: ev.kind,
                src: ev.src,
                dst: ev.dst,
            }
        };
        self.record_trace(ev.detected_at, event);
    }

    /// Records a batch close at `node` (`full` when it filled, otherwise
    /// the flush timeout fired).
    pub fn record_batch_close(&mut self, cycle: Cycle, node: NodeId, full: bool) {
        self.record_trace(cycle, TraceEvent::BatchClose { node, full });
    }

    /// Takes one sample of every node and fabric port at boundary `now`.
    /// The caller is responsible for having advanced the schemes to the
    /// boundary first (see the module docs on timing neutrality).
    ///
    /// # Panics
    ///
    /// Panics if an egress port of `topo` keeps no occupancy ledger,
    /// which a `Topology` built from an observed config never does: the
    /// engine builds its collector only when
    /// `config.observability.enabled`.
    pub fn sample(&mut self, now: Cycle, nics: &DenseNodeMap<SecureNic>, topo: &Topology) {
        for (node, nic) in nics.iter() {
            let stats = nic.otp_stats();
            let hits = stats.count(mgpu_types::Direction::Send, mgpu_secure::PadClass::Hit)
                + stats.count(mgpu_types::Direction::Recv, mgpu_secure::PadClass::Hit);
            let partials = stats.count(mgpu_types::Direction::Send, mgpu_secure::PadClass::Partial)
                + stats.count(mgpu_types::Direction::Recv, mgpu_secure::PadClass::Partial);
            let misses = stats.count(mgpu_types::Direction::Send, mgpu_secure::PadClass::Miss)
                + stats.count(mgpu_types::Direction::Recv, mgpu_secure::PadClass::Miss);
            let (ph, pp, pm) = self
                .prev_otp
                .insert(node, (hits, partials, misses))
                .unwrap_or((0, 0, 0));

            let (full, flush) = nic.batch_closes();
            let (bf, bfl) = self
                .prev_batches
                .insert(node, (full, flush))
                .unwrap_or((0, 0));

            let telemetry = nic.scheme_telemetry();
            let rebalances = telemetry.as_ref().map_or(0, |t| t.rebalances);
            let prev_reb = self.prev_rebalances.insert(node, rebalances).unwrap_or(0);
            if rebalances > prev_reb {
                self.record_trace(now, TraceEvent::Repartition { node, rebalances });
            }

            self.samples.push(IntervalSample {
                cycle: now,
                node,
                send_weight: telemetry.as_ref().map(|t| t.send_weight),
                rebalances,
                send_alloc: telemetry
                    .as_ref()
                    .map(|t| t.send_depths.clone())
                    .unwrap_or_default(),
                recv_alloc: telemetry.map(|t| t.recv_depths).unwrap_or_default(),
                otp_hits: hits - ph,
                otp_partials: partials - pp,
                otp_misses: misses - pm,
                batch_closed_full: full - bf,
                batch_closed_flush: flush - bfl,
                batch_occupancy: nic.mean_batch_occupancy(),
                ack_window_free: nic.ack_window().free(),
                ack_window_grants: nic.ack_window().grants(),
            });
        }

        struct PortStats {
            bytes: u64,
            queue_depth: u64,
            busy_horizon: u64,
            grants: u64,
            ctrl_bytes: u64,
            ctrl_grants: u64,
        }
        let port_stats = |server: &mgpu_sim::TimedServer, ctrl_bytes: u64, ctrl_grants: u64| {
            PortStats {
                bytes: server.totals().total().as_u64(),
                // Pending completions, not time: the busy-time-until-free
                // value this field used to (mis)report is busy_horizon.
                // The collector exists only in an observed run, whose
                // `Topology` gives every egress port a ledger.
                queue_depth: u64::from(
                    server
                        .occupancy(now)
                        .expect("an observed run's egress ports keep an occupancy ledger"),
                ),
                busy_horizon: server.next_free().saturating_since(now).as_u64(),
                grants: server.grants(),
                ctrl_bytes,
                ctrl_grants,
            }
        };
        let mut ports: Vec<(String, PortStats)> = topo
            .iter_egress()
            .map(|(node, server)| {
                let stats = port_stats(
                    server,
                    topo.ctrl_bytes_from(node),
                    topo.ctrl_grants_from(node),
                );
                (node_label(node), stats)
            })
            .collect();
        ports.extend(
            topo.iter_switch_egress()
                .map(|(id, server)| (format!("switch{id}"), port_stats(server, 0, 0))),
        );
        for (port, stats) in ports {
            let prev = self
                .prev_port_bytes
                .insert(port.clone(), stats.bytes)
                .unwrap_or(0);
            let prev_ctrl = self
                .prev_port_ctrl_bytes
                .insert(port.clone(), stats.ctrl_bytes)
                .unwrap_or(0);
            self.fabric.push(FabricSample {
                cycle: now,
                port,
                bytes_delta: stats.bytes - prev,
                queue_depth: stats.queue_depth,
                busy_horizon: stats.busy_horizon,
                grants: stats.grants,
                ctrl_bytes_delta: stats.ctrl_bytes - prev_ctrl,
                ctrl_grants: stats.ctrl_grants,
            });
        }
    }

    /// Finalizes the collector into the report's [`Timeline`].
    #[must_use]
    pub fn finish(self) -> Timeline {
        Timeline {
            interval: self.interval,
            samples: self.samples,
            fabric: self.fabric,
            events: self.trace.into_iter().collect(),
            events_dropped: self.events_dropped,
            scope_counts: self.scope_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collector(capacity: usize) -> TimeSeriesCollector {
        let mut c = TimeSeriesCollector::new(Duration::cycles(1000));
        c.trace_capacity = capacity;
        c
    }

    #[test]
    fn trace_ring_drops_oldest() {
        let mut c = collector(2);
        for i in 0..5u64 {
            c.record_batch_close(Cycle::new(i), NodeId::gpu(1), true);
        }
        let t = c.finish();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events_dropped, 3);
        assert_eq!(t.events[0].cycle, Cycle::new(3));
        assert_eq!(t.events[1].cycle, Cycle::new(4));
    }

    #[test]
    fn security_events_classify_by_detection_delay() {
        let mut c = collector(16);
        c.record_security_event(&SecurityEvent {
            kind: FaultKind::FlipMac,
            src: NodeId::gpu(1),
            dst: NodeId::gpu(2),
            injected_at: Cycle::new(100),
            detected_at: Cycle::new(100),
        });
        c.record_security_event(&SecurityEvent {
            kind: FaultKind::DropAck,
            src: NodeId::gpu(2),
            dst: NodeId::gpu(3),
            injected_at: Cycle::new(200),
            detected_at: Cycle::new(600),
        });
        let t = c.finish();
        assert!(matches!(
            t.events[0].event,
            TraceEvent::AdversaryDetection {
                kind: FaultKind::FlipMac,
                ..
            }
        ));
        assert!(matches!(
            t.events[1].event,
            TraceEvent::AckTimeout {
                kind: FaultKind::DropAck,
                ..
            }
        ));
    }

    #[test]
    fn jsonl_is_line_per_record_and_null_safe() {
        let mut c = collector(4);
        c.note_event("TryIssue");
        c.note_event("TryIssue");
        c.record_batch_close(Cycle::new(42), NodeId::CPU, false);
        let mut t = c.finish();
        t.samples.push(IntervalSample {
            cycle: Cycle::new(1000),
            node: NodeId::gpu(1),
            send_weight: Some(f64::NAN), // must serialize as null
            rebalances: 1,
            send_alloc: BTreeMap::from([(NodeId::gpu(2), 9)]),
            recv_alloc: BTreeMap::new(),
            otp_hits: 0,
            otp_partials: 0,
            otp_misses: 0,
            batch_closed_full: 0,
            batch_closed_flush: 0,
            batch_occupancy: 0.0,
            ack_window_free: 64,
            ack_window_grants: 7,
        });
        t.fabric.push(FabricSample {
            cycle: Cycle::new(1000),
            port: "gpu1".to_string(),
            bytes_delta: 512,
            queue_depth: 2,
            busy_horizon: 37,
            grants: 5,
            ctrl_bytes_delta: 48,
            ctrl_grants: 3,
        });
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4); // meta + interval + fabric + event
        assert!(lines[0].contains("\"kind\":\"meta\""));
        assert!(lines[0].contains("\"TryIssue\":2"));
        assert!(lines[1].contains("\"send_weight\":null"));
        assert!(lines[1].contains("\"send_alloc\":{\"gpu2\":9}"));
        assert!(lines[1].contains("\"ack_window_grants\":7"));
        assert!(lines[2].contains("\"kind\":\"fabric\""));
        assert!(lines[2].contains("\"queue_depth\":2"));
        assert!(lines[2].contains("\"busy_horizon\":37"));
        assert!(lines[2].contains("\"ctrl_bytes_delta\":48"));
        assert!(lines[2].contains("\"ctrl_grants\":3"));
        assert!(lines[3].contains("\"event\":\"batch_close\""));
        assert!(lines[3].contains("\"full\":false"));
        // No line may contain a bare NaN/inf token.
        assert!(!jsonl.contains("NaN") && !jsonl.contains("inf"));
    }

    #[test]
    fn summary_percentiles_over_samples() {
        let mut t = collector(4).finish();
        for (i, hits) in [(1u64, 9u64), (2, 7), (3, 5)] {
            t.samples.push(IntervalSample {
                cycle: Cycle::new(i * 1000),
                node: NodeId::gpu(1),
                send_weight: None,
                rebalances: 0,
                send_alloc: BTreeMap::new(),
                recv_alloc: BTreeMap::new(),
                otp_hits: hits,
                otp_partials: 0,
                otp_misses: 10 - hits,
                batch_closed_full: 0,
                batch_closed_flush: 0,
                batch_occupancy: 0.0,
                ack_window_free: 0,
                ack_window_grants: 0,
            });
        }
        let s = t.summary();
        assert_eq!(s.intervals, 3);
        assert_eq!(s.hit_rate_p50, Some(0.7));
        assert!(s.queue_depth_p50.is_none());
        assert!(s.busy_horizon_p50.is_none());
    }

    /// `queue_depth` counts pending entries while `busy_horizon` carries
    /// the serializer backlog in cycles — the two summaries are
    /// independent series over the same fabric rows.
    #[test]
    fn summary_separates_queue_depth_from_busy_horizon() {
        let mut t = collector(4).finish();
        for (i, (depth, horizon)) in [(1u64, (0u64, 120u64)), (2, (2, 40)), (3, (4, 200))] {
            t.fabric.push(FabricSample {
                cycle: Cycle::new(i * 1000),
                port: "gpu1".to_string(),
                bytes_delta: 0,
                queue_depth: depth,
                busy_horizon: horizon,
                grants: depth,
                ctrl_bytes_delta: 0,
                ctrl_grants: 0,
            });
        }
        let s = t.summary();
        assert_eq!(s.queue_depth_p50, Some(2.0));
        assert_eq!(s.busy_horizon_p50, Some(120.0));
    }
}
