//! Per-layer throughput of the simulator: one `layer-rate` line per
//! layer, each timed by [`bench::layer_rate`] and gated in CI against
//! `crates/bench/engine-floor.txt`. The layers are the calendar event
//! queue (with the [`HeapEventQueue`] oracle as an ungated line beside
//! it), whole simulation cells, one node's NIC/OTP-scheme layer, the
//! fabric's [`TimedServer`], [`Hbm`], [`IssuePacer`] and the
//! observability layer's [`TimeSeriesCollector`]. Three ungated lines
//! time the OTP and batching primitives under the NIC layer alone: a
//! [`PadWindow`] use, an [`EwmaAllocator`] interval close and a
//! [`SenderBatcher`] block add. A last ungated line times
//! [`LatencyReport::finish`], the sort that ends every run.

use bench::layer_rate;
use mgpu_crypto::engine::AesEngine;
use mgpu_secure::batching::SenderBatcher;
use mgpu_secure::ewma::EwmaAllocator;
use mgpu_secure::otp::PadWindow;
use mgpu_sim::dram::Hbm;
use mgpu_sim::events::{EventQueue, HeapEventQueue};
use mgpu_sim::link::{TrafficClass, WireParts};
use mgpu_sim::topology::Transit;
use mgpu_sim::{TimedServer, Topology};
use mgpu_system::node::SecureNic;
use mgpu_system::pacing::IssuePacer;
use mgpu_system::runner::configs;
use mgpu_system::{LatencyReport, Reject, Simulation, TimeSeriesCollector};
use mgpu_types::{
    ByteSize, Cycle, DenseNodeMap, Duration, NodeId, ObservabilityConfig, PairId, SystemConfig,
    TopologyKind,
};
use mgpu_workloads::{Benchmark, Request};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

/// Event gaps matching the simulator's real horizons: same-cycle
/// reissues, NIC/link service, DRAM access, flush timeouts, and the
/// occasional long repartition-interval hop.
const GAPS: [u64; 8] = [0, 2, 7, 40, 100, 161, 200, 1000];

/// Pending events held in flight during the queue churn, matching the
/// order of magnitude a busy 8-GPU cell sustains.
const BACKLOG: usize = 512;

/// Operations per timed run of the queue, timed-server and HBM churns.
const CHURN_OPS: u64 = 1_000_000;

fn main() {
    queue_churn(
        "engine-queue-churn",
        EventQueue::new,
        EventQueue::schedule,
        EventQueue::pop,
    );
    queue_churn(
        "engine-queue-churn-heap",
        HeapEventQueue::new,
        HeapEventQueue::schedule,
        HeapEventQueue::pop,
    );
    engine_cells();
    otp_layer();
    timed_server_churn();
    hbm_churn();
    pacer_churn();
    timeseries_sample();
    // Ungated, so last: the gated lines keep the order their floors were
    // taken in.
    otp_primitives();
    latency_finish();
}

/// [`CHURN_OPS`] pop+schedule pairs on a queue holding [`BACKLOG`]
/// events. The queue operations are passed as fn items, so both queues
/// run the same loop with their calls inlined.
fn queue_churn<Q>(
    label: &str,
    new: impl Fn() -> Q,
    schedule: impl Fn(&mut Q, Cycle, u64),
    pop: impl Fn(&mut Q) -> Option<(Cycle, u64)>,
) {
    layer_rate(
        label,
        "pairs",
        CHURN_OPS,
        || {
            let mut q = new();
            for i in 0..BACKLOG {
                schedule(&mut q, Cycle::new(GAPS[i % GAPS.len()]), i as u64);
            }
            q
        },
        |q| {
            for i in 0..CHURN_OPS as usize {
                let (now, payload) = pop(q).expect("backlog never drains");
                let gap = GAPS[i % GAPS.len()];
                schedule(q, Cycle::new(now.as_u64() + gap), black_box(payload));
            }
        },
    );
}

/// The paper's 4-GPU system under its headline scheme (fig21's
/// Dynamic + Batching), and the ring and switch shapes the
/// topology-scaling sweep leans on hardest, in blocks simulated per host
/// second: a run that does the same work in fewer events is faster, not
/// slower.
fn engine_cells() {
    let base4 = SystemConfig::paper_4gpu();
    let base8 = SystemConfig::paper_8gpu().with_topology(TopologyKind::Ring);
    let mut base64 = SystemConfig::paper_4gpu();
    base64.gpu_count = 64;
    let base64 = base64.with_topology(TopologyKind::Switch { radix: 4 });
    for (label, cfg) in [
        ("4gpu-batching", configs::batching(&base4, 4)),
        ("8gpu-ring-batching", configs::batching(&base8, 4)),
        ("64gpu-switch-batching", configs::batching(&base64, 4)),
    ] {
        let cell = || Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42);
        // Runs are seeded, so every run simulates this many blocks.
        let blocks = cell().run_for_requests(200).blocks;
        layer_rate(label, "blocks", blocks, cell, |sim| {
            sim.run_for_requests(200)
        });
    }
}

/// Send/receive steps per timed OTP-layer run (two pad uses each).
const OTP_STEPS: u64 = 100_000;

/// Gaps between OTP-layer steps, in cycles: back-to-back bursts, link
/// and DRAM horizons, and idle stretches longer than the 1,000-cycle
/// repartition interval. The mean gap (about 490 cycles) puts an
/// interval boundary every two steps, and some boundaries see no use.
const OTP_GAPS: [u64; 8] = [0, 3, 40, 161, 7, 1200, 2, 2500];

/// The three schemes fig25 compares at 16 GPUs, on GPU1's NIC: each
/// step sends a block to one peer and receives the next in-order block
/// from another, with peers drawn from a skewed xorshift sequence (half
/// the steps go to two hot peers).
fn otp_layer() {
    let base = SystemConfig::paper_16gpu();
    let me = NodeId::gpu(1);
    for (label, cfg) in [
        ("16gpu-private", configs::private(&base, 4)),
        ("16gpu-cached", configs::cached(&base, 4)),
        ("16gpu-ours", configs::batching(&base, 4)),
    ] {
        let peers: Vec<NodeId> = me.peers(cfg.gpu_count).collect();
        layer_rate(
            label,
            "uses",
            2 * OTP_STEPS,
            || (SecureNic::new(me, &cfg), vec![0u64; peers.len()]),
            |(nic, next_ctr)| {
                let mut now = Cycle::ZERO;
                let mut x = 0x9e37_79b9_7f4a_7c15u64;
                for i in 0..OTP_STEPS as usize {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    now += Duration::cycles(OTP_GAPS[i % OTP_GAPS.len()]);
                    let spread = if x & 1 == 0 { 2 } else { peers.len() };
                    let dst = (x >> 8) as usize % spread;
                    let src = (x >> 32) as usize % spread;
                    black_box(nic.prepare_send(now, peers[dst]));
                    black_box(nic.receive(now, peers[src], next_ctr[src]));
                    next_ctr[src] += 1;
                }
            },
        );
    }
}

/// Interval closes per timed EWMA run.
const CLOSES: u64 = 10_000;

/// The primitives under the OTP-scheme layer, ungated: [`CHURN_OPS`]
/// pad uses on a depth-4 window behind a 40-cycle AES engine, one use
/// every 7 cycles; [`CLOSES`] Dynamic interval closes over 16 peers,
/// each after a busy interval (peer `i` sends `3i` blocks) so none is
/// an idle close; and [`CHURN_OPS`] block adds to a 16-block batch
/// toward one peer, one every 2 cycles, so every 16th add closes it.
fn otp_primitives() {
    layer_rate(
        "pad-window-use",
        "uses",
        CHURN_OPS,
        || {
            let mut engine = AesEngine::new(Duration::cycles(40));
            let window = PadWindow::new(4, Cycle::ZERO, &mut engine);
            (engine, window)
        },
        |(engine, window)| {
            let mut now = Cycle::ZERO;
            for _ in 0..CHURN_OPS {
                now += Duration::cycles(7);
                black_box(window.use_pad(now, engine));
            }
        },
    );
    let peers: Vec<NodeId> = NodeId::gpu(1).peers(16).collect();
    layer_rate(
        "ewma-end-interval",
        "closes",
        CLOSES,
        || {
            let mon = EwmaAllocator::new(&peers, 0.9, 0.5).with_floor(2);
            (mon, vec![0; peers.len()], vec![0; peers.len()])
        },
        |(mon, send, recv)| {
            for _ in 0..CLOSES {
                for (i, &p) in peers.iter().enumerate() {
                    for _ in 0..i * 3 {
                        mon.observe_send(p);
                    }
                }
                mon.end_interval(black_box(128), send, recv);
            }
        },
    );
    layer_rate(
        "batcher-add-block",
        "blocks",
        CHURN_OPS,
        || SenderBatcher::new(16, Duration::cycles(160)),
        |batcher| {
            let mut now = Cycle::ZERO;
            for _ in 0..CHURN_OPS {
                now += Duration::cycles(2);
                black_box(batcher.add_block(now, NodeId::gpu(2)));
            }
        },
    );
}

/// Messages of 64-112 B arrive every 2-4 cycles at a 50 B/cy port with
/// 100 cycles of propagation, so about 35 stay in service at once. The
/// server keeps no occupancy ledger, as every port of an unobserved run:
/// this times the byte-tick booking and the per-class accounting alone.
fn timed_server_churn() {
    layer_rate(
        "timed-server-churn",
        "serves",
        CHURN_OPS,
        || TimedServer::new(50, Duration::cycles(100)),
        |srv| {
            let mut now = Cycle::ZERO;
            for i in 0..CHURN_OPS {
                now += Duration::cycles(2 + i % 3);
                let parts = WireParts::of(ByteSize::new(64 + (i % 7) * 8), TrafficClass::Data);
                black_box(srv.serve_parts(now, &parts));
            }
        },
    );
}

/// Accesses on one 512 B/cy stack with the simulator's 200-cycle
/// latency, arriving at the [`GAPS`] horizons; one in eight is a page,
/// the rest cachelines, so the bus is sometimes busy on arrival.
fn hbm_churn() {
    layer_rate(
        "hbm-access-churn",
        "accesses",
        CHURN_OPS,
        || Hbm::new(512, Duration::cycles(200)),
        |hbm| {
            let mut now = Cycle::ZERO;
            for i in 0..CHURN_OPS as usize {
                now += Duration::cycles(GAPS[i % GAPS.len()]);
                let size = ByteSize::new(if i % 8 == 0 { 4096 } else { 64 });
                black_box(hbm.access(now, size));
            }
        },
    );
}

/// Requests in the pacer's fixed queue, one issue each per timed run.
const PACER_REQS: u64 = 100_000;

/// One node with 4 issue slots and a closed-loop queue whose timestamps
/// are spaced by [`GAPS`], polled until it drains: an issue takes a slot,
/// a compute gap jumps the clock to the ready cycle, and a node out of
/// slots completes one request a cycle later. Every request sees a poll
/// that issues, most also one that waits for credit, and a `complete`.
fn pacer_churn() {
    let node = NodeId::gpu(1);
    let mut at = Cycle::ZERO;
    let reqs: VecDeque<Request> = (0..PACER_REQS as usize)
        .map(|i| {
            at += Duration::cycles(GAPS[i % GAPS.len()]);
            Request::direct(at, node, NodeId::gpu(2))
        })
        .collect();
    let queues = BTreeMap::from([(node, reqs)]);
    layer_rate(
        "pacer-poll-churn",
        "requests",
        PACER_REQS,
        || IssuePacer::new(queues.clone(), 4),
        |pacer| {
            let mut now = Cycle::ZERO;
            loop {
                match pacer.poll(node, now) {
                    Ok(req) => {
                        black_box(req);
                    }
                    Err(Reject::NotBefore(ready)) => now = ready,
                    Err(Reject::AwaitCredit) => {
                        now += Duration::cycles(1);
                        black_box(pacer.complete(node, now));
                    }
                    Err(Reject::Drained) => break,
                }
            }
        },
    );
}

/// Boundary samples per timed collector run.
const SAMPLES: u64 = 2_000;

/// Blocks each node has in flight to each peer while it is sampled.
const SAMPLED_BURST: usize = 8;

/// [`TimeSeriesCollector::sample`] on the paper's 4-GPU system under
/// Dynamic + Batching, observed: the one path that reads the egress
/// ports' occupancy ledgers. Every node has a burst of cachelines in
/// flight to each peer, so each sample counts 32 in-service messages on
/// every node's egress ledger besides reading its 5 NICs and 5 ports.
fn timeseries_sample() {
    let mut cfg = configs::batching(&SystemConfig::paper_4gpu(), 4);
    cfg.observability = ObservabilityConfig::enabled();
    let line = WireParts::of(ByteSize::CACHELINE, TrafficClass::Data);
    layer_rate(
        "4gpu-timeseries-sample",
        "samples",
        SAMPLES,
        || {
            let mut topo = Topology::new(&cfg);
            for src in NodeId::all(cfg.gpu_count) {
                for dst in src.peers(cfg.gpu_count) {
                    for _ in 0..SAMPLED_BURST {
                        let mut transit = Transit::new(PairId::new(src, dst));
                        topo.begin(&mut transit, Cycle::ZERO, &line);
                    }
                }
            }
            let nics: DenseNodeMap<SecureNic> = NodeId::all(cfg.gpu_count)
                .map(|n| (n, SecureNic::new(n, &cfg)))
                .collect();
            let collector = TimeSeriesCollector::new(cfg.security.dynamic.interval);
            (collector, nics, topo)
        },
        |(collector, nics, topo)| {
            // Boundaries inside the bursts' service time: every booked
            // message is still in service.
            for i in 0..SAMPLES {
                collector.sample(Cycle::new(i % 64), nics, topo);
            }
        },
    );
}

/// Requests in the latency report [`latency_finish`] sorts: a 16-GPU
/// cell at 1,000 requests per GPU.
const FINISH_REQUESTS: u64 = 16_000;

/// [`LatencyReport::finish`] on one 16-GPU cell's samples, in requests
/// per second, ungated. The samples are shaped like those fig25 records:
/// over the 2,178 sample vectors of one run (seed 1), the median vector
/// holds 82 % of its samples within 1,024 cycles of its fastest, puts
/// its median 368 and its 90th percentile 1,971 cycles above it, and
/// spans 5,200 cycles. Here service latencies sit above a 408-cycle
/// floor by an exponential draw of mean 400 cycles, or, for 15 % of
/// them, by a uniform draw below 5,200 cycles, which gives 82 %, 341,
/// 1,936 and 5,195. Total latencies are up to 64 cycles longer.
/// The samples come in a scrambled order, as completions do.
fn latency_finish() {
    layer_rate(
        "latency-finish-16k",
        "requests",
        FINISH_REQUESTS,
        || {
            let mut report = LatencyReport::with_capacity(FINISH_REQUESTS as usize);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            let mut unit = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 11) + 1) as f64 / (1u64 << 53) as f64
            };
            for _ in 0..FINISH_REQUESTS {
                let wait = if unit() < 0.85 {
                    -400.0 * unit().ln()
                } else {
                    unit() * 5_200.0
                };
                let service = 408 + wait as u64;
                let queued = (unit() * 64.0) as u64;
                let done = Cycle::new(100_000);
                report.record(
                    Cycle::new(done.as_u64() - service - queued),
                    Cycle::new(done.as_u64() - service),
                    done,
                    None,
                );
            }
            report
        },
        LatencyReport::finish,
    );
}
