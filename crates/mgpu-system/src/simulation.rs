//! The system-level timing simulation: a discrete-event model of the full
//! secure multi-GPU request path.
//!
//! ```text
//! requester ──request(ctrl VC)──▶ owner ──HBM──▶ secure NIC (pad wait)
//!    ──data+metadata (per-hop transit across the fabric)──▶ requester NIC
//!    (decrypt pad wait) ──ACK(ctrl VC)──▶ owner
//! ```
//!
//! Every resource — HBM banks, per-waypoint egress/ingress data ports,
//! per-pair control VCs, the AES engines behind each OTP scheme — is
//! booked *at the simulated time the bytes reach it*, driven by a global
//! time-ordered event queue, so contention between requests, responses,
//! ACKs and batch trailers is captured without ordering artifacts.
//!
//! This module owns only the event loop; the pipeline components live in
//! their own modules and the loop composes them:
//!
//! * [`crate::pacing`] — closed-loop issue pacing (compute gaps +
//!   per-GPU memory-level-parallelism slots),
//! * [`crate::node`] — one secure NIC per node: crypto pipeline, OTP
//!   scheme, metadata batcher, and the replay (ACK) window where
//!   deferred sends park,
//! * [`mgpu_sim::topology`] — the routed interconnect, moving each block
//!   hop by hop (`Ev::BlockIngress` re-fires per waypoint on multi-hop
//!   topologies; encryption, MACs and replay protection stay end-to-end).

use crate::flow::Reject;
use crate::harness::WireHarness;
use crate::metrics::{otp_summary, RunReport};
use crate::node::{BlockId, SecureNic};
use crate::pacing::IssuePacer;
use crate::timeseries::TimeSeriesCollector;
use mgpu_sim::dram::Hbm;
use mgpu_sim::events::EventQueue;
use mgpu_sim::link::{TrafficClass, WireParts};
use mgpu_sim::topology::{HopOutcome, Topology, Transit};
use mgpu_types::{ByteSize, Cycle, DenseNodeMap, NodeId, OtpSchemeKind, PairId, SystemConfig};
use mgpu_workloads::{Benchmark, Request, TrafficModel};
use std::collections::{BTreeMap, VecDeque};

/// A configured, seeded simulation run.
///
/// # Examples
///
/// ```
/// use mgpu_system::Simulation;
/// use mgpu_types::SystemConfig;
/// use mgpu_workloads::Benchmark;
///
/// let report = Simulation::new(SystemConfig::paper_4gpu(), Benchmark::Mvt, 7)
///     .run_for_requests(300);
/// assert_eq!(report.requests, 4 * 300);
/// assert!(report.blocks >= report.requests);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    config: SystemConfig,
    benchmark: Benchmark,
    seed: u64,
    open_loop: bool,
}

/// In-flight request bookkeeping.
struct Pending {
    requester: NodeId,
    owner: NodeId,
    blocks_left: u32,
    /// When the request arrived (its `available_at`).
    arrived_at: Cycle,
    /// Optional SLO deadline carried by the request.
    deadline: Option<Cycle>,
}

/// One block of a request: a row of the per-block table. Events name a
/// block by its [`BlockId`], so a queued event stays a few bytes however
/// much state the block carries. Rows are appended when the owner's data
/// is ready and stay in place for the rest of the run, as `pending` does
/// per request.
struct Block {
    /// The block's request (index into `pending`).
    req: u32,
    /// `true` when the block carries a MsgMAC (unbatched block or batch
    /// closer): it holds a replay-table entry and its delivery is ACKed.
    acks: bool,
    /// The message counter the block carries.
    counter: u64,
    /// Wire components transmitted together, stored once per block.
    parts: WireParts,
    /// The block's position on its route, owner to requester.
    transit: Transit,
}

/// Discrete events of the request path. Requests and blocks travel as
/// table indices; their state lives in `pending` and the block table.
enum Ev {
    /// Attempt to issue the requester's next queued request.
    TryIssue(NodeId),
    /// Request packet arrived at the owner.
    ReqArrive(u32),
    /// HBM produced the data at the owner.
    DataReady(u32),
    /// An encrypted block is ready for the owner's egress port.
    BlockEgress(BlockId),
    /// The block's bytes reached the ingress of the next waypoint on
    /// their route (on the fully-connected fabric, the destination).
    BlockIngress(BlockId),
    /// The block cleared the destination ingress; run receive-side crypto.
    BlockRecv(BlockId),
    /// The block's data became usable at the requester.
    BlockDone(BlockId),
    /// An ACK reached the original sender: free a replay-table entry.
    AckArrive(NodeId),
    /// Check a node's batcher for timeout flushes.
    FlushCheck(NodeId),
    /// A flushed batch's trailer arrived: the receiver ACKs it.
    TrailerAck { receiver: NodeId, owner: NodeId },
    /// Constant-rate shaping tick: top every control VC up to the shaped
    /// byte quota with chaff so a port observer sees the same control
    /// traffic regardless of the protected workload. Scheduled only when
    /// `config.security.defense.constant_rate`.
    ChaffTick,
    /// Observability boundary: sample the system state. Books no
    /// resources and never affects timing; scheduled only when
    /// `config.observability.enabled`.
    Sample,
}

// Every `schedule` and `pop` moves a `(Cycle, Ev)` entry through a queue
// slot, and the block table keeps one row per block for the whole run, so
// both stay small.
const _: () = assert!(std::mem::size_of::<Ev>() <= 8);
const _: () = assert!(std::mem::size_of::<Block>() <= 40);

impl Ev {
    /// Event-type label for the observability scope counters.
    fn name(&self) -> &'static str {
        match self {
            Ev::TryIssue(_) => "TryIssue",
            Ev::ReqArrive(_) => "ReqArrive",
            Ev::DataReady(_) => "DataReady",
            Ev::BlockEgress(_) => "BlockEgress",
            Ev::BlockIngress(_) => "BlockIngress",
            Ev::BlockRecv(_) => "BlockRecv",
            Ev::BlockDone(_) => "BlockDone",
            Ev::AckArrive(_) => "AckArrive",
            Ev::FlushCheck(_) => "FlushCheck",
            Ev::TrailerAck { .. } => "TrailerAck",
            Ev::ChaffTick => "ChaffTick",
            Ev::Sample => "Sample",
        }
    }
}

impl Simulation {
    /// Creates a simulation of `benchmark` under `config` with a fixed
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    #[must_use]
    pub fn new(config: SystemConfig, benchmark: Benchmark, seed: u64) -> Self {
        config.validate().expect("valid system configuration");
        Simulation {
            config,
            benchmark,
            seed,
            open_loop: false,
        }
    }

    /// Switches issue pacing to open-loop: requests become eligible at
    /// their absolute `available_at` cycles (external arrivals, as in
    /// inference serving) instead of replaying compute gaps relative to
    /// the previous issue. Queueing delay from saturated issue slots then
    /// shows up in [`RunReport::latency`] rather than shifting arrivals.
    #[must_use]
    pub fn with_open_loop(mut self) -> Self {
        self.open_loop = true;
        self
    }

    /// Runs the workload with `per_gpu` remote requests per GPU and
    /// returns the collected metrics.
    #[must_use]
    pub fn run_for_requests(&self, per_gpu: usize) -> RunReport {
        let model = TrafficModel::new(self.benchmark, self.config.gpu_count, self.seed);
        let mut queues: BTreeMap<NodeId, VecDeque<Request>> = BTreeMap::new();
        for gpu in 1..=self.config.gpu_count {
            let node = NodeId::gpu(gpu);
            queues.insert(node, model.generate_for(node, per_gpu).into());
        }
        self.run_requests(queues)
    }

    /// Runs an explicit request stream (grouped per requester): the
    /// serving, timeline and leakage-phase experiments replay generated
    /// traces through it.
    #[must_use]
    pub fn run_trace(&self, requests: Vec<Request>) -> RunReport {
        let mut queues: BTreeMap<NodeId, VecDeque<Request>> = BTreeMap::new();
        for r in requests {
            queues.entry(r.requester).or_default().push_back(r);
        }
        for q in queues.values_mut() {
            q.make_contiguous().sort_by_key(|r| r.available_at);
        }
        self.run_requests(queues)
    }

    fn secure(&self) -> bool {
        self.config.security.scheme != OtpSchemeKind::Unsecure
    }

    #[allow(clippy::too_many_lines)]
    fn run_requests(&self, queues: BTreeMap<NodeId, VecDeque<Request>>) -> RunReport {
        let cfg = &self.config;
        let wire = mgpu_secure::protocol::WireFormat::default();
        let ack = wire.ack_message();
        let mut fabric = Topology::new(cfg);
        let mut hbm: DenseNodeMap<Hbm> = NodeId::all(cfg.gpu_count)
            .map(|n| (n, Hbm::new(512, cfg.dram_latency)))
            .collect();
        // One secure NIC per node; an unsecure baseline has none, and no
        // block of it carries a MAC, so nothing asks for an ACK window.
        let mut nics: DenseNodeMap<SecureNic> = if self.secure() {
            NodeId::all(cfg.gpu_count)
                .map(|n| (n, SecureNic::new(n, cfg)))
                .collect()
        } else {
            DenseNodeMap::new()
        };
        // Adversarial runs thread every protected crossing through the
        // functional wire harness, which injects seeded faults and checks
        // that a defense catches each one.
        let mut harness = (self.secure() && cfg.adversary.enabled).then(|| WireHarness::new(cfg));

        // The run's tables get their exact final size up front: one
        // `pending` row, issue time and latency sample per request, one
        // block row per block. Growing them by doubling would touch up to
        // twice the memory, and a heap that shrinks between runs is handed
        // back to the OS and faulted in again by the next one.
        let request_count: usize = queues.values().map(VecDeque::len).sum();
        let block_count: usize = queues
            .values()
            .flatten()
            .map(|r| r.kind.blocks() as usize)
            .sum();

        // Per-GPU in-flight limit: the lower of the hardware MLP cap and
        // the kernel's achievable memory-level parallelism.
        let slots_per_gpu = cfg
            .max_outstanding
            .min(self.benchmark.params().outstanding)
            .max(1);
        let mut pacer = if self.open_loop {
            IssuePacer::open_loop(queues, slots_per_gpu)
        } else {
            IssuePacer::new(queues, slots_per_gpu)
        };

        let mut events: EventQueue<Ev> = EventQueue::new();
        for node in pacer.nodes().collect::<Vec<_>>() {
            events.schedule(Cycle::ZERO, Ev::TryIssue(node));
        }

        // Observability is opt-in and zero-cost when off: every hook below
        // is behind this Option. Sampling aligns with the repartition
        // interval so each sample captures the just-applied allocation.
        let sample_every = cfg.security.dynamic.interval;
        let mut collector = (self.secure() && cfg.observability.enabled)
            .then(|| TimeSeriesCollector::new(sample_every));
        let mut sample_pending = false;
        if collector.is_some() && !events.is_empty() {
            events.schedule(Cycle::ZERO + sample_every, Ev::Sample);
            sample_pending = true;
        }

        // Constant-rate traffic shaping: a periodic tick pads every
        // control VC up to the per-period byte envelope with chaff, so
        // the control traffic a port observer sees is workload- and
        // scheme-independent (as long as the envelope bounds the real
        // metadata rate).
        let shaping = self.secure() && cfg.security.defense.constant_rate;
        let shape_period = cfg.security.defense.shape_period;
        if shaping && !events.is_empty() {
            events.schedule(Cycle::ZERO + shape_period, Ev::ChaffTick);
        }

        let mut pending: Vec<Pending> = Vec::with_capacity(request_count);
        let mut blocks: Vec<Block> = Vec::with_capacity(block_count);
        let mut completion = Cycle::ZERO;
        let mut latency = crate::metrics::LatencyReport::with_capacity(request_count);
        let mut issue_times: Vec<Cycle> = Vec::with_capacity(request_count);
        let mut requests_done = 0u64;
        let mut blocks_done = 0u64;
        let mut acks_sent = 0u64;
        let mut events_processed = 0u64;
        // The batches one `FlushCheck` closes; reused across checks.
        let mut flushed = Vec::new();

        while let Some((now, ev)) = events.pop() {
            events_processed += 1;
            if let Some(col) = collector.as_mut() {
                col.note_event(ev.name());
            }
            match ev {
                Ev::TryIssue(node) => {
                    match pacer.poll(node, now) {
                        Err(Reject::Drained | Reject::AwaitCredit) => {
                            // Drained: nothing left. AwaitCredit: a
                            // completion returns the slot and re-polls.
                        }
                        Err(Reject::NotBefore(avail)) => {
                            // Gap-wakeup dedup (DESIGN.md §10): at most
                            // one wakeup armed per node, none lost.
                            if pacer.arm(node, avail) {
                                events.schedule(avail, Ev::TryIssue(node));
                            }
                        }
                        Ok(request) => {
                            let idx = u32::try_from(pending.len()).expect("request index fits u32");
                            pending.push(Pending {
                                requester: request.requester,
                                owner: request.target,
                                blocks_left: request.kind.blocks(),
                                arrived_at: request.available_at,
                                deadline: request.deadline,
                            });
                            issue_times.push(now);
                            let to_owner = PairId::new(request.requester, request.target);
                            let arrive = fabric.transmit_ctrl(
                                to_owner,
                                now,
                                wire.request,
                                TrafficClass::Data,
                            );
                            events.schedule(arrive, Ev::ReqArrive(idx));
                            // Another request may issue this same cycle.
                            events.schedule(now, Ev::TryIssue(node));
                        }
                    }
                }
                Ev::ReqArrive(idx) => {
                    let req = &pending[idx as usize];
                    let owner = req.owner;
                    let payload = if req.blocks_left > 1 {
                        ByteSize::PAGE
                    } else {
                        ByteSize::CACHELINE
                    };
                    let data_ready = hbm
                        .get_mut(owner)
                        .expect("owner within system")
                        .access(now, payload);
                    events.schedule(data_ready, Ev::DataReady(idx));
                }
                Ev::DataReady(idx) => {
                    let req = &pending[idx as usize];
                    let (owner, requester) = (req.owner, req.requester);
                    let transit = Transit::new(PairId::new(owner, requester));
                    if let Some(nic) = nics.get_mut(owner) {
                        for _ in 0..req.blocks_left {
                            let prep = nic.prepare_send(now, requester);
                            if prep.acks && cfg.security.batching.enabled {
                                if let Some(col) = collector.as_mut() {
                                    col.record_batch_close(now, owner, true);
                                }
                            }
                            let id = push_block(
                                &mut blocks,
                                Block {
                                    req: idx,
                                    acks: prep.acks,
                                    counter: prep.counter,
                                    parts: prep.parts,
                                    transit,
                                },
                            );
                            events.schedule(prep.ready, Ev::BlockEgress(id));
                        }
                        // One pending check per (node, cycle): DESIGN.md §13.
                        if let Some(at) = nic.arm_flush_check(now) {
                            events.schedule(at, Ev::FlushCheck(owner));
                        }
                    } else {
                        let parts = WireParts::of(wire.header + wire.block, TrafficClass::Data);
                        for _ in 0..req.blocks_left {
                            let id = push_block(
                                &mut blocks,
                                Block {
                                    req: idx,
                                    acks: false,
                                    counter: 0,
                                    parts,
                                    transit,
                                },
                            );
                            events.schedule(now, Ev::BlockEgress(id));
                        }
                    }
                }
                Ev::BlockEgress(id) => {
                    let block = &mut blocks[id as usize];
                    let pair = block.transit.pair();
                    // A MAC-carrying block must hold a replay-table entry
                    // until its ACK returns. A full table defers the
                    // release; the returning ACK reschedules the egress.
                    if block.acks {
                        let window = nics.get_mut(pair.src).expect("sender nic").ack_window_mut();
                        if window.admit().is_err() {
                            window.park(id);
                            continue;
                        }
                    }
                    let at = fabric.begin(&mut block.transit, now, &block.parts);
                    events.schedule(at, Ev::BlockIngress(id));
                }
                Ev::BlockIngress(id) => {
                    let block = &mut blocks[id as usize];
                    match fabric.advance(&mut block.transit, now, &block.parts) {
                        HopOutcome::Forwarded { at } => {
                            events.schedule(at, Ev::BlockIngress(id));
                        }
                        HopOutcome::Delivered { at } => {
                            events.schedule(at, Ev::BlockRecv(id));
                        }
                    }
                }
                Ev::BlockRecv(id) => {
                    let block = &blocks[id as usize];
                    let PairId {
                        src: owner,
                        dst: requester,
                    } = block.transit.pair();
                    let usable = if let Some(nic) = nics.get_mut(requester) {
                        if let Some(h) = harness.as_mut() {
                            let tampered = h.on_block(now, owner, requester);
                            if tampered > 0 {
                                fabric.note_tampered_egress(owner, tampered);
                            }
                        }
                        nic.receive(now, owner, block.counter)
                    } else {
                        now
                    };
                    events.schedule(usable, Ev::BlockDone(id));
                }
                Ev::BlockDone(id) => {
                    let block = &blocks[id as usize];
                    let (idx, acks) = (block.req as usize, block.acks);
                    blocks_done += 1;
                    if acks {
                        let pair = PairId::new(pending[idx].requester, pending[idx].owner);
                        send_ack(&mut fabric, &mut events, pair, now, ack, &mut acks_sent);
                    }
                    pending[idx].blocks_left -= 1;
                    if pending[idx].blocks_left == 0 {
                        let requester = pending[idx].requester;
                        completion = completion.max(now);
                        latency.record(
                            pending[idx].arrived_at,
                            issue_times[idx],
                            now,
                            pending[idx].deadline,
                        );
                        requests_done += 1;
                        // The returned slot may let the node issue now,
                        // unless it is drained or waits out a gap.
                        if pacer.complete(requester, now) {
                            events.schedule(now, Ev::TryIssue(requester));
                        }
                    }
                }
                Ev::AckArrive(owner) => {
                    let window = nics.get_mut(owner).expect("owner nic").ack_window_mut();
                    if let Some(id) = window.release() {
                        events.schedule(now, Ev::BlockEgress(id));
                    }
                }
                Ev::FlushCheck(owner) => {
                    // Only a NIC with an open batch arms a flush check.
                    let nic = nics.get_mut(owner).expect("owner nic");
                    nic.flush_due(now, &mut flushed);
                    for dst in flushed.iter().map(|b| b.dst) {
                        if let Some(col) = collector.as_mut() {
                            col.record_batch_close(now, owner, false);
                        }
                        if let Some(h) = harness.as_mut() {
                            let tampered = h.on_flush(now, owner, dst);
                            if tampered > 0 {
                                fabric.note_tampered_egress(owner, tampered);
                            }
                        }
                        // A flushed batch closes: its trailer occupies a
                        // replay-table entry until the batch ACK returns.
                        nic.ack_window_mut().overdraw();
                        let arrive = fabric.transmit_ctrl(
                            PairId::new(owner, dst),
                            now,
                            wire.msg_mac,
                            TrafficClass::Mac,
                        );
                        events.schedule(
                            arrive,
                            Ev::TrailerAck {
                                receiver: dst,
                                owner,
                            },
                        );
                    }
                    if let Some(at) = nic.arm_flush_check(now) {
                        events.schedule(at, Ev::FlushCheck(owner));
                    }
                }
                Ev::TrailerAck { receiver, owner } => {
                    let pair = PairId::new(receiver, owner);
                    send_ack(&mut fabric, &mut events, pair, now, ack, &mut acks_sent);
                }
                Ev::ChaffTick => {
                    shape_topup(&mut fabric, cfg, now);
                    // Keep shaping while real work remains. A queue
                    // holding only the Sample chain means the run is
                    // over — rescheduling then would keep the two
                    // housekeeping chains alive forever.
                    if events.len() > usize::from(sample_pending) {
                        events.schedule(now + shape_period, Ev::ChaffTick);
                    }
                }
                Ev::Sample => {
                    sample_pending = false;
                    let col = collector
                        .as_mut()
                        .expect("Sample only scheduled with collector");
                    // Force interval processing at the boundary so the
                    // sample reflects the boundary allocation (timing-
                    // equivalent to the lazy path — see `timeseries`).
                    for nic in nics.values_mut() {
                        nic.advance(now);
                    }
                    if shaping {
                        // Top up at the boundary too: the quota-based
                        // top-up is idempotent, so whichever of the tick
                        // and the sample pops first at a shared cycle,
                        // the sample sees fully shaped counters.
                        shape_topup(&mut fabric, cfg, now);
                    }
                    if let Some(h) = harness.as_mut() {
                        for ev in h.take_trace() {
                            col.record_security_event(&ev);
                        }
                    }
                    col.sample(now, &nics, &fabric);
                    // Keep pace with the run, but never outlive it: a
                    // Sample is never the only event left in the queue.
                    if !events.is_empty() {
                        events.schedule(now + sample_every, Ev::Sample);
                        sample_pending = true;
                    }
                }
            }
        }

        // ACK-window conservation and batch close: once the queue drains,
        // every ACK has come home, so each window is whole again and no
        // block is left parked behind it; and every batch has closed,
        // because an open batch always keeps a `FlushCheck` pending at or
        // before its deadline.
        debug_assert!(
            nics.values().all(|nic| nic.ack_window().free()
                == i64::from(cfg.security.ack_table_entries)
                && nic.ack_window().parked_len() == 0
                && nic.next_flush_deadline().is_none()),
            "ACK window leaked credits, stranded a parked block or left a batch open at drain"
        );

        // Any batches still open in the harness (its functional batcher
        // may lag the NIC's timing batcher by a partial batch) flush now.
        if let Some(h) = harness.as_mut() {
            for (src, tampered) in h.finish(completion) {
                fabric.note_tampered_egress(src, tampered);
            }
        }

        // Detections after the last boundary sample still reach the trace.
        if let Some(col) = collector.as_mut() {
            if let Some(h) = harness.as_mut() {
                for ev in h.take_trace() {
                    col.record_security_event(&ev);
                }
            }
        }

        let (otp, pads_issued, mean_batch_occupancy) = otp_summary(nics.values());
        latency.finish();

        RunReport {
            benchmark: self.benchmark,
            scheme: cfg.security.scheme,
            batching: cfg.security.batching.enabled,
            total_cycles: completion.saturating_since(Cycle::ZERO),
            requests: requests_done,
            blocks: blocks_done,
            traffic: fabric.traffic_totals(),
            otp,
            acks_sent,
            pads_issued,
            mean_batch_occupancy,
            latency,
            tampered_crossings: fabric.tampered_total(),
            security: harness.map(WireHarness::into_log).unwrap_or_default(),
            timeline: collector.map(TimeSeriesCollector::finish),
            events_processed,
        }
    }
}

/// Sends one ACK over `pair`'s control VC, receiver to sender. Its arrival
/// frees a replay-table entry at the sender. Per-block and per-batch ACKs
/// both go this way.
fn send_ack(
    fabric: &mut Topology,
    events: &mut EventQueue<Ev>,
    pair: PairId,
    now: Cycle,
    ack: ByteSize,
    acks_sent: &mut u64,
) {
    let back = fabric.transmit_ctrl(pair, now, ack, TrafficClass::Ack);
    *acks_sent += 1;
    events.schedule(back, Ev::AckArrive(pair.dst));
}

/// Appends `block` to the per-block table and returns its id.
fn push_block(blocks: &mut Vec<Block>, block: Block) -> BlockId {
    let id = BlockId::try_from(blocks.len()).expect("block id fits u32");
    blocks.push(block);
    id
}

/// Tops every control VC up to the constant-rate quota with chaff: by
/// cycle `k * shape_period`, each directed pair must have carried at
/// least `k * shape_bytes` *and taken at least `k * shape_grants`
/// arbitration grants* on its control VC. Byte counts alone do not
/// close the channel — a co-located observer also sees how many
/// arbitration slots the VC takes, so the deficit is padded as exactly
/// `grant_deficit` chaff messages (each >= 1 byte, the last carrying
/// the byte remainder). Real metadata counts toward both quotas; per
/// period the on-wire channel then shows `max(shape_bytes, real)` bytes
/// in `max(shape_grants, real)` grants — constant, hence
/// workload-independent, whenever the envelope bounds both real rates.
/// Quota-based and read from the VC's own counters, the top-up is
/// idempotent: re-running it at the same cycle books nothing.
///
/// When real traffic exceeds one arm of the envelope (grants at quota
/// but bytes below, or a byte deficit smaller than the grant deficit),
/// the top-up pads as much as it can without overshooting the other
/// arm; identity degrades gracefully and the run is no longer
/// workload-independent — pick a generous envelope.
fn shape_topup(fabric: &mut Topology, cfg: &SystemConfig, now: Cycle) {
    let d = &cfg.security.defense;
    let periods = now.as_u64() / d.shape_period.as_u64();
    let byte_quota = u64::from(d.shape_bytes) * periods;
    let grant_quota = u64::from(d.shape_grants) * periods;
    if periods == 0 {
        return;
    }
    for src in NodeId::all(cfg.gpu_count) {
        for dst in src.peers(cfg.gpu_count) {
            let pair = PairId::new(src, dst);
            let vc = fabric.ctrl(pair);
            let byte_deficit = byte_quota.saturating_sub(vc.served_bytes());
            let grant_deficit = grant_quota.saturating_sub(vc.grants());
            // Each chaff message needs >= 1 byte; never exceed either
            // quota, so the message count is bounded by both deficits.
            let messages = grant_deficit.min(byte_deficit);
            if messages == 0 {
                continue;
            }
            for i in 0..messages {
                let bytes = if i + 1 == messages {
                    byte_deficit - (messages - 1)
                } else {
                    1
                };
                fabric.transmit_ctrl(pair, now, ByteSize::new(bytes), TrafficClass::Chaff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgpu_types::{Direction, TopologyKind};

    fn config(scheme: OtpSchemeKind) -> SystemConfig {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.security.scheme = scheme;
        cfg
    }

    fn run(scheme: OtpSchemeKind, benchmark: Benchmark) -> RunReport {
        Simulation::new(config(scheme), benchmark, 42).run_for_requests(400)
    }

    #[test]
    fn unsecure_run_has_no_metadata_traffic() {
        let r = run(OtpSchemeKind::Unsecure, Benchmark::Atax);
        assert_eq!(r.traffic.metadata().as_u64(), 0);
        assert_eq!(r.acks_sent, 0);
        assert_eq!(r.otp.total(Direction::Send), 0);
        assert!(r.total_cycles.as_u64() > 0);
        assert_eq!(r.requests, 4 * 400);
    }

    #[test]
    fn secure_run_is_slower_and_heavier() {
        let base = run(OtpSchemeKind::Unsecure, Benchmark::Spmv);
        let sec = run(OtpSchemeKind::Private, Benchmark::Spmv);
        assert!(sec.total_cycles > base.total_cycles);
        assert!(sec.traffic.total() > base.traffic.total());
        assert!(sec.traffic.metadata().as_u64() > 0);
        assert!(sec.acks_sent > 0);
        assert_eq!(sec.otp.total(Direction::Send), sec.blocks);
        assert_eq!(sec.otp.total(Direction::Recv), sec.blocks);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(OtpSchemeKind::Cached, Benchmark::Fft);
        let b = run(OtpSchemeKind::Cached, Benchmark::Fft);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.traffic.total(), b.traffic.total());
    }

    #[test]
    fn shared_is_slowest_scheme() {
        let private = run(OtpSchemeKind::Private, Benchmark::PageRank);
        let shared = run(OtpSchemeKind::Shared, Benchmark::PageRank);
        assert!(
            shared.total_cycles >= private.total_cycles,
            "shared {} < private {}",
            shared.total_cycles,
            private.total_cycles
        );
    }

    #[test]
    fn batching_reduces_metadata_traffic_and_acks() {
        let mut cfg = config(OtpSchemeKind::Dynamic);
        let plain =
            Simulation::new(cfg.clone(), Benchmark::MatrixTranspose, 42).run_for_requests(400);
        cfg.security.batching.enabled = true;
        let batched = Simulation::new(cfg, Benchmark::MatrixTranspose, 42).run_for_requests(400);
        assert!(
            batched.traffic.metadata() < plain.traffic.metadata(),
            "batched {} >= plain {}",
            batched.traffic.metadata(),
            plain.traffic.metadata()
        );
        assert!(batched.acks_sent < plain.acks_sent);
        assert!(batched.mean_batch_occupancy > 1.0);
    }

    /// The engine schedules no event whose pop can change nothing: one
    /// pending `FlushCheck` per (node, cycle), and no completion poll
    /// for a drained node or one whose wakeup is armed for later. Before
    /// those rules this cell ran 68 checks per flushed batch and exactly
    /// 3 `TryIssue` per request; it now runs 1.83 and 2.24.
    #[test]
    fn polls_stay_proportional_to_work() {
        let mut cfg = crate::runner::configs::batching(&SystemConfig::paper_4gpu(), 4);
        cfg.observability = mgpu_types::ObservabilityConfig::enabled();
        let r = Simulation::new(cfg, Benchmark::Spmv, 42).run_for_requests(1_000);
        let counts = &r.timeline.as_ref().expect("observed run").scope_counts;
        // Each batch closed by flush sends one trailer, ACKed once.
        let flushed = counts["TrailerAck"];
        assert!(flushed > 0, "the cell closes batches by flush");
        assert!(
            counts["FlushCheck"] <= 2 * flushed,
            "{} flush checks for {flushed} flushed batches",
            counts["FlushCheck"]
        );
        assert!(
            2 * counts["TryIssue"] <= 5 * r.requests,
            "{} issue polls for {} requests",
            counts["TryIssue"],
            r.requests
        );
    }

    #[test]
    fn metadata_ablation_sits_between_unsecure_and_full() {
        let base = run(OtpSchemeKind::Unsecure, Benchmark::Syr2k);
        let mut cfg = config(OtpSchemeKind::Private);
        cfg.security.charge_metadata_traffic = false;
        let commu_only = Simulation::new(cfg, Benchmark::Syr2k, 42).run_for_requests(400);
        let full = run(OtpSchemeKind::Private, Benchmark::Syr2k);
        assert!(commu_only.total_cycles >= base.total_cycles);
        assert!(full.total_cycles >= commu_only.total_cycles);
        assert_eq!(commu_only.traffic.metadata().as_u64(), 0);
    }

    #[test]
    fn page_migrations_move_64_blocks() {
        let r = run(OtpSchemeKind::Unsecure, Benchmark::FloydWarshall);
        assert!(
            r.blocks > r.requests + 60,
            "blocks {} requests {}",
            r.blocks,
            r.requests
        );
    }

    #[test]
    fn run_trace_accepts_explicit_requests() {
        let cfg = config(OtpSchemeKind::Private);
        let reqs = vec![
            Request::direct(Cycle::new(0), NodeId::gpu(1), NodeId::gpu(2)),
            Request::direct(Cycle::new(5), NodeId::gpu(2), NodeId::CPU),
            Request::migration(Cycle::new(9), NodeId::gpu(3), NodeId::gpu(1)),
        ];
        let r = Simulation::new(cfg, Benchmark::Atax, 0).run_trace(reqs);
        assert_eq!(r.requests, 3);
        assert_eq!(r.blocks, 1 + 1 + 64);
    }

    #[test]
    fn a_shuffled_trace_runs_as_the_sorted_one() {
        let cfg = config(OtpSchemeKind::Dynamic);
        let model = TrafficModel::new(Benchmark::Spmv, cfg.gpu_count, 42);
        let mut sorted: Vec<Request> = (1..=cfg.gpu_count)
            .flat_map(|g| model.generate_for(NodeId::gpu(g), 300))
            .collect();
        // A queue keeps same-cycle requests in trace order, which a
        // shuffle would change: keep one request per requester and cycle.
        sorted.dedup_by_key(|r| (r.requester, r.available_at));
        // Fisher-Yates over a xorshift sequence: requesters interleave,
        // and every queue arrives out of order.
        let mut shuffled = sorted.clone();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, (x % (i as u64 + 1)) as usize);
        }
        assert_ne!(shuffled, sorted);
        let requests = sorted.len() as u64;
        let sim = Simulation::new(cfg, Benchmark::Spmv, 42);
        let (a, b) = (sim.run_trace(shuffled), sim.run_trace(sorted));
        assert_eq!(a.requests, requests);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn empty_trace_is_fine() {
        let cfg = config(OtpSchemeKind::Private);
        let r = Simulation::new(cfg, Benchmark::Atax, 0).run_trace(Vec::new());
        assert_eq!(r.requests, 0);
        assert_eq!(r.total_cycles.as_u64(), 0);
    }

    #[test]
    fn request_latency_includes_round_trip() {
        let cfg = config(OtpSchemeKind::Unsecure);
        let reqs = vec![Request::direct(
            Cycle::new(0),
            NodeId::gpu(1),
            NodeId::gpu(2),
        )];
        let r = Simulation::new(cfg.clone(), Benchmark::Atax, 0).run_trace(reqs);
        // request ser 1 + latency 100 + dram 200+1 + egress 2+100 + ingress 2.
        let expected = 1 + 100 + 201 + 2 + 100 + 2;
        assert_eq!(r.total_cycles.as_u64(), expected);
    }

    #[test]
    fn fault_free_run_logs_no_security_events() {
        let r = run(OtpSchemeKind::Private, Benchmark::Atax);
        assert!(r.security.is_clean());
        assert_eq!(r.tampered_crossings, 0);
    }

    #[test]
    fn adversarial_run_detects_every_injection() {
        use mgpu_types::AdversaryConfig;
        for batching in [false, true] {
            let mut cfg = config(OtpSchemeKind::Dynamic);
            cfg.security.batching.enabled = batching;
            cfg.adversary = AdversaryConfig::active(100);
            let r = Simulation::new(cfg, Benchmark::MatrixTranspose, 42).run_for_requests(300);
            let log = &r.security;
            assert!(log.total_injected() > 0, "batching={batching}");
            assert_eq!(log.total_missed(), 0, "batching={batching}: {log:?}");
            assert_eq!(log.false_positives(), 0, "batching={batching}: {log:?}");
            assert!((log.detection_rate() - 1.0).abs() < f64::EPSILON);
            assert!(r.tampered_crossings > 0);
            assert!(!log.pair_detections().is_empty());
        }
    }

    #[test]
    fn adversarial_runs_are_deterministic() {
        use mgpu_types::AdversaryConfig;
        let mut cfg = config(OtpSchemeKind::Dynamic);
        cfg.security.batching.enabled = true;
        cfg.adversary = AdversaryConfig::active(150);
        let a = Simulation::new(cfg.clone(), Benchmark::Spmv, 42).run_for_requests(250);
        let b = Simulation::new(cfg, Benchmark::Spmv, 42).run_for_requests(250);
        assert_eq!(a.security, b.security);
        assert_eq!(a.tampered_crossings, b.tampered_crossings);
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn adversary_does_not_change_timing() {
        use mgpu_types::AdversaryConfig;
        let clean = run(OtpSchemeKind::Private, Benchmark::Spmv);
        let mut cfg = config(OtpSchemeKind::Private);
        cfg.adversary = AdversaryConfig::active(200);
        let attacked = Simulation::new(cfg, Benchmark::Spmv, 42).run_for_requests(400);
        // The attacker rewrites bytes in flight: detection is a security
        // outcome, not a performance one.
        assert_eq!(clean.total_cycles, attacked.total_cycles);
        assert_eq!(clean.traffic.total(), attacked.traffic.total());
    }

    #[test]
    fn multi_hop_topologies_run_end_to_end() {
        for kind in [TopologyKind::Ring, TopologyKind::Switch { radix: 4 }] {
            let mut cfg = config(OtpSchemeKind::Dynamic);
            cfg.gpu_count = 8;
            cfg.topology = kind;
            let r = Simulation::new(cfg, Benchmark::Spmv, 42).run_for_requests(150);
            assert_eq!(r.requests, 8 * 150, "{kind}");
            assert!(r.traffic.metadata().as_u64() > 0, "{kind}");
            assert!(r.security.is_clean(), "{kind}");
        }
    }

    #[test]
    fn multi_hop_amplifies_traffic_and_slows_completion() {
        let mut fc = config(OtpSchemeKind::Private);
        fc.gpu_count = 8;
        let flat = Simulation::new(fc.clone(), Benchmark::Spmv, 42).run_for_requests(150);
        let mut ring = fc.clone();
        ring.topology = TopologyKind::Ring;
        let ringed = Simulation::new(ring, Benchmark::Spmv, 42).run_for_requests(150);
        assert!(
            ringed.traffic.total() > flat.traffic.total(),
            "ring {} <= fc {}",
            ringed.traffic.total(),
            flat.traffic.total()
        );
        assert!(
            ringed.total_cycles >= flat.total_cycles,
            "ring {} < fc {}",
            ringed.total_cycles,
            flat.total_cycles
        );
    }

    #[test]
    fn adversarial_detection_holds_on_multi_hop_fabrics() {
        use mgpu_types::AdversaryConfig;
        let mut cfg = config(OtpSchemeKind::Dynamic);
        cfg.gpu_count = 8;
        cfg.topology = TopologyKind::Ring;
        cfg.security.batching.enabled = true;
        cfg.adversary = AdversaryConfig::active(100);
        let r = Simulation::new(cfg, Benchmark::MatrixTranspose, 42).run_for_requests(200);
        assert!(r.security.total_injected() > 0);
        assert_eq!(r.security.total_missed(), 0, "{:?}", r.security);
        assert_eq!(r.security.false_positives(), 0);
    }

    #[test]
    #[should_panic(expected = "valid system configuration")]
    fn invalid_config_panics() {
        let mut cfg = SystemConfig::paper_4gpu();
        cfg.gpu_count = 0;
        let _ = Simulation::new(cfg, Benchmark::Atax, 0);
    }
}
