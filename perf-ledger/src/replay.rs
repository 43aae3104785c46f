//! The traced per-layer ledger.
//!
//! One representative cell per workload runs untraced (its wall time) and
//! then traced, with a trace capacity large enough that no record is
//! dropped. The recorded operations are replayed into a fresh instance of
//! each layer through its public functions, timed from out here:
//!
//! | layer        | records replayed           | into                                   |
//! |--------------|----------------------------|----------------------------------------|
//! | `event`      | wheel schedule/cancel/pop  | `EventQueue::{schedule_at,cancel,pop}` |
//! | `cpu-model`  | `cpu_span`                 | `Cpu::execute_tagged`                  |
//! | `netsim`     | `seg_tx`/`seg_retx` packets| `BottleneckLink::send_flow`            |
//! | `arena`      | `seg_tx`, `ack_rx`, `rto`  | `FlowArena::{on_sent,on_ack,on_rto}`   |
//! | `congestion` | `ack_rx`, `rto`            | `CcKind::build(..)`: `on_ack`, loss,   |
//! |              |                            | recovery exit and RTO callbacks        |
//!
//! The arena sees losses inferred from the ACK records as SACK holes, so
//! its loss marking, recovery and retransmission planning run (see
//! `shape`).
//! A layer's self time is its replay's ns/op times the traced cell's exact
//! op count (from `SimResult::counters` or the trace); what the layers do
//! not explain is the residual, charged to the stack's event loop.
//! Replays that cannot reproduce the cell exactly (the CPU governor, the
//! access links' netem delay, which packets an ACK covered) report how
//! close they came.

use crate::pass::PassResult;
use crate::workload::{representative, Scale, Workload};
use congestion::master::Master;
use congestion::{AckSample, CcKind, CongestionControl, LossEvent};
use cpu_model::Cpu;
use netsim::{wire_bytes, BottleneckLink, SendOutcome, MSS};
use sim_core::trace::{TraceKind, TraceLog};
use sim_core::{EventQueue, SimDuration, SimRng, SimTime, TimerToken};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;
use tcp_sim::receiver::{AckInfo, Receiver};
use tcp_sim::sender::SendPlan;
use tcp_sim::seq::PktSeq;
use tcp_sim::{FlowArena, FlowId, SimConfig, SimResult, StackSim};

/// Untraced runs of the cell whose median is its wall time, and runs of
/// each layer replay whose median is its time: single runs of the
/// millisecond-scale replays moved by tens of percent between runs.
const RUNS: usize = 3;

/// Doublings of the trace capacity tried before giving up on a
/// drop-free trace.
const CAPACITY_TRIES: u32 = 4;

/// The cell run untraced and traced.
pub struct TracedCell {
    /// The untraced result.
    pub result: SimResult,
    /// The merged trace of the traced run.
    pub log: TraceLog,
    /// Median wall seconds of the untraced runs.
    pub untraced_s: f64,
    /// Wall seconds of the traced run, trace collection included.
    pub traced_s: f64,
    /// Whether the traced run's result equals the untraced one byte for
    /// byte (tracing must not change simulation behaviour).
    pub identical: bool,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Run `config` untraced, then traced at a capacity that drops nothing.
pub fn trace_cell(config: &SimConfig) -> TracedCell {
    let mut times = Vec::with_capacity(RUNS);
    let mut result = None;
    for _ in 0..RUNS {
        let t0 = Instant::now();
        let res = StackSim::new(config.clone()).run();
        times.push(t0.elapsed().as_secs_f64());
        result = Some(res);
    }
    let result = result.expect("at least one untraced run");
    let c = &result.counters;
    // Every domain (wheel, stack, each CPU) gets its own ring of this
    // size; the wheel's alone needs one record per schedule, cancel and
    // pop. Rings are allocated lazily by the OS, so unused capacity costs
    // address space only.
    let mut capacity = 2
        * (c.get("wheel_scheduled") + c.get("wheel_popped") + c.get("wheel_cancelled")) as usize
        + 4096;
    for _ in 0..CAPACITY_TRIES {
        let mut sim = StackSim::new(config.clone());
        sim.enable_tracing(capacity);
        let t0 = Instant::now();
        let (traced, log) = sim.run_traced();
        let traced_s = t0.elapsed().as_secs_f64();
        if log.dropped == 0 {
            let json = |r: &SimResult| serde_json::to_string(r).expect("SimResult serializes");
            return TracedCell {
                identical: json(&traced) == json(&result),
                result,
                log,
                untraced_s: median(times),
                traced_s,
            };
        }
        capacity *= 2;
    }
    panic!("trace still dropped records at capacity {capacity}");
}

/// One recorded timer-wheel operation. Events are named by their
/// schedule ordinal, so a replay can check pops without token bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WheelOp {
    /// Schedule the next ordinal at this deadline.
    Schedule(SimTime),
    /// Cancel the event with this ordinal.
    Cancel(u32),
    /// Pop; the recorded run popped this ordinal.
    Pop(u32),
}

/// The wheel operations of a trace, in recorded order, and the number of
/// pops whose token was never scheduled in the trace.
pub fn wheel_ops(log: &TraceLog) -> (Vec<WheelOp>, u64) {
    let mut ordinal: HashMap<u64, u32> = HashMap::new();
    let mut next = 0u32;
    let mut ops = Vec::new();
    let mut unknown = 0u64;
    for r in &log.events {
        match r.kind {
            TraceKind::WheelSchedule => {
                ordinal.insert(r.b, next);
                ops.push(WheelOp::Schedule(SimTime::from_nanos(r.a)));
                next += 1;
            }
            TraceKind::WheelCancel | TraceKind::WheelPop => match ordinal.remove(&r.a) {
                Some(id) if r.kind == TraceKind::WheelCancel => ops.push(WheelOp::Cancel(id)),
                Some(id) => ops.push(WheelOp::Pop(id)),
                None => unknown += 1,
            },
            _ => {}
        }
    }
    (ops, unknown)
}

/// A timed replay: operations replayed, host seconds, and mismatches
/// against the recording (layer-specific meaning).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    /// Operations replayed.
    pub ops: u64,
    /// Host seconds for all of them.
    pub seconds: f64,
    /// Replayed outcomes that differ from the recording.
    pub mismatches: u64,
}

/// Run a replay [`RUNS`] times; keep the run with the median time. The
/// replays are deterministic, so every run returns the same extras.
fn median_run<X>(mut replay: impl FnMut() -> (Timed, X)) -> (Timed, X) {
    let mut runs: Vec<(Timed, X)> = (0..RUNS).map(|_| replay()).collect();
    runs.sort_by(|a, b| a.0.seconds.total_cmp(&b.0.seconds));
    runs.swap_remove(RUNS / 2)
}

impl Timed {
    /// Host nanoseconds per replayed operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.seconds * 1e9 / self.ops as f64
        }
    }
}

/// Replay wheel operations into a fresh `EventQueue`. A mismatch is a pop
/// that delivered another event than the recording, or a cancel that found
/// nothing pending.
pub fn replay_wheel(ops: &[WheelOp]) -> Timed {
    let schedules = ops
        .iter()
        .filter(|o| matches!(o, WheelOp::Schedule(_)))
        .count();
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut tokens: Vec<TimerToken> = Vec::with_capacity(schedules);
    let mut mismatches = 0u64;
    let t0 = Instant::now();
    for op in ops {
        match *op {
            WheelOp::Schedule(at) => {
                let id = tokens.len() as u32;
                tokens.push(queue.schedule_at(at, id));
            }
            WheelOp::Cancel(id) => {
                if !queue.cancel(tokens[id as usize]) {
                    mismatches += 1;
                }
            }
            WheelOp::Pop(id) => {
                if queue.pop().map(|e| e.event) != Some(id) {
                    mismatches += 1;
                }
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    black_box(&queue);
    Timed {
        ops: ops.len() as u64,
        seconds,
        mismatches,
    }
}

/// One recorded CPU span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: SimTime,
    cycles: u64,
    category: &'static str,
    end_ns: u64,
}

/// The CPU spans of a trace, in recorded order.
pub fn cpu_spans(log: &TraceLog) -> Vec<Span> {
    log.events
        .iter()
        .filter(|r| r.kind == TraceKind::CpuSpan)
        .map(|r| Span {
            start: r.at,
            cycles: r.b,
            category: log.string(r.conn as u64),
            end_ns: r.a,
        })
        .collect()
}

/// The CPU tier whose model the replay uses: the cell's, or device 0's in
/// a fleet (spans do not record their device).
fn replay_tier(config: &SimConfig) -> cpu_model::CpuConfig {
    match &config.fleet {
        Some(fleet) => fleet.devices[0].cpu,
        None => config.cpu_config,
    }
}

/// Replay spans into one fresh `Cpu`, each made ready at its recorded
/// start. A mismatch is a span whose replayed end differs from the
/// recorded end (the governor's frequency changes and, in fleets, other
/// devices' spans are not reproduced). Also returns the replayed cycles.
pub fn replay_cpu(config: &SimConfig, spans: &[Span]) -> (Timed, u64) {
    let mut cpu = Cpu::new(
        config.device.topology.clone(),
        config.device.policy(replay_tier(config)),
    );
    let mut mismatches = 0u64;
    let t0 = Instant::now();
    for s in spans {
        let end = cpu.execute_tagged(s.start, s.cycles, s.category);
        if end.as_nanos() != s.end_ns {
            mismatches += 1;
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    (
        Timed {
            ops: spans.len() as u64,
            seconds,
            mismatches,
        },
        black_box(cpu.total_cycles()),
    )
}

/// One recorded stack operation the arena and link replays consume.
#[derive(Debug, Clone, Copy)]
enum StackOp {
    /// A socket buffer of `pkts` packets left connection `conn`.
    Tx {
        /// When.
        at: SimTime,
        /// Connection.
        conn: u32,
        /// Packets.
        pkts: u64,
    },
    /// An ACK for `conn` newly delivered `pkts` packets.
    Ack {
        /// When processing finished.
        at: SimTime,
        /// Connection.
        conn: u32,
        /// Newly delivered packets.
        pkts: u64,
        /// The RTT sample, if the ACK carried one.
        rtt: Option<SimDuration>,
    },
    /// A retransmission timeout fired on `conn`.
    Rto {
        /// When processing finished.
        at: SimTime,
        /// Connection.
        conn: u32,
    },
}

/// The stack operations of a trace, in recorded order.
fn stack_ops(log: &TraceLog) -> Vec<StackOp> {
    log.events
        .iter()
        .filter_map(|r| match r.kind {
            TraceKind::SegTx | TraceKind::SegRetx => Some(StackOp::Tx {
                at: r.at,
                conn: r.conn,
                pkts: r.a,
            }),
            TraceKind::AckRx => Some(StackOp::Ack {
                at: r.at,
                conn: r.conn,
                pkts: r.a / MSS,
                rtt: (r.b > 0).then(|| SimDuration::from_nanos(r.b)),
            }),
            TraceKind::RtoFire => Some(StackOp::Rto {
                at: r.at,
                conn: r.conn,
            }),
            _ => None,
        })
        .collect()
}

/// Device index of every connection (all zeros without a fleet).
fn device_of(config: &SimConfig) -> Vec<usize> {
    match &config.fleet {
        Some(fleet) => fleet
            .devices
            .iter()
            .enumerate()
            .flat_map(|(d, spec)| std::iter::repeat_n(d, spec.connections))
            .collect(),
        None => vec![0; config.connections],
    }
}

/// The congestion controller connection `conn` runs.
fn cc_of(config: &SimConfig, devices: &[usize], conn: usize) -> CcKind {
    match &config.fleet {
        Some(fleet) => fleet.devices[devices[conn]].cc,
        None => config.cc,
    }
}

/// Replay every transmitted packet into fresh links built as the
/// simulator builds them: each device's access link (same RNG split for
/// variable-rate media) and, in a fleet, the shared uplink at the access
/// arrival instant. Packets are offered at the send record's time (the
/// simulator offers them after the CPU and netem delays). Returns the
/// timing (ops = `send_flow` calls) and the replayed drops.
fn replay_link(config: &SimConfig, ops: &[StackOp]) -> (Timed, u64) {
    let devices = device_of(config);
    let rng = SimRng::new(config.seed);
    let paths: Vec<netsim::PathConfig> = match &config.fleet {
        Some(fleet) => fleet
            .devices
            .iter()
            .map(|spec| {
                let mut path = spec.media.path_config();
                path.forward.propagation += spec.extra_rtt;
                path
            })
            .collect(),
        None => vec![config.path.clone()],
    };
    let mut links: Vec<BottleneckLink> = paths
        .iter()
        .enumerate()
        .map(|(d, path)| match &path.forward_var {
            Some(var) => BottleneckLink::with_variable_rate(
                path.forward.clone(),
                var.clone(),
                rng.split(1 + 4 * d as u64),
            ),
            None => BottleneckLink::new(path.forward.clone()),
        })
        .collect();
    let mut shared = config
        .fleet
        .as_ref()
        .and_then(|f| f.shared.clone())
        .map(BottleneckLink::new);
    let wire = wire_bytes(MSS);
    let (mut sends, mut drops) = (0u64, 0u64);
    let t0 = Instant::now();
    for op in ops {
        let StackOp::Tx { at, conn, pkts } = *op else {
            continue;
        };
        let link = &mut links[devices[conn as usize]];
        for _ in 0..pkts {
            sends += 1;
            match link.send_flow(at, wire, conn as u64) {
                SendOutcome::Dropped { .. } => drops += 1,
                SendOutcome::Accepted { arrival, .. } => {
                    if let Some(shared) = shared.as_mut() {
                        sends += 1;
                        if let SendOutcome::Dropped { .. } =
                            shared.send_flow(arrival, wire, conn as u64)
                        {
                            drops += 1;
                        }
                    }
                }
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    black_box((&links, &shared));
    (
        Timed {
            ops: sends,
            seconds,
            mismatches: 0,
        },
        drops,
    )
}

/// A fresh arena with the cell's flows and controllers.
fn new_arena(config: &SimConfig) -> FlowArena {
    let devices = device_of(config);
    FlowArena::new(config.connections, MSS, config.pacing, |i| {
        Master::new(cc_of(config, &devices, i).build(MSS), config.master)
    })
}

/// One call of the timed arena replay, its inputs fixed by [`shape`].
#[derive(Debug, Clone, Copy)]
enum ArenaOp {
    /// `plan_send_into` up to `pkts` packets, then `on_sent`.
    Send {
        /// When.
        at: SimTime,
        /// Connection.
        conn: u32,
        /// Packets the recorded send carried.
        pkts: u64,
    },
    /// `on_ack` of a cumulative ACK with SACK blocks `sacks[lo..hi]` of
    /// [`Shaped::sacks`].
    Ack {
        /// When.
        at: SimTime,
        /// Connection.
        conn: u32,
        /// Cumulative ACK.
        cum: PktSeq,
        /// Range of this ACK's SACK blocks.
        sacks: (u32, u32),
    },
    /// `on_rto`.
    Rto {
        /// Connection.
        conn: u32,
    },
}

/// One congestion-controller call, in the simulator's order for its ACK.
#[derive(Debug, Clone, Copy)]
enum CcOp {
    /// `on_loss_event` (recovery entered).
    Loss(LossEvent),
    /// `on_ack` (the ACK newly delivered data).
    Ack(AckSample),
    /// `on_recovery_exit`.
    RecoveryExit(SimTime),
    /// `on_rto`.
    Rto {
        /// When.
        now: SimTime,
        /// Packets in flight after the RTO marked its losses.
        inflight: u64,
    },
}

/// What the shaped arena replay did, printed next to the traced cell's
/// counts by [`Ledger::fidelity`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ArenaCounts {
    /// Packets sent by plans that were retransmissions.
    pub retx_pkts: u64,
    /// Packets `on_ack` newly marked lost (SACK/RACK loss marking).
    pub newly_lost: u64,
    /// Packets `on_rto` marked lost.
    pub rto_marked_lost: u64,
    /// ACKs that entered fast recovery.
    pub recovery_entries: u64,
    /// ACKs that left fast recovery.
    pub recovery_exits: u64,
    /// ACKs that newly delivered data (CC `on_ack` calls).
    pub cc_acks: u64,
}

/// The arena and CC replays' inputs, built by one untimed pass.
struct Shaped {
    arena: Vec<ArenaOp>,
    sacks: Vec<(PktSeq, PktSeq)>,
    cc: Vec<(u32, CcOp)>,
    counts: ArenaCounts,
}

/// Drive a fresh arena through the recorded sends, ACKs and RTOs, with one
/// `Receiver` per connection. The trace does not name the sequences a
/// send carried, an ACK acknowledged or the link dropped, so the arena
/// plans its own sends and losses are inferred from the ACK records: an
/// ACK that newly delivered `n` packets with an RTT sample delivered its
/// connection's packets sent up to `at - rtt`, at most `n` of them, and
/// the older ones it skipped were lost; an ACK without a sample hands the
/// receiver the next `n`. The ACK is the receiver's cumulative ACK plus
/// SACK blocks, so the holes reach the scoreboard, which marks losses,
/// enters and leaves recovery and plans retransmissions. Records every
/// arena call and, as the simulator makes them, every CC call.
fn shape(config: &SimConfig, ops: &[StackOp]) -> Shaped {
    let mut arena = new_arena(config);
    let mut receivers = vec![Receiver::new(); arena.len()];
    // Packets on their way to each receiver: (sequence, sent at).
    let mut in_flight: Vec<VecDeque<(u64, SimTime)>> = vec![VecDeque::new(); arena.len()];
    let mut plan = SendPlan::default();
    let mut ack = AckInfo {
        cum: PktSeq(0),
        sacks: Vec::new(),
    };
    let mut s = Shaped {
        arena: Vec::with_capacity(ops.len()),
        sacks: Vec::new(),
        cc: Vec::new(),
        counts: ArenaCounts::default(),
    };
    for op in ops {
        match *op {
            StackOp::Tx { at, conn, pkts } => {
                let (f, c) = (FlowId(conn), conn as usize);
                s.arena.push(ArenaOp::Send { at, conn, pkts });
                if !arena.plan_send_into(f, u64::MAX, pkts, &mut plan) {
                    continue;
                }
                arena.on_sent(f, &plan, at, false);
                if plan.is_retx {
                    s.counts.retx_pkts += plan.packets();
                }
                let seqs = plan.runs.iter().flat_map(|&(lo, hi)| lo.0..hi.0);
                in_flight[c].extend(seqs.map(|seq| (seq, at)));
            }
            StackOp::Ack {
                at,
                conn,
                pkts,
                rtt,
            } => {
                let (f, c) = (FlowId(conn), conn as usize);
                let (receiver, queue) = (&mut receivers[c], &mut in_flight[c]);
                if let Some(rtt) = rtt {
                    // The sample comes from the newest packet the ACK
                    // delivered, sent at `at - rtt`. A flow's packets
                    // arrive in send order, so of those sent before it,
                    // all but `pkts - 1` were lost.
                    let newest = at - rtt;
                    let older = queue.iter().take_while(|p| p.1 < newest).count();
                    queue.drain(..older.saturating_sub((pkts as usize).saturating_sub(1)));
                }
                let target = receiver.total_received() + pkts;
                while receiver.total_received() < target {
                    let Some((seq, _)) = queue.pop_front() else {
                        break;
                    };
                    receiver.on_data(PktSeq(seq), PktSeq(seq + 1));
                }
                receiver.build_ack_into(&mut ack);
                let lo = s.sacks.len() as u32;
                s.sacks.extend_from_slice(&ack.sacks);
                s.arena.push(ArenaOp::Ack {
                    at,
                    conn,
                    cum: ack.cum,
                    sacks: (lo, s.sacks.len() as u32),
                });
                let out = arena.on_ack(f, &ack, at);
                let board = arena.scoreboard(f);
                s.counts.newly_lost += out.newly_lost;
                if out.recovery_entered {
                    s.counts.recovery_entries += 1;
                    s.cc.push((
                        conn,
                        CcOp::Loss(LossEvent {
                            now: at,
                            inflight: board.packets_in_flight(),
                            lost: out.newly_lost,
                        }),
                    ));
                }
                if out.newly_delivered > 0 {
                    s.counts.cc_acks += 1;
                    s.cc.push((
                        conn,
                        CcOp::Ack(AckSample {
                            now: at,
                            // The recorded RTT, else the replay's own.
                            rtt: rtt
                                .or(out.rtt_sample)
                                .or(arena.rtt(f).latest())
                                .unwrap_or(SimDuration::ZERO),
                            delivery_rate: out
                                .rate_sample
                                .map(|r| r.rate)
                                .unwrap_or(sim_core::Bandwidth::ZERO),
                            delivered: arena.delivered_pkts(f),
                            prior_delivered: out.prior_delivered,
                            acked: out.newly_delivered,
                            lost: out.newly_lost,
                            inflight: board.packets_in_flight(),
                            app_limited: out.app_limited || out.pacing_limited,
                            in_recovery: board.in_recovery(),
                        }),
                    ));
                }
                if out.recovery_exited {
                    s.counts.recovery_exits += 1;
                    s.cc.push((conn, CcOp::RecoveryExit(at)));
                }
            }
            StackOp::Rto { at, conn } => {
                let f = FlowId(conn);
                s.arena.push(ArenaOp::Rto { conn });
                s.counts.rto_marked_lost += arena.on_rto(f);
                let inflight = arena.scoreboard(f).packets_in_flight();
                s.cc.push((conn, CcOp::Rto { now: at, inflight }));
            }
        }
    }
    s
}

/// Time the shaped arena calls on a fresh arena. They are the shaping
/// pass's calls with the same inputs, so the arena goes through the same
/// states. Ops are the replayed ACKs.
fn replay_arena(config: &SimConfig, shaped: &Shaped) -> Timed {
    let mut arena = new_arena(config);
    let mut plan = SendPlan::default();
    let mut ack = AckInfo {
        cum: PktSeq(0),
        sacks: Vec::new(),
    };
    let mut acks = 0u64;
    let t0 = Instant::now();
    for op in &shaped.arena {
        match *op {
            ArenaOp::Send { at, conn, pkts } => {
                let f = FlowId(conn);
                if arena.plan_send_into(f, u64::MAX, pkts, &mut plan) {
                    arena.on_sent(f, &plan, at, false);
                }
            }
            ArenaOp::Ack {
                at,
                conn,
                cum,
                sacks: (lo, hi),
            } => {
                ack.cum = cum;
                ack.sacks.clear();
                ack.sacks
                    .extend_from_slice(&shaped.sacks[lo as usize..hi as usize]);
                black_box(arena.on_ack(FlowId(conn), &ack, at));
                acks += 1;
            }
            ArenaOp::Rto { conn } => {
                black_box(arena.on_rto(FlowId(conn)));
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    black_box(&arena);
    Timed {
        ops: acks,
        seconds,
        mismatches: 0,
    }
}

/// Time the shaped CC calls on a freshly built controller per connection.
fn replay_cc(config: &SimConfig, ops: &[(u32, CcOp)]) -> Timed {
    let devices = device_of(config);
    let mut ccs: Vec<Box<dyn CongestionControl>> = (0..config.connections)
        .map(|i| cc_of(config, &devices, i).build(MSS))
        .collect();
    let t0 = Instant::now();
    for (c, op) in ops {
        let cc = &mut ccs[*c as usize];
        match op {
            CcOp::Loss(event) => cc.on_loss_event(event),
            CcOp::Ack(sample) => cc.on_ack(sample),
            CcOp::RecoveryExit(now) => cc.on_recovery_exit(*now),
            CcOp::Rto { now, inflight } => cc.on_rto(*now, *inflight),
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    black_box(&ccs);
    Timed {
        ops: ops.len() as u64,
        seconds,
        mismatches: 0,
    }
}

/// The per-layer ledger of one workload's representative cell.
pub struct Ledger {
    /// The cell, as the sweep labels it.
    pub label: String,
    /// Median untraced wall seconds of the cell.
    pub untraced_s: f64,
    /// Traced wall seconds of the cell.
    pub traced_s: f64,
    /// Records in the merged trace.
    pub records: u64,
    /// Records the trace rings dropped (must be 0).
    pub dropped: u64,
    /// Whether the traced result equals the untraced one.
    pub identical: bool,
    /// Exact counts from the untraced `SimResult::counters`.
    pub counts: HashMap<&'static str, u64>,
    /// CPU spans in the trace.
    pub spans: u64,
    /// ACKs in the trace that newly delivered data (CC `on_ack` calls).
    pub cc_calls: u64,
    /// What the arena replay did, against `counts`.
    pub shaped: ArenaCounts,
    /// Wheel replay.
    pub wheel: Timed,
    /// Pops in the trace whose token was never scheduled in it.
    pub wheel_unknown: u64,
    /// CPU replay.
    pub cpu: Timed,
    /// Cycles the trace recorded / the CPU replay charged.
    pub cycles: (u64, u64),
    /// Link replay.
    pub link: Timed,
    /// Drops in the link replay.
    pub drops_replayed: u64,
    /// Arena replay.
    pub arena: Timed,
    /// Congestion-control replay.
    pub cc: Timed,
}

impl Ledger {
    fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Wheel operations of the traced cell (exact).
    pub fn wheel_ops(&self) -> u64 {
        self.count("wheel_scheduled") + self.count("wheel_popped") + self.count("wheel_cancelled")
    }

    /// `send_flow` calls the traced cell made (exact): every packet that
    /// passed netem reaches its access link, and in a fleet every one the
    /// access link accepted reaches the shared uplink.
    pub fn link_sends(&self) -> u64 {
        self.count("pkts_sent") - self.count("netem_drops")
            + self.count("shared_pkts")
            + self.count("shared_drops")
    }

    /// CC calls of the traced cell (exact): `on_ack`, plus one loss event
    /// per recovery entry, one call per recovery exit and one per RTO.
    pub fn cc_ops(&self) -> u64 {
        self.cc_calls
            + self.count("recovery_entries")
            + self.count("recovery_exits")
            + self.count("rto_fires")
    }

    /// Bottleneck drops of the traced cell (exact).
    pub fn link_drops(&self) -> u64 {
        self.count("queue_drops") + self.count("shared_drops")
    }

    /// Self seconds per layer: replay ns/op × the cell's exact op count.
    pub fn self_s(&self) -> [(&'static str, f64); 5] {
        let s = |t: &Timed, ops: u64| t.ns_per_op() * ops as f64 / 1e9;
        [
            ("event", s(&self.wheel, self.wheel_ops())),
            ("cpu-model", s(&self.cpu, self.spans)),
            ("netsim", s(&self.link, self.link_sends())),
            ("arena", s(&self.arena, self.count("acks_processed"))),
            ("congestion", s(&self.cc, self.cc_ops())),
        ]
    }

    /// Wall seconds of the cell no layer replay explains.
    pub fn residual_s(&self) -> f64 {
        self.untraced_s - self.self_s().iter().map(|(_, s)| s).sum::<f64>()
    }

    /// Every per-layer metric, by its BENCHMARK.json name.
    pub fn metrics(&self, pass: &PassResult) -> Vec<(String, f64)> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let self_s: HashMap<&str, f64> = self.self_s().into_iter().collect();
        let c = |n: &str| self.count(n) as f64;
        let popped = self.count("wheel_popped");
        let v: Vec<(&str, f64)> = vec![
            ("event.scheduled", c("wheel_scheduled")),
            ("event.popped", popped as f64),
            ("event.cancelled", c("wheel_cancelled")),
            (
                "event.cancel_ratio",
                ratio(self.count("wheel_cancelled"), self.count("wheel_scheduled")),
            ),
            ("event.ns_per_op", self.wheel.ns_per_op()),
            ("event.self_s", self_s["event"]),
            ("cpu-model.spans", self.spans as f64),
            ("cpu-model.ns_per_span", self.cpu.ns_per_op()),
            ("cpu-model.self_s", self_s["cpu-model"]),
            (
                "cpu-model.timer_cycle_share",
                ratio(
                    self.count("cycles_steady_timers"),
                    self.count("cycles_steady_total"),
                ),
            ),
            ("sweep.cells", pass.attempted() as f64),
            ("sweep.overhead_s", pass.sweep_overhead_s),
            ("sweep.release_wait_s", pass.release_wait_s),
            ("arena.acks", c("acks_processed")),
            ("arena.retx_pkts", c("retx_pkts")),
            ("arena.rto_fires", c("rto_fires")),
            ("arena.ns_per_ack", self.arena.ns_per_op()),
            ("arena.self_s", self_s["arena"]),
            ("netsim.sends", self.link_sends() as f64),
            ("netsim.drops", self.link_drops() as f64),
            (
                "netsim.drop_ratio",
                ratio(self.link_drops(), self.link_sends()),
            ),
            ("netsim.ns_per_send", self.link.ns_per_op()),
            ("netsim.self_s", self_s["netsim"]),
            ("congestion.on_ack_calls", self.cc_calls as f64),
            ("congestion.ns_per_ack", self.cc.ns_per_op()),
            ("congestion.self_s", self_s["congestion"]),
            (
                "pool.misses_steady",
                c("pool_run_misses_steady")
                    + c("pool_sack_misses_steady")
                    + c("pool_slab_misses_steady"),
            ),
            ("stacksim.residual_s", self.residual_s()),
            (
                "stacksim.ns_per_event",
                if popped == 0 {
                    0.0
                } else {
                    self.residual_s() * 1e9 / popped as f64
                },
            ),
            (
                "stacksim.residual_frac",
                self.residual_s() / self.untraced_s,
            ),
            ("trace.cell_wall_s", self.untraced_s),
            ("trace.overhead_frac", self.traced_s / self.untraced_s - 1.0),
        ];
        v.into_iter().map(|(k, x)| (k.to_string(), x)).collect()
    }

    /// How closely each replay reproduced the traced cell.
    pub fn fidelity(&self) -> serde_json::Value {
        use serde_json::Value::{Bool, UInt};
        let fields = [
            ("trace_records", UInt(self.records)),
            ("trace_dropped", UInt(self.dropped)),
            ("traced_result_identical", Bool(self.identical)),
            ("wheel_ops", UInt(self.wheel.ops)),
            ("wheel_mismatches", UInt(self.wheel.mismatches)),
            ("wheel_unknown_pops", UInt(self.wheel_unknown)),
            ("cpu_cycles_traced", UInt(self.cycles.0)),
            ("cpu_cycles_replayed", UInt(self.cycles.1)),
            ("cpu_end_mismatches", UInt(self.cpu.mismatches)),
            ("link_drops_traced", UInt(self.link_drops())),
            ("link_drops_replayed", UInt(self.drops_replayed)),
            ("link_sends_replayed", UInt(self.link.ops)),
            ("arena_acks_replayed", UInt(self.arena.ops)),
            ("arena_retx_pkts_traced", UInt(self.count("retx_pkts"))),
            ("arena_retx_pkts_replayed", UInt(self.shaped.retx_pkts)),
            (
                "arena_recovery_entries_traced",
                UInt(self.count("recovery_entries")),
            ),
            (
                "arena_recovery_entries_replayed",
                UInt(self.shaped.recovery_entries),
            ),
            (
                "arena_recovery_exits_traced",
                UInt(self.count("recovery_exits")),
            ),
            (
                "arena_recovery_exits_replayed",
                UInt(self.shaped.recovery_exits),
            ),
            ("arena_newly_lost_replayed", UInt(self.shaped.newly_lost)),
            (
                "arena_rto_marked_lost_traced",
                UInt(self.count("rto_marked_lost")),
            ),
            (
                "arena_rto_marked_lost_replayed",
                UInt(self.shaped.rto_marked_lost),
            ),
            ("cc_acks_traced", UInt(self.cc_calls)),
            ("cc_acks_replayed", UInt(self.shaped.cc_acks)),
            ("cc_calls_traced", UInt(self.cc_ops())),
            ("cc_calls_replayed", UInt(self.cc.ops)),
        ];
        serde_json::Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

/// Trace `workload`'s representative cell and replay it into every layer.
pub fn ledger(workload: Workload, seed: u64, scale: Scale) -> Ledger {
    let config = &representative(workload, seed, scale);
    let traced = trace_cell(config);
    let log = &traced.log;
    let (ops, wheel_unknown) = wheel_ops(log);
    let (wheel, ()) = median_run(|| (replay_wheel(&ops), ()));
    drop(ops);
    let spans = cpu_spans(log);
    let (cpu, cycles_replayed) = median_run(|| replay_cpu(config, &spans));
    let cycles_traced: u64 = spans.iter().map(|s| s.cycles).sum();
    drop(spans);
    let sops = stack_ops(log);
    let (link, drops_replayed) = median_run(|| replay_link(config, &sops));
    let shaped = shape(config, &sops);
    drop(sops);
    let (arena, ()) = median_run(|| (replay_arena(config, &shaped), ()));
    let (cc, ()) = median_run(|| (replay_cc(config, &shaped.cc), ()));
    let cc_calls = log
        .events
        .iter()
        .filter(|r| r.kind == TraceKind::AckRx && r.a > 0)
        .count() as u64;
    Ledger {
        label: format!("{} [seed {}]", describe(config), config.seed),
        untraced_s: traced.untraced_s,
        traced_s: traced.traced_s,
        records: log.events.len() as u64,
        dropped: log.dropped,
        identical: traced.identical,
        counts: traced.result.counters.iter().collect(),
        spans: cpu.ops,
        cc_calls,
        shaped: shaped.counts,
        wheel,
        wheel_unknown,
        cpu,
        cycles: (cycles_traced, cycles_replayed),
        link,
        drops_replayed,
        arena,
        cc,
    }
}

/// A short description of a cell's configuration.
fn describe(config: &SimConfig) -> String {
    match &config.fleet {
        Some(fleet) => format!(
            "fleet of {} devices, shared {}",
            fleet.devices.len(),
            fleet
                .shared
                .as_ref()
                .map_or("none".to_string(), |s| s.qdisc.to_string())
        ),
        None => format!(
            "{}, {}, {} conns",
            config.cc, config.cpu_config, config.connections
        ),
    }
}
