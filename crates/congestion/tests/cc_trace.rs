//! Scripted step-by-step trace of the BBRv2/BBRv3 state machines.
//!
//! Both algorithms are driven through one fixed sequence of
//! `on_ack`/`on_loss_event`/`on_recovery_exit`/`on_rto` calls that covers
//! STARTUP, DRAIN, all four ProbeBW phases, PROBE_RTT, a multi-loss
//! recovery episode and a 1 ms-RTT cruise. After every call the
//! `(phase, cwnd, pacing_rate, bandwidth_estimate)` tuple is folded into a
//! 64-bit FNV-1a digest. The pinned digests make any change to the exact
//! per-step output of either algorithm fail here, so a refactor of the
//! shared state machine must reproduce both variants byte for byte.

use congestion::{AckSample, CcKind, CongestionControl, LossEvent};
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;
use std::collections::BTreeSet;

const MSS: u64 = 1448;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Drives one CC instance and folds its outputs into a digest.
struct Trace {
    cc: Box<dyn CongestionControl>,
    digest: u64,
    steps: u64,
    phases: BTreeSet<&'static str>,
    now_us: u64,
    delivered: u64,
}

impl Trace {
    fn new(kind: CcKind) -> Self {
        let mut t = Trace {
            cc: kind.build(MSS),
            digest: FNV_OFFSET,
            steps: 0,
            phases: BTreeSet::new(),
            now_us: 0,
            delivered: 0,
        };
        t.record();
        t
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(FNV_PRIME);
        }
    }

    fn record(&mut self) {
        let phase = self.cc.phase();
        let cwnd = self.cc.cwnd();
        let pacing = self.cc.pacing_rate().map_or(0, Bandwidth::as_bps);
        let bw = self.cc.bandwidth_estimate().map_or(0, Bandwidth::as_bps);
        self.phases.insert(phase);
        self.fold(phase.as_bytes());
        self.fold(&[0xff]);
        self.fold(&cwnd.to_le_bytes());
        self.fold(&pacing.to_le_bytes());
        self.fold(&bw.to_le_bytes());
        self.steps += 1;
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_us)
    }

    /// One ACK of a full cwnd worth of data after `step_us`, at `rtt_us`,
    /// capped at `rate_mbps`, leaving `inflight(cwnd)` packets in flight.
    fn ack(
        &mut self,
        step_us: u64,
        rtt_us: u64,
        rate_mbps: u64,
        lost: u64,
        inflight: impl Fn(u64) -> u64,
    ) {
        self.now_us += step_us;
        let w = self.cc.cwnd();
        let prior = self.delivered;
        self.delivered += w;
        let rtt = SimDuration::from_micros(rtt_us);
        let offered = Bandwidth::from_bytes_over(w * MSS, rtt).as_bps();
        let rate = offered.min(Bandwidth::from_mbps(rate_mbps).as_bps()).max(1);
        self.cc.on_ack(&AckSample {
            now: self.now(),
            rtt,
            delivery_rate: Bandwidth::from_bps(rate),
            delivered: self.delivered,
            prior_delivered: prior,
            acked: w,
            lost,
            inflight: inflight(w),
            app_limited: false,
            in_recovery: lost > 0,
        });
        self.record();
    }

    fn loss(&mut self, inflight: u64, lost: u64) {
        self.now_us += 1_000;
        self.cc.on_loss_event(&LossEvent {
            now: self.now(),
            inflight,
            lost,
        });
        self.record();
    }

    fn recovery_exit(&mut self) {
        self.now_us += 1_000;
        self.cc.on_recovery_exit(self.now());
        self.record();
    }

    fn rto(&mut self, inflight: u64) {
        self.now_us += 200_000;
        self.cc.on_rto(self.now(), inflight);
        self.record();
    }
}

/// The fixed script both algorithms run.
fn run_script(kind: CcKind) -> Trace {
    let mut t = Trace::new(kind);
    // STARTUP → DRAIN → ProbeBW on a 100 Mbps, 20 ms pipe.
    for _ in 0..40 {
        t.ack(20_000, 20_000, 100, 0, |_| 0);
    }
    // One recovery episode with three loss events and lossy ACKs between
    // them: v2 cuts the ceiling on every event, v3 adjusts it once.
    t.loss(200, 3);
    t.ack(1_000, 21_000, 100, 2, |w| w / 2);
    t.loss(150, 4);
    t.ack(1_000, 21_000, 100, 1, |w| w / 2);
    t.loss(120, 2);
    t.recovery_exit();
    // Lossless cruising for 8 s: a full DOWN → CRUISE → REFILL → UP cycle.
    for _ in 0..400 {
        t.ack(20_000, 20_000, 100, 0, |w| w / 2);
    }
    // The RTT rises and inflight drains: the min-RTT window expires and
    // PROBE_RTT runs to completion.
    for _ in 0..300 {
        t.ack(25_000, 25_000, 100, 0, |_| 2);
    }
    // A second episode, then a 1 ms-RTT cruise: 62 rounds take 62 ms, so
    // only v3's round cap ends CRUISE before the 2 s wall-clock wait.
    t.loss(200, 2);
    t.recovery_exit();
    for _ in 0..300 {
        t.ack(1_000, 1_000, 100, 0, |w| w / 2);
    }
    // A retransmission timeout and the climb back.
    t.rto(40);
    for _ in 0..60 {
        t.ack(1_000, 1_000, 100, 0, |w| w / 2);
    }
    t
}

fn check(kind: CcKind, probe_bw: [&str; 4], digest: u64) {
    let t = run_script(kind);
    for phase in ["startup", "drain", "probe_rtt"].iter().chain(&probe_bw) {
        assert!(
            t.phases.contains(phase),
            "{kind}: script must visit {phase}, saw {:?}",
            t.phases
        );
    }
    assert_eq!(
        t.digest, digest,
        "{kind}: step-by-step CC output changed ({} steps, digest {:#018x})",
        t.steps, t.digest
    );
}

#[test]
fn bbr2_scripted_trace_is_pinned() {
    check(
        CcKind::Bbr2,
        ["probe_down", "probe_cruise", "probe_refill", "probe_up"],
        0xb388_30ff_ad3a_0da5,
    );
}

#[test]
fn bbr3_scripted_trace_is_pinned() {
    check(
        CcKind::Bbr3,
        [
            "probe_bw_down",
            "probe_bw_cruise",
            "probe_bw_refill",
            "probe_bw_up",
        ],
        0xc8b4_2988_d02e_7809,
    );
}
