//! BBR v2 and v3 on one state machine. [`Bbr2::new`] builds v2, per the
//! IETF-104/105/106 iccrg presentations the paper cites ([12–14]) and the
//! `tcp_bbr2` alpha the authors backported to the Pixel 6 kernel (§3.1).
//! [`Bbr2::v3`] builds v3, per the IETF-117/119 iccrg updates Google
//! upstreamed as v2's successor. v3 is not in the paper's matrix (see
//! [`crate::CcKind::PAPER`]); it serves the AQM/fairness follow-ups.
//!
//! v2 keeps v1's model (windowed-max bandwidth, windowed-min RTT, pacing at
//! `gain × bw`) and adds **loss as a bounding signal**:
//!
//! * `inflight_hi` — an upper bound on inflight learned when a probe
//!   experiences a loss rate above `LOSS_THRESH` (2 %);
//! * cruising keeps `HEADROOM` (15 %) below `inflight_hi` to leave space
//!   for other flows;
//! * the PROBE_BW cycle becomes DOWN → CRUISE → REFILL → UP, probing for
//!   more bandwidth only every couple of seconds rather than every eight
//!   min-RTTs;
//! * STARTUP also exits on persistent high loss (not only on bandwidth
//!   plateau);
//! * PROBE_RTT visits every 5 s and clamps to `BDP/2` rather than 4
//!   packets.
//!
//! v3 retunes the knobs measurement found mis-tuned. The private `Tuning`
//! rows `V2` and `V3` hold every difference:
//!
//! * a shallower DOWN probe (pacing gain 0.9, not 0.75), so a cycle no
//!   longer drains more than a round's worth of queue;
//! * a ProbeBW cwnd gain of 2.25, not 2.0, so an UP probe can fill the
//!   ceiling it raises;
//! * CRUISE also ends after 62 rounds, not only on wall-clock, so
//!   short-RTT flows re-probe on a Reno/Cubic-comparable timescale;
//! * one ceiling adjustment per recovery episode, anchored at the measured
//!   inflight (`hi ← min(hi, max(measured, β·hi))`), instead of v2's β-cut
//!   on every loss event, which compounds within an episode;
//! * the name `"bbr3"` and ProbeBW phase names in v3's spelling
//!   (`probe_bw_down`, …), by which flight data tells the variants apart.
//!
//! Faithfulness note (recorded in DESIGN.md): the full `tcp_bbr2.c` also
//! maintains short-term `bw_lo`/`inflight_lo` bounds that relax each round;
//! we fold that into a single multiplicative `BETA` cut of `inflight_hi`
//! on loss rounds, which preserves the throughput/fairness behaviour the
//! paper's §4.2 measures while keeping the module reviewable.

use crate::minmax::MaxFilter;
use crate::{AckSample, CongestionControl, LossEvent, INIT_CWND, MIN_CWND};
use sim_core::time::{SimDuration, SimTime};
use sim_core::units::Bandwidth;

/// STARTUP pacing gain (v2 uses 2.77 rather than v1's 2.885).
const STARTUP_GAIN: f64 = 2.77;
/// Loss rate that bounds a probe (2 %).
const LOSS_THRESH: f64 = 0.02;
/// Multiplicative cut applied to `inflight_hi` on a loss-bounded round
/// (v2), or the floor of a per-episode ceiling adjustment (v3).
const BETA: f64 = 0.7;
/// Fraction of `inflight_hi` used while cruising.
const HEADROOM: f64 = 0.85;
/// Bandwidth filter window, in rounds.
const BW_WINDOW_ROUNDS: u64 = 10;
/// Min-RTT window (v2 and v3 probe RTT more often than v1).
const MIN_RTT_WINDOW: SimDuration = SimDuration::from_secs(5);
/// PROBE_RTT dwell.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);
/// Time between bandwidth probes while cruising.
const BW_PROBE_WAIT_BASE: SimDuration = SimDuration::from_secs(2);
/// STARTUP: rounds of ≥ LOSS_THRESH loss that force an exit.
const STARTUP_LOSS_ROUNDS: u32 = 3;
/// Cap on the UP phase, in rounds.
const PROBE_UP_ROUNDS: u64 = 4;

/// Everything that differs between v2 and v3.
struct Tuning {
    name: &'static str,
    /// ProbeBW phase names, in DOWN, CRUISE, REFILL, UP order.
    probe_bw_phases: [&'static str; 4],
    probe_down_gain: f64,
    probe_bw_cwnd_gain: f64,
    /// Rounds after which CRUISE ends even before the wall-clock wait
    /// (`bbr_bw_probe_max_rounds`).
    cruise_max_rounds: Option<u64>,
    /// Adjust the ceiling once per recovery episode, anchored at measured
    /// inflight, rather than β-cutting it on every loss event.
    loss_once_per_episode: bool,
    model_cost_cycles: u64,
}

/// BBR v2: the `tcp_bbr2` alpha the paper measures.
const V2: Tuning = Tuning {
    name: "bbr2",
    probe_bw_phases: ["probe_down", "probe_cruise", "probe_refill", "probe_up"],
    probe_down_gain: 0.75,
    probe_bw_cwnd_gain: 2.0,
    cruise_max_rounds: None,
    loss_once_per_episode: false,
    model_cost_cycles: 4_500,
};

/// BBR v3. Episode tracking and the round-bounded cruise check cost 300
/// cycles on top of v2's model.
const V3: Tuning = Tuning {
    name: "bbr3",
    probe_bw_phases: [
        "probe_bw_down",
        "probe_bw_cruise",
        "probe_bw_refill",
        "probe_bw_up",
    ],
    probe_down_gain: 0.9,
    probe_bw_cwnd_gain: 2.25,
    cruise_max_rounds: Some(62),
    loss_once_per_episode: true,
    model_cost_cycles: 4_800,
};

/// State machine modes (shared by v2 and v3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Exponential search.
    Startup,
    /// Queue drain after startup.
    Drain,
    /// Pull inflight below the estimated BDP/ceiling.
    ProbeDown,
    /// Steady cruising with headroom.
    ProbeCruise,
    /// Refill the pipe at 1.0 gain before probing up.
    ProbeRefill,
    /// Probe for more bandwidth at 1.25 gain.
    ProbeUp,
    /// Re-measure propagation delay.
    ProbeRtt,
}

/// BBR v2, or BBR v3 when built with [`Bbr2::v3`].
pub struct Bbr2 {
    tuning: &'static Tuning,
    mss: u64,
    mode: Mode,
    // Model.
    bw_filter: MaxFilter,
    round_count: u64,
    next_rtt_delivered: u64,
    round_start: bool,
    min_rtt: SimDuration,
    min_rtt_stamp: SimTime,
    // Startup.
    full_bw: u64,
    full_bw_cnt: u32,
    full_bw_reached: bool,
    startup_loss_rounds: u32,
    // Loss bounds.
    inflight_hi: u64,
    /// v3: has the ceiling already been adjusted in this recovery episode?
    loss_in_episode: bool,
    // Per-round loss accounting.
    round_lost: u64,
    round_delivered: u64,
    // Probe scheduling.
    phase_stamp: SimTime,
    probe_wait: SimDuration,
    probe_up_rounds: u64,
    /// Round count at CRUISE entry (for v3's round-bounded cruise exit).
    cruise_round_mark: u64,
    // Probe RTT.
    probe_rtt_done_stamp: Option<SimTime>,
    // Outputs.
    pacing_rate: Bandwidth,
    cwnd: u64,
    prior_cwnd: u64,
    in_recovery: bool,
    packet_conservation: bool,
}

impl Bbr2 {
    /// A fresh BBR v2 instance for `mss`-byte segments.
    pub fn new(mss: u64) -> Self {
        Self::with_tuning(mss, &V2)
    }

    /// A fresh BBR v3 instance for `mss`-byte segments.
    pub fn v3(mss: u64) -> Self {
        Self::with_tuning(mss, &V3)
    }

    fn with_tuning(mss: u64, tuning: &'static Tuning) -> Self {
        assert!(mss > 0, "mss must be positive");
        Bbr2 {
            tuning,
            mss,
            mode: Mode::Startup,
            bw_filter: MaxFilter::new(BW_WINDOW_ROUNDS),
            round_count: 0,
            next_rtt_delivered: 0,
            round_start: false,
            min_rtt: SimDuration::MAX,
            min_rtt_stamp: SimTime::ZERO,
            full_bw: 0,
            full_bw_cnt: 0,
            full_bw_reached: false,
            startup_loss_rounds: 0,
            inflight_hi: u64::MAX,
            loss_in_episode: false,
            round_lost: 0,
            round_delivered: 0,
            phase_stamp: SimTime::ZERO,
            probe_wait: BW_PROBE_WAIT_BASE,
            probe_up_rounds: 0,
            cruise_round_mark: 0,
            probe_rtt_done_stamp: None,
            pacing_rate: Bandwidth::ZERO,
            cwnd: INIT_CWND,
            prior_cwnd: 0,
            in_recovery: false,
            packet_conservation: false,
        }
    }

    /// Stagger the probe schedule across flows (deterministic analogue of
    /// the kernel's randomised 2–3 s wait).
    pub fn with_probe_offset(mut self, offset: usize) -> Self {
        let jitter_ms = (offset as u64 % 16) * 64; // 0..1024 ms
        self.probe_wait = BW_PROBE_WAIT_BASE + SimDuration::from_millis(jitter_ms);
        self
    }

    /// Current mode, for instrumentation and tests.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Loss-learned inflight ceiling (`None` until a probe hits loss).
    pub fn inflight_hi(&self) -> Option<u64> {
        (self.inflight_hi != u64::MAX).then_some(self.inflight_hi)
    }

    fn bw(&self) -> Bandwidth {
        Bandwidth::from_bps(self.bw_filter.get())
    }

    fn pacing_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup => STARTUP_GAIN,
            Mode::Drain => 1.0 / STARTUP_GAIN,
            Mode::ProbeDown => self.tuning.probe_down_gain,
            Mode::ProbeCruise | Mode::ProbeRefill => 1.0,
            Mode::ProbeUp => 1.25,
            Mode::ProbeRtt => 1.0,
        }
    }

    fn cwnd_gain(&self) -> f64 {
        match self.mode {
            Mode::Startup | Mode::Drain => 2.0,
            Mode::ProbeRtt => 0.5,
            _ => self.tuning.probe_bw_cwnd_gain,
        }
    }

    /// BDP target with the kernel's 3 × TSO-goal quantization slack (see
    /// `bbr::Bbr::target_cwnd`).
    fn bdp_packets(&self, gain: f64) -> u64 {
        if self.min_rtt == SimDuration::MAX || self.bw().is_zero() {
            return INIT_CWND;
        }
        let bdp_bytes = self.bw().bytes_in(self.min_rtt);
        ((bdp_bytes as f64 * gain / self.mss as f64).ceil() as u64 + 6).max(MIN_CWND)
    }

    fn update_round(&mut self, sample: &AckSample) {
        self.round_lost += sample.lost;
        self.round_delivered += sample.acked;
        if sample.prior_delivered >= self.next_rtt_delivered {
            self.next_rtt_delivered = sample.delivered;
            self.round_count += 1;
            self.round_start = true;
            self.packet_conservation = false;
        } else {
            self.round_start = false;
        }
    }

    /// Loss rate of the just-completed round, evaluated at round start.
    fn round_loss_rate(&self) -> f64 {
        let total = self.round_lost + self.round_delivered;
        if total == 0 {
            0.0
        } else {
            self.round_lost as f64 / total as f64
        }
    }

    fn reset_round_loss(&mut self) {
        self.round_lost = 0;
        self.round_delivered = 0;
    }

    fn update_bw(&mut self, sample: &AckSample) {
        if !sample.app_limited || sample.delivery_rate.as_bps() >= self.bw_filter.get() {
            self.bw_filter
                .update(self.round_count, sample.delivery_rate.as_bps());
        }
    }

    fn check_startup_done(&mut self, sample: &AckSample) {
        if self.full_bw_reached || self.mode != Mode::Startup {
            return;
        }
        if self.round_start && !sample.app_limited {
            // Bandwidth-plateau exit, as v1.
            let thresh = (self.full_bw as f64 * 1.25) as u64;
            if self.bw_filter.get() >= thresh {
                self.full_bw = self.bw_filter.get();
                self.full_bw_cnt = 0;
            } else {
                self.full_bw_cnt += 1;
            }
            // v2 addition: persistent-loss exit.
            if self.round_loss_rate() >= LOSS_THRESH {
                self.startup_loss_rounds += 1;
            } else {
                self.startup_loss_rounds = 0;
            }
            if self.full_bw_cnt >= 3 || self.startup_loss_rounds >= STARTUP_LOSS_ROUNDS {
                self.full_bw_reached = true;
                if self.startup_loss_rounds >= STARTUP_LOSS_ROUNDS {
                    // Loss-bounded exit also seeds the inflight ceiling.
                    self.inflight_hi = self.inflight_hi.min(sample.inflight.max(MIN_CWND));
                }
            }
        }
    }

    fn advance_state(&mut self, sample: &AckSample) {
        let now = sample.now;
        match self.mode {
            Mode::Startup => {
                if self.full_bw_reached {
                    self.mode = Mode::Drain;
                    self.phase_stamp = now;
                }
            }
            Mode::Drain => {
                if sample.inflight <= self.bdp_packets(1.0) {
                    self.enter_phase(Mode::ProbeDown, now);
                }
            }
            Mode::ProbeDown => {
                let target = self.cruise_cap();
                if sample.inflight <= target {
                    self.enter_phase(Mode::ProbeCruise, now);
                    self.cruise_round_mark = self.round_count;
                }
            }
            Mode::ProbeCruise => {
                // v3 also re-probes after a round cap, so a short-RTT flow
                // competing with Reno/Cubic probes on a comparable round
                // timescale.
                let round_cap_hit = self
                    .tuning
                    .cruise_max_rounds
                    .is_some_and(|cap| self.round_count >= self.cruise_round_mark + cap);
                if now.saturating_since(self.phase_stamp) >= self.probe_wait || round_cap_hit {
                    self.enter_phase(Mode::ProbeRefill, now);
                    self.probe_up_rounds = self.round_count;
                }
            }
            Mode::ProbeRefill => {
                if self.round_start && self.round_count > self.probe_up_rounds {
                    self.enter_phase(Mode::ProbeUp, now);
                    self.probe_up_rounds = self.round_count;
                    // A new probe may raise the ceiling: allow growth.
                    self.reset_round_loss();
                }
            }
            Mode::ProbeUp => {
                if self.round_start {
                    if self.round_loss_rate() >= LOSS_THRESH {
                        // Loss bounded the probe: learn the ceiling and back off.
                        self.inflight_hi = sample.inflight.max(MIN_CWND);
                        self.enter_phase(Mode::ProbeDown, now);
                    } else if self.round_count >= self.probe_up_rounds + PROBE_UP_ROUNDS {
                        // Probe long enough without loss: raise the ceiling.
                        if self.inflight_hi != u64::MAX {
                            self.inflight_hi = ((self.inflight_hi as f64) * 1.25).ceil() as u64;
                        }
                        self.enter_phase(Mode::ProbeDown, now);
                    }
                }
            }
            Mode::ProbeRtt => { /* handled in check_probe_rtt */ }
        }
    }

    fn enter_phase(&mut self, mode: Mode, now: SimTime) {
        self.mode = mode;
        self.phase_stamp = now;
        if mode == Mode::ProbeDown || mode == Mode::ProbeUp {
            self.reset_round_loss();
        }
    }

    /// The inflight cap while cruising: 15 % headroom below the ceiling.
    fn cruise_cap(&self) -> u64 {
        if self.inflight_hi == u64::MAX {
            self.bdp_packets(1.0)
        } else {
            (((self.inflight_hi as f64) * HEADROOM) as u64).max(MIN_CWND)
        }
    }

    /// As in v1 (and the kernel): the expiry decision is taken once, before
    /// the filter refresh, and drives both the refresh and PROBE_RTT entry.
    fn update_min_rtt_and_probe_rtt(&mut self, sample: &AckSample) {
        let expired = sample.now.saturating_since(self.min_rtt_stamp) > MIN_RTT_WINDOW;
        if !sample.rtt.is_zero() && (sample.rtt <= self.min_rtt || expired) {
            self.min_rtt = sample.rtt;
            self.min_rtt_stamp = sample.now;
        }
        self.check_probe_rtt(sample, expired);
    }

    fn check_probe_rtt(&mut self, sample: &AckSample, expired: bool) {
        if self.mode != Mode::ProbeRtt && expired {
            self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
            self.mode = Mode::ProbeRtt;
            self.probe_rtt_done_stamp = None;
        }
        if self.mode == Mode::ProbeRtt {
            let clamp = self.bdp_packets(0.5);
            match self.probe_rtt_done_stamp {
                None => {
                    if sample.inflight <= clamp {
                        self.probe_rtt_done_stamp = Some(sample.now + PROBE_RTT_DURATION);
                    }
                }
                Some(done) => {
                    if sample.now > done {
                        self.min_rtt_stamp = sample.now;
                        self.cwnd = self.cwnd.max(self.prior_cwnd);
                        self.enter_phase(Mode::ProbeDown, sample.now);
                    }
                }
            }
        }
    }

    fn set_pacing_rate(&mut self, sample: &AckSample) {
        let gain = self.pacing_gain();
        let rate = if self.bw().is_zero() {
            let rtt = if sample.rtt.is_zero() {
                SimDuration::from_millis(1)
            } else {
                sample.rtt
            };
            Bandwidth::from_bytes_over(self.cwnd * self.mss, rtt).mul_f64(gain)
        } else {
            self.bw().mul_f64(gain)
        };
        if self.full_bw_reached || rate > self.pacing_rate {
            self.pacing_rate = rate;
        }
    }

    fn set_cwnd(&mut self, sample: &AckSample) {
        let mut target = self.bdp_packets(self.cwnd_gain());
        // Loss-learned ceiling applies everywhere except the UP probe
        // itself (which is how the ceiling gets re-tested).
        let cap = match self.mode {
            Mode::ProbeUp | Mode::ProbeRefill => self.inflight_hi,
            Mode::ProbeRtt => self.bdp_packets(0.5),
            _ => self.cruise_cap().max(MIN_CWND),
        };
        if self.inflight_hi != u64::MAX || self.mode == Mode::ProbeRtt {
            target = target.min(cap);
        }
        if self.packet_conservation {
            self.cwnd = self.cwnd.max(sample.inflight + sample.acked);
        } else if self.full_bw_reached {
            self.cwnd = (self.cwnd + sample.acked).min(target);
        } else if self.cwnd < target || sample.delivered < INIT_CWND {
            self.cwnd += sample.acked;
        }
        self.cwnd = self.cwnd.max(MIN_CWND);
        if self.mode == Mode::ProbeRtt {
            self.cwnd = self.cwnd.min(self.bdp_packets(0.5));
        }
    }
}

impl CongestionControl for Bbr2 {
    fn name(&self) -> &'static str {
        self.tuning.name
    }

    fn phase(&self) -> &'static str {
        let [down, cruise, refill, up] = self.tuning.probe_bw_phases;
        match self.mode {
            Mode::Startup => "startup",
            Mode::Drain => "drain",
            Mode::ProbeDown => down,
            Mode::ProbeCruise => cruise,
            Mode::ProbeRefill => refill,
            Mode::ProbeUp => up,
            Mode::ProbeRtt => "probe_rtt",
        }
    }

    fn on_ack(&mut self, sample: &AckSample) {
        self.update_round(sample);
        self.update_bw(sample);
        self.check_startup_done(sample);
        self.advance_state(sample);
        self.update_min_rtt_and_probe_rtt(sample);
        self.set_pacing_rate(sample);
        self.set_cwnd(sample);
        if self.round_start {
            self.reset_round_loss();
        }
    }

    fn on_loss_event(&mut self, event: &LossEvent) {
        if !self.in_recovery {
            self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
            self.in_recovery = true;
            self.packet_conservation = true;
            self.loss_in_episode = false;
            self.cwnd = (event.inflight + 1).max(MIN_CWND);
        }
        if self.tuning.loss_once_per_episode {
            // v3: one ceiling adjustment per recovery episode, anchored at
            // the inflight actually measured at the loss. v2's per-event
            // β-cut compounded within an episode and routinely undershot
            // the real ceiling.
            if !self.loss_in_episode && self.full_bw_reached {
                let measured = event.inflight.max(MIN_CWND);
                self.inflight_hi = if self.inflight_hi == u64::MAX {
                    measured
                } else {
                    self.inflight_hi
                        .min(measured.max(((self.inflight_hi as f64) * BETA) as u64))
                        .max(MIN_CWND)
                };
                self.loss_in_episode = true;
            }
        } else if self.inflight_hi != u64::MAX {
            // v2 reacts to loss structurally: cut the ceiling.
            self.inflight_hi = (((self.inflight_hi as f64) * BETA) as u64).max(MIN_CWND);
        } else if self.full_bw_reached {
            // First loss after startup seeds the ceiling at current inflight.
            self.inflight_hi = event.inflight.max(MIN_CWND);
        }
    }

    fn on_recovery_exit(&mut self, _now: SimTime) {
        if self.in_recovery {
            self.in_recovery = false;
            self.packet_conservation = false;
            self.loss_in_episode = false;
            // An unset ceiling is `u64::MAX`, so this caps only once learned.
            self.cwnd = self.cwnd.max(self.prior_cwnd).min(self.inflight_hi);
        }
    }

    fn on_rto(&mut self, _now: SimTime, _inflight: u64) {
        self.prior_cwnd = self.prior_cwnd.max(self.cwnd);
        self.cwnd = MIN_CWND;
        self.packet_conservation = false;
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn wants_pacing(&self) -> bool {
        true
    }

    fn pacing_rate(&self) -> Option<Bandwidth> {
        (!self.pacing_rate.is_zero()).then_some(self.pacing_rate)
    }

    fn model_cost_cycles(&self) -> u64 {
        self.tuning.model_cost_cycles
    }

    fn bandwidth_estimate(&self) -> Option<Bandwidth> {
        (!self.bw().is_zero()).then_some(self.bw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh v2 and a fresh v3, for checks that hold for both tunings.
    fn both() -> [Bbr2; 2] {
        [Bbr2::new(1448), Bbr2::v3(1448)]
    }

    #[allow(clippy::too_many_arguments)]
    fn pipe_sample(
        now_ms: u64,
        rtt_ms: u64,
        rate_mbps: u64,
        delivered: u64,
        prior: u64,
        acked: u64,
        lost: u64,
        inflight: u64,
    ) -> AckSample {
        AckSample {
            now: SimTime::from_millis(now_ms),
            rtt: SimDuration::from_millis(rtt_ms),
            delivery_rate: Bandwidth::from_mbps(rate_mbps),
            delivered,
            prior_delivered: prior,
            acked,
            lost,
            inflight,
            app_limited: false,
            in_recovery: false,
        }
    }

    /// `rounds` lossless round trips through a `bw_mbps`/`rtt_ms` pipe.
    fn drive(b: &mut Bbr2, bw_mbps: u64, rtt_ms: u64, rounds: u64, start_ms: u64) {
        let mut delivered = 0u64;
        let mut now = start_ms;
        for _ in 0..rounds {
            let w = b.cwnd();
            let prior = delivered;
            delivered += w;
            let offered = Bandwidth::from_bytes_over(w * 1448, SimDuration::from_millis(rtt_ms));
            let rate = offered.as_bps().min(Bandwidth::from_mbps(bw_mbps).as_bps()) / 1_000_000;
            b.on_ack(&pipe_sample(
                now,
                rtt_ms,
                rate.max(1),
                delivered,
                prior,
                w,
                0,
                0,
            ));
            now += rtt_ms;
        }
    }

    /// Up to `steps` lossless 100 Mbps ACKs of a full cwnd, one per
    /// `rtt_ms` from `start_ms`, leaving `inflight(cwnd)` in flight.
    /// `until` sees the state after each ACK and stops the run early by
    /// returning true.
    fn steady(
        b: &mut Bbr2,
        start_ms: u64,
        rtt_ms: u64,
        steps: u64,
        inflight: fn(u64) -> u64,
        mut until: impl FnMut(&Bbr2) -> bool,
    ) {
        let mut delivered = 1_000_000u64;
        for i in 0..steps {
            let w = b.cwnd();
            let prior = delivered;
            delivered += w;
            b.on_ack(&pipe_sample(
                start_ms + i * rtt_ms,
                rtt_ms,
                100,
                delivered,
                prior,
                w,
                0,
                inflight(w),
            ));
            if until(b) {
                break;
            }
        }
    }

    fn loss(b: &mut Bbr2, now_ms: u64, inflight: u64) {
        b.on_loss_event(&LossEvent {
            now: SimTime::from_millis(now_ms),
            inflight,
            lost: 5,
        });
    }

    /// Drive into ProbeBW, then one recovery episode at inflight 200.
    fn seeded_at_200(mut b: Bbr2, rtt_ms: u64) -> Bbr2 {
        drive(&mut b, 100, rtt_ms, 40, 0);
        assert_eq!(b.inflight_hi(), None);
        loss(&mut b, 50 * rtt_ms, 200);
        b.on_recovery_exit(SimTime::from_millis(50 * rtt_ms + 1));
        assert_eq!(
            b.inflight_hi(),
            Some(200),
            "first episode seeds at measured"
        );
        b
    }

    #[test]
    fn startup_exits_on_plateau() {
        for mut b in both() {
            assert_eq!(b.mode(), Mode::Startup);
            drive(&mut b, 100, 20, 30, 0);
            assert_ne!(b.mode(), Mode::Startup);
            assert!(b.full_bw_reached);
        }
    }

    #[test]
    fn converges_to_pipe_bandwidth() {
        for mut b in both() {
            drive(&mut b, 100, 20, 40, 0);
            let est = b.bandwidth_estimate().unwrap().as_mbps_f64();
            assert!(
                (70.0..140.0).contains(&est),
                "{}: estimate {est} Mbps",
                b.name()
            );
        }
    }

    #[test]
    fn startup_exits_on_persistent_loss() {
        for mut b in both() {
            let mut delivered = 0u64;
            // Every round suffers 5% loss; bandwidth keeps *growing* so the
            // plateau exit never fires — only the loss exit can.
            for i in 0..12 {
                let w = b.cwnd();
                let prior = delivered;
                delivered += w;
                let lost = (w / 20).max(1);
                b.on_ack(&pipe_sample(
                    i * 20,
                    20,
                    10 + i * 10,
                    delivered,
                    prior,
                    w,
                    lost,
                    w,
                ));
                if b.full_bw_reached {
                    break;
                }
            }
            assert!(b.full_bw_reached, "persistent loss must end startup");
            assert!(b.inflight_hi().is_some(), "loss exit seeds the ceiling");
        }
    }

    #[test]
    fn phase_names_follow_the_tuning() {
        for (mut b, name, probe_bw) in [
            (
                Bbr2::new(1448),
                "bbr2",
                ["probe_down", "probe_cruise", "probe_refill", "probe_up"],
            ),
            (
                Bbr2::v3(1448),
                "bbr3",
                [
                    "probe_bw_down",
                    "probe_bw_cruise",
                    "probe_bw_refill",
                    "probe_bw_up",
                ],
            ),
        ] {
            assert_eq!(b.name(), name);
            assert_eq!(b.phase(), "startup");
            drive(&mut b, 100, 20, 40, 0);
            let mut seen = std::collections::BTreeSet::new();
            steady(
                &mut b,
                1_000,
                20,
                400,
                |w| w / 2,
                |b| {
                    seen.insert(b.phase());
                    false
                },
            );
            for phase in probe_bw {
                assert!(
                    seen.contains(phase),
                    "{name}: ProbeBW cycle must visit {phase}: {seen:?}"
                );
            }
        }
    }

    #[test]
    fn loss_response_anchors_at_measured_inflight() {
        // The defining v3 change: two separate recovery episodes with
        // losses at inflight 200 then 180 leave v3's ceiling at 180. v2's
        // per-event β-cut compounds it down to 140.
        for (b, expected) in [(Bbr2::new(1448), 140), (Bbr2::v3(1448), 180)] {
            let mut b = seeded_at_200(b, 20);
            loss(&mut b, 3_000, 180);
            assert_eq!(b.inflight_hi(), Some(expected), "{}", b.name());
        }
    }

    #[test]
    fn loss_response_is_once_per_episode_and_beta_bounded() {
        // A second loss within the seeding episode: v3 keeps the ceiling,
        // v2 cuts it by β = 0.7.
        for (mut b, expected) in [(Bbr2::new(1448), 140), (Bbr2::v3(1448), 200)] {
            drive(&mut b, 100, 20, 40, 0);
            loss(&mut b, 2_000, 200);
            loss(&mut b, 2_010, 100);
            assert_eq!(b.inflight_hi(), Some(expected), "{}", b.name());
        }
        // A v3 collapse to tiny inflight in the next episode is floored at
        // β × hi, not taken at face value.
        let mut b = seeded_at_200(Bbr2::v3(1448), 20);
        loss(&mut b, 3_000, 10);
        assert_eq!(
            b.inflight_hi(),
            Some(140),
            "cut floored at β=0.7 per episode"
        );
    }

    #[test]
    fn cruise_keeps_headroom_below_ceiling() {
        for b in both() {
            let mut b = seeded_at_200(b, 20);
            assert_eq!(b.cruise_cap(), 170, "85% of 200");
            // Continue cruising: cwnd must respect the cap.
            drive(&mut b, 100, 20, 20, 3_000);
            if matches!(b.mode(), Mode::ProbeCruise | Mode::ProbeDown) {
                assert!(b.cwnd() <= 170, "cwnd {} must respect cruise cap", b.cwnd());
            }
        }
    }

    #[test]
    fn cruise_cap_without_ceiling_falls_back_to_bdp() {
        for mut b in both() {
            drive(&mut b, 100, 20, 40, 0);
            assert_eq!(b.inflight_hi(), None);
            // With no loss-learned ceiling, cruising is bounded by the BDP
            // estimate, not by a stale constant.
            assert!(b.cruise_cap() >= MIN_CWND);
            assert!(b.cruise_cap() <= b.bdp_packets(1.0));
        }
    }

    #[test]
    fn cruise_ends_after_round_cap_even_when_wall_clock_is_short() {
        // 1 ms RTT: 62 rounds elapse in 62 ms, far below the 2 s
        // wall-clock probe wait — only v3's round cap can end CRUISE.
        for (b, cap) in [(Bbr2::new(1448), None), (Bbr2::v3(1448), Some(62))] {
            let mut b = seeded_at_200(b, 1);
            let mut saw_refill = false;
            let mut streak = 0u64;
            let mut longest_cruise = 0u64;
            steady(
                &mut b,
                60,
                1,
                200,
                |w| w / 2,
                |b| {
                    if b.mode() == Mode::ProbeCruise {
                        streak += 1;
                        longest_cruise = longest_cruise.max(streak);
                    } else {
                        streak = 0;
                    }
                    saw_refill |= b.mode() == Mode::ProbeRefill;
                    false
                },
            );
            assert_eq!(b.tuning.cruise_max_rounds, cap);
            match cap {
                Some(cap) => {
                    assert!(
                        saw_refill,
                        "round-capped cruise must reach REFILL in 200 ms"
                    );
                    assert!(
                        longest_cruise <= cap + 2,
                        "one cruise held for {longest_cruise} rounds, cap is {cap}"
                    );
                }
                None => assert!(!saw_refill, "v2 cruises for the full wall-clock wait"),
            }
        }
    }

    #[test]
    fn probe_down_gain_follows_the_tuning() {
        // Walk into ProbeBW and check the DOWN pacing gain: v2 paces at
        // 0.75 × bw, v3's shallower probe at 0.9 × bw.
        for (mut b, want) in [(Bbr2::new(1448), 0.75), (Bbr2::v3(1448), 0.9)] {
            drive(&mut b, 100, 20, 40, 0);
            steady(
                &mut b,
                1_000,
                20,
                400,
                |w| w,
                |b| b.mode() == Mode::ProbeDown,
            );
            assert_eq!(b.mode(), Mode::ProbeDown, "must reach the DOWN probe");
            let bw = b.bandwidth_estimate().unwrap().as_bps() as f64;
            let pace = b.pacing_rate().unwrap().as_bps() as f64;
            let gain = pace / bw;
            assert!(
                (gain - want).abs() <= 0.02,
                "{}: DOWN gain must be ~{want}, got {gain:.3}",
                b.name()
            );
        }
    }

    #[test]
    fn probe_cycle_reaches_up_phase_and_raises_ceiling() {
        for b in both() {
            let mut b = seeded_at_200(b, 20);
            let hi_before = b.inflight_hi().unwrap();
            // Run long enough (> probe_wait) with no loss for a full
            // DOWN→CRUISE→REFILL→UP→DOWN cycle.
            let mut saw_up = false;
            steady(
                &mut b,
                2_100,
                20,
                400,
                |w| w / 2,
                |b| {
                    saw_up |= b.mode() == Mode::ProbeUp;
                    false
                },
            );
            assert!(saw_up, "should have probed up within 8 s of cruising");
            assert!(
                b.inflight_hi().unwrap() > hi_before,
                "lossless UP probe should raise the ceiling: {:?} vs {hi_before}",
                b.inflight_hi()
            );
        }
    }

    #[test]
    fn probe_rtt_visits_every_five_seconds() {
        for mut b in both() {
            drive(&mut b, 100, 20, 40, 0);
            let mut saw = false;
            let mut delivered = 1_000_000u64;
            for i in 0..400 {
                let prior = delivered;
                delivered += 10;
                b.on_ack(&pipe_sample(
                    1_000 + i * 25,
                    25,
                    100,
                    delivered,
                    prior,
                    10,
                    0,
                    2,
                ));
                saw |= b.mode() == Mode::ProbeRtt;
            }
            assert!(
                saw,
                "min-RTT window is 5 s; a 10 s run must visit PROBE_RTT"
            );
        }
    }

    #[test]
    fn ceiling_never_falls_below_min_cwnd() {
        for mut b in both() {
            drive(&mut b, 100, 20, 40, 0);
            for i in 0..50 {
                loss(&mut b, 3_000 + i, 1);
                b.on_recovery_exit(SimTime::from_millis(3_001 + i));
            }
            assert!(
                b.inflight_hi().unwrap() >= MIN_CWND,
                "ceiling cuts floor at MIN_CWND"
            );
            assert!(b.cwnd() >= MIN_CWND);
        }
    }

    #[test]
    fn paces_and_costs_more_than_its_predecessor() {
        let v1 = crate::bbr::Bbr::new(1448).model_cost_cycles();
        let [v2, v3] = both();
        assert!(v2.wants_pacing() && v3.wants_pacing());
        assert!(v1 < v2.model_cost_cycles());
        assert!(v2.model_cost_cycles() < v3.model_cost_cycles());
    }

    #[test]
    fn rto_floors_cwnd() {
        for mut b in both() {
            drive(&mut b, 100, 20, 40, 0);
            b.on_rto(SimTime::from_secs(2), 50);
            assert_eq!(b.cwnd(), MIN_CWND);
        }
    }
}
