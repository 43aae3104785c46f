//! One timed pass over a workload's grid through the sweep engine, with
//! per-cell correctness checks and an output digest.

use crate::check::{aggregate_failures, cell_failures};
use crate::workload::{specs, Role, Scale, Workload};
use sim_core::sweep::{fnv64, run_sweep_streaming, SweepCell, SweepOptions};
use sim_core::SimRng;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use tcp_sim::{SimConfig, StackSim};

/// One (configuration, seed) cell. Never cached: the benchmark measures
/// computation.
struct LedgerCell {
    label: String,
    config: Arc<SimConfig>,
    /// When the pass's first cell began `run()`: the end of set-up.
    first_run: Arc<OnceLock<Instant>>,
}

/// What a cell hands back to the pass: its simulated counts, the checks
/// it failed, a digest of its full result, and host timing.
#[derive(Debug, Clone)]
struct CellOutput {
    /// FNV-1a of the cell's `SimResult` serialized as JSON: every
    /// simulated statistic, so any change in output changes it.
    pub digest: u64,
    /// Wheel events popped.
    pub events: u64,
    /// Data packets sent (first transmissions and retransmissions).
    pub packets: u64,
    /// Retransmitted packets.
    pub retx: u64,
    /// Packets dropped at bottleneck queues (device links and the shared
    /// hop, drop-tail and AQM).
    pub drops: u64,
    /// Aggregate goodput, Mbps.
    pub goodput_mbps: f64,
    /// Failed per-cell invariants, one line each.
    pub failures: Vec<String>,
    /// Host seconds spent building and running the simulation.
    pub sim_s: f64,
    /// When the cell finished (for the release-wait measurement).
    pub done: Instant,
}

impl SweepCell for LedgerCell {
    type Output = CellOutput;

    fn label(&self) -> String {
        format!("{} [seed {}]", self.label, self.config.seed)
    }

    /// The canonical config JSON, as `iperf::SeedCell` keys its cells.
    fn key_bytes(&self) -> Vec<u8> {
        serde_json::to_string(&*self.config)
            .expect("SimConfig serializes infallibly")
            .into_bytes()
    }

    fn run(&self, _rng: SimRng) -> CellOutput {
        let started = Instant::now();
        self.first_run.get_or_init(|| started);
        let res = StackSim::from_arc(self.config.clone()).run();
        let sim_s = started.elapsed().as_secs_f64();
        let json = serde_json::to_string(&res).expect("SimResult serializes infallibly");
        let c = &res.counters;
        CellOutput {
            digest: fnv64(json.as_bytes()),
            events: c.get("wheel_popped"),
            packets: c.get("pkts_sent"),
            retx: c.get("retx_pkts"),
            drops: c.get("queue_drops") + c.get("shared_drops"),
            goodput_mbps: res.goodput_mbps(),
            failures: cell_failures(&self.config, &res),
            sim_s,
            done: Instant::now(),
        }
    }

    fn encode(_output: &CellOutput) -> Option<Vec<u8>> {
        None
    }

    fn decode(_bytes: &[u8]) -> Option<CellOutput> {
        None
    }

    fn cacheable(&self) -> bool {
        false
    }
}

/// Everything one pass measured and checked.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Seconds from `process_start` to the first cell's `run()`.
    pub setup_s: f64,
    /// Seconds from submitting the first cell to releasing the last.
    pub wall_s: f64,
    /// Per-cell simulation seconds, in submission order.
    pub cell_s: Vec<f64>,
    /// Worker-seconds the sweep's workers spent outside cells:
    /// `jobs × wall_s − Σ cell_s` (dispatch, thread start, idle tail).
    pub sweep_overhead_s: f64,
    /// Σ over cells of the time a finished output waited to be released
    /// in submission order.
    pub release_wait_s: f64,
    /// FNV-1a over the cell digests in submission order.
    pub digest: u64,
    /// Σ wheel events popped.
    pub events: u64,
    /// Σ data packets sent.
    pub packets: u64,
    /// Σ retransmitted packets.
    pub retx: u64,
    /// Σ bottleneck drops.
    pub drops: u64,
    /// Cells that failed at least one check, with their failures.
    pub failures: Vec<(String, Vec<String>)>,
    /// Worker threads used.
    pub jobs: usize,
}

impl PassResult {
    /// Cells run.
    pub fn attempted(&self) -> usize {
        self.cell_s.len()
    }

    /// Cells that failed a correctness check.
    pub fn failed(&self) -> usize {
        self.failures.len()
    }
}

/// Build `workload`'s grid for `seed` and run it through the sweep engine
/// on `jobs` workers. `process_start` anchors the set-up time.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    jobs: usize,
    scale: Scale,
    process_start: Instant,
) -> PassResult {
    let grid = specs(workload, seed, scale);
    let first_run = Arc::new(OnceLock::new());
    let mut cells = Vec::new();
    let mut spec_of = Vec::new();
    for (i, spec) in grid.iter().enumerate() {
        for &s in &spec.seeds {
            let mut config = spec.config.clone();
            config.seed = s;
            cells.push(LedgerCell {
                label: spec.label.clone(),
                config: Arc::new(config),
                first_run: first_run.clone(),
            });
            spec_of.push(i);
        }
    }
    let opts = SweepOptions {
        jobs,
        ..SweepOptions::serial(1)
    };
    let mut outputs: Vec<CellOutput> = Vec::with_capacity(cells.len());
    let mut release_wait_s = 0.0;
    let started = Instant::now();
    run_sweep_streaming(&cells, &opts, |_idx, out, _report| {
        release_wait_s += out.done.elapsed().as_secs_f64();
        outputs.push(out);
    })
    .expect("an uncancelled, checkpoint-free sweep completes");
    let wall_s = started.elapsed().as_secs_f64();
    let first = *first_run.get().expect("a non-empty grid runs a cell");
    let setup_s = first.duration_since(process_start).as_secs_f64();

    let roles: Vec<Role> = spec_of.iter().map(|&i| grid[i].role).collect();
    let goodput: Vec<f64> = outputs.iter().map(|o| o.goodput_mbps).collect();
    let mut failures: Vec<Vec<String>> = outputs.iter().map(|o| o.failures.clone()).collect();
    for (cell, why) in aggregate_failures(&roles, &goodput) {
        failures[cell].push(why);
    }

    let cell_s: Vec<f64> = outputs.iter().map(|o| o.sim_s).collect();
    let mut digest_bytes = Vec::with_capacity(8 * outputs.len());
    for o in &outputs {
        digest_bytes.extend_from_slice(&o.digest.to_le_bytes());
    }
    let jobs_used = jobs.max(1).min(cells.len().max(1));
    PassResult {
        setup_s,
        wall_s,
        sweep_overhead_s: jobs_used as f64 * wall_s - cell_s.iter().sum::<f64>(),
        release_wait_s,
        cell_s,
        digest: fnv64(&digest_bytes),
        events: outputs.iter().map(|o| o.events).sum(),
        packets: outputs.iter().map(|o| o.packets).sum(),
        retx: outputs.iter().map(|o| o.retx).sum(),
        drops: outputs.iter().map(|o| o.drops).sum(),
        failures: failures
            .into_iter()
            .enumerate()
            .filter(|(_, f)| !f.is_empty())
            .map(|(i, f)| (cells[i].label(), f))
            .collect(),
        jobs: jobs_used,
    }
}
