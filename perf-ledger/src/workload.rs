//! The three benchmark workloads, built only from the public experiment
//! builders (`experiments::params::Params`, `SimConfig::builder`).
//!
//! Each workload is an uncached grid of `SimConfig`s. The grid seed picks
//! the per-cell simulation seeds: grid seed `s` runs cells on seeds
//! `5s+1 ..= 5s+5`, so grid seed 0 is exactly the full preset's seeds
//! 1..=5. `run.py` maps a run's `--seed` to three grid seeds.

use congestion::CcKind;
use cpu_model::CpuConfig;
use experiments::fleet::SHARE_MBPS;
use experiments::params::{Params, CONN_SWEEP};
use netsim::media::MediaProfile;
use netsim::Qdisc;
use sim_core::units::Bandwidth;
use tcp_sim::fleet::DeviceSpec;
use tcp_sim::{FleetConfig, SimConfig};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 2 grid: many short CPU-bound single-device cells.
    PaperGrid,
    /// The full-preset FLEET grid: few long cells through one shared hop.
    FleetPop,
    /// BBR/BBRv2/BBRv3/Cubic contenders under FIFO, CoDel and FQ-CoDel.
    AqmDuel,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::FleetPop, Workload::AqmDuel];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::FleetPop => "fleet_pop",
            Workload::AqmDuel => "aqm_duel",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a grid to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's grids: `Params::full()` durations, fleet sizes and
    /// seed counts.
    Full,
    /// The same grid shapes at `Params::smoke()` size, for the package's
    /// own tests.
    Smoke,
}

/// The congestion controllers of the AQM duel, one quarter of the
/// contenders each.
pub const DUEL_CCS: [CcKind; 4] = [CcKind::Bbr, CcKind::Bbr2, CcKind::Bbr3, CcKind::Cubic];

/// Contenders in the full-size AQM duel (12 per controller).
pub const DUEL_DEVICES: usize = 48;

/// The queue disciplines the AQM duel runs under.
pub const DUEL_QDISCS: [Qdisc; 3] = [Qdisc::Fifo, Qdisc::Codel, Qdisc::FqCodel];

/// What a spec's cells mean to the aggregate correctness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A Fig. 2 data point.
    Fig2 {
        /// CPU configuration.
        cpu: CpuConfig,
        /// Congestion control.
        cc: CcKind,
        /// Parallel connections.
        conns: usize,
    },
    /// A fleet row (FLEET or the AQM duel).
    Fleet,
}

/// One configuration repeated over the cell seeds.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Display label.
    pub label: String,
    /// The configuration; each cell overrides the seed.
    pub config: SimConfig,
    /// Cell seeds.
    pub seeds: Vec<u64>,
    /// Aggregate-check role.
    pub role: Role,
}

/// The seeds grid seed `seed` assigns to a spec with `n` repetitions.
pub fn cell_seeds(seed: u64, n: u64) -> Vec<u64> {
    let base = seed.wrapping_mul(n);
    (1..=n).map(|k| base.wrapping_add(k)).collect()
}

fn params(scale: Scale) -> Params {
    let mut p = match scale {
        Scale::Full => Params::full(),
        Scale::Smoke => Params::smoke(),
    };
    // The benchmark measures computation, never the run cache.
    p.cache_dir = None;
    p
}

/// The shared PoP uplink for `n` devices, provisioned like FLEET's.
fn uplink(n: usize, qdisc: Qdisc) -> netsim::LinkConfig {
    FleetConfig::pop_uplink(Bandwidth::from_mbps(SHARE_MBPS * n as u64), qdisc)
}

/// The AQM-duel fleet: `n` High-End Ethernet contenders, controllers
/// assigned round-robin from [`DUEL_CCS`], under `qdisc`.
pub fn duel_fleet(n: usize, qdisc: Qdisc) -> FleetConfig {
    let devices = (0..n)
        .map(|i| {
            DeviceSpec::new(
                CpuConfig::HighEnd,
                DUEL_CCS[i % DUEL_CCS.len()],
                MediaProfile::Ethernet,
            )
        })
        .collect();
    FleetConfig {
        devices,
        shared: None,
    }
    .with_shared(uplink(n, qdisc))
}

/// Build a workload's grid for benchmark seed `seed`.
pub fn specs(workload: Workload, seed: u64, scale: Scale) -> Vec<Spec> {
    let p = params(scale);
    let seeds = cell_seeds(seed, p.seeds);
    let spec = |label: String, config: SimConfig, role: Role| Spec {
        label,
        config,
        seeds: seeds.clone(),
        role,
    };
    match workload {
        Workload::PaperGrid => {
            let mut out = Vec::new();
            for cpu in CpuConfig::ALL {
                for &conns in &CONN_SWEEP {
                    for cc in [CcKind::Cubic, CcKind::Bbr] {
                        out.push(spec(
                            format!("{cc}, {cpu}, {conns} conns"),
                            p.pixel4(cpu, cc, conns),
                            Role::Fig2 { cpu, cc, conns },
                        ));
                    }
                }
            }
            out
        }
        Workload::FleetPop => {
            let n = p.fleet_devices;
            let anchor = DeviceSpec::new(CpuConfig::LowEnd, CcKind::Bbr, MediaProfile::Wifi);
            vec![
                spec(
                    format!("Mixed fleet, FIFO ({n} devices)"),
                    p.fleet(FleetConfig::mixed(n).with_shared(uplink(n, Qdisc::Fifo))),
                    Role::Fleet,
                ),
                spec(
                    format!("Mixed fleet, CoDel ({n} devices)"),
                    p.fleet(FleetConfig::mixed(n).with_shared(uplink(n, Qdisc::Codel))),
                    Role::Fleet,
                ),
                spec(
                    format!("Uniform Low-End BBR/WiFi, FIFO ({n} devices)"),
                    p.fleet(FleetConfig::uniform(n, anchor).with_shared(uplink(n, Qdisc::Fifo))),
                    Role::Fleet,
                ),
            ]
        }
        Workload::AqmDuel => {
            let n = match scale {
                Scale::Full => DUEL_DEVICES,
                Scale::Smoke => 2 * DUEL_CCS.len(),
            };
            DUEL_QDISCS
                .iter()
                .map(|&q| {
                    spec(
                        format!("AQM duel, {q} ({n} devices)"),
                        p.fleet(duel_fleet(n, q)),
                        Role::Fleet,
                    )
                })
                .collect()
        }
    }
}

/// The workload's representative cell for the traced per-layer run, with
/// its seed applied: the canonical Low-End 20-conn BBR cell of Fig. 2, the
/// mixed FIFO fleet, and the FQ-CoDel duel (the only cell that runs BBRv3
/// and FQ-CoDel together).
pub fn representative(workload: Workload, seed: u64, scale: Scale) -> SimConfig {
    let grid = specs(workload, seed, scale);
    let spec = match workload {
        Workload::PaperGrid => grid
            .iter()
            .find(|s| {
                s.role
                    == Role::Fig2 {
                        cpu: CpuConfig::LowEnd,
                        cc: CcKind::Bbr,
                        conns: 20,
                    }
            })
            .expect("the Fig. 2 grid holds the Low-End 20-conn BBR cell"),
        Workload::FleetPop => &grid[0],
        Workload::AqmDuel => grid.last().expect("the duel grid is not empty"),
    };
    let mut config = spec.config.clone();
    config.seed = spec.seeds[0];
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_have_the_documented_sizes() {
        let cells = |w| {
            specs(w, 0, Scale::Full)
                .iter()
                .map(|s| s.seeds.len())
                .sum::<usize>()
        };
        assert_eq!(cells(Workload::PaperGrid), 160);
        assert_eq!(cells(Workload::FleetPop), 15);
        assert_eq!(cells(Workload::AqmDuel), 15);
        let fleet = &specs(Workload::FleetPop, 0, Scale::Full)[0];
        assert_eq!(fleet.config.fleet.as_ref().unwrap().devices.len(), 504);
    }

    #[test]
    fn seed_zero_is_the_full_presets_seeds() {
        assert_eq!(cell_seeds(0, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(cell_seeds(3, 5), vec![16, 17, 18, 19, 20]);
    }

    #[test]
    fn duel_splits_contenders_evenly() {
        let fleet = duel_fleet(DUEL_DEVICES, Qdisc::FqCodel);
        for cc in DUEL_CCS {
            assert_eq!(fleet.devices.iter().filter(|d| d.cc == cc).count(), 12);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
