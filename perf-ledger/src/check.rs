//! Correctness checks. Every cell must pass the per-cell invariants, and
//! the Fig. 2 grid must show the paper's headline shapes on its means.
//! A cell that fails any check counts toward `cell_fail_frac`.

use crate::workload::Role;
use congestion::CcKind;
use cpu_model::CpuConfig;
use tcp_sim::{SimConfig, SimResult};

/// Mean goodput the High-End single-connection cells must exceed, Mbps:
/// the FIG2 experiment's "High-End reaches near line rate" threshold on
/// the 1 Gbps Ethernet line.
const LINE_RATE_FLOOR_MBPS: f64 = 850.0;

/// The rate of the link that bounds the cell's goodput: the shared PoP
/// uplink in fleet mode, the forward access link otherwise.
fn bottleneck_mbps(config: &SimConfig) -> f64 {
    match config.fleet.as_ref().and_then(|f| f.shared.as_ref()) {
        Some(shared) => shared.rate.as_mbps_f64(),
        None => config.path.forward.rate.as_mbps_f64(),
    }
}

/// The per-cell invariants a cell violates, one line each (empty when it
/// passes).
pub fn cell_failures(config: &SimConfig, res: &SimResult) -> Vec<String> {
    let c = &res.counters;
    let mut out = Vec::new();
    let sent = c.get("pkts_sent");
    let delivered: u64 = res.per_conn.iter().map(|s| s.delivered_pkts).sum();
    let accepted = c.get("rx_pkts_accepted");
    if delivered > sent || accepted > sent {
        out.push(format!(
            "delivered {delivered} (window) / {accepted} (run) exceeds sent {sent}"
        ));
    }
    let cap = bottleneck_mbps(config);
    let goodput = res.goodput_mbps();
    if !(goodput.is_finite() && goodput > 0.0 && goodput <= cap) {
        out.push(format!(
            "goodput {goodput} Mbps outside (0, {cap}] (bottleneck rate)"
        ));
    }
    let (sched, popped, cancelled, pending) = (
        c.get("wheel_scheduled"),
        c.get("wheel_popped"),
        c.get("wheel_cancelled"),
        c.get("wheel_pending"),
    );
    if sched != popped + cancelled + pending {
        out.push(format!(
            "wheel scheduled {sched} != popped {popped} + cancelled {cancelled} + pending {pending}"
        ));
    }
    if let Some(fleet) = &res.fleet {
        let n = fleet.devices as f64;
        let jain = fleet.jain_devices;
        if !(jain >= 1.0 / n - 1e-9 && jain <= 1.0 + 1e-9) {
            out.push(format!("fleet Jain {jain} outside [1/{n}, 1]"));
        }
    }
    out
}

/// The paper's Fig. 2 headline shapes, checked on per-spec mean goodput:
/// High-End reaches line rate with one connection under both algorithms,
/// and Low-End BBR with 20 connections falls below Cubic. Returns
/// `(cell index, failure)` for every cell of a spec whose check failed;
/// grids without Fig. 2 cells pass trivially.
pub fn aggregate_failures(roles: &[Role], goodput: &[f64]) -> Vec<(usize, String)> {
    let cells_of = |cpu: CpuConfig, cc: CcKind, conns: usize| -> Vec<usize> {
        let want = Role::Fig2 { cpu, cc, conns };
        (0..roles.len()).filter(|&i| roles[i] == want).collect()
    };
    let mean =
        |cells: &[usize]| cells.iter().map(|&i| goodput[i]).sum::<f64>() / cells.len() as f64;
    let mut out = Vec::new();
    for cc in [CcKind::Cubic, CcKind::Bbr] {
        let cells = cells_of(CpuConfig::HighEnd, cc, 1);
        if cells.is_empty() {
            continue;
        }
        let g = mean(&cells);
        if g <= LINE_RATE_FLOOR_MBPS {
            for &i in &cells {
                out.push((
                    i,
                    format!("High-End 1-conn {cc} mean {g:.1} Mbps <= {LINE_RATE_FLOOR_MBPS}"),
                ));
            }
        }
    }
    let bbr = cells_of(CpuConfig::LowEnd, CcKind::Bbr, 20);
    let cubic = cells_of(CpuConfig::LowEnd, CcKind::Cubic, 20);
    if !bbr.is_empty() && !cubic.is_empty() {
        let ratio = mean(&bbr) / mean(&cubic);
        if ratio.is_nan() || ratio >= 1.0 {
            for &i in bbr.iter().chain(&cubic) {
                out.push((i, format!("Low-End 20-conn BBR/Cubic {ratio:.3} >= 1")));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Role> {
        let mut roles = Vec::new();
        for (cpu, conns) in [(CpuConfig::HighEnd, 1), (CpuConfig::LowEnd, 20)] {
            for cc in [CcKind::Cubic, CcKind::Bbr] {
                roles.push(Role::Fig2 { cpu, cc, conns });
                roles.push(Role::Fig2 { cpu, cc, conns });
            }
        }
        roles
    }

    #[test]
    fn paper_shapes_pass_and_fail_as_stated() {
        let roles = grid();
        // High-End Cubic, High-End BBR, Low-End Cubic, Low-End BBR (2 seeds).
        let good = [940.0, 941.0, 930.0, 931.0, 300.0, 310.0, 150.0, 160.0];
        assert!(aggregate_failures(&roles, &good).is_empty());

        let slow_high_end = [940.0, 941.0, 800.0, 820.0, 300.0, 310.0, 150.0, 160.0];
        let failed: Vec<usize> = aggregate_failures(&roles, &slow_high_end)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        assert_eq!(failed, vec![2, 3]);

        let bbr_wins = [940.0, 941.0, 930.0, 931.0, 300.0, 310.0, 320.0, 330.0];
        assert_eq!(aggregate_failures(&roles, &bbr_wins).len(), 4);
    }

    #[test]
    fn fleet_roles_have_no_aggregate_checks() {
        assert!(aggregate_failures(&[Role::Fleet; 3], &[1.0, 2.0, 3.0]).is_empty());
    }
}
