//! The benchmark's own checks on smoke-size slices of each workload:
//! output digests do not depend on the worker count, and the per-layer
//! replays reproduce the traced cell as closely as README.md states.

use perf_ledger::pass::run_pass;
use perf_ledger::replay::{
    cpu_spans, ledger, replay_cpu, replay_wheel, trace_cell, wheel_ops, Ledger,
};
use perf_ledger::workload::{representative, Scale, Workload};
use std::time::Instant;

#[test]
fn digest_is_equal_at_one_and_two_jobs() {
    for w in Workload::ALL {
        let one = run_pass(w, 0, 1, Scale::Smoke, Instant::now());
        let two = run_pass(w, 0, 2, Scale::Smoke, Instant::now());
        assert_eq!(one.digest, two.digest, "{}", w.name());
        assert_eq!(
            (one.events, one.packets, one.retx, one.drops),
            (two.events, two.packets, two.retx, two.drops),
            "{}",
            w.name()
        );
        assert_eq!(one.attempted(), two.attempted());
        assert!(one.events > 0 && one.packets > 0, "{}", w.name());
    }
}

#[test]
fn a_different_seed_changes_a_seed_dependent_grid() {
    // FLEET's WiFi devices draw from the cell seed; the Ethernet-only grids
    // are deterministic in it.
    let a = run_pass(Workload::FleetPop, 0, 2, Scale::Smoke, Instant::now());
    let b = run_pass(Workload::FleetPop, 1, 2, Scale::Smoke, Instant::now());
    assert_ne!(a.digest, b.digest);
}

#[test]
fn wheel_replay_pops_the_recorded_sequence_exactly() {
    for w in Workload::ALL {
        let cell = trace_cell(&representative(w, 0, Scale::Smoke));
        assert_eq!(cell.log.dropped, 0, "{}", w.name());
        assert!(cell.identical, "tracing changed {}'s result", w.name());
        let (ops, unknown) = wheel_ops(&cell.log);
        let c = &cell.result.counters;
        assert_eq!(unknown, 0, "{}", w.name());
        assert_eq!(
            ops.len() as u64,
            c.get("wheel_scheduled") + c.get("wheel_popped") + c.get("wheel_cancelled"),
            "{}",
            w.name()
        );
        assert_eq!(replay_wheel(&ops).mismatches, 0, "{}", w.name());
    }
}

#[test]
fn cpu_replay_reproduces_a_single_device_cell_exactly() {
    let config = representative(Workload::PaperGrid, 0, Scale::Smoke);
    let cell = trace_cell(&config);
    let spans = cpu_spans(&cell.log);
    let (timed, cycles) = replay_cpu(&config, &spans);
    assert_eq!(cycles, cell.result.cpu.total_cycles);
    assert_eq!(timed.mismatches, 0, "every span ends where it ended");
}

fn count(l: &Ledger, name: &str) -> u64 {
    l.counts.get(name).copied().unwrap_or(0)
}

fn check_ledger(l: &Ledger) {
    assert_eq!(l.dropped, 0);
    assert!(l.identical);
    assert_eq!(l.wheel.mismatches, 0);
    assert_eq!(l.wheel.ops, l.wheel_ops());
    assert_eq!(l.spans, l.cpu.ops);
    assert_eq!(l.cycles.0, l.cycles.1, "every recorded cycle is replayed");
    assert_eq!(l.arena.ops, count(l, "acks_processed"));
    // Every RTO record reaches the controller; ACKs reach it as the
    // simulator's order of loss event, sample and recovery exit.
    let s = l.shaped;
    assert_eq!(
        l.cc.ops,
        s.cc_acks + s.recovery_entries + s.recovery_exits + count(l, "rto_fires")
    );
}

/// `replayed` lies within `tolerance` (a share) of `traced`.
fn close(name: &str, replayed: u64, traced: u64, tolerance: f64) {
    assert!(
        replayed.abs_diff(traced) as f64 <= tolerance * traced as f64,
        "{name}: {replayed} replayed vs {traced} traced"
    );
}

#[test]
fn ledgers_account_for_every_cell() {
    for w in Workload::ALL {
        check_ledger(&ledger(w, 0, Scale::Smoke));
    }
}

#[test]
fn link_replay_reproduces_the_duels_drops_within_two_percent() {
    // The full-size FQ-CoDel duel: the smoke cells drop only tens of
    // packets. Packets reach the links at their send record's time rather
    // than after the CPU and netem delays, so drops match only closely.
    let l = ledger(Workload::AqmDuel, 0, Scale::Full);
    check_ledger(&l);
    let (traced, replayed) = (l.link_drops(), l.drops_replayed);
    assert!(traced > 10_000, "the duel cell drops at its bottleneck");
    close("drops", replayed, traced, 0.02);
}

#[test]
fn fleet_ledger_replays_the_recovery_path_and_stays_within_the_cells_wall() {
    // The full-size mixed FIFO fleet: 187k retransmissions and 1.5k
    // recovery entries, so the arena replay must run loss marking,
    // recovery and retransmission planning, not a lossless fast path. The
    // replay is deterministic, so these shares are exact.
    let l = ledger(Workload::FleetPop, 0, Scale::Full);
    check_ledger(&l);
    let s = l.shaped;
    assert!(count(&l, "retx_pkts") > 100_000);
    close("retx_pkts", s.retx_pkts, count(&l, "retx_pkts"), 0.25);
    close(
        "recovery_entries",
        s.recovery_entries,
        count(&l, "recovery_entries"),
        0.25,
    );
    close("cc on_ack calls", s.cc_acks, l.cc_calls, 0.25);
    // The layer replays explain part of the cell's measured wall time,
    // and never more than all of it.
    let frac = l.residual_s() / l.untraced_s;
    assert!((0.0..1.0).contains(&frac), "residual_frac {frac}");
}

#[test]
fn ledger_metrics_are_the_benchmark_json_per_layer_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let Some(serde_json::Value::Array(items)) = json.get("per_layer") else {
        panic!("per_layer is a list");
    };
    let declared: Vec<String> = items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|n| n.as_str())
                .expect("metric names are strings")
                .to_string()
        })
        .collect();
    let l = ledger(Workload::AqmDuel, 0, Scale::Smoke);
    let pass = run_pass(Workload::AqmDuel, 0, 1, Scale::Smoke, Instant::now());
    let produced: Vec<String> = l.metrics(&pass).into_iter().map(|(n, _)| n).collect();
    assert_eq!(produced, declared);
}
