//! `perf-ledger` binary: one pass or one traced run of a workload, or one
//! host-speed calibration, reported as a single JSON line on stdout.
//! `run.py` is the benchmark's entry point; it calls this binary once per
//! pass, and runs each calibration in a process of its own so that a
//! pass's CPU time and peak RSS are the simulator's alone.
//!
//! ```text
//! perf-ledger pass      --workload <name> --seed <grid seed> --jobs <n>
//! perf-ledger trace     --workload <name> --seed <grid seed> --jobs <n>
//! perf-ledger calibrate --jobs <n>
//! ```

use perf_ledger::calib::calibrate;
use perf_ledger::pass::{run_pass, PassResult};
use perf_ledger::replay::{ledger, Ledger};
use perf_ledger::workload::{Scale, Workload};
use serde_json::Value;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    jobs: usize,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mode = argv
        .next()
        .ok_or("missing mode: pass, trace or calibrate")?;
    if !["pass", "trace", "calibrate"].contains(&mode.as_str()) {
        return Err(format!(
            "unknown mode {mode:?}: expected pass, trace or calibrate"
        ));
    }
    let (mut workload, mut seed, mut jobs) = (None, None, 1usize);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--jobs" => jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if mode == "calibrate" {
        workload = workload.or(Some(Workload::PaperGrid));
        seed = seed.or(Some(0));
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        jobs: jobs.max(1),
    })
}

fn field(name: &str, value: Value) -> (String, Value) {
    (name.to_string(), value)
}

fn pass_fields(p: &PassResult) -> Vec<(String, Value)> {
    let failures = p
        .failures
        .iter()
        .map(|(cell, why)| Value::Str(format!("{cell}: {}", why.join("; "))))
        .collect();
    vec![
        field("mode", Value::Str("pass".into())),
        field("setup_s", Value::Float(p.setup_s)),
        field("wall_s", Value::Float(p.wall_s)),
        field(
            "cell_s",
            Value::Array(p.cell_s.iter().map(|&s| Value::Float(s)).collect()),
        ),
        field("sweep_overhead_s", Value::Float(p.sweep_overhead_s)),
        field("release_wait_s", Value::Float(p.release_wait_s)),
        field("digest", Value::Str(format!("{:016x}", p.digest))),
        field("events", Value::UInt(p.events)),
        field("packets", Value::UInt(p.packets)),
        field("retx", Value::UInt(p.retx)),
        field("drops", Value::UInt(p.drops)),
        field("attempted", Value::UInt(p.attempted() as u64)),
        field("failed", Value::UInt(p.failed() as u64)),
        field("failures", Value::Array(failures)),
        field("jobs", Value::UInt(p.jobs as u64)),
    ]
}

fn ledger_fields(p: &PassResult, l: &Ledger) -> Vec<(String, Value)> {
    let mut fields = vec![
        field("mode", Value::Str("trace".into())),
        field("cell", Value::Str(l.label.clone())),
        field("pass", Value::Object(pass_fields(p))),
    ];
    fields.extend(l.metrics(p).into_iter().map(|(k, v)| (k, Value::Float(v))));
    fields.push(field("fidelity", l.fidelity()));
    fields
}

fn print(fields: Vec<(String, Value)>) {
    let line = serde_json::to_string(&Value::Object(fields)).expect("a Value renders infallibly");
    println!("{line}");
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.mode == "calibrate" {
        let s = calibrate(args.jobs);
        print(vec![field("calib_s", Value::Float(s))]);
        return ExitCode::SUCCESS;
    }
    let pass = run_pass(
        args.workload,
        args.seed,
        args.jobs,
        Scale::Full,
        process_start,
    );
    if args.mode == "pass" {
        print(pass_fields(&pass));
    } else {
        let l = ledger(args.workload, args.seed, Scale::Full);
        print(ledger_fields(&pass, &l));
    }
    ExitCode::SUCCESS
}
