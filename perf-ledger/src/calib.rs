//! A fixed reference kernel that measures how fast the host is running
//! right now, independent of the simulator's code.
//!
//! Shared hosts change core speed by tens of percent within minutes (noisy
//! neighbours, turbo budgets). Timing this kernel around every pass lets
//! the benchmark express its times in reference-host seconds, so a slower
//! host does not read as a slower program. The kernel is branchy integer
//! work plus dependent loads over an L3-sized ring: of the variants tried
//! on the reference host (pure ALU, L2-, L3- and DRAM-sized rings), the
//! ALU and L3 ones tracked the simulator's pass times best, and a
//! DRAM-latency kernel did not track them at all.

use std::hint::black_box;
use std::time::Instant;

/// Elements in the pointer-chase ring (1 MiB of `u32`).
const RING: usize = 1 << 18;
/// Dependent loads per thread.
const CHASE_STEPS: usize = 2_000_000;
/// Integer mixing steps per thread.
const ALU_STEPS: usize = 30_000_000;

/// Kernel runs per calibration; their median is reported.
pub const RUNS: usize = 5;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One thread's share of the kernel; returns a checksum.
fn kernel(seed: u64) -> u64 {
    let mut rng = seed | 1;
    let mut sum = 0u64;
    for _ in 0..ALU_STEPS {
        let v = xorshift(&mut rng);
        sum = sum.wrapping_add(if v & 1 == 1 { v >> 3 } else { v.rotate_left(7) });
    }
    // A single random cycle through the ring (Sattolo's shuffle), so every
    // load depends on the previous one.
    let mut ring: Vec<u32> = (0..RING as u32).collect();
    for i in (1..RING).rev() {
        let j = (xorshift(&mut rng) % i as u64) as usize;
        ring.swap(i, j);
    }
    let mut next = vec![0u32; RING];
    for i in 0..RING {
        next[ring[i] as usize] = ring[(i + 1) % RING];
    }
    let mut at = 0u32;
    for _ in 0..CHASE_STEPS {
        at = next[at as usize];
        sum = sum.wrapping_add(at as u64);
    }
    black_box(sum)
}

/// Seconds for `threads` threads to each run the kernel once, in parallel
/// (the sweep's worker count, so sibling-core contention shows as it does
/// in a pass).
fn kernel_seconds(threads: usize) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|t| scope.spawn(move || kernel(0x9e37_79b9_7f4a_7c15 ^ t as u64)))
            .collect();
        for h in handles {
            black_box(h.join().expect("the calibration kernel does not panic"));
        }
    });
    started.elapsed().as_secs_f64()
}

/// Median seconds of [`RUNS`] kernel runs on `threads` threads.
pub fn calibrate(threads: usize) -> f64 {
    let mut runs: Vec<f64> = (0..RUNS).map(|_| kernel_seconds(threads)).collect();
    runs.sort_by(f64::total_cmp);
    runs[RUNS / 2]
}
