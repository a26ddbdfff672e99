//! The host-speed yardstick: a fixed piece of work, written here and
//! never changed, whose wall time measures how fast the host runs code
//! like the simulator's at a given moment.
//!
//! The benchmark's host is a small VM shared with other tenants, and its
//! execution speed drifts by up to 2x over minutes: identical passes take
//! 0.9 s in one minute and 1.8 s a few minutes later, in user time, with
//! no steal or run-queue wait. No window length or statistic over raw
//! pass times removes a drift that slow. The yardstick runs just before
//! each measured pass and once after the last; a pass's time is divided
//! by the mean of the yardstick runs around it, so most of the drift
//! cancels and the program's own speed remains.
//!
//! Not every kind of work tracks the drift. In a 5-minute trial, over
//! windows of five passes, the log of each candidate's time moved with
//! the log of serve-web's pass time with these slopes: libm float math
//! 0.97, hash-map updates 0.88, and a tiny serve-tpch pass 0.90; but
//! unpredictable branches 0.53, small allocations 0.52 and a binary-heap
//! queue 0.44, and tight arithmetic loops and pointer chases less still.
//! A yardstick with a slope well below 1 cancels only part of a drift,
//! so the simulation yardstick, for the serve and cluster workloads, is
//! float math and hash-map updates only. classify-tpcc's passes are DTW
//! matrices on every pool thread and drift far less than the simulator;
//! float math over-corrected them (its runs spread 0.10 against 0.06
//! raw). Its yardstick is a DTW dynamic program, run on as many threads
//! as the pool has.
//!
//! Both use only `std` and live in the benchmark, so no change to the
//! simulator can change them. Every part is `#[inline(never)]` so its
//! machine code does not depend on what else is compiled with it.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The kind of work a yardstick does, matched to a workload's passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Float math and hash-map updates, for the discrete-event simulator.
    Simulation,
    /// A DTW dynamic program, for the modeling kernels.
    Dtw,
}

impl Kind {
    /// The yardstick's time on the development host at its fastest. It
    /// only sets the scale of `setup_s`, which is reported in seconds at
    /// the host speed where the yardstick takes this long.
    pub fn reference_s(self) -> f64 {
        match self {
            Kind::Simulation => 0.035,
            Kind::Dtw => 0.025,
        }
    }
}

/// Runs the yardstick of `kind` once on each of `threads` threads at
/// once and returns the wall time in seconds until all have finished
/// (20–80 ms on a 2-vCPU cloud VM).
pub fn time(kind: Kind, threads: usize) -> f64 {
    let work = || match kind {
        Kind::Simulation => float() ^ hash(),
        Kind::Dtw => dtw(),
    };
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| black_box(work()));
        }
        black_box(work());
    });
    start.elapsed().as_secs_f64()
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

const SEED: u64 = 0x0139_0A9E_3779_B97F;

#[inline(never)]
fn float() -> u64 {
    let mut x = SEED;
    let mut acc = 0.0f64;
    for _ in 0..500_000 {
        let u = (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64 + 1e-9;
        acc += u.powf(1.7) + (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * u).cos()
            + 1.0 / (u + 0.5);
    }
    acc.to_bits()
}

#[inline(never)]
fn hash() -> u64 {
    // A fixed hasher, so every process hashes the same keys the same way.
    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = SEED;
    let mut a = 0u64;
    for i in 0..400_000u64 {
        let key = xorshift(&mut x) & 0xFFFF;
        *map.entry(key).or_insert(0) += i;
        if let Some(v) = map.get(&(key ^ 1)) {
            a = a.wrapping_add(*v);
        }
    }
    a ^ map.len() as u64
}

#[inline(never)]
fn dtw() -> u64 {
    let mut x = SEED;
    let series: Vec<Vec<f64>> = (0..8)
        .map(|i| {
            (0..40 + 8 * i)
                .map(|_| (xorshift(&mut x) >> 11) as f64 / (1u64 << 53) as f64)
                .collect()
        })
        .collect();
    let mut total = 0.0;
    for _ in 0..DTW_ROUNDS {
        for a in &series {
            for b in &series {
                total += dtw_pair(a, b);
            }
        }
    }
    total.to_bits()
}

const DTW_ROUNDS: usize = 25;

fn dtw_pair(a: &[f64], b: &[f64]) -> f64 {
    let mut prev = vec![f64::INFINITY; a.len() + 1];
    let mut cur = vec![f64::INFINITY; a.len() + 1];
    prev[0] = 0.0;
    for &bj in b {
        cur[0] = f64::INFINITY;
        for (i, &ai) in a.iter().enumerate() {
            cur[i + 1] = (ai - bj).abs() + prev[i].min(prev[i + 1]).min(cur[i]);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[a.len()]
}
