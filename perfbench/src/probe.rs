//! A fixed host-speed probe, independent of the program under test.
//!
//! The host's own speed drifts by 20–40% over minutes (other tenants of
//! the machine share its caches and memory bandwidth), and that drift is
//! invisible to the run-queue wait. Each run times this kernel just before
//! its set-up; `run.py` reports host times scaled to the probe's speed on
//! the reference host, and the raw times beside them (NOTES.md). The
//! kernel mimics the simulator's mix of ordered-index churn, event-queue
//! traffic, small allocations and float accumulation, and calls nothing
//! from the program, so a change to the program never moves it.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Live entries in the kernel's ordered index and event queue.
const LIVE: usize = 32_768;
/// Operations the kernel performs.
const OPS: usize = 200_000;

/// Runs the kernel once and returns its duration in host seconds.
pub fn kernel_seconds() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(OPS)));
    start.elapsed().as_secs_f64()
}

/// The kernel: a deadline-ordered index with churn, an event heap, a
/// growing record vector, and a checksum so nothing is optimised away.
fn kernel(ops: usize) -> u64 {
    let mut state = 0x0ca1_1b7au64;
    // SplitMix64, kept local so the probe shares no code with the program.
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut index: BTreeMap<(u64, u64), Box<[u64; 4]>> = BTreeMap::new();
    let mut events: BinaryHeap<(u64, u64)> = BinaryHeap::new();
    let mut records: Vec<(u64, f64)> = Vec::new();
    let mut checksum = 0u64;
    let mut acc = 0.0f64;
    for id in 0..ops as u64 {
        let r = next();
        index.insert((r >> 40, id), Box::new([r, id, r ^ id, r.rotate_left(7)]));
        events.push((r & 0xffff_ffff, id));
        if index.len() > LIVE {
            if let Some((key, payload)) = index.pop_first() {
                checksum = checksum.wrapping_add(key.0 ^ payload[2]);
            }
        }
        if events.len() > LIVE {
            if let Some((t, e)) = events.pop() {
                acc += (t as f64).sqrt() * 1e-3;
                records.push((e, acc));
            }
        }
        if id % 1024 == 0 {
            // A feasibility-style prefix scan over the live index.
            let demand: f64 = index.keys().take(256).map(|k| (k.0 & 0xff) as f64).sum();
            acc += demand * 1e-9;
        }
    }
    records.sort_by(|a, b| a.1.total_cmp(&b.1));
    checksum ^ records.len() as u64 ^ acc.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(5_000), kernel(5_000));
        assert_ne!(kernel(5_000), kernel(6_000));
    }
}
