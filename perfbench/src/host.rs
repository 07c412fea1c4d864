//! The host's speed, measured with a fixed computation of the benchmark's
//! own.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts over minutes. Over eight `sched-replay` runs made within four
//! minutes the mean replay took from 209 to 298 ms; `kernel`, timed just
//! before each replay, took from 50 to 69 ms, and the ratio of the two
//! moved by a twentieth. The end-to-end timings are therefore reported at
//! a reference host speed: scaled to a host on which `kernel` takes
//! `REFERENCE_SECS`. The kernel uses only the standard library, so no
//! change to the workspace can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Time of `kernel` on the reference host.
pub const REFERENCE_SECS: f64 = 0.05;

/// Keys the kernel sorts and queues: 4 MB of them. A 2 MB kernel tracked
/// the host less closely: over ten `sched-replay` runs it took out only
/// a third of the spread.
const KEYS: usize = 1 << 19;

/// Keys the heap holds at most.
const HEAP: usize = 1 << 16;

/// Sort pseudo-random keys, then stream them through a bounded binary
/// heap: the mix of arithmetic, memory traffic and priority-queue work the
/// workloads do, at a size that fits the caches of a small host.
fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..KEYS)
        .map(|_| {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect();
    keys.sort_unstable();
    let mut heap = BinaryHeap::with_capacity(HEAP + 1);
    let mut sum = 0u64;
    for (i, k) in keys.iter().enumerate() {
        heap.push(Reverse(k ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)));
        if heap.len() > HEAP {
            if let Some(Reverse(v)) = heap.pop() {
                sum = sum.wrapping_add(v);
            }
        }
    }
    sum
}

/// Wall seconds of one run of the kernel.
pub fn time_kernel() -> f64 {
    let started = Instant::now();
    black_box(kernel());
    started.elapsed().as_secs_f64()
}
