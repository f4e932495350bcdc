//! The calibration kernel: a fixed amount of arithmetic and memory work
//! whose only purpose is to say how fast the host is *right now*.
//!
//! The sandbox's speed wanders in waves of many seconds (a fixed spin
//! takes anywhere from 0.8× to 1.7× its median), so raw medians of
//! back-to-back windows of identical code sit 13–27% apart. Running
//! this kernel beside every timed phase and dividing it out brings the
//! same windows to within 5–12%. The kernel lives in the benchmark so
//! that no change to the system can ever change it.

use std::hint::black_box;
use std::time::Instant;

/// Dependent 64-bit multiply-adds in the arithmetic half (≈10 ms here).
const MAC_STEPS: u64 = 8_000_000;
/// Dependent random read-modify-writes in the memory half (≈9 ms here:
/// each one misses the TLB and the near caches).
const MEM_STEPS: u64 = 50_000;
/// The memory half walks a 32 MiB array: larger than any cache here.
const MEM_WORDS: usize = 4 << 20;

/// What a calibration is normalised to. A host on which the kernel
/// takes this long reports normalised == raw.
pub const REFERENCE_MS: f64 = 20.0;

/// Owns the array the memory half walks.
#[derive(Debug)]
pub struct Calibrator {
    mem: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Allocate and touch the 32 MiB array.
    pub fn new() -> Calibrator {
        let mem = (0..MEM_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        Calibrator { mem }
    }

    /// Run the kernel once; returns its wall time in milliseconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        // One chain of dependent steps is paced by multiply latency,
        // which follows the clock. The addend depends on `x` so the
        // compiler cannot fold the recurrence into a closed form.
        let mut x = black_box(0x2545_f491_4f6c_dd1du64);
        for _ in 0..MAC_STEPS {
            x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(x >> 29);
        }
        let mask = MEM_WORDS - 1;
        let mut i = (x as usize) & mask;
        for _ in 0..MEM_STEPS {
            let v = self.mem[i].wrapping_add(x);
            self.mem[i] = v;
            i = (v >> 7) as usize & mask;
            x ^= v;
        }
        black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_and_takes_time() {
        let mut c = Calibrator::new();
        let ms = c.run();
        assert!(ms > 0.0 && ms.is_finite());
    }
}
