//! Host-speed calibration: a fixed kernel timed around every set-up
//! and every pass, so each timing can be scaled to one reference speed.
//!
//! On the benchmark host (a 2-vCPU KVM guest) the same deterministic
//! pass runs up to 2× slower for tens of seconds at a time. A pure ALU
//! loop barely moves meanwhile, and no page faults, system time or
//! run-queue waits appear: the swings come from the memory system the
//! guest shares with its neighbours, and they last longer than a run.
//! A median over passes cannot remove a swing that covers the whole
//! run, so every timing is divided by the host's speed as the kernel
//! measured it just before and just after.
//!
//! The kernel does to the memory system what the program's hot paths
//! do: it sorts, then makes dependent random reads, on a 4 MiB buffer
//! (twice a core's L2). The buffer is allocated once, before the first
//! memory reading, and kept: allocating it per sample would add to the
//! peaks, and freeing it would move glibc's mmap threshold under the
//! program. It is the benchmark's own code, so no change to the program
//! changes it.

use std::hint::black_box;
use std::time::Instant;

/// u64 words in the kernel's buffer (4 MiB).
const WORDS: usize = 1 << 19;
/// Dependent random reads per round.
const READS: usize = 1 << 20;
/// Rounds per sample; more rounds average out the kernel's own noise.
const ROUNDS: usize = 3;

/// The kernel's duration at the host speed scaled timings refer to: on
/// the benchmark host (2-vCPU Xeon KVM guest) its samples had a 10th
/// percentile of 0.115 s and a median of 0.133 s.
pub const REFERENCE_S: f64 = 0.12;

/// One timed repetition: its wall time, the same scaled to the
/// reference speed, and the kernel samples taken around it.
pub struct Timing {
    pub secs: f64,
    pub scaled: f64,
    pub kernel_before: f64,
    pub kernel_after: f64,
}

/// The kernel, its buffer, and its latest sample.
pub struct Kernel {
    buf: Vec<u64>,
    last: f64,
}

impl Kernel {
    /// Allocates and touches the buffer.
    pub fn new() -> Kernel {
        Kernel {
            buf: vec![1; WORDS],
            last: 0.0,
        }
    }

    /// Samples the kernel ahead of a series of repetitions.
    pub fn start(&mut self) {
        self.last = self.sample();
    }

    /// Samples the kernel after a repetition that took `secs` and scales
    /// `secs` by the mean of that sample and the one before it.
    pub fn close(&mut self, secs: f64) -> Timing {
        let before = self.last;
        self.last = self.sample();
        Timing {
            secs,
            scaled: secs * REFERENCE_S / ((before + self.last) / 2.0),
            kernel_before: before,
            kernel_after: self.last,
        }
    }

    /// Runs the kernel once and returns its duration in seconds.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            for word in self.buf.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *word = x;
            }
            self.buf.sort_unstable();
            let mut at = 0usize;
            for _ in 0..READS {
                let v = self.buf[at];
                acc = acc.wrapping_add(v);
                at = (v ^ acc) as usize % WORDS;
            }
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}
