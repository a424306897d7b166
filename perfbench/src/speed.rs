//! Host-speed calibration.
//!
//! On a shared 2-vCPU VM the same code runs up to 2.5× slower for
//! stretches of seconds to tens of minutes (no CPU steal is recorded; the
//! host's load changes the core's speed). So every time this benchmark
//! reports is rescaled to a reference speed: a wall time `t` is reported
//! as `t · KERNEL_REFERENCE_S / k`, where `k` is the median of the last
//! few calibration samples, taken between ops (see [`crate::probe`]).
//!
//! The kernel is benchmark-owned code that keeps its inputs out of any
//! state an op can disturb: its buffers are allocated once, so it never
//! allocates or faults in a page, and it copies its input into them before
//! the clock starts, so it runs from the L1 cache whatever the op left
//! there. [`Speed::footprint_effect`] measures how far an op's memory
//! footprint still moves it.

use crate::gen::Rng;
use crate::stats::median;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed, which sets the unit of every
/// reported time.
const KERNEL_REFERENCE_S: f64 = 40e-6;

const N: usize = 48;

/// Dense LU factorization and solve of the `N × N` matrix `a` in place:
/// floating-point work of the same kind as the pipeline's solves.
fn lu_solve(a: &mut [f64], x: &mut [f64]) -> f64 {
    for k in 0..N {
        let pivot = a[k * N + k];
        for i in k + 1..N {
            let f = a[i * N + k] / pivot;
            a[i * N + k] = f;
            for j in k + 1..N {
                a[i * N + j] -= f * a[k * N + j];
            }
        }
    }
    x.fill(1.0);
    for i in 0..N {
        for j in 0..i {
            x[i] -= a[i * N + j] * x[j];
        }
    }
    for i in (0..N).rev() {
        for j in i + 1..N {
            x[i] -= a[i * N + j] * x[j];
        }
        x[i] /= a[i * N + i];
    }
    x[0]
}

/// The calibration kernel: a fixed, diagonally dominant matrix and the
/// buffers it is factored in.
pub struct Speed {
    matrix: Vec<f64>,
    work: RefCell<(Vec<f64>, Vec<f64>)>,
}

impl Speed {
    pub fn new() -> Speed {
        let mut rng = Rng::new(0, 0);
        let mut matrix: Vec<f64> = (0..N * N).map(|_| rng.unit()).collect();
        for i in 0..N {
            matrix[i * N + i] += N as f64;
        }
        Speed {
            matrix,
            work: RefCell::new((vec![0.0; N * N], vec![0.0; N])),
        }
    }

    /// One calibration sample: the kernel's wall time (s) now, two
    /// factorizations of the matrix.
    pub fn sample(&self) -> f64 {
        let (a, x) = &mut *self.work.borrow_mut();
        a.copy_from_slice(&self.matrix);
        x.fill(0.0);
        let start = Instant::now();
        for _ in 0..2 {
            a.copy_from_slice(black_box(&self.matrix));
            black_box(lu_solve(a, x));
        }
        start.elapsed().as_secs_f64()
    }

    /// How far an op's memory footprint moves the kernel: its median time
    /// right after streaming writes through a 16 MB buffer (eight times the
    /// L2 cache) and right after churning the heap, each over its median
    /// time right after a no-op, as relative changes.
    pub fn footprint_effect(&self) -> FootprintEffect {
        let mut buffer = vec![0u64; 2 << 20];
        let mut heap: Vec<Vec<u8>> = Vec::new();
        let mut rng = Rng::new(0, 1);
        let mut times: [Vec<f64>; 3] = Default::default();
        for rep in 0..300 {
            let op = rep % 3;
            match op {
                1 => {
                    for (i, v) in buffer.iter_mut().enumerate() {
                        *v = v.wrapping_add(i as u64);
                    }
                    black_box(&buffer);
                }
                2 => {
                    for _ in 0..2000 {
                        if heap.len() >= 2000 {
                            heap.swap_remove(rng.below(2000) as usize);
                        }
                        heap.push(vec![1u8; 16 + rng.below(20_000) as usize]);
                    }
                    black_box(&heap);
                }
                _ => {}
            }
            times[op].push(self.sample());
        }
        let [noop, stream, churn] = times.map(|t| median(&t));
        FootprintEffect {
            stream: stream / noop - 1.0,
            heap_churn: churn / noop - 1.0,
        }
    }
}

/// The kernel's relative slow-down right after a synthetic op.
#[derive(Debug, Clone, Copy)]
pub struct FootprintEffect {
    pub stream: f64,
    pub heap_churn: f64,
}

/// The factor that rescales a wall time measured while the kernel took
/// `kernel` seconds to the reference speed.
pub fn scale(kernel: f64) -> f64 {
    KERNEL_REFERENCE_S / kernel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_time_the_kernel_and_scale_inverts_it() {
        let k = Speed::new().sample();
        assert!(k.is_finite() && k > 0.0);
        assert_eq!(scale(KERNEL_REFERENCE_S), 1.0);
        assert_eq!(scale(2.0 * KERNEL_REFERENCE_S), 0.5);
    }

    #[test]
    fn the_kernel_solves_its_system() {
        let speed = Speed::new();
        let (mut a, mut x) = (speed.matrix.clone(), vec![0.0; N]);
        lu_solve(&mut a, &mut x);
        // x solves A x = 1: check the residual against the original matrix.
        for i in 0..N {
            let row: f64 = (0..N).map(|j| speed.matrix[i * N + j] * x[j]).sum();
            assert!((row - 1.0).abs() < 1e-12, "row {i}: {row}");
        }
    }
}
