//! Noise sentinel: a benchmark-owned pointer chase, run on both client CPUs
//! before and after every trial.
//!
//! The chase fits in L1 and does nothing but dependent loads, so its rate is
//! a property of the host at that moment (CPU steal, frequency, a noisy
//! neighbour), never of the code under test. A trial bracketed by a reading
//! well below the run's best is disturbed; the decision to discard it looks
//! only at these readings, never at the trial's own result.

use std::time::{Duration, Instant};

use crate::gen::{Rng, CLIENTS};

/// Length of one reading.
pub const CALIB: Duration = Duration::from_millis(25);
/// A reading below this share of the run's best marks a disturbance.
pub const DISTURBED_BELOW: f64 = 0.85;

const CELLS: usize = 2048; // 8 KiB of u32: L1-resident
const CHECK_EVERY: u64 = 1 << 14;

/// One random cycle through all the cells (Sattolo's algorithm).
fn cycle() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CELLS as u32).collect();
    let mut rng = Rng::new(0xCA11B);
    for i in (1..CELLS).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], span: Duration) -> f64 {
    let start = Instant::now();
    let (mut at, mut steps) = (0u32, 0u64);
    loop {
        for _ in 0..CHECK_EVERY {
            at = next[at as usize];
        }
        steps += CHECK_EVERY;
        let elapsed = start.elapsed();
        if elapsed >= span {
            std::hint::black_box(at);
            return steps as f64 / elapsed.as_secs_f64() / 1e6;
        }
    }
}

/// One sentinel reading in M steps/s: the slower of the two client CPUs'
/// simultaneous chases.
pub fn reading() -> f64 {
    let next = cycle();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| chase(&next, CALIB)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration thread panicked"))
            .fold(f64::INFINITY, f64::min)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_cell() {
        let next = cycle();
        let (mut at, mut seen) = (0u32, vec![false; CELLS]);
        for _ in 0..CELLS {
            assert!(!std::mem::replace(&mut seen[at as usize], true));
            at = next[at as usize];
        }
        assert_eq!(at, 0, "one cycle of full length");
    }

    #[test]
    fn a_reading_is_positive_and_takes_about_its_span() {
        let t = Instant::now();
        assert!(reading() > 1.0);
        assert!(t.elapsed() >= CALIB && t.elapsed() < CALIB * 20);
    }
}
