//! The pure half of the flowmax benchmark: percentile rules, seeded
//! open-loop schedules and their accounting, span self time, and the
//! result line the harness prints.
//!
//! Everything here is free of clocks, threads, files and printing, so the
//! self-tests (`cargo test --manifest-path flowbench/Cargo.toml`) pin the
//! arithmetic that every reported number goes through. The runner that
//! drives the CLI, the daemon and the library layers lives in
//! `src/bin/flowbench/`.

#![forbid(unsafe_code)]

pub mod openloop;
pub mod report;
pub mod stats;
pub mod trace;

/// A small seeded generator (splitmix64) for workload schedules. The
/// benchmark's inputs must be a pure function of its `--seed`, so it owns
/// its generator instead of depending on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed` and `stream`, so one
    /// workload seed can feed several independent streams.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n.max(1)
    }
}

/// Derives the seed of the `index`-th generated input of a workload run,
/// so a run with several graph instances draws each from its own seed.
pub fn instance_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed, 0x1457_0000 + index as u64).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(instance_seed(7, 0), instance_seed(7, 1));
    }

    #[test]
    fn uniform_draws_stay_in_range() {
        let mut rng = Rng::new(3, 0);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            assert!(rng.below(5) < 5);
        }
    }
}
