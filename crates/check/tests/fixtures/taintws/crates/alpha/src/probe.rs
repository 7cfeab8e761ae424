//! A trait whose impls live in downstream crates.

/// Implemented outside this crate (`mb_gamma::Gauge`).
pub trait Probe {
    /// One reading.
    fn sample(&self) -> f64;
}

/// Generic over every impl: `p.sample()` must reach the downstream one.
pub fn observe<P: Probe>(p: &P) -> f64 {
    p.sample()
}
