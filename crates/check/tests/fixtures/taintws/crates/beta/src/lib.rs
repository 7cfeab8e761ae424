//! Cross-crate taint: reaches the `alpha` source through a use-rename
//! and a method call — the two call-graph edges naive resolvers miss.

use mb_alpha::model as m;

/// Carrier for the method-call hop.
pub struct Runner;

impl Runner {
    /// Tainted through the renamed module.
    pub fn run(&self) -> f64 {
        m::timed_model()
    }
}

/// Tainted through the method call on `Runner`.
pub fn drive() -> f64 {
    let r = Runner;
    r.run()
}

/// Determinism-clean.
pub fn idle() -> f64 {
    0.0
}

/// Holds the inherent `config` this crate's method call resolves to.
pub struct Settings;

impl Settings {
    /// Inherent: `mb_gamma::Gauge::config` has the same name.
    pub fn config(&self) -> f64 {
        1.0
    }
}

/// Reaches `Settings::config` but not `mb_gamma::Gauge::config`.
pub fn configure() -> f64 {
    Settings.config()
}
