//! Downstream of `alpha` only: its trait impl is reachable from
//! `alpha`'s generic code, but its inherent method is invisible to
//! `beta`, which does not depend on this crate.

use mb_alpha::probe::Probe;

/// Carrier for both kinds of method.
pub struct Gauge;

impl Gauge {
    /// Inherent: shares its name with `mb_beta::Settings::config`.
    pub fn config(&self) -> f64 {
        3.0
    }
}

impl Probe for Gauge {
    fn sample(&self) -> f64 {
        self.config()
    }
}
