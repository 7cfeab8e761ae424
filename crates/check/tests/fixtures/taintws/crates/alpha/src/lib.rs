//! Seeded taint fixture crate: `clock` holds the only direct
//! nondeterminism source; `model` reaches it transitively.

pub mod clock;
pub mod model;
pub mod probe;
