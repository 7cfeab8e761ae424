//! Pins the model-driven figure outputs bit for bit at the repository
//! root, so the plain `cargo test` of the meta-package catches any drift
//! in the machine model (TLB, cache hierarchy, `ModelExec`) that the
//! paper-claim assertions in `end_to_end.rs` would tolerate. The digests
//! and constants are shared with the `montblanc` crate's own pin suites.

// Only the quick model pins run here; the rest of the shared module
// (Figure 3, the paper grids) stays with the `montblanc` suites.
#[allow(dead_code)]
#[path = "../crates/core/tests/common/digest.rs"]
mod digest;

#[test]
fn fig5_quick_output_is_pinned() {
    assert_eq!(digest::fig5_quick(), digest::FIG5_QUICK_DIGEST);
}

#[test]
fn fig7_quick_output_is_pinned() {
    assert_eq!(digest::fig7_quick(), digest::FIG7_QUICK_DIGEST);
}

#[test]
fn table2_quick_output_is_pinned() {
    assert_eq!(digest::table2_quick(), digest::TABLE2_QUICK_DIGEST);
}
