//! The runtime invariant sanitizer — `mb-check`'s dynamic half.
//!
//! [`ValidatingExec`] sandwiches any [`Exec`] sink and asserts stream
//! invariants as operations flow through, compiled only under the
//! `validate` feature so production sweeps pay nothing:
//!
//! * **Region containment** — every load/store falls inside a declared
//!   address region (the membench array, its spill slots, …). An access
//!   outside is the simulation analogue of a wild pointer.
//! * **Batch/per-op consistency** — `flop_run`/`branch_run`/`access_run`
//!   totals must equal the sum of the equivalent per-op calls. The
//!   wrapper tallies both forms independently (expanding a bounded
//!   prefix of each batch op by op) and cross-checks after every batch
//!   call.
//! * **Operand sanity** — zero-byte accesses, zero-lane flops and other
//!   degenerate operands are flagged at the first offending call.
//!
//! For a wrapped [`ModelExec`], [`ValidatingExec::finish`] additionally
//! validates the report: cycle components finite and non-negative,
//! counters consistent with the operation tally, and the inner sink's
//! counts bit-identical to the wrapper's shadow tally.
//!
//! The wrapper never changes what reaches the inner sink, so a
//! `validate` build produces bit-identical numbers to a normal build —
//! the acceptance gate exercised by `crates/core/tests/validate_smoke.rs`.

use crate::exec_model::{ExecReport, ModelExec};
use crate::ops::{CountingExec, Exec, FlopKind, OpCounts, Precision, Stream};

/// How many ops of each batch call are replayed one by one for the
/// batch/per-op cross-check; the remainder is added in closed form.
const EXPAND_CAP: u64 = 4096;

/// A named address region accesses are validated against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Human-readable name, surfaced in violations.
    pub name: String,
    /// First byte address of the region.
    pub base: u64,
    /// Region length in bytes.
    pub bytes: u64,
}

impl Region {
    fn contains(&self, start: u64, end: u64) -> bool {
        start >= self.base && end <= self.base + self.bytes
    }
}

/// An [`Exec`] wrapper asserting stream invariants (see module docs).
#[derive(Debug)]
pub struct ValidatingExec<E> {
    inner: E,
    regions: Vec<Region>,
    violations: Vec<String>,
    strict: bool,
    /// Closed-form shadow tally: batch ops counted with one multiply.
    closed: CountingExec,
    /// Replay shadow tally: batch ops expanded per-op (capped, remainder
    /// closed-form). Diverges from `closed` only if batch semantics do.
    replayed: CountingExec,
}

impl<E: Exec> ValidatingExec<E> {
    /// Wraps a sink. Violations are collected; call [`Self::assert_clean`]
    /// at the end of the run (or use [`Self::strict`] to panic at the
    /// first offence).
    pub fn new(inner: E) -> Self {
        ValidatingExec {
            inner,
            regions: Vec::new(),
            violations: Vec::new(),
            strict: false,
            closed: CountingExec::new(),
            replayed: CountingExec::new(),
        }
    }

    /// Panic at the first violation instead of collecting.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Declares an address region loads and stores may touch. With no
    /// declared regions the containment check is off.
    pub fn declare_region(&mut self, name: impl Into<String>, base: u64, bytes: u64) {
        self.regions.push(Region {
            name: name.into(),
            base,
            bytes,
        });
    }

    /// The violations collected so far.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The wrapped sink, mutably (e.g. to set `ModelExec` hints).
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }

    /// Unwraps, discarding validation state.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// The wrapper's own operation tally (closed-form shadow).
    pub fn shadow_counts(&self) -> &OpCounts {
        self.closed.counts()
    }

    /// Panics with the full violation list unless the stream was clean.
    pub fn assert_clean(&self) {
        assert!(
            self.violations.is_empty(),
            "ValidatingExec: {} violation(s):\n{}",
            self.violations.len(),
            self.violations.join("\n")
        );
    }

    fn violate(&mut self, message: String) {
        if self.strict {
            panic!("ValidatingExec: {message}");
        }
        self.violations.push(message);
    }

    /// Checks that `[start, end)` — one access of `bytes` B, or the
    /// extent of a stream of such accesses — lies in one declared region.
    fn check_region(&mut self, what: &str, start: u64, end: u64, bytes: u32) {
        if bytes == 0 {
            self.violate(format!("{what} of zero bytes at {start:#x}"));
            return;
        }
        if self.regions.is_empty() {
            return;
        }
        if !self.regions.iter().any(|r| r.contains(start, end)) {
            let declared: Vec<String> = self
                .regions
                .iter()
                .map(|r| format!("{} [{:#x}, {:#x})", r.name, r.base, r.base + r.bytes))
                .collect();
            self.violate(format!(
                "{what} of {bytes} B spanning [{start:#x}, {end:#x}) outside \
                 every declared region: {}",
                declared.join(", ")
            ));
        }
    }

    /// Cross-checks the closed-form and replayed tallies after a batch
    /// call; they must agree field for field.
    fn check_batch(&mut self, what: &str) {
        if self.closed.counts() != self.replayed.counts() {
            let (c, r) = (*self.closed.counts(), *self.replayed.counts());
            self.violate(format!(
                "{what}: batch totals diverge from per-op sums \
                 (closed-form {c:?} vs replayed {r:?})"
            ));
            // Re-sync so one divergence is reported once, not forever.
            self.replayed = self.closed;
        }
    }
}

impl<E: Exec> Exec for ValidatingExec<E> {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        if lanes == 0 {
            self.violate(format!("flop({kind:?}, {prec:?}) with zero lanes"));
        }
        self.closed.flop(kind, prec, lanes);
        self.replayed.flop(kind, prec, lanes);
        self.inner.flop(kind, prec, lanes);
    }

    fn int_ops(&mut self, n: u64) {
        self.closed.int_ops(n);
        self.replayed.int_ops(n);
        self.inner.int_ops(n);
    }

    fn load(&mut self, addr: u64, bytes: u32) {
        self.check_region("load", addr, addr + u64::from(bytes), bytes);
        self.closed.load(addr, bytes);
        self.replayed.load(addr, bytes);
        self.inner.load(addr, bytes);
    }

    fn store(&mut self, addr: u64, bytes: u32) {
        self.check_region("store", addr, addr + u64::from(bytes), bytes);
        self.closed.store(addr, bytes);
        self.replayed.store(addr, bytes);
        self.inner.store(addr, bytes);
    }

    fn branch(&mut self, predictable: bool) {
        self.closed.branch(predictable);
        self.replayed.branch(predictable);
        self.inner.branch(predictable);
    }

    fn flop_run(&mut self, kind: FlopKind, prec: Precision, lanes: u32, n: u64) {
        if lanes == 0 && n > 0 {
            self.violate(format!("flop_run({kind:?}, {prec:?}) with zero lanes"));
        }
        self.closed.flop_run(kind, prec, lanes, n);
        let replay = n.min(EXPAND_CAP);
        for _ in 0..replay {
            self.replayed.flop(kind, prec, lanes);
        }
        if n > replay {
            self.replayed.flop_run(kind, prec, lanes, n - replay);
        }
        self.check_batch("flop_run");
        self.inner.flop_run(kind, prec, lanes, n);
    }

    fn branch_run(&mut self, n: u64, predictable: bool) {
        self.closed.branch_run(n, predictable);
        let replay = n.min(EXPAND_CAP);
        for _ in 0..replay {
            self.replayed.branch(predictable);
        }
        if n > replay {
            self.replayed.branch_run(n - replay, predictable);
        }
        self.check_batch("branch_run");
        self.inner.branch_run(n, predictable);
    }

    /// Validates every stream's extent and cross-checks the batch
    /// against its per-op expansion (replaying at most `EXPAND_CAP`
    /// iterations), then forwards the run to the inner sink as one call.
    fn access_run(&mut self, streams: &[Stream], n: u64) {
        if n > 0 {
            // A stream's elements all lie between its first and last.
            for s in streams {
                let what = if s.store {
                    "access_run store"
                } else {
                    "access_run load"
                };
                let (first, last) = (s.addr(0), s.addr(n - 1));
                let end = first.max(last) + u64::from(s.bytes);
                self.check_region(what, first.min(last), end, s.bytes);
            }
        }
        self.closed.access_run(streams, n);
        let replay = n.min(EXPAND_CAP);
        for i in 0..replay {
            for s in streams {
                if s.store {
                    self.replayed.store(s.addr(i), s.bytes);
                } else {
                    self.replayed.load(s.addr(i), s.bytes);
                }
            }
        }
        if n > replay {
            self.replayed.access_run(streams, n - replay);
        }
        self.check_batch("access_run");
        self.inner.access_run(streams, n);
    }
}

impl ValidatingExec<ModelExec> {
    /// Delegates to [`ModelExec::finish`] and validates the report:
    /// every cycle component finite and non-negative, totals covering
    /// the components, and the inner tally bit-identical to the shadow
    /// tally (any divergence means the model dropped or double-counted
    /// an operation).
    pub fn finish(&mut self) -> ExecReport {
        let report = self.inner.finish();
        for (name, value) in [
            ("compute_cycles", report.compute_cycles),
            ("memory_cycles", report.memory_cycles),
            ("branch_cycles", report.branch_cycles),
        ] {
            if !value.is_finite() || value < 0.0 {
                self.violate(format!("report {name} = {value} (negative or non-finite)"));
            }
        }
        if report.time.as_secs_f64() < 0.0 || !report.time.as_secs_f64().is_finite() {
            self.violate(format!("report time = {} (negative or non-finite)", report.time));
        }
        if report.counts != *self.closed.counts() {
            self.violate(format!(
                "inner counts diverge from the shadow tally \
                 (inner {:?} vs shadow {:?})",
                report.counts,
                self.closed.counts()
            ));
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::NullExec;

    #[test]
    fn clean_stream_has_no_violations() {
        let mut v = ValidatingExec::new(CountingExec::new());
        v.declare_region("array", 0x1000, 4096);
        v.flop(FlopKind::Fma, Precision::F64, 2);
        v.flop_run(FlopKind::Add, Precision::F32, 4, 10_000);
        v.load(0x1000, 8);
        v.store(0x1ff8, 8);
        v.branch_run(5_000, true);
        v.assert_clean();
        assert_eq!(v.inner().counts(), v.shadow_counts());
    }

    #[test]
    fn out_of_region_access_is_flagged() {
        let mut v = ValidatingExec::new(NullExec);
        v.declare_region("array", 0x1000, 4096);
        v.load(0xfff, 8); // below
        v.store(0x1ffc, 8); // straddles the end
        v.load(0x1800, 8); // fine
        assert_eq!(v.violations().len(), 2, "{:?}", v.violations());
        assert!(v.violations()[0].contains("outside every declared region"));
    }

    #[test]
    fn no_regions_means_no_containment_check() {
        let mut v = ValidatingExec::new(NullExec);
        v.load(0xDEAD_BEEF, 8);
        v.assert_clean();
    }

    #[test]
    fn zero_byte_access_is_flagged() {
        let mut v = ValidatingExec::new(NullExec);
        v.load(0x1000, 0);
        assert_eq!(v.violations().len(), 1);
    }

    #[test]
    fn zero_lane_flop_is_flagged() {
        let mut v = ValidatingExec::new(NullExec);
        v.flop(FlopKind::Add, Precision::F64, 0);
        v.flop_run(FlopKind::Add, Precision::F64, 0, 10);
        assert_eq!(v.violations().len(), 2);
    }

    #[test]
    #[should_panic(expected = "ValidatingExec")]
    fn strict_mode_panics_immediately() {
        let mut v = ValidatingExec::new(NullExec).strict();
        v.declare_region("array", 0, 16);
        v.load(1 << 20, 8);
    }

    /// A sink whose batch methods are subtly wrong: `flop_run` drops one
    /// op. The wrapper's own tallies still agree (it validates the batch
    /// *semantics*, not the inner sink), but a wrapped ModelExec-style
    /// count comparison at finish() would catch the inner drift — here
    /// we check the wrapper forwards batches verbatim.
    #[test]
    fn batch_calls_forward_verbatim() {
        let mut v = ValidatingExec::new(CountingExec::new());
        v.flop_run(FlopKind::Mul, Precision::F64, 1, EXPAND_CAP + 123);
        v.branch_run(EXPAND_CAP + 7, false);
        v.assert_clean();
        let c = v.inner().counts();
        assert_eq!(c.flops_f64, EXPAND_CAP + 123);
        assert_eq!(c.branches, EXPAND_CAP + 7);
        assert_eq!(c.unpredictable_branches, EXPAND_CAP + 7);
        assert_eq!(v.inner().counts(), v.shadow_counts());
    }

    #[test]
    fn access_run_checks_stream_extents_and_forwards_verbatim() {
        let mut v = ValidatingExec::new(CountingExec::new());
        v.declare_region("array", 0x1000, 4096);
        let n = EXPAND_CAP + 10;
        // Both runs fit; the second ends exactly at the region's end.
        v.access_run(
            &[Stream::load(0x1000, 0, 8), Stream::store(0x1ffc, -1, 4)],
            4000,
        );
        v.access_run(&[Stream::load(0x1000, 1, 1)], 4096);
        v.assert_clean();
        // Runs past the end, and from below the base with a negative
        // stride.
        v.access_run(&[Stream::load(0x1000, 1, 1)], n);
        v.access_run(&[Stream::store(0x1010, -8, 8)], 4);
        assert_eq!(v.violations().len(), 2, "{:?}", v.violations());
        assert!(v.violations()[0].contains("outside every declared region"));
        assert_eq!(v.inner().counts(), v.shadow_counts());
        assert_eq!(v.inner().counts().loads, 4000 + 4096 + n);
        assert_eq!(v.inner().counts().stores, 4000 + 4);
    }

    #[test]
    fn access_run_reaches_model_exec_unchanged() {
        let streams = [Stream::load(0, 4, 4), Stream::store(1 << 16, 8, 8)];
        let mut bare = ModelExec::snowball();
        bare.access_run(&streams, 20_000);
        let mut v = ValidatingExec::new(ModelExec::snowball());
        v.declare_region("buffer", 0, 1 << 20);
        v.access_run(&streams, 20_000);
        let report = v.finish();
        v.assert_clean();
        assert_eq!(report, bare.finish());
    }

    #[test]
    fn model_exec_report_validates_clean() {
        let mut v = ValidatingExec::new(ModelExec::snowball());
        v.declare_region("buffer", 0, 1 << 20);
        for i in 0..10_000u64 {
            v.load((i * 8) % (1 << 20), 8);
            v.flop(FlopKind::Fma, Precision::F64, 1);
            v.branch(true);
        }
        v.flop_run(FlopKind::Add, Precision::F32, 2, 50_000);
        let report = v.finish();
        v.assert_clean();
        assert!(report.cycles.get() > 0);
        assert_eq!(report.counts, *v.shadow_counts());
    }
}
