//! Stream identity of the kernels that report strided loops as access
//! runs. Each reference is the kernel's per-element loop as it was
//! written before it reported access runs, kept verbatim. Through a
//! recording sink that does not override `access_run`, so every run
//! expands element by element, the ported kernel must yield the same
//! `(addr, bytes, store)` sequence, the same flop-call sequence, the
//! same `OpCounts` and the same numerical results, at sizes the digest
//! pins never reach. The LINPACK, blocked LU and SPECFEM references
//! need private state, so they sit in those modules' tests and use the
//! recorder defined here.

use crate::magicfilter::{magicfilter_pass, Grid3, LOWFIL, MAGIC_FILTER, UPFIL};
use crate::membench::{self, spill_traffic, MembenchConfig};
use mb_cpu::exec_model::ModelExec;
use mb_cpu::ops::{CountingExec, Exec, FlopKind, OpCounts, Precision};

/// Records every memory access and flop call; batch calls expand
/// through the trait's default bodies.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    accesses: Vec<(u64, u32, bool)>,
    flops: Vec<(FlopKind, Precision, u32)>,
    counts: CountingExec,
}

impl Exec for Recorder {
    fn flop(&mut self, kind: FlopKind, prec: Precision, lanes: u32) {
        self.flops.push((kind, prec, lanes));
        self.counts.flop(kind, prec, lanes);
    }
    fn int_ops(&mut self, n: u64) {
        self.counts.int_ops(n);
    }
    fn load(&mut self, addr: u64, bytes: u32) {
        self.accesses.push((addr, bytes, false));
        self.counts.load(addr, bytes);
    }
    fn store(&mut self, addr: u64, bytes: u32) {
        self.accesses.push((addr, bytes, true));
        self.counts.store(addr, bytes);
    }
    fn branch(&mut self, predictable: bool) {
        self.counts.branch(predictable);
    }
}

impl Recorder {
    fn counts(&self) -> &OpCounts {
        self.counts.counts()
    }
}

pub(crate) fn assert_same_stream(ported: &Recorder, reference: &Recorder, what: &str) {
    assert!(!reference.accesses.is_empty(), "{what}: empty reference");
    assert_eq!(ported.accesses, reference.accesses, "{what}: accesses");
    assert_eq!(ported.flops, reference.flops, "{what}: flop calls");
    assert_eq!(ported.counts(), reference.counts(), "{what}: op counts");
}

// ---------------------------------------------------------------------
// LINPACK (`dgefa`/`dgesl`) and the blocked LU: the factorisations'
// references need private state and live in their modules' tests.

/// The pre-port `dgesl` loops, shared verbatim by both LU variants.
pub(crate) fn solve_reference<E: Exec>(
    a: &[f64],
    n: usize,
    mut x: Vec<f64>,
    exec: &mut E,
) -> Vec<f64> {
    // Forward elimination with the stored multipliers.
    for k in 0..n {
        for i in (k + 1)..n {
            exec.load(((i * n + k) * 8) as u64, 8);
            exec.flop(FlopKind::Fma, Precision::F64, 1);
            x[i] -= a[i * n + k] * x[k];
        }
    }
    // Back substitution.
    for k in (0..n).rev() {
        exec.flop(FlopKind::Div, Precision::F64, 1);
        x[k] /= a[k * n + k];
        for i in 0..k {
            exec.load(((i * n + k) * 8) as u64, 8);
            exec.flop(FlopKind::Fma, Precision::F64, 1);
            x[i] -= a[i * n + k] * x[k];
        }
    }
    x
}

// ---------------------------------------------------------------------
// Magicfilter.

fn magicfilter_pass_reference<E: Exec>(
    input: &[f64],
    n: usize,
    ndat: usize,
    out: &mut [f64],
    unroll: u32,
    exec: &mut E,
) {
    let u = unroll as usize;
    let in_base = 0u64;
    let out_base = (n * ndat * 8) as u64;
    for i in 0..n {
        let mut rows = [0usize; (UPFIL - LOWFIL + 1) as usize];
        for (t, l) in (LOWFIL..=UPFIL).enumerate() {
            rows[t] = ((i as i64 + l).rem_euclid(n as i64)) as usize;
        }
        let mut j = 0usize;
        while j < ndat {
            let jmax = (j + u).min(ndat);
            // Unrolled body: `jmax - j` independent accumulators.
            for jj in j..jmax {
                let mut acc = 0.0f64;
                for (t, &row) in rows.iter().enumerate() {
                    exec.load(in_base + ((row * ndat + jj) * 8) as u64, 8);
                    acc += MAGIC_FILTER[t] * input[row * ndat + jj];
                }
                // One batched report for the 16 uniform taps.
                exec.flop_run(FlopKind::Fma, Precision::F64, 1, rows.len() as u64);
                exec.store(out_base + ((jj * n + i) * 8) as u64, 8);
                out[jj * n + i] = acc;
            }
            exec.int_ops(2); // loop bookkeeping per group
            exec.branch(true);
            j = jmax;
        }
    }
}

#[test]
fn magicfilter_matches_per_element_loops() {
    let grid = Grid3::random(5, 6, 7, 0xF1);
    // The three passes of `MagicfilterWorkspace::apply`.
    let views = [(5, 6 * 7), (6, 7 * 5), (7, 5 * 6)];
    for unroll in [1, 5, 12] {
        let (mut got, mut want) = (Recorder::default(), Recorder::default());
        for (n, ndat) in views {
            let mut out = vec![0.0; n * ndat];
            let mut out_ref = vec![0.0; n * ndat];
            magicfilter_pass(&grid.data, n, ndat, &mut out, unroll, &mut got);
            magicfilter_pass_reference(&grid.data, n, ndat, &mut out_ref, unroll, &mut want);
            assert_eq!(out, out_ref);
        }
        assert_same_stream(&got, &want, &format!("magicfilter unroll {unroll}"));
    }
}

// ---------------------------------------------------------------------
// Membench and spill traffic.

fn membench_run_reference<E: Exec>(cfg: &MembenchConfig, data: &[u8], exec: &mut E) -> (u64, u64) {
    let n_elems = cfg.array_bytes / cfg.elem_bytes;
    let mut checksum = 0u64;
    let mut accesses = 0u64;
    for _ in 0..cfg.sweeps {
        let mut i = 0usize;
        while i < n_elems {
            // One unrolled iteration group.
            let group = cfg.unroll as usize;
            let mut grp = 0u64;
            for u in 0..group {
                let idx = i + u * cfg.stride;
                if idx >= n_elems {
                    break;
                }
                let off = idx * cfg.elem_bytes;
                exec.load(off as u64, cfg.elem_bytes as u32);
                checksum = checksum.wrapping_add(data[off] as u64).rotate_left(1);
                accesses += 1;
                grp += 1;
            }
            // Index arithmetic + accumulate, batched for the group.
            exec.int_ops(grp);
            exec.branch(true);
            i += group * cfg.stride;
        }
    }
    (accesses, checksum)
}

#[test]
fn membench_matches_per_element_loops() {
    let data = membench::make_buffer(4096, 9);
    // 1000 / 3 elements round up to 334 per sweep; 334 = 83·4 + 2 leaves
    // a partial last group.
    for (array_bytes, stride, elem_bytes, unroll) in
        [(4000, 3, 4, 4), (4096, 1, 8, 1), (4080, 5, 16, 3)]
    {
        let cfg = MembenchConfig {
            array_bytes,
            stride,
            elem_bytes,
            unroll,
            sweeps: 2,
        };
        let (mut got, mut want) = (Recorder::default(), Recorder::default());
        let result = membench::run(&cfg, &data, &mut got);
        let result_ref = membench_run_reference(&cfg, &data, &mut want);
        assert_eq!(result, result_ref);
        assert_same_stream(&got, &want, &format!("membench {cfg:?}"));
    }
}

/// The spill loop of `fig7::measure_variant` before it called
/// `spill_traffic`.
fn fig7_spills_reference<E: Exec>(exec: &mut E, stack_base: u64, spills: u32, groups: u64) {
    for g in 0..groups {
        for _tap in 0..16u32 {
            for s in 0..spills as u64 {
                let addr = stack_base + (s % 16) * 8;
                exec.store(addr, 8);
                exec.load(addr, 8);
                let _ = g;
            }
        }
    }
}

#[test]
fn spill_traffic_matches_per_element_loops() {
    // 20 spills exceed the fixed stream array and take the fallback.
    for spills in [1, 3, 16, 20] {
        let (mut got, mut want) = (Recorder::default(), Recorder::default());
        spill_traffic(&mut got, 0x3000, u64::from(spills), 8, 7 * 16);
        fig7_spills_reference(&mut want, 0x3000, spills, 7);
        assert_same_stream(&got, &want, &format!("{spills} spills"));
    }
}

/// `membench::run_model` before its spill loop called `spill_traffic`.
fn membench_run_model_reference(
    cfg: &MembenchConfig,
    data: &[u8],
    exec: &mut ModelExec,
) -> membench::MembenchResult {
    exec.reset();
    exec.set_mlp_hint(cfg.unroll);
    exec.set_prefetch_hint(1.0);
    let spills = cfg
        .unroll
        .saturating_sub(exec.model().unroll_register_limit);
    let (accesses, checksum) = membench_run_reference(cfg, data, exec);
    let neon_overhead_per_access: u64 = if cfg.elem_bytes == 16
        && matches!(exec.model().overlap, mb_cpu::arch::Overlap::InOrder { .. })
    {
        8
    } else {
        0
    };
    if neon_overhead_per_access > 0 {
        exec.int_ops(accesses * neon_overhead_per_access);
    }
    if spills > 0 {
        let groups = accesses / cfg.unroll as u64;
        let stack_base = (cfg.array_bytes as u64 + 4096) & !4095;
        for g in 0..groups {
            for s in 0..spills as u64 {
                let addr = stack_base + (s % 16) * 8;
                exec.store(addr, cfg.elem_bytes as u32);
                exec.load(addr, cfg.elem_bytes as u32);
                exec.int_ops(2 * neon_overhead_per_access);
                let _ = g;
            }
        }
    }
    let report = exec.finish();
    membench::MembenchResult {
        config: *cfg,
        accesses,
        bytes: accesses * cfg.elem_bytes as u64,
        time: report.time,
        checksum,
        report,
    }
}

#[test]
fn membench_run_model_matches_per_element_loops() {
    let data = membench::make_buffer(8192, 11);
    for (elem_bytes, unroll) in [(4, 1), (8, 8), (16, 8), (16, 12)] {
        let cfg = MembenchConfig {
            array_bytes: 8192,
            stride: 1,
            elem_bytes,
            unroll,
            sweeps: 3,
        };
        for make in [ModelExec::snowball, ModelExec::nehalem] {
            let got = membench::run_model(&cfg, &data, &mut make());
            let want = membench_run_model_reference(&cfg, &data, &mut make());
            assert_eq!(got.report.counts, want.report.counts, "{cfg:?}");
            assert_eq!(got.report.cycles, want.report.cycles, "{cfg:?}");
            assert_eq!(got.report.counters, want.report.counters, "{cfg:?}");
            assert_eq!(
                got.report.memory_cycles.to_bits(),
                want.report.memory_cycles.to_bits()
            );
            assert_eq!(
                got.report.compute_cycles.to_bits(),
                want.report.compute_cycles.to_bits()
            );
            assert_eq!(got.checksum, want.checksum);
        }
    }
}
