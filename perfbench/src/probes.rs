//! Layer probes of the traced run. Each probe calls one layer's public
//! functions directly, on the inputs the workload's slots use where the
//! layer depends on them, and records spans around the calls.

use crate::report::Outcome;
use crate::trace::{scope, Tracer};
use crate::workloads::{drive, find, pinned, timed};
use crate::{pool_workers, Options};
use mb_cpu::counters::Counter;
use mb_cpu::exec_model::ModelExec;
use mb_cpu::ops::{CountingExec, Exec, FlopKind, NullExec, Precision};
use mb_kernels::magicfilter::{Grid3, MagicfilterWorkspace};
use mb_kernels::membench::{make_buffer, MembenchConfig};
use mb_kernels::specfem::{Specfem, SpecfemConfig};
use mb_lab::driver::Shard;
use mb_lab::supervise::{supervise, SupervisePolicy};
use mb_lab::{digest_journal, journal, transport, Journal};
use mb_mem::hierarchy::Hierarchy;
use mb_mem::pages::{PageAllocator, PagePolicy, PageTable};
use mb_mem::tlb::Tlb;
use montblanc::platform::Platform;
use montblanc::{fig3, fig5, fig7, table2};
use std::fs;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The Tegra2 SPECFEM calibration that `fig3::tegra2_effective_gflops`
/// runs once per process, through the same public calls.
pub(crate) fn calibration_replica() -> f64 {
    let platform = Platform::tegra2_node();
    let mut exec = platform.exec(1);
    Specfem::new(SpecfemConfig::table2()).run(40, &mut exec);
    exec.finish().gflops()
}

/// `setup_s` of `model-sweep`: the calibration, timed `setup_reps`
/// times through [`calibration_replica`], each checked bit for bit
/// against the library's cached value.
pub(crate) fn calibration_setup(opts: &Options, out: &mut Outcome) {
    let reference = fig3::tegra2_effective_gflops();
    for _ in 0..opts.setup_reps {
        let (secs, gflops) = timed(calibration_replica);
        out.add("setup_s", [secs]);
        check_calibration(out, gflops, reference);
    }
}

fn check_calibration(out: &mut Outcome, got: f64, reference: f64) {
    if got.to_bits() == reference.to_bits() {
        out.tally.ok();
    } else {
        out.tally.fail(format!(
            "calibration replica gave {got}, library {reference}"
        ));
    }
}

/// One kernel invocation a workload's slots make, runnable on any sink.
pub(crate) enum Case {
    /// The Figure 7 magicfilter on `Grid3::random(e, e, e, 0xF167)`.
    Magicfilter {
        /// The filtered grid.
        grid: Grid3,
        /// Unroll degree.
        unroll: u32,
    },
    /// One Table II kernel at the paper configuration, by row index in
    /// `table2::run_extended` order.
    Table2(usize),
    /// One Figure 5 membench measurement on its page table.
    Membench {
        /// Array size and sweeps.
        cfg: MembenchConfig,
        /// Physical frames backing the array.
        table: PageTable,
        /// The benchmark buffer.
        data: std::sync::Arc<Vec<u8>>,
    },
    /// The Tegra2 SPECFEM calibration every shard process runs.
    Calibration,
}

/// Prefetch predictability Table II assumes for its streaming kernels.
const STREAMING_PREFETCH: f64 = 0.8;

impl Case {
    fn platform(&self) -> Platform {
        match self {
            Case::Magicfilter { .. } | Case::Calibration => Platform::tegra2_node(),
            Case::Table2(_) | Case::Membench { .. } => Platform::snowball(),
        }
    }

    fn table(&self) -> Option<&PageTable> {
        match self {
            Case::Membench { table, .. } => Some(table),
            _ => None,
        }
    }

    /// A fresh model sink configured as the slot configures it.
    fn model(&self) -> ModelExec {
        let cfg = table2::Table2Config::paper();
        match self {
            Case::Magicfilter { unroll, .. } => {
                let mut e = self.platform().exec(1);
                e.set_mlp_hint(*unroll);
                e.set_prefetch_hint(0.8);
                e
            }
            Case::Table2(row) => {
                let mut e = self.platform().exec(cfg.sample_rate);
                if matches!(row, 0 | 3 | 4 | 6) {
                    e.set_prefetch_hint(STREAMING_PREFETCH);
                    e.set_mlp_hint(4);
                }
                e
            }
            Case::Membench { cfg, table, .. } => {
                let mut e = self.platform().exec(1);
                e.set_mlp_hint(cfg.unroll);
                e.set_prefetch_hint(1.0);
                e.set_page_table(Some(table.clone()));
                e
            }
            Case::Calibration => self.platform().exec(1),
        }
    }

    /// Runs the kernel on `exec`; the result keeps the work observable.
    fn run<E: Exec>(&self, exec: &mut E) -> f64 {
        use mb_kernels::{chess, coremark::CoreMark, linpack::Linpack, linpack_blocked::BlockedLu};
        let cfg = table2::Table2Config::paper();
        match self {
            Case::Magicfilter { grid, unroll } => {
                let mut ws = MagicfilterWorkspace::new();
                ws.apply(grid, *unroll, exec).iter().sum()
            }
            Case::Table2(0) => {
                let mut lu = BlockedLu::new(cfg.linpack_n, (cfg.linpack_n / 8).max(8), 42);
                lu.factorize(exec);
                lu.solve(exec)[0]
            }
            Case::Table2(1) => {
                let cm = CoreMark {
                    iterations: cfg.coremark_iterations,
                    ..CoreMark::table2()
                };
                f64::from(cm.run(exec))
            }
            Case::Table2(2) => chess::bench(cfg.chess_depth, exec) as f64,
            Case::Table2(3) => {
                Specfem::new(SpecfemConfig::table2()).run(cfg.specfem_steps, exec);
                0.0
            }
            Case::Table2(4) => {
                let e = cfg.magicfilter_edge;
                let mut current = Grid3::random(e, e, e, 7);
                let mut ws = MagicfilterWorkspace::new();
                for _ in 0..cfg.magicfilter_iterations {
                    ws.apply(&current, 4, exec);
                    ws.swap_output(&mut current.data);
                }
                current.data[0]
            }
            Case::Table2(5) => {
                use mb_kernels::protein::{HpModel, UNGER_MOULT_20};
                let mut model = HpModel::new(UNGER_MOULT_20, 0x5331);
                model.anneal(40 * cfg.coremark_iterations, 2.0, 0.995, exec) as f64
            }
            Case::Table2(_) => {
                let mut lp = Linpack::new(cfg.linpack_n, 42);
                lp.factorize(exec);
                lp.solve(exec)[0]
            }
            Case::Membench { cfg, data, .. } => mb_kernels::membench::run(cfg, data, exec).1 as f64,
            Case::Calibration => {
                Specfem::new(SpecfemConfig::table2()).run(40, exec);
                0.0
            }
        }
    }
}

/// `model-sweep`'s model inputs: the fig7 grid at every unroll on
/// Tegra2, and the seven Table II kernels on Snowball.
pub(crate) fn model_sweep_cases() -> Vec<Case> {
    let cfg = fig7::Fig7Config::paper();
    let e = cfg.grid_edge;
    let mut cases: Vec<Case> = (1..=cfg.max_unroll)
        .map(|unroll| Case::Magicfilter {
            grid: Grid3::random(e, e, e, 0xF167),
            unroll,
        })
        .collect();
    cases.extend((0..7).map(Case::Table2));
    cases
}

/// `fig5-sharded`'s model inputs: membench at every Figure 5 size, one
/// repetition each, on page tables allocated as the fig5 prelude does.
pub(crate) fn fig5_cases() -> Vec<Case> {
    let cfg = fig5::Fig5Config::paper();
    let max = cfg.sizes.iter().copied().max().expect("fig5 has sizes");
    let data = std::sync::Arc::new(make_buffer(max, cfg.seed));
    let mut allocator = PageAllocator::new(PagePolicy::ReuseLast, 4096, 1 << 18, cfg.seed ^ 0xB);
    cfg.sizes
        .iter()
        .map(|&size| Case::Membench {
            cfg: MembenchConfig {
                sweeps: cfg.sweeps,
                ..MembenchConfig::figure5(size)
            },
            table: allocator.allocate(size),
            data: data.clone(),
        })
        .collect()
}

/// `serve-closed`'s model input: the calibration, the only model work
/// each shard process does besides the cluster simulation.
pub(crate) fn serve_cases() -> Vec<Case> {
    vec![Case::Calibration]
}

/// A sink that buffers the address stream and replays it, chunk by
/// chunk, into a fresh `Tlb` and `Hierarchy` of the case's platform,
/// timing only the replay.
struct Replay {
    tlb: Tlb,
    hierarchy: Hierarchy,
    table: Option<PageTable>,
    buf: Vec<u64>,
    tlb_ns: u128,
    hierarchy_ns: u128,
    accesses: u64,
}

const REPLAY_CHUNK: usize = 1 << 16;

impl Replay {
    fn new(case: &Case) -> Replay {
        let platform = case.platform();
        Replay {
            tlb: Tlb::new(platform.tlb),
            hierarchy: Hierarchy::new(platform.hierarchy),
            table: case.table().cloned(),
            buf: Vec::with_capacity(REPLAY_CHUNK),
            tlb_ns: 0,
            hierarchy_ns: 0,
            accesses: 0,
        }
    }

    fn push(&mut self, addr: u64) {
        self.buf.push(addr);
        if self.buf.len() == REPLAY_CHUNK {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let t = Instant::now();
        for &a in &self.buf {
            black_box(self.tlb.access(a));
        }
        self.tlb_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        for &a in &self.buf {
            // The page-table routing `ModelExec` applies before the
            // hierarchy: offsets inside the table's span are translated.
            let paddr = match &self.table {
                Some(table) if (a as usize) < table.span_bytes() => table.translate(a),
                _ => a,
            };
            black_box(self.hierarchy.access(paddr));
        }
        self.hierarchy_ns += t.elapsed().as_nanos();
        self.accesses += self.buf.len() as u64;
        self.buf.clear();
    }
}

impl Exec for Replay {
    fn flop(&mut self, _kind: FlopKind, _prec: Precision, _lanes: u32) {}
    fn int_ops(&mut self, _n: u64) {}
    fn load(&mut self, addr: u64, _bytes: u32) {
        self.push(addr);
    }
    fn store(&mut self, addr: u64, _bytes: u32) {
        self.push(addr);
    }
    fn branch(&mut self, _predictable: bool) {}
    fn flop_run(&mut self, _kind: FlopKind, _prec: Precision, _lanes: u32, _n: u64) {}
    fn branch_run(&mut self, _n: u64, _predictable: bool) {}
}

/// Milliseconds of `f`, median of three runs.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut runs: Vec<f64> = (0..3).map(|_| timed(&mut f).0 * 1e3).collect();
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The model layers on `cases`: the native kernel (`NullExec`),
/// instrumentation dispatch (`CountingExec`), the full `ModelExec`
/// through `finish()`, and the address stream replayed into the TLB
/// and cache hierarchy.
pub(crate) fn model_probe(cases: &[Case], tracer: &Tracer, out: &mut Outcome) {
    let native_ms = scope(Some(tracer), "kernels", None, |_| {
        median_ms(|| {
            for c in cases {
                black_box(c.run(&mut NullExec));
            }
        })
    });
    let counting_ms = scope(Some(tracer), "cpu.ops", None, |_| {
        median_ms(|| {
            for c in cases {
                let mut sink = CountingExec::new();
                black_box(c.run(&mut sink));
                black_box(sink.counts());
            }
        })
    });
    let (mut model_ms, mut accesses, mut instructions) = (0.0, 0u64, 0u64);
    scope(Some(tracer), "cpu.exec_model", None, |_| {
        for c in cases {
            let mut sink = c.model();
            let (secs, report) = timed(|| {
                black_box(c.run(&mut sink));
                sink.finish()
            });
            model_ms += secs * 1e3;
            accesses += report.counters.get(Counter::L1DataAccesses);
            instructions += report.counters.get(Counter::TotalInstructions);
        }
    });
    let (mut tlb_ns, mut hier_ns, mut replayed, mut l1_misses, mut tlb_misses) =
        (0u128, 0u128, 0u64, 0u64, 0u64);
    scope(Some(tracer), "mem", None, |_| {
        for c in cases {
            let mut sink = Replay::new(c);
            black_box(c.run(&mut sink));
            sink.flush();
            tlb_ns += sink.tlb_ns;
            hier_ns += sink.hierarchy_ns;
            replayed += sink.accesses;
            l1_misses += sink.hierarchy.level_stats(0).misses;
            tlb_misses += sink.tlb.misses();
        }
    });
    let per = |n: f64, d: u64| n / d.max(1) as f64;
    out.add("kernels.native_ms", [native_ms]);
    out.add("cpu.ops.dispatch_ms", [counting_ms - native_ms]);
    out.add("cpu.exec_model.ms", [model_ms]);
    out.add("cpu.exec_model.tax", [model_ms / native_ms]);
    out.add("cpu.exec_model.accesses", [accesses as f64]);
    out.add(
        "cpu.exec_model.ns_per_access",
        [per(model_ms * 1e6, accesses)],
    );
    out.add(
        "cpu.exec_model.sim_mips",
        [instructions as f64 / (model_ms * 1e3)],
    );
    out.add(
        "mem.hierarchy.ns_per_access",
        [per(hier_ns as f64, replayed)],
    );
    out.add(
        "mem.hierarchy.l1_miss_ratio",
        [per(l1_misses as f64, replayed)],
    );
    out.add("mem.hierarchy.l1_misses", [l1_misses as f64]);
    out.add("mem.tlb.ns_per_access", [per(tlb_ns as f64, replayed)]);
    out.add("mem.tlb.miss_ratio", [per(tlb_misses as f64, replayed)]);
    out.add("mem.tlb.misses", [tlb_misses as f64]);
}

/// The probes every traced run makes: cluster simulation, the Figure 5
/// prelude and measurer, the supervisor against a solo run, and the
/// journal and transport layers on the workload's own journals
/// (`families`, each a complete shard family). The driver and pool
/// metrics come from the `lab.driver` spans; `serve-closed`
/// (`trace_solo`) takes them from the solo `fig3-paper` run, the only
/// in-process driver run it has.
pub(crate) fn common(
    opts: &Options,
    tracer: &Tracer,
    out: &mut Outcome,
    families: &[Vec<PathBuf>],
    trace_solo: bool,
) -> Result<(), String> {
    let t = Some(tracer);
    let reference = fig3::tegra2_effective_gflops();
    let calibrations: Vec<f64> = (0..3)
        .map(|_| {
            let (secs, gflops) =
                scope(t, "cluster.calibrate", None, |_| timed(calibration_replica));
            check_calibration(out, gflops, reference);
            secs * 1e3
        })
        .collect();
    out.add("cluster.calibrate_ms", calibrations);
    let cfg = fig3::Fig3Config::paper();
    let (secs, ()) = scope(t, "cluster.execute", None, |_| {
        timed(|| {
            for (panel, cores) in fig3::scaling_slots(&cfg) {
                black_box(fig3::measure_scaling_slot(&cfg, panel, cores, reference));
            }
        })
    });
    out.add("cluster.execute_ms", [secs * 1e3]);

    let cfg5 = fig5::Fig5Config::paper();
    let (secs, measurer) = scope(t, "fig5.prelude", None, |_| {
        timed(|| fig5::SlotMeasurer::new(&cfg5))
    });
    out.add("fig5.prelude_ms", [secs * 1e3]);
    let measure_us: Vec<f64> = scope(t, "fig5.measure", None, |_| {
        (0..measurer.slot_count())
            .step_by(10)
            .map(|seq| timed(|| black_box(measurer.measure(seq))).0 * 1e6)
            .collect()
    });
    out.add("fig5.measure_us_p50", measure_us);

    supervise_probe(opts, tracer, out, trace_solo)?;
    driver_layers(tracer, out);
    journal_probe(opts, tracer, out, families);
    Ok(())
}

/// `lab.supervise.overhead_ms`: a supervised two-shard `fig3-paper`
/// family minus a solo in-process run of the same campaign.
fn supervise_probe(
    opts: &Options,
    tracer: &Tracer,
    out: &mut Outcome,
    trace_solo: bool,
) -> Result<(), String> {
    let c = find("fig3-paper")?;
    let pin = pinned(c.as_ref())?;
    let solo = drive(
        c.as_ref(),
        &opts.work_dir.join("fig3-solo.journal"),
        Shard::solo(),
        trace_solo.then_some(tracer),
        None,
    );
    let solo_s = match solo {
        Ok(run) => {
            out.tally.check_digest("fig3-paper solo", run.digest, pin);
            run.wall_s
        }
        Err(e) => {
            out.tally.fail(e);
            return Ok(());
        }
    };
    let dir = opts.work_dir.join("supervise");
    let _ = fs::remove_dir_all(&dir);
    let policy = SupervisePolicy {
        shards: 2,
        ..SupervisePolicy::default()
    };
    let (secs, report) = scope(Some(tracer), "lab.supervise", None, |_| {
        timed(|| supervise("fig3-paper", &dir, &opts.lab_exe, &policy))
    });
    match report {
        Ok(report) => {
            out.tally
                .check_digest("fig3-paper supervised", report.digest, pin);
            out.add("lab.supervise.overhead_ms", [(secs - solo_s) * 1e3]);
        }
        Err(e) => out.tally.fail(format!("supervise fig3-paper: {e}")),
    }
    Ok(())
}

/// `lab.driver.overhead_ms` (self time of each `lab.driver` span, i.e.
/// driver wall time not covered by a slot) and `par.idle_frac` (worker
/// capacity left idle over those spans).
fn driver_layers(tracer: &Tracer, out: &mut Outcome) {
    let spans = tracer.spans();
    let own = tracer.self_times_ns();
    let workers = pool_workers() as f64;
    let (mut capacity, mut busy) = (0.0, 0.0);
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "lab.driver")
    {
        out.add("lab.driver.overhead_ms", [own[i] as f64 / 1e6]);
        capacity += workers * s.duration_ns() as f64;
        busy += spans
            .iter()
            .filter(|k| k.parent == Some(i))
            .map(|k| k.duration_ns() as f64)
            .sum::<f64>();
    }
    out.add("par.idle_frac", [(capacity - busy) / capacity]);
}

/// The journal and transport layers on complete journals: load,
/// re-append every record into a fresh journal, export each as a
/// segment, ingest it into a fresh replica, merge the family and
/// digest the merged journal.
fn journal_probe(opts: &Options, tracer: &Tracer, out: &mut Outcome, families: &[Vec<PathBuf>]) {
    let t = Some(tracer);
    let dir = opts.work_dir.join("journal-probe");
    let _ = fs::remove_dir_all(&dir);
    if let Err(e) = fs::create_dir_all(&dir) {
        out.tally
            .fail(format!("cannot create {}: {e}", dir.display()));
        return;
    }
    let (mut load, mut export, mut ingest, mut merge, mut digest) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut append_us = Vec::new();
    for (f, family) in families.iter().enumerate() {
        let result = (|| -> Result<(), String> {
            let mut replicas = Vec::new();
            for (i, path) in family.iter().enumerate() {
                let (secs, j) = scope(t, "lab.journal.load", None, |_| {
                    timed(|| Journal::load(path))
                });
                load += secs;
                let j = j.map_err(|e| format!("load {}: {e}", path.display()))?;
                let copy = dir.join(format!("f{f}-{i}.copy"));
                let mut fresh =
                    Journal::create(&copy, j.header.clone()).map_err(|e| e.to_string())?;
                scope(t, "lab.journal.append", None, |_| -> Result<(), String> {
                    for (slot, payload) in &j.records {
                        let (secs, r) = timed(|| fresh.append(*slot, payload));
                        r.map_err(|e| e.to_string())?;
                        append_us.push(secs * 1e6);
                    }
                    Ok(())
                })?;
                let seg = dir.join(format!("f{f}-{i}.seg"));
                let (secs, r) = scope(t, "lab.transport.export", None, |_| {
                    timed(|| transport::export_segment(path, 0, &seg))
                });
                export += secs;
                r.map_err(|e| format!("export: {e}"))?;
                let replica = dir.join(format!("f{f}-{i}.replica"));
                let (secs, r) = scope(t, "lab.transport.ingest", None, |_| {
                    timed(|| transport::ingest_segment(&replica, &seg))
                });
                ingest += secs;
                r.map_err(|e| format!("ingest: {e}"))?;
                replicas.push(replica);
            }
            let (secs, merged) = scope(t, "lab.journal.merge", None, |_| {
                timed(|| journal::merge(&dir.join(format!("f{f}.merged")), &replicas))
            });
            merge += secs;
            let merged = merged.map_err(|e| format!("merge: {e}"))?;
            let (secs, d) = scope(t, "lab.driver.digest", None, |_| {
                timed(|| digest_journal(&merged))
            });
            digest += secs;
            let d = d.map_err(|e| format!("digest: {e}"))?;
            let c = find(&merged.header.campaign)?;
            out.tally
                .check_digest("journal probe", Some(d), pinned(c.as_ref())?);
            Ok(())
        })();
        if let Err(e) = result {
            out.tally.fail(format!("journal probe: {e}"));
        }
    }
    out.add("lab.journal.load_ms", [load * 1e3]);
    out.add(
        "lab.journal.append_us_p90",
        [crate::stats::quantile(&append_us, 0.9)],
    );
    out.add("lab.journal.append_us_p50", append_us);
    out.add("lab.transport.export_ms", [export * 1e3]);
    out.add("lab.transport.ingest_ms", [ingest * 1e3]);
    out.add("lab.journal.merge_ms", [merge * 1e3]);
    out.add("lab.driver.digest_ms", [digest * 1e3]);
}
