//! The Mont-Blanc reproduction's benchmark: end-to-end campaign and
//! serve times, and a traced run that splits them across layers.
//!
//! Three workloads drive the public APIs of `mb-lab`, `montblanc`,
//! `mb-cpu`, `mb-mem`, `mb-cluster` and `mb-simcore`:
//!
//! * `model-sweep` — the `fig7-paper` and `table2-paper` campaigns solo
//!   through [`mb_lab::driver::run_campaign_with`];
//! * `fig5-sharded` — `fig5-paper` as shards `0/2` and `1/2`, exported,
//!   ingested into fresh replicas, merged and digested;
//! * `serve-closed` — an `mb-lab serve --workers 1` child process and
//!   two closed-loop clients submitting `fig3-paper --shards 2`.
//!
//! Every campaign output is checked against its registry pin. An
//! untraced run reports [`report::END_TO_END`]; a traced run records
//! spans around the benchmark's calls into each layer and reports
//! [`report::PER_LAYER`]. `METRICS.md` says what moves each metric.

mod probes;
pub mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-size model campaigns, solo.
    ModelSweep,
    /// The 2100-slot Figure 5 campaign as a two-shard family.
    Fig5Sharded,
    /// The campaign service under two closed-loop clients.
    ServeClosed,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::ModelSweep,
        Workload::Fig5Sharded,
        Workload::ServeClosed,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ModelSweep => "model-sweep",
            Workload::Fig5Sharded => "fig5-sharded",
            Workload::ServeClosed => "serve-closed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Seed of the randomised repetition order.
    pub seed: u64,
    /// Minimum measured time.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory of this run (emptied first).
    pub work_dir: PathBuf,
    /// The `mb-lab` binary the serve and supervise layers spawn.
    pub lab_exe: PathBuf,
    /// Set-up repetitions whose median is `setup_s`.
    pub setup_reps: usize,
    /// Minimum measured passes of an in-process workload.
    pub min_passes: usize,
    /// Minimum completed jobs on `serve-closed`, so that the 90th
    /// percentile has ten samples beyond it.
    pub min_jobs: usize,
}

impl Options {
    /// Full-length settings: 25 set-ups (each takes milliseconds), at
    /// least three passes and at least 100 jobs, measured for at least
    /// `seconds`.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        work_dir: &Path,
        lab_exe: &Path,
    ) -> Options {
        Options {
            workload,
            seed,
            seconds,
            trace,
            work_dir: work_dir.to_path_buf(),
            lab_exe: lab_exe.to_path_buf(),
            setup_reps: 25,
            min_passes: 3,
            min_jobs: 100,
        }
    }

    /// The shortest complete run: one set-up, one pass (two when
    /// traced, one of each kind), two jobs.
    pub fn tiny(
        workload: Workload,
        seed: u64,
        trace: bool,
        work_dir: &Path,
        lab_exe: &Path,
    ) -> Options {
        Options {
            setup_reps: 1,
            min_passes: 1,
            min_jobs: 2,
            ..Options::new(workload, seed, 0.0, trace, work_dir, lab_exe)
        }
    }
}

/// Hard stop for a measured phase, so a run ends well within three
/// minutes even when the host is slow.
pub(crate) const MAX_MEASURE_SECONDS: f64 = 120.0;

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sweep-pool workers of the in-process workloads: `min(nproc, 2)`.
pub fn pool_workers() -> usize {
    nproc().min(2)
}

/// Runs one workload and returns what it measured.
///
/// # Errors
///
/// Only when the run cannot take place at all (its scratch directory
/// cannot be made, or the server never answers); failed operations are
/// counted in the outcome's tally instead.
pub fn run(opts: &Options) -> Result<report::Outcome, String> {
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let tracer = opts.trace.then(trace::Tracer::new);
    let outcome = mb_simcore::par::with_threads(pool_workers(), || match opts.workload {
        Workload::ModelSweep => workloads::model_sweep(opts, tracer.as_ref()),
        Workload::Fig5Sharded => workloads::fig5_sharded(opts, tracer.as_ref()),
        Workload::ServeClosed => workloads::serve_closed(opts, tracer.as_ref()),
    })?;
    let mut outcome = outcome;
    if let Some(t) = &tracer {
        outcome.self_ms = t
            .self_time_by_name_ns()
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e6))
            .collect();
        let path = opts.work_dir.with_file_name(format!(
            "trace-{}-s{}.json",
            opts.workload.name(),
            opts.seed
        ));
        t.write_json(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from `/proc`.
pub(crate) fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
