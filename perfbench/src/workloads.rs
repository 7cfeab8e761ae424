//! The three workloads: their set-up, their measured phase and the
//! end-to-end metrics an untraced run reports.

use crate::probes;
use crate::report::{Outcome, Tally};
use crate::stats::{band_mean, median};
use crate::trace::{scope, Tracer};
use crate::Options;
use mb_lab::campaign::{self, Campaign};
use mb_lab::driver::{run_campaign_with, RunOptions, Shard};
use mb_lab::protocol::JobState;
use mb_lab::{client, digest_journal, journal, transport, Journal};
use mb_simcore::par::TaskCtx;
use mb_simcore::plan::MeasurementPlan;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A delegating campaign that records a span around every slot, so the
/// driver's own time is the `lab.driver` span minus its slot spans.
struct Traced<'a> {
    inner: &'a dyn Campaign,
    tracer: &'a Tracer,
    parent: usize,
}

impl Campaign for Traced<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn description(&self) -> &'static str {
        self.inner.description()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn task_labels(&self) -> Vec<String> {
        self.inner.task_labels()
    }

    fn run_slot(&self, ctx: TaskCtx) -> Vec<f64> {
        let id = self.tracer.begin("campaign.slot", Some(self.parent));
        let payload = self.inner.run_slot(ctx);
        self.tracer.end(id);
        payload
    }

    fn finalize(&self, slots: &[Vec<f64>]) -> Vec<f64> {
        self.inner.finalize(slots)
    }

    fn pinned_digest(&self) -> Option<u64> {
        self.inner.pinned_digest()
    }

    fn payload_width(&self) -> Option<usize> {
        self.inner.payload_width()
    }
}

/// Looks a campaign up in the registry.
pub(crate) fn find(name: &str) -> Result<Box<dyn Campaign>, String> {
    campaign::find(name).ok_or_else(|| format!("campaign {name} is not registered"))
}

/// The pinned digest of a registered campaign.
pub(crate) fn pinned(c: &dyn Campaign) -> Result<u64, String> {
    c.pinned_digest()
        .ok_or_else(|| format!("campaign {} has no pinned digest", c.name()))
}

/// Seconds `f` took, and its result.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// One driver invocation.
pub(crate) struct DriverRun {
    pub wall_s: f64,
    pub slot_secs: Vec<f64>,
    pub digest: Option<u64>,
}

/// Runs one shard of `campaign` into a fresh journal at `path`, inside
/// a `lab.driver` span when traced.
pub(crate) fn drive(
    campaign: &dyn Campaign,
    path: &Path,
    shard: Shard,
    tracer: Option<&Tracer>,
    parent: Option<usize>,
) -> Result<DriverRun, String> {
    let _ = fs::remove_file(path);
    let opts = RunOptions {
        shard,
        ..RunOptions::default()
    };
    let (wall_s, outcome) = timed(|| match tracer {
        None => run_campaign_with(campaign, path, &opts),
        Some(t) => {
            let id = t.begin("lab.driver", parent);
            let traced = Traced {
                inner: campaign,
                tracer: t,
                parent: id,
            };
            let r = run_campaign_with(&traced, path, &opts);
            t.end(id);
            r
        }
    });
    let outcome = outcome.map_err(|e| {
        format!(
            "{} shard {}/{}: {e}",
            campaign.name(),
            shard.index,
            shard.count
        )
    })?;
    Ok(DriverRun {
        wall_s,
        slot_secs: outcome.slot_secs.iter().map(|&(_, s)| s).collect(),
        digest: outcome.digest,
    })
}

/// The seeded, randomised order of `n` items in pass `pass`.
fn pass_order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let levels: Vec<usize> = (0..n).collect();
    let pass_seed = seed ^ (pass as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    MeasurementPlan::full_factorial(&levels, 1, pass_seed)
        .iter()
        .map(|m| m.level)
        .collect()
}

/// Whether an in-process workload starts another pass. Traced runs
/// alternate untraced and traced passes, so they need at least two.
fn another_pass(opts: &Options, start: Instant, passes: usize) -> bool {
    let min = if opts.trace {
        opts.min_passes.max(2)
    } else {
        opts.min_passes
    };
    let t = start.elapsed().as_secs_f64();
    (passes < min || t < opts.seconds) && t < crate::MAX_MEASURE_SECONDS
}

/// Measured passes of an in-process workload, split by tracing.
#[derive(Default)]
struct Passes {
    untraced_s: Vec<f64>,
    traced_s: Vec<f64>,
    /// Slot wall times of each untraced pass.
    slot_ms: Vec<Vec<f64>>,
}

impl Passes {
    /// Runs passes until the budget is spent. Odd passes are traced in a
    /// traced run.
    fn run(
        opts: &Options,
        tracer: Option<&Tracer>,
        mut pass: impl FnMut(usize, Option<&Tracer>, &mut Vec<f64>),
    ) -> Passes {
        let mut p = Passes::default();
        let start = Instant::now();
        let mut n = 0;
        while another_pass(opts, start, n) {
            let traced = tracer.filter(|_| n % 2 == 1);
            let mut slot_ms = Vec::new();
            let (secs, ()) = timed(|| pass(n, traced, &mut slot_ms));
            if traced.is_some() {
                p.traced_s.push(secs);
            } else {
                p.untraced_s.push(secs);
                p.slot_ms.push(slot_ms);
            }
            n += 1;
        }
        p
    }

    /// The end-to-end metrics of an untraced run, or the tracing
    /// overhead of a traced one. The slot percentiles and the rate are
    /// taken per pass and reported as their median over passes, so one
    /// pass slowed by the host does not move them.
    fn report(&self, out: &mut Outcome) {
        if self.traced_s.is_empty() {
            out.add("campaign_s", self.untraced_s.iter().copied());
            out.add(
                "unit_ms_p50",
                self.slot_ms.iter().map(|p| band_mean(p, 0.5, 0.1)),
            );
            out.add(
                "unit_ms_p90",
                self.slot_ms.iter().map(|p| band_mean(p, 0.9, 0.05)),
            );
            let rates = self.slot_ms.iter().zip(&self.untraced_s);
            out.add(
                "units_per_min",
                rates.map(|(p, s)| p.len() as f64 * 60.0 / s),
            );
            out.add("peak_rss_mb", crate::peak_rss_mb("self"));
        } else {
            let untraced = median(&self.untraced_s);
            out.add(
                "trace.overhead_frac",
                [(median(&self.traced_s) - untraced) / untraced],
            );
        }
    }
}

/// Adds `ok_frac` once every operation has been counted.
pub(crate) fn finish(mut out: Outcome) -> Outcome {
    let t = &out.tally;
    let ok = (t.attempted - t.failed) as f64 / t.attempted.max(1) as f64;
    out.add("ok_frac", [ok]);
    out
}

/// `model-sweep`: `fig7-paper` and `table2-paper` solo, in a seeded
/// order per pass. Set-up is the Tegra2 SPECFEM calibration, the model
/// layer's one-time lazy work.
pub(crate) fn model_sweep(opts: &Options, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let campaigns = [find("fig7-paper")?, find("table2-paper")?];
    probes::calibration_setup(opts, &mut out);
    let passes = Passes::run(opts, tracer, |n, traced, slot_ms| {
        scope(traced, "workload.pass", None, |root| {
            for i in pass_order(campaigns.len(), opts.seed, n) {
                let c = campaigns[i].as_ref();
                let path = opts.work_dir.join(format!("{}.journal", c.name()));
                let run = drive(c, &path, Shard::solo(), traced, root);
                check_run(&mut out, c, run, slot_ms);
            }
        })
    });
    passes.report(&mut out);
    if let Some(t) = tracer {
        let families = campaigns
            .iter()
            .map(|c| vec![opts.work_dir.join(format!("{}.journal", c.name()))])
            .collect::<Vec<_>>();
        probes::model_probe(&probes::model_sweep_cases(), t, &mut out);
        probes::common(opts, t, &mut out, &families, false)?;
        serve_layers_probe(opts, t, &mut out)?;
    }
    Ok(finish(out))
}

/// Counts a solo driver run: its digest must match the registry pin.
fn check_run(
    out: &mut Outcome,
    c: &dyn Campaign,
    run: Result<DriverRun, String>,
    slot_ms: &mut Vec<f64>,
) {
    match (run, pinned(c)) {
        (Ok(run), Ok(pin)) => {
            if out.tally.check_digest(c.name(), run.digest, pin) {
                out.digests.push((c.name().to_string(), pin));
            }
            slot_ms.extend(run.slot_secs.iter().map(|s| s * 1e3));
        }
        (Err(e), _) | (_, Err(e)) => out.tally.fail(e),
    }
}

/// `fig5-sharded`: `fig5-paper` as shards `0/2` and `1/2` in a seeded
/// order, then export, ingest into fresh replicas, merge and digest.
/// Set-up is `fig5::SlotMeasurer::new`, the prelude every fig5 process
/// builds before its first slot.
pub(crate) fn fig5_sharded(opts: &Options, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let c = find("fig5-paper")?;
    let pin = pinned(c.as_ref())?;
    let cfg = montblanc::fig5::Fig5Config::paper();
    for _ in 0..opts.setup_reps {
        let (secs, m) = timed(|| montblanc::fig5::SlotMeasurer::new(&cfg));
        black_box(m);
        out.add("setup_s", [secs]);
    }
    // The campaign builds its own measurer on its first slot; build it
    // now so that no pass pays for it.
    let first = mb_simcore::par::slot_bindings(c.seed(), c.task_labels().len())[0];
    black_box(c.run_slot(first));

    let dir = &opts.work_dir;
    let shard_path = |i: usize| dir.join(format!("shard{i}.journal"));
    let passes = Passes::run(opts, tracer, |n, traced, slot_ms| {
        let result = scope(
            traced,
            "workload.pass",
            None,
            |root| -> Result<u64, String> {
                for i in pass_order(2, opts.seed, n) {
                    let shard = Shard {
                        index: i as u32,
                        count: 2,
                    };
                    let run = drive(c.as_ref(), &shard_path(i), shard, traced, root)?;
                    slot_ms.extend(run.slot_secs.iter().map(|s| s * 1e3));
                }
                let mut replicas = Vec::new();
                for i in 0..2 {
                    let seg = dir.join(format!("shard{i}.seg"));
                    let replica = dir.join(format!("replica{i}.journal"));
                    let _ = fs::remove_file(&replica);
                    scope(traced, "lab.transport.export", root, |_| {
                        transport::export_segment(&shard_path(i), 0, &seg)
                    })
                    .map_err(|e| format!("export shard {i}: {e}"))?;
                    scope(traced, "lab.transport.ingest", root, |_| {
                        transport::ingest_segment(&replica, &seg)
                    })
                    .map_err(|e| format!("ingest shard {i}: {e}"))?;
                    replicas.push(replica);
                }
                let merged = scope(traced, "lab.journal.merge", root, |_| {
                    journal::merge(&dir.join("merged.journal"), &replicas)
                })
                .map_err(|e| format!("merge: {e}"))?;
                scope(traced, "lab.driver.digest", root, |_| {
                    digest_journal(&merged)
                })
                .map_err(|e| format!("digest: {e}"))
            },
        );
        match result {
            Ok(d) => {
                if out.tally.check_digest("fig5-paper merged", Some(d), pin) {
                    out.digests.push(("fig5-paper".to_string(), d));
                }
            }
            Err(e) => out.tally.fail(e),
        }
    });
    passes.report(&mut out);
    if let Some(t) = tracer {
        let family = vec![shard_path(0), shard_path(1)];
        probes::model_probe(&probes::fig5_cases(), t, &mut out);
        probes::common(opts, t, &mut out, &[family], false)?;
        serve_layers_probe(opts, t, &mut out)?;
    }
    Ok(finish(out))
}

/// `serve-closed`: an `mb-lab serve --workers 1` child process and two
/// closed-loop clients, each submitting `fig3-paper --shards 2`,
/// watching it to `Done`, fetching its segment and checking the digest.
/// Set-up is server spawn to the first successful `ping`.
pub(crate) fn serve_closed(opts: &Options, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The fetched segments' digests are checked in this process, which
    // calibrates once on its first fig3 finalize; do it before timing.
    black_box(montblanc::fig3::tegra2_effective_gflops());
    let mut server: Option<Server> = None;
    for r in 0..opts.setup_reps.max(1) {
        if let Some(s) = server.take() {
            let stopped = s.stop();
            out.tally.record("server shutdown", stopped);
        }
        let (s, secs) = Server::start(&opts.lab_exe, &opts.work_dir.join(format!("server{r}")))?;
        out.add("setup_s", [secs]);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let clients = crate::nproc().min(2);
    // A traced run alternates untraced and traced jobs per client, so it
    // needs at least four jobs to hold one of each.
    let min_jobs = if tracer.is_some() {
        opts.min_jobs.max(4)
    } else {
        opts.min_jobs
    };
    let phase = serve_phase(&server, opts, clients, min_jobs, opts.seconds, tracer, true)?;
    let rss = server.peak_rss_mb();
    let stopped = server.stop();
    out.tally.record("server shutdown", stopped);
    let jobs = &phase.jobs;
    match tracer {
        None => {
            out.add("campaign_s", jobs.iter().map(|j| j.total_s));
            let job_ms: Vec<f64> = jobs.iter().map(|j| j.job_ms).collect();
            out.add("unit_ms_p90", [band_mean(&job_ms, 0.9, 0.05)]);
            out.add("unit_ms_p50", job_ms);
            out.add("units_per_min", phase.window_rates(10));
            out.add("peak_rss_mb", rss);
        }
        Some(t) => {
            let total = |traced: bool| -> Vec<f64> {
                jobs.iter()
                    .filter(|j| j.traced == traced)
                    .map(|j| j.total_s)
                    .collect()
            };
            let untraced = median(&total(false));
            out.add(
                "trace.overhead_frac",
                [(median(&total(true)) - untraced) / untraced],
            );
            phase.report_layers(&mut out);
            probes::model_probe(&probes::serve_cases(), t, &mut out);
            let family = vec![opts.work_dir.join("fig3-solo.journal")];
            probes::common(opts, t, &mut out, &[family], true)?;
        }
    }
    out.tally.absorb(phase.tally);
    out.digests.extend(phase.digests);
    Ok(finish(out))
}

/// A running `mb-lab serve` child process.
pub(crate) struct Server {
    child: Option<Child>,
    addr: String,
}

impl Server {
    /// Spawns a server on a fresh data dir and waits for its first
    /// successful `ping`; returns it with the seconds that took.
    pub(crate) fn start(exe: &Path, dir: &Path) -> Result<(Server, f64), String> {
        let _ = fs::remove_dir_all(dir);
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let log = fs::File::create(dir.join("server.log")).map_err(|e| e.to_string())?;
        let log2 = log.try_clone().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        let child = Command::new(exe)
            .arg("serve")
            .arg("--workers")
            .arg("1")
            .arg("--bind")
            .arg("127.0.0.1:0")
            .arg("--dir")
            .arg(dir)
            // Each of the family's two shard processes sweeps on one
            // thread, so a running job uses `nproc` (2) cores, not four.
            .env("MB_THREADS", "1")
            .env_remove("MB_SEED")
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log2)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        let addr_file = mb_lab::serve::addr_file(dir);
        loop {
            if let Ok(text) = fs::read_to_string(&addr_file) {
                let addr = text.trim();
                if !addr.is_empty() && client::ping(addr).is_ok() {
                    server.addr = addr.to_string();
                    return Ok((server, t0.elapsed().as_secs_f64()));
                }
            }
            let child = server.child.as_mut().expect("child present until stop");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("server exited before answering: {status}"));
            }
            if t0.elapsed() > Duration::from_secs(60) {
                return Err("server did not answer a ping within 60 s".to_string());
            }
            // Set-up takes a few milliseconds: poll finely enough that the
            // poll interval does not dominate it.
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Peak resident set of the server process.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::peak_rss_mb(&self.child.as_ref()?.id().to_string())
    }

    /// Asks the server to shut down and waits for it to exit.
    fn stop(mut self) -> Result<(), String> {
        let asked = client::shutdown(&self.addr);
        let mut child = self.child.take().expect("child present until stop");
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(30) {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => {
                    return asked.map(|_| ()).map_err(|e| e.to_string())
                }
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        let _ = child.kill();
        let _ = child.wait();
        Err("server did not exit within 30 s of shutdown".to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One completed job as a client saw it.
pub(crate) struct JobSample {
    /// Seconds from the start of the phase to this job's verified digest.
    finished_s: f64,
    /// Submit to `Done`.
    job_ms: f64,
    /// Submit to a verified fetched digest.
    total_s: f64,
    /// Submit ack to the first progress frame reporting a journaled
    /// slot (or to `Done` if none came first).
    first_progress_ms: f64,
    fetch_ms: f64,
    /// `ping` round trip before the submit (traced jobs only).
    ping_us: f64,
    traced: bool,
}

/// What the clients of one serve phase measured.
pub(crate) struct ServePhase {
    jobs: Vec<JobSample>,
    tally: Tally,
    digests: Vec<(String, u64)>,
}

impl ServePhase {
    /// Jobs per minute over each run of `k` consecutive completions
    /// (all of them, when fewer than `k` completed). Their median is the
    /// throughput; a stall of the host slows one window, not the whole
    /// figure.
    fn window_rates(&self, k: usize) -> Vec<f64> {
        let k = k.min(self.jobs.len()).max(1);
        let mut done: Vec<f64> = self.jobs.iter().map(|j| j.finished_s).collect();
        done.sort_by(f64::total_cmp);
        let mut edges = vec![0.0];
        edges.extend(done.iter().skip(k - 1).step_by(k).copied());
        edges
            .windows(2)
            .map(|w| k as f64 * 60.0 / (w[1] - w[0]))
            .collect()
    }

    /// The protocol, client and serve layer metrics of the traced jobs.
    pub(crate) fn report_layers(&self, out: &mut Outcome) {
        let traced = || self.jobs.iter().filter(|j| j.traced);
        out.add("lab.protocol.ping_us_p50", traced().map(|j| j.ping_us));
        out.add("lab.client.fetch_ms", traced().map(|j| j.fetch_ms));
        out.add(
            "lab.serve.first_progress_ms_p50",
            traced().map(|j| j.first_progress_ms),
        );
    }
}

/// Runs `clients` closed-loop clients against `server` until at least
/// `min_jobs` jobs completed and `seconds` passed. With `alternate`,
/// every second job of a client is traced; otherwise all are.
pub(crate) fn serve_phase(
    server: &Server,
    opts: &Options,
    clients: usize,
    min_jobs: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
    alternate: bool,
) -> Result<ServePhase, String> {
    let c = find("fig3-paper")?;
    let pin = pinned(c.as_ref())?;
    let completed = AtomicUsize::new(0);
    let shared = Mutex::new((Vec::new(), Tally::default(), Vec::new()));
    let start = Instant::now();
    let go_on = || {
        let t = start.elapsed().as_secs_f64();
        (completed.load(Ordering::SeqCst) < min_jobs || t < seconds)
            && t < crate::MAX_MEASURE_SECONDS
    };
    std::thread::scope(|s| {
        // The seed decides which client submits first.
        for client_id in pass_order(clients, opts.seed, 0) {
            let scratch = opts.work_dir.join(format!("client{client_id}"));
            let (shared, completed, go_on) = (&shared, &completed, &go_on);
            s.spawn(move || {
                let _ = fs::create_dir_all(&scratch);
                let mut n = 0usize;
                while go_on() {
                    let traced = tracer.filter(|_| !alternate || n % 2 == 1);
                    n += 1;
                    let result = one_job(&server.addr, &scratch, pin, traced, start);
                    completed.fetch_add(1, Ordering::SeqCst);
                    let mut g = shared.lock().expect("serve phase mutex poisoned");
                    match result {
                        Ok((job, d)) => {
                            if g.1.check_digest("fig3-paper fetched", Some(d), pin) {
                                g.2.push(("fig3-paper".to_string(), d));
                                g.0.push(job);
                            }
                        }
                        Err(e) => g.1.fail(e),
                    }
                }
            });
        }
    });
    let (jobs, tally, digests) = shared.into_inner().expect("serve phase mutex poisoned");
    Ok(ServePhase {
        jobs,
        tally,
        digests,
    })
}

/// Submits, watches, fetches and verifies one `fig3-paper` job.
fn one_job(
    addr: &str,
    scratch: &Path,
    pin: u64,
    tracer: Option<&Tracer>,
    phase_start: Instant,
) -> Result<(JobSample, u64), String> {
    scope(tracer, "serve.job", None, |root| {
        let ping_us = match tracer {
            None => 0.0,
            Some(_) => {
                let (secs, r) =
                    timed(|| scope(tracer, "lab.protocol.ping", root, |_| client::ping(addr)));
                r.map_err(|e| format!("ping: {e}"))?;
                secs * 1e6
            }
        };
        let t0 = Instant::now();
        let (job, _) = scope(tracer, "lab.client.submit", root, |_| {
            client::submit(addr, "fig3-paper", 2)
        })
        .map_err(|e| format!("submit: {e}"))?;
        let acked = t0.elapsed();
        let mut first = None;
        let outcome = scope(tracer, "lab.client.watch", root, |_| {
            client::watch(addr, &job, |done, _, _| {
                if done > 0 && first.is_none() {
                    first = Some(t0.elapsed());
                }
            })
        })
        .map_err(|e| format!("watch {job}: {e}"))?;
        let done_at = t0.elapsed();
        if outcome.state != JobState::Done || outcome.digest != Some(pin) {
            return Err(format!(
                "job {job} ended {} with digest {:?}",
                outcome.state.as_str(),
                outcome.digest
            ));
        }
        let seg = scratch.join(format!("{job}.seg"));
        let replica = scratch.join(format!("{job}.journal"));
        let (fetch_s, fetched) = timed(|| {
            scope(tracer, "lab.client.fetch", root, |_| {
                client::fetch(addr, &job, &seg)
            })
        });
        fetched.map_err(|e| format!("fetch {job}: {e}"))?;
        let _ = fs::remove_file(&replica);
        scope(tracer, "lab.transport.ingest", root, |_| {
            transport::ingest_segment(&replica, &seg)
        })
        .map_err(|e| format!("ingest {job}: {e}"))?;
        let digest = scope(tracer, "lab.driver.digest", root, |_| {
            Journal::load(&replica).and_then(|j| digest_journal(&j))
        })
        .map_err(|e| format!("digest {job}: {e}"))?;
        let total = t0.elapsed();
        let _ = fs::remove_file(&seg);
        let _ = fs::remove_file(&replica);
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        Ok((
            JobSample {
                finished_s: phase_start.elapsed().as_secs_f64(),
                job_ms: ms(done_at),
                total_s: total.as_secs_f64(),
                first_progress_ms: ms(first.unwrap_or(done_at).saturating_sub(acked)),
                fetch_ms: fetch_s * 1e3,
                ping_us,
                traced: tracer.is_some(),
            },
            digest,
        ))
    })
}

/// The serve layers of a workload that does not use them: one client,
/// a handful of traced jobs on a short-lived server.
pub(crate) fn serve_layers_probe(
    opts: &Options,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (server, _) = Server::start(&opts.lab_exe, &opts.work_dir.join("probe-server"))?;
    let phase = serve_phase(&server, opts, 1, 3, 0.0, Some(tracer), false)?;
    let stopped = server.stop();
    out.tally.record("probe server shutdown", stopped);
    phase.report_layers(out);
    out.tally.absorb(phase.tally);
    out.digests.extend(phase.digests);
    Ok(())
}
