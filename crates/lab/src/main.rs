//! `mb-lab` CLI — run, shard, supervise, serve, merge and digest
//! experiment campaigns.
//!
//! ```text
//! mb-lab list
//! mb-lab run <campaign> --journal <path> [--shard i/N] [--task-delay-ms d]
//!        [--max-slots n] [--skip-slots a,b,c] [--times]
//! mb-lab supervise <campaign> --dir <path> [--shards N] [--poll-ms d]
//!        [--hang-polls n] [--poison-threshold k] [--max-restarts n]
//!        [--backoff-base-ms d] [--backoff-cap-ms d] [--max-polls n]
//!        [--task-delay-ms d] [--chaos-kills n]
//! mb-lab serve --dir <path> [--bind host:port] [--queue-cap n] [--workers n]
//!        [--poll-ms d] [--task-delay-ms d]
//! mb-lab submit <campaign> --addr host:port [--shards N]
//! mb-lab status [job] --addr host:port
//! mb-lab watch <job> --addr host:port
//! mb-lab cancel <job> --addr host:port
//! mb-lab fetch <job> <segment> --addr host:port
//! mb-lab ping --addr host:port
//! mb-lab shutdown --addr host:port
//! mb-lab export <journal> <segment> [--from k]
//! mb-lab ingest <journal> <segment>
//! mb-lab merge <out> <in>...
//! mb-lab digest <journal> [--expect 0xHEX] [--check]
//! ```
//!
//! The client subcommands (`submit` … `shutdown`) speak the `mbsrv1`
//! line protocol to an `mb-lab serve` instance; `--addr` falls back
//! to the `MB_ADDR` environment variable.
//!
//! ## Exit codes
//!
//! The exit status is a documented contract (see
//! `mb_simcore::error::exit_code`) so a supervisor can tell *why* a
//! worker died:
//!
//! | code | meaning                                                  |
//! |------|----------------------------------------------------------|
//! | 0    | success                                                  |
//! | 1    | generic failure (e.g. digest mismatch under `--check`)   |
//! | 2    | usage: unknown flag, missing operand, malformed value    |
//! | 3    | journal/segment corruption (chain break, version skew, …)|
//! | 4    | a campaign slot panicked (restartable, maybe poisoned)   |
//! | 5    | env/shard misconfiguration (bad `MB_*`, wrong campaign, a |
//! |      | data dir/journal owned by a live process, …)             |
//! | 6    | `mbsrv1` protocol fault (skew, malformed/oversized frame)|
//! | 7    | server unavailable or busy (typed backpressure; retry)   |
//!
//! The shard assignment comes from `--shard i/N` or, failing that, the
//! `MB_SHARD` environment variable (same syntax); default `0/1`. A
//! malformed value in either place is a hard error — a worker silently
//! re-running the whole grid solo is exactly the kind of
//! measuring-something-else failure the campaign machinery exists to
//! rule out. `--max-slots n` (or `MB_MAX_SLOTS`) bounds how many slots
//! one invocation executes so CI can smoke a truncated paper shard;
//! `--times` prints per-slot wall times. Worker threads follow the
//! workspace-wide `MB_THREADS` variable.

use mb_lab::{campaign, client, driver, journal, serve, supervise, transport};
use mb_simcore::error::exit_code;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  mb-lab list\n  mb-lab run <campaign> --journal <path> \
         [--shard i/N] [--task-delay-ms d] [--max-slots n] [--skip-slots a,b,c] [--times]\n  \
         mb-lab supervise <campaign> --dir <path> [--shards N] [--poll-ms d] [--hang-polls n]\n    \
         [--poison-threshold k] [--max-restarts n] [--backoff-base-ms d] [--backoff-cap-ms d]\n    \
         [--max-polls n] [--task-delay-ms d] [--chaos-kills n]\n  \
         mb-lab serve --dir <path> [--bind host:port] [--queue-cap n] [--workers n]\n    \
         [--poll-ms d] [--task-delay-ms d]\n  \
         mb-lab submit <campaign> --addr host:port [--shards N]\n  \
         mb-lab status [job] --addr host:port\n  \
         mb-lab watch <job> --addr host:port\n  \
         mb-lab cancel <job> --addr host:port\n  \
         mb-lab fetch <job> <segment> --addr host:port\n  \
         mb-lab ping --addr host:port\n  \
         mb-lab shutdown --addr host:port\n  \
         mb-lab export <journal> <segment> [--from k]\n  \
         mb-lab ingest <journal> <segment>\n  \
         mb-lab merge <out> <in>...\n  \
         mb-lab digest <journal> [--expect 0xHEX] [--check]"
    );
    ExitCode::from(exit_code::USAGE)
}

/// Prints a journal-layer error and maps it to its documented code.
fn fail_journal(e: &journal::JournalError) -> ExitCode {
    eprintln!("mb-lab: {e}");
    ExitCode::from(e.exit_code())
}

/// Prints a transport-layer error and maps it to its documented code.
fn fail_transport(e: &transport::TransportError) -> ExitCode {
    eprintln!("mb-lab: {e}");
    ExitCode::from(e.exit_code())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(&args[1..]),
        Some("supervise") => cmd_supervise(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("watch") => cmd_watch(&args[1..]),
        Some("cancel") => cmd_cancel(&args[1..]),
        Some("fetch") => cmd_fetch(&args[1..]),
        Some("ping") => cmd_ping(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("ingest") => cmd_ingest(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("digest") => cmd_digest(&args[1..]),
        _ => usage(),
    }
}

/// Prints a client-layer error and maps it to its documented code.
fn fail_client(e: &client::ClientError) -> ExitCode {
    eprintln!("mb-lab: {e}");
    ExitCode::from(e.exit_code())
}

/// Splits client-command args into `(positional operands, addr)`:
/// `--addr host:port` with an `MB_ADDR` fallback, anything else
/// positional. Errors (usage / missing addr) come back as exit codes.
fn parse_client_args(args: &[String], positional_max: usize) -> Result<(Vec<String>, String), ExitCode> {
    let mut positional = Vec::new();
    let mut addr: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" if i + 1 < args.len() => {
                addr = Some(args[i + 1].clone());
                i += 2;
            }
            "--addr" => {
                eprintln!("mb-lab: --addr requires a value");
                return Err(ExitCode::from(exit_code::USAGE));
            }
            other if other.starts_with("--") => {
                eprintln!("mb-lab: unknown client option '{other}'");
                return Err(usage());
            }
            other => {
                positional.push(other.to_string());
                i += 1;
            }
        }
    }
    if positional.len() > positional_max {
        eprintln!("mb-lab: too many operands");
        return Err(usage());
    }
    let addr = match addr.or_else(|| std::env::var("MB_ADDR").ok()) {
        Some(a) => a,
        None => {
            eprintln!("mb-lab: no server address (pass --addr host:port or set MB_ADDR)");
            return Err(ExitCode::from(exit_code::ENV_MISCONFIG));
        }
    };
    Ok((positional, addr))
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    let mut policy = serve::ServePolicy::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |flag: &str| -> Result<&String, ExitCode> {
            args.get(i + 1).ok_or_else(|| {
                eprintln!("mb-lab: {flag} requires a value");
                ExitCode::from(exit_code::USAGE)
            })
        };
        macro_rules! numeric {
            ($field:expr) => {{
                let raw = match value(flag) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match raw.parse() {
                    Ok(v) => $field = v,
                    Err(_) => {
                        eprintln!("mb-lab: bad {flag} '{raw}'");
                        return ExitCode::from(exit_code::USAGE);
                    }
                }
                i += 2;
            }};
        }
        match flag {
            "--dir" => {
                let raw = match value(flag) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                dir = Some(PathBuf::from(raw));
                i += 2;
            }
            "--bind" => {
                let raw = match value(flag) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                policy.bind = raw.clone();
                i += 2;
            }
            "--queue-cap" => numeric!(policy.queue_cap),
            "--workers" => numeric!(policy.workers),
            "--poll-ms" => numeric!(policy.supervise.poll_ms),
            "--task-delay-ms" => numeric!(policy.supervise.task_delay_ms),
            other => {
                eprintln!("mb-lab: unknown serve option '{other}'");
                return usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("mb-lab: serve requires --dir <path>");
        return usage();
    };
    match seed_from_env() {
        Ok(Some(seed)) => policy.supervise.seed = seed,
        Ok(None) => {}
        Err(code) => return code,
    }
    let worker_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mb-lab: cannot locate own binary: {e}");
            return ExitCode::from(exit_code::ENV_MISCONFIG);
        }
    };
    match serve::serve(&dir, &worker_exe, &policy) {
        Ok(summary) => {
            println!(
                "mb-lab serve: exiting: {} job(s) known, {} done, {} failed, {} cancelled, \
                 {} left for the next server",
                summary.jobs, summary.done, summary.failed, summary.cancelled, summary.queued_left
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mb-lab: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn cmd_submit(args: &[String]) -> ExitCode {
    // Positional: the campaign. --shards rides along with --addr.
    let mut shards = 2u32;
    let mut rest: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--shards" if i + 1 < args.len() => {
                let Ok(n) = args[i + 1].parse() else {
                    eprintln!("mb-lab: bad --shards '{}'", args[i + 1]);
                    return ExitCode::from(exit_code::USAGE);
                };
                shards = n;
                i += 2;
            }
            other => {
                rest.push(other.to_string());
                i += 1;
            }
        }
    }
    let (positional, addr) = match parse_client_args(&rest, 1) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let Some(campaign_name) = positional.first() else {
        eprintln!("mb-lab: submit requires a campaign name");
        return usage();
    };
    if shards == 0 {
        eprintln!("mb-lab: --shards must be at least 1");
        return ExitCode::from(exit_code::USAGE);
    }
    match client::submit(&addr, campaign_name, shards) {
        Ok((job, queued)) => {
            println!("submitted {job} ({campaign_name}, {shards} shard(s), queue depth {queued})");
            ExitCode::SUCCESS
        }
        Err(e) => fail_client(&e),
    }
}

fn print_job(s: &mb_lab::JobStatus) {
    let digest = match s.digest {
        Some(d) => format!("  digest {d:#018x}"),
        None => String::new(),
    };
    println!(
        "{:<6} {:<20} {:>2} shard(s)  {:<9} {:>4}/{:<4}{digest}",
        s.job, s.campaign, s.shards, s.state.as_str(), s.done, s.total
    );
}

fn cmd_status(args: &[String]) -> ExitCode {
    let (positional, addr) = match parse_client_args(args, 1) {
        Ok(v) => v,
        Err(code) => return code,
    };
    match client::status(&addr, positional.first().map(String::as_str)) {
        Ok(jobs) => {
            for s in &jobs {
                print_job(s);
            }
            if positional.is_empty() {
                println!("{} job(s)", jobs.len());
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail_client(&e),
    }
}

fn cmd_watch(args: &[String]) -> ExitCode {
    let (positional, addr) = match parse_client_args(args, 1) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let Some(job) = positional.first() else {
        eprintln!("mb-lab: watch requires a job id");
        return usage();
    };
    let mut last_done = usize::MAX;
    let outcome = client::watch(&addr, job, |done, total, eta_ms| {
        if done != last_done {
            last_done = done;
            match eta_ms {
                Some(eta) => println!("{job}: {done}/{total} slot(s), eta {:.1}s", eta as f64 / 1000.0),
                None => println!("{job}: {done}/{total} slot(s)"),
            }
        }
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => return fail_client(&e),
    };
    use mb_lab::JobState;
    match outcome.state {
        JobState::Done => {
            match outcome.digest {
                Some(d) if outcome.checked => {
                    println!("{job}: done, digest {d:#018x} (pinned digest check: ok)")
                }
                Some(d) => println!("{job}: done, digest {d:#018x} (no pin registered)"),
                None => println!(
                    "{job}: done (degraded: {})",
                    outcome.detail.as_deref().unwrap_or("digest withheld")
                ),
            }
            ExitCode::SUCCESS
        }
        state => {
            eprintln!(
                "mb-lab: {job} ended {}: {}",
                state.as_str(),
                outcome.detail.as_deref().unwrap_or("<no detail>")
            );
            ExitCode::FAILURE
        }
    }
}

fn cmd_cancel(args: &[String]) -> ExitCode {
    let (positional, addr) = match parse_client_args(args, 1) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let Some(job) = positional.first() else {
        eprintln!("mb-lab: cancel requires a job id");
        return usage();
    };
    match client::cancel(&addr, job) {
        Ok(s) => {
            print_job(&s);
            ExitCode::SUCCESS
        }
        Err(e) => fail_client(&e),
    }
}

fn cmd_fetch(args: &[String]) -> ExitCode {
    let (positional, addr) = match parse_client_args(args, 2) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let (Some(job), Some(out)) = (positional.first(), positional.get(1)) else {
        eprintln!("mb-lab: fetch requires a job id and an output segment path");
        return usage();
    };
    match client::fetch(&addr, job, Path::new(out)) {
        Ok(records) => {
            println!("fetched {records} record(s) -> {out} (chain-verified)");
            ExitCode::SUCCESS
        }
        Err(e) => fail_client(&e),
    }
}

fn cmd_ping(args: &[String]) -> ExitCode {
    let (_, addr) = match parse_client_args(args, 0) {
        Ok(v) => v,
        Err(code) => return code,
    };
    match client::ping(&addr) {
        Ok(()) => {
            println!("{addr}: alive");
            ExitCode::SUCCESS
        }
        Err(e) => fail_client(&e),
    }
}

fn cmd_shutdown(args: &[String]) -> ExitCode {
    let (_, addr) = match parse_client_args(args, 0) {
        Ok(v) => v,
        Err(code) => return code,
    };
    match client::shutdown(&addr) {
        Ok(running) => {
            println!("{addr}: stopping ({running} job(s) draining)");
            ExitCode::SUCCESS
        }
        Err(e) => fail_client(&e),
    }
}

fn cmd_list() -> ExitCode {
    for c in campaign::registry() {
        let pinned = match c.pinned_digest() {
            Some(d) => format!("digest {d:#018x}"),
            None => "unpinned".to_string(),
        };
        println!(
            "{:<20} {:>3} tasks  {}  {}",
            c.name(),
            c.task_labels().len(),
            pinned,
            c.description()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_run(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let mut journal_path: Option<PathBuf> = None;
    let mut shard: Option<driver::Shard> = None;
    let mut task_delay_ms = 0u64;
    let mut max_slots: Option<usize> = None;
    let mut skip_slots: Vec<usize> = Vec::new();
    let mut show_times = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--skip-slots" if i + 1 < args.len() => {
                for part in args[i + 1].split(',') {
                    let Ok(slot) = part.trim().parse() else {
                        eprintln!("mb-lab: bad --skip-slots entry '{part}'");
                        return ExitCode::from(exit_code::USAGE);
                    };
                    skip_slots.push(slot);
                }
                i += 2;
            }
            "--journal" if i + 1 < args.len() => {
                journal_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--shard" if i + 1 < args.len() => {
                let Some(s) = driver::Shard::parse(&args[i + 1]) else {
                    eprintln!("mb-lab: bad --shard '{}': want i/N with i < N", args[i + 1]);
                    return ExitCode::from(exit_code::USAGE);
                };
                shard = Some(s);
                i += 2;
            }
            "--task-delay-ms" if i + 1 < args.len() => {
                let Ok(d) = args[i + 1].parse() else {
                    eprintln!("mb-lab: bad --task-delay-ms '{}'", args[i + 1]);
                    return ExitCode::from(exit_code::USAGE);
                };
                task_delay_ms = d;
                i += 2;
            }
            "--max-slots" if i + 1 < args.len() => {
                let Ok(n) = args[i + 1].parse() else {
                    eprintln!("mb-lab: bad --max-slots '{}'", args[i + 1]);
                    return ExitCode::from(exit_code::USAGE);
                };
                max_slots = Some(n);
                i += 2;
            }
            "--times" => {
                show_times = true;
                i += 1;
            }
            other => {
                eprintln!("mb-lab: unknown run option '{other}'");
                return usage();
            }
        }
    }
    let Some(journal_path) = journal_path else {
        eprintln!("mb-lab: run requires --journal <path>");
        return usage();
    };
    // Env fallbacks mirror the flags and share their validation: a
    // malformed value is a hard error, never a silent default — a
    // sharded worker that quietly runs the whole grid solo corrupts
    // the experiment it thinks it is contributing to.
    let shard = match shard {
        Some(s) => s,
        None => match std::env::var("MB_SHARD") {
            Ok(v) => match driver::Shard::parse(&v) {
                Some(s) => s,
                None => {
                    eprintln!("mb-lab: bad MB_SHARD '{v}': want i/N with i < N");
                    return ExitCode::from(exit_code::ENV_MISCONFIG);
                }
            },
            Err(_) => driver::Shard::solo(),
        },
    };
    let max_slots = match max_slots {
        Some(n) => Some(n),
        None => match std::env::var("MB_MAX_SLOTS") {
            Ok(v) => match v.parse() {
                Ok(n) => Some(n),
                Err(_) => {
                    eprintln!("mb-lab: bad MB_MAX_SLOTS '{v}': want a slot count");
                    return ExitCode::from(exit_code::ENV_MISCONFIG);
                }
            },
            Err(_) => None,
        },
    };

    let Some(c) = campaign::find(name) else {
        eprintln!("mb-lab: unknown campaign '{name}' (try `mb-lab list`)");
        return ExitCode::from(exit_code::ENV_MISCONFIG);
    };
    let opts = driver::RunOptions {
        shard,
        task_delay_ms,
        max_slots,
        skip_slots,
    };
    match driver::run_campaign_with(c.as_ref(), &journal_path, &opts) {
        Ok(outcome) => {
            if outcome.recovered_torn_tail {
                eprintln!("mb-lab: dropped a torn journal tail (crash recovery)");
            }
            if show_times {
                let labels = c.task_labels();
                for &(slot, secs) in &outcome.slot_secs {
                    println!("  slot {slot:>4} {:<24} {secs:>9.4}s", labels[slot]);
                }
            }
            if !outcome.slot_secs.is_empty() {
                let total: f64 = outcome.slot_secs.iter().map(|&(_, s)| s).sum();
                let peak = outcome
                    .slot_secs
                    .iter()
                    .map(|&(_, s)| s)
                    .fold(0.0_f64, f64::max);
                println!(
                    "{}: {} slot(s) in {total:.3}s (mean {:.4}s, max {peak:.4}s)",
                    c.name(),
                    outcome.slot_secs.len(),
                    total / outcome.slot_secs.len() as f64
                );
            }
            print!(
                "{}: shard {}/{}: {} replayed, {} executed",
                c.name(),
                shard.index,
                shard.count,
                outcome.replayed,
                outcome.executed
            );
            if outcome.skipped > 0 {
                print!(", {} skipped (quarantined)", outcome.skipped);
            }
            match outcome.digest {
                Some(d) => println!(", digest {d:#018x}"),
                None if outcome.remaining > 0 => {
                    println!(", {} still missing (bounded run; rerun to continue)", outcome.remaining)
                }
                None => println!(" (partial shard; merge to finalize)"),
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail_journal(&e),
    }
}

fn cmd_merge(args: &[String]) -> ExitCode {
    if args.len() < 2 {
        return usage();
    }
    let out = Path::new(&args[0]);
    let inputs: Vec<PathBuf> = args[1..].iter().map(PathBuf::from).collect();
    match journal::merge(out, &inputs) {
        Ok(merged) => {
            println!(
                "merged {} shard(s) -> {} ({} records, campaign {})",
                inputs.len(),
                out.display(),
                merged.records.len(),
                merged.header.campaign
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail_journal(&e),
    }
}

fn cmd_digest(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut expect: Option<u64> = None;
    let mut check = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--expect" if i + 1 < args.len() => {
                let text = args[i + 1].strip_prefix("0x").unwrap_or(&args[i + 1]);
                let Ok(v) = u64::from_str_radix(text, 16) else {
                    eprintln!("mb-lab: bad --expect '{}'", args[i + 1]);
                    return ExitCode::from(exit_code::USAGE);
                };
                expect = Some(v);
                i += 2;
            }
            "--check" => {
                check = true;
                i += 1;
            }
            other => {
                eprintln!("mb-lab: unknown digest option '{other}'");
                return usage();
            }
        }
    }
    let loaded = match journal::Journal::load(Path::new(path)) {
        Ok(j) => j,
        Err(e) => return fail_journal(&e),
    };
    let digest = match driver::digest_journal(&loaded) {
        Ok(d) => d,
        Err(e) => return fail_journal(&e),
    };
    println!("{}: digest {digest:#018x}", loaded.header.campaign);
    if let Some(want) = expect {
        if digest != want {
            eprintln!("mb-lab: digest mismatch: got {digest:#018x}, expected {want:#018x}");
            return ExitCode::FAILURE;
        }
    }
    if check {
        let pinned = campaign::find(&loaded.header.campaign).and_then(|c| c.pinned_digest());
        match pinned {
            Some(want) if want == digest => println!("pinned digest check: ok"),
            Some(want) => {
                eprintln!(
                    "mb-lab: pinned digest mismatch: got {digest:#018x}, pinned {want:#018x}"
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("mb-lab: campaign '{}' has no pinned digest", loaded.header.campaign);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Parses `MB_SEED` (decimal or `0x`-prefixed hex) for the supervise
/// backoff/chaos schedules; absent means the policy default.
fn seed_from_env() -> Result<Option<u64>, ExitCode> {
    match std::env::var("MB_SEED") {
        Err(_) => Ok(None),
        Ok(v) => {
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            match parsed {
                Ok(seed) => Ok(Some(seed)),
                Err(_) => {
                    eprintln!("mb-lab: bad MB_SEED '{v}': want decimal or 0xHEX");
                    Err(ExitCode::from(exit_code::ENV_MISCONFIG))
                }
            }
        }
    }
}

fn cmd_supervise(args: &[String]) -> ExitCode {
    let Some(name) = args.first() else {
        return usage();
    };
    let mut dir: Option<PathBuf> = None;
    let mut policy = supervise::SupervisePolicy::default();
    // Every numeric knob shares one parse-or-usage-error path.
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = |flag: &str| -> Result<&String, ExitCode> {
            args.get(i + 1).ok_or_else(|| {
                eprintln!("mb-lab: {flag} requires a value");
                ExitCode::from(exit_code::USAGE)
            })
        };
        macro_rules! numeric {
            ($field:expr) => {{
                let raw = match value(flag) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                match raw.parse() {
                    Ok(v) => $field = v,
                    Err(_) => {
                        eprintln!("mb-lab: bad {flag} '{raw}'");
                        return ExitCode::from(exit_code::USAGE);
                    }
                }
                i += 2;
            }};
        }
        match flag {
            "--dir" => {
                let raw = match value(flag) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
                dir = Some(PathBuf::from(raw));
                i += 2;
            }
            "--shards" => numeric!(policy.shards),
            "--poll-ms" => numeric!(policy.poll_ms),
            "--hang-polls" => numeric!(policy.hang_polls),
            "--poison-threshold" => numeric!(policy.poison_threshold),
            "--max-restarts" => numeric!(policy.max_restarts),
            "--backoff-base-ms" => numeric!(policy.backoff_base_ms),
            "--backoff-cap-ms" => numeric!(policy.backoff_cap_ms),
            "--max-polls" => numeric!(policy.max_polls),
            "--task-delay-ms" => numeric!(policy.task_delay_ms),
            "--chaos-kills" => numeric!(policy.chaos_kills),
            other => {
                eprintln!("mb-lab: unknown supervise option '{other}'");
                return usage();
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("mb-lab: supervise requires --dir <path>");
        return usage();
    };
    if policy.shards == 0 {
        eprintln!("mb-lab: --shards must be at least 1");
        return ExitCode::from(exit_code::USAGE);
    }
    match seed_from_env() {
        Ok(Some(seed)) => policy.seed = seed,
        Ok(None) => {}
        Err(code) => return code,
    }
    // Workers are this very binary.
    let worker_exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mb-lab: cannot locate own binary: {e}");
            return ExitCode::from(exit_code::ENV_MISCONFIG);
        }
    };
    match supervise::supervise(name, &dir, &worker_exe, &policy) {
        Ok(report) => {
            let restarts: u32 = report.per_shard.iter().map(|s| s.crashes).sum();
            println!(
                "{name}: supervised {} shard(s): {} ({} restart(s), {} hang(s), {} chaos kill(s))",
                report.shards,
                report.accounting.summary(),
                restarts,
                report.per_shard.iter().map(|s| s.hangs).sum::<u32>(),
                report.chaos_kills
            );
            match report.digest {
                Some(d) if report.digest_checked => {
                    println!("merged digest {d:#018x} (pinned digest check: ok)")
                }
                Some(d) => println!("merged digest {d:#018x} (no pin registered)"),
                None => println!(
                    "degraded completion: {} slot(s) quarantined, digest withheld",
                    report.quarantined.len()
                ),
            }
            println!("report: {}", dir.join("report.json").display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("mb-lab: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let (Some(journal_path), Some(segment)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let mut from = 0usize;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--from" if i + 1 < args.len() => {
                let Ok(k) = args[i + 1].parse() else {
                    eprintln!("mb-lab: bad --from '{}'", args[i + 1]);
                    return ExitCode::from(exit_code::USAGE);
                };
                from = k;
                i += 2;
            }
            other => {
                eprintln!("mb-lab: unknown export option '{other}'");
                return usage();
            }
        }
    }
    match transport::export_segment(Path::new(journal_path), from, Path::new(segment)) {
        Ok(seg) => {
            println!(
                "exported {} record(s) [{}..{}] of {} -> {}",
                seg.records.len(),
                seg.from,
                seg.from + seg.records.len(),
                journal_path,
                segment
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail_transport(&e),
    }
}

fn cmd_ingest(args: &[String]) -> ExitCode {
    let (Some(journal_path), Some(segment)) = (args.first(), args.get(1)) else {
        return usage();
    };
    if args.len() > 2 {
        eprintln!("mb-lab: unknown ingest option '{}'", args[2]);
        return usage();
    }
    match transport::ingest_segment(Path::new(journal_path), Path::new(segment)) {
        Ok(out) => {
            println!(
                "ingested {} -> {}: {} appended, {} duplicate(s) verified",
                segment, journal_path, out.appended, out.duplicates
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail_transport(&e),
    }
}
