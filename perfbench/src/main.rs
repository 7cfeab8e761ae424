//! Command line of the benchmark:
//!
//! ```text
//! perfbench --workload <model-sweep|fig5-sharded|serve-closed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Scratch files go to `.bench_work/` under the current directory. The
//! last line of standard output is the JSON result.

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{nproc, pool_workers, Options, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <model-sweep|fig5-sharded|serve-closed> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

/// First line of a command's standard output, or `unknown`.
fn probe(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage(&format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            other => return usage(&format!("unknown option {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage(
            "--workload, --seed, --seconds and --trace are all required and must be valid",
        );
    };
    let lab_exe = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("perfbench-lab"),
        Err(e) => return usage(&format!("cannot locate own binary: {e}")),
    };
    let work_dir = PathBuf::from(".bench_work").join(format!(
        "{}-s{seed}-t{}",
        workload.name(),
        u8::from(trace)
    ));
    let opts = Options::new(workload, seed, seconds, trace, &work_dir, &lab_exe);

    println!(
        "env workload={} seed={seed} seconds={seconds} trace={trace} nproc={} pool_workers={} \
         server_workers=1 shards=2 clients={} profile={} rustc=\"{}\" git={}",
        workload.name(),
        nproc(),
        pool_workers(),
        nproc().min(2),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        probe("rustc", &["--version"]),
        probe("git", &["rev-parse", "--short", "HEAD"]),
    );
    let result = perfbench::run(&opts);
    let _ = std::fs::remove_dir_all(Path::new(&opts.work_dir));
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in outcome.summary_lines() {
        println!("{line}");
    }
    for failure in &outcome.tally.failures {
        eprintln!("perfbench: failed: {failure}");
    }
    let declared = if trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.json_line(declared));
    ExitCode::SUCCESS
}
