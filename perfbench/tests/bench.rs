//! The benchmark's own checks: its metric names match `BENCHMARK.json`,
//! a tiny pass of every workload completes without failures, tracing
//! changes no digest, and the digest check bites.

use mb_lab::driver::{run_campaign, Shard};
use perfbench::report::{Tally, END_TO_END, PER_LAYER};
use perfbench::{Options, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn as_owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn emitted_metrics_are_declared_in_benchmark_json_with_their_units() {
    assert_eq!(as_owned(END_TO_END), declared("end_to_end"));
    assert_eq!(as_owned(PER_LAYER), declared("per_layer"));
}

fn work_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Runs a tiny pass and returns its verified digests by campaign.
fn tiny(workload: Workload, trace: bool) -> BTreeMap<String, u64> {
    let dir = work_dir(&format!("{}-{trace}", workload.name()));
    let lab = Path::new(env!("CARGO_BIN_EXE_perfbench-lab"));
    let mut outcome =
        perfbench::run(&Options::tiny(workload, 7, trace, &dir, lab)).expect("run takes place");
    let declared = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in declared {
        assert!(
            outcome.samples.contains_key(name),
            "{}: {name} not measured",
            workload.name()
        );
    }
    for name in outcome.samples.keys() {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name);
        assert!(known, "{}: {name} is not declared", workload.name());
    }
    let line = outcome.json_line(declared);
    assert!(
        outcome.correct(),
        "{}: {:?}",
        workload.name(),
        outcome.tally.failures
    );
    assert_eq!(outcome.tally.failed, 0);
    assert!(line.starts_with("{\"correct\": true"), "{line}");
    let mut digests = BTreeMap::new();
    for (campaign, d) in &outcome.digests {
        assert_eq!(
            *digests.entry(campaign.clone()).or_insert(*d),
            *d,
            "{campaign} digest is stable"
        );
    }
    digests
}

fn traced_and_untraced_agree(workload: Workload) {
    let untraced = tiny(workload, false);
    let traced = tiny(workload, true);
    assert!(!untraced.is_empty());
    for (campaign, d) in &untraced {
        assert_eq!(
            traced.get(campaign),
            Some(d),
            "{campaign}: tracing changed the digest"
        );
        let pin = mb_lab::campaign::find(campaign).and_then(|c| c.pinned_digest());
        assert_eq!(pin, Some(*d), "{campaign} matches its registry pin");
    }
}

#[test]
fn model_sweep_tiny_pass() {
    traced_and_untraced_agree(Workload::ModelSweep);
}

#[test]
fn fig5_sharded_tiny_pass() {
    traced_and_untraced_agree(Workload::Fig5Sharded);
}

#[test]
fn serve_closed_tiny_pass() {
    traced_and_untraced_agree(Workload::ServeClosed);
}

#[test]
fn a_wrong_expected_digest_is_counted_as_a_failure() {
    let campaign = mb_lab::campaign::find("top500-trends").expect("registered");
    let pin = campaign.pinned_digest().expect("pinned");
    let dir = work_dir("wrong-digest");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let run = run_campaign(campaign.as_ref(), &dir.join("j.journal"), Shard::solo(), 0)
        .expect("campaign runs");
    let mut tally = Tally::default();
    assert!(tally.check_digest("top500-trends", run.digest, pin));
    assert!(!tally.check_digest("top500-trends", run.digest, pin ^ 1));
    assert_eq!((tally.attempted, tally.failed), (2, 1));
}
