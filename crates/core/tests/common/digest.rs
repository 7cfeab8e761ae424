//! Bit-exact digests of the figure outputs, shared between the normal
//! test build (`figure_digests.rs`) and the `validate`-feature build
//! (`validate_smoke.rs`). Both assert the same pinned constants, so a
//! green run under `--features validate` *proves* the sanitizer build is
//! bit-identical to the unvalidated build — the ISSUE's acceptance gate.

use mb_cpu::gpu::GpuModel;
use mb_faults::FaultConfig;
use montblanc::{ablation, fig3, fig4, fig5, fig6, fig7, sec5a, sec6, table2};

/// Folds a stream of `f64`s into one order-sensitive 64-bit digest.
/// Uses `to_bits`, so any change in any bit of any value changes it.
pub fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    values
        .into_iter()
        .fold(0u64, |h, v| h.rotate_left(7) ^ v.to_bits())
}

/// Digest of Figure 3 output (all three scaling panels) for an
/// arbitrary config — the quick and paper grids pin the same stream.
fn fig3_digest(cfg: &fig3::Fig3Config) -> u64 {
    let r = fig3::run(cfg);
    digest(
        [&r.linpack, &r.specfem, &r.bigdft]
            .into_iter()
            .flat_map(|s| s.points.iter().flat_map(|p| [p.speedup, p.efficiency]))
            .chain([r.core_gflops]),
    )
}

/// Digest of Figure 3 quick-config output (all three scaling panels).
pub fn fig3_quick() -> u64 {
    fig3_digest(&fig3::Fig3Config::quick())
}

/// Digest of Figure 3 over the full paper grid.
pub fn fig3_paper() -> u64 {
    fig3_digest(&fig3::Fig3Config::paper())
}

/// Digest of the fault-injected Figure 3 quick run under
/// [`FaultConfig::light`]: every completed point's scaling numbers
/// *and* its resilience counters (retries, timeouts, skips, crashes,
/// survivors). Pinning this proves the whole fault pipeline — plan
/// generation, fabric fault windows, retry/backoff, crash degradation —
/// replays bit-identically at any worker count and in both builds.
pub fn fig3_faulted_quick() -> u64 {
    fig3_faulted_digest(&fig3::Fig3Config::quick())
}

/// Digest of the fault-injected Figure 3 run over the full paper grid
/// (see [`fig3_faulted_quick`] for the stream layout).
pub fn fig3_faulted_paper() -> u64 {
    fig3_faulted_digest(&fig3::Fig3Config::paper())
}

fn fig3_faulted_digest(cfg: &fig3::Fig3Config) -> u64 {
    let r = fig3::run_faulted(cfg, FaultConfig::light());
    digest(
        [&r.linpack, &r.specfem, &r.bigdft]
            .into_iter()
            .flat_map(|s| {
                s.points.iter().flat_map(|p| {
                    [
                        p.point.speedup,
                        p.point.efficiency,
                        p.stats.retries as f64,
                        p.stats.timeouts as f64,
                        p.stats.skipped_messages as f64,
                        p.stats.crashed_ranks as f64,
                        p.surviving_ranks as f64,
                    ]
                })
            })
            .chain([r.core_gflops]),
    )
}

/// Energy to solution of the fault-injected Figure 3 quick run, in
/// joules: nameplate node power over every point's degraded makespan
/// **plus** the retransmission surcharge for its retry/timeout
/// counters. Pinned as a single `f64` bit pattern — any drift in the
/// fault pipeline, the power model or the surcharge accounting moves
/// it.
pub fn fig3_faulted_quick_joules() -> f64 {
    fig3::run_faulted(&fig3::Fig3Config::quick(), FaultConfig::light())
        .total_energy()
        .joules()
}

/// Digest of Figure 5 quick-config output (every bandwidth sample).
pub fn fig5_quick() -> u64 {
    fig5_digest(&fig5::Fig5Config::quick())
}

/// Digest of Figure 5 over the paper grid's 2 100 RT-anomaly samples.
pub fn fig5_paper() -> u64 {
    fig5_digest(&fig5::Fig5Config::paper())
}

fn fig5_digest(cfg: &fig5::Fig5Config) -> u64 {
    let r = fig5::run(cfg);
    digest(r.samples.iter().map(|s| s.bandwidth_gbps))
}

/// Digest of Figure 7 quick-config output (both unroll panels).
pub fn fig7_quick() -> u64 {
    fig7_digest(&fig7::Fig7Config::quick())
}

/// Digest of Figure 7 over the paper grid.
pub fn fig7_paper() -> u64 {
    fig7_digest(&fig7::Fig7Config::paper())
}

fn fig7_digest(cfg: &fig7::Fig7Config) -> u64 {
    let r = fig7::run(cfg);
    digest(
        [&r.nehalem, &r.tegra2].into_iter().flat_map(|p| {
            p.points
                .iter()
                .flat_map(|pt| [pt.cycles as f64, pt.cache_accesses as f64])
        }),
    )
}

/// Digest of Table II quick-config output (all ratio columns).
pub fn table2_quick() -> u64 {
    table2_digest(&table2::Table2Config::quick())
}

/// Digest of extended Table II over the paper config.
pub fn table2_paper() -> u64 {
    table2_digest(&table2::Table2Config::paper())
}

fn table2_digest(cfg: &table2::Table2Config) -> u64 {
    let r = table2::run_extended(cfg);
    digest(
        r.rows
            .iter()
            .flat_map(|row| [row.snowball, row.xeon, row.ratio, row.energy_ratio]),
    )
}

/// Digest of Figure 4 quick-config output: both makespans, every
/// traced state interval and message of the commodity run, and the
/// delay verdict.
pub fn fig4_quick() -> u64 {
    let r = fig4::run(&fig4::Fig4Config::quick());
    let nanos = |t: mb_simcore::time::SimTime| t.as_nanos() as f64;
    let states = r.trace.states().iter().flat_map(|s| {
        [
            f64::from(s.rank),
            nanos(s.start),
            nanos(s.end),
            s.kind as u8 as f64,
        ]
    });
    let comms = r.trace.comms().iter().flat_map(|c| {
        [
            f64::from(c.src),
            f64::from(c.dst),
            nanos(c.send_time),
            nanos(c.recv_time),
            c.bytes as f64,
        ]
    });
    digest(
        [nanos(r.commodity_time), nanos(r.upgraded_time)]
            .into_iter()
            .chain(states)
            .chain(comms)
            .chain([r.alltoallv_total() as f64, r.alltoallv_delayed() as f64]),
    )
}

/// Digest of Figure 6 output (both panels, every cell's bandwidth).
pub fn fig6() -> u64 {
    let r = fig6::run();
    digest(
        [&r.xeon, &r.snowball]
            .into_iter()
            .flat_map(|p| p.cells.iter().map(|c| c.bandwidth_gbps)),
    )
}

/// Digest of the Section V.A.1 quick study: every run's bandwidths,
/// its colour imbalance and overflow, and the two CVs.
pub fn sec5a_quick() -> u64 {
    let r = sec5a::run(&sec5a::Sec5aConfig::quick());
    digest(
        r.runs
            .iter()
            .flat_map(|run| {
                run.bandwidths
                    .iter()
                    .copied()
                    .chain([run.colours.imbalance, run.colours.overflow_fraction])
            })
            .chain([r.across_run_cv, r.within_run_cv]),
    )
}

/// Digest of Section VI: the Tegra 3 offload cases and the GFLOPS/W
/// ladder with its exascale requirement.
pub fn sec6() -> u64 {
    let cases = sec6::hybrid_offload(&GpuModel::tegra3_gpu());
    let (rungs, required) = sec6::efficiency_ladder();
    digest(
        cases
            .iter()
            .flat_map(|c| {
                [
                    c.cpu_time.as_nanos() as f64,
                    c.gpu_time.map_or(-1.0, |t| t.as_nanos() as f64),
                ]
            })
            .chain(
                rungs
                    .iter()
                    .flat_map(|r| [r.peak_gflops, r.power.watts(), r.gflops_per_watt]),
            )
            .chain([required]),
    )
}

/// Digest of the collective-algorithm ablation on 16 ranks at three
/// payloads (the bench binary's quick grid).
pub fn ablation_collectives() -> u64 {
    digest(
        ablation::collective_algorithms(16, &[64, 64 * 1024, 4 << 20])
            .iter()
            .flat_map(|a| {
                a.cells
                    .iter()
                    .flat_map(|c| [c.tree.as_nanos() as f64, c.ring.as_nanos() as f64])
            }),
    )
}

/// Digest of the switch-upgrade ablation at 8 and 16 cores, 2
/// iterations.
pub fn ablation_switch_upgrade() -> u64 {
    digest(ablation::switch_upgrade(&[8, 16], 2).iter().flat_map(|r| {
        [
            r.commodity.as_nanos() as f64,
            r.bonded.as_nanos() as f64,
            r.upgraded.as_nanos() as f64,
        ]
    }))
}

/// Digest of the page-policy ablation at 4 runs per policy.
pub fn ablation_page_policies() -> u64 {
    digest(
        ablation::page_policies(4)
            .iter()
            .flat_map(|r| [r.mean_gbps, r.across_run_cv]),
    )
}

/// Pinned digests. `figure_digests.rs` guards them in the normal build;
/// `validate_smoke.rs` re-asserts them with the sanitizer compiled in.
pub const FIG3_QUICK_DIGEST: u64 = 0xd0d5_f716_d0b3_0356;
/// See [`FIG3_QUICK_DIGEST`].
pub const FIG5_QUICK_DIGEST: u64 = 0x206e_118a_c499_7a4c;
/// See [`FIG3_QUICK_DIGEST`].
pub const FIG7_QUICK_DIGEST: u64 = 0xa5a1_d292_2006_e451;
/// See [`FIG3_QUICK_DIGEST`].
pub const TABLE2_QUICK_DIGEST: u64 = 0xe2a5_d2bf_61fb_fbcf;
/// Pinned digest of [`fig3_faulted_quick`].
pub const FIG3_FAULTED_QUICK_DIGEST: u64 = 0x8ce8_a81a_59cb_2163;
/// Pinned bit pattern of [`fig3_faulted_quick_joules`] — the faulted
/// campaign's energy to solution including retransmissions
/// (≈ 150 115.41 J for the quick grids under light faults).
pub const FIG3_FAULTED_QUICK_JOULES_BITS: u64 = 0x4102_531b_4c71_b00a;
/// Pinned digest of [`fig3_paper`] — the full paper grid behind the
/// figure. The `mb-lab` campaign registry mirrors all five paper
/// constants; `campaign_digests.rs` asserts the mirrors stay equal.
pub const FIG3_PAPER_DIGEST: u64 = 0x622e_3c14_cb8e_59b9;
/// Pinned digest of [`fig3_faulted_paper`].
pub const FIG3_FAULTED_PAPER_DIGEST: u64 = 0x7c65_dc30_f714_ac45;
/// Pinned digest of [`fig5_paper`].
pub const FIG5_PAPER_DIGEST: u64 = 0xc49f_00d6_ca0a_c4ad;
/// Pinned digest of [`fig7_paper`].
pub const FIG7_PAPER_DIGEST: u64 = 0x9080_737c_78a9_66c3;
/// Pinned digest of [`table2_paper`].
pub const TABLE2_PAPER_DIGEST: u64 = 0x8bd9_f1e8_0879_d505;
/// Pinned digest of the Figure 1 TOP500 trend-fit slot stream — the
/// `top500-trends` campaign in the `mb-lab` registry mirrors this
/// constant; `campaign_digests.rs` asserts the mirrors stay equal.
pub const TOP500_TRENDS_DIGEST: u64 = 0xe0c5_c859_2a9b_23ef;
/// Pinned digest of [`fig4_quick`].
pub const FIG4_QUICK_DIGEST: u64 = 0x05d6_6dec_ec94_2a59;
/// Pinned digest of [`fig6`].
pub const FIG6_DIGEST: u64 = 0xf5a7_3939_6430_edd9;
/// Pinned digest of [`sec5a_quick`].
pub const SEC5A_QUICK_DIGEST: u64 = 0x0e08_224c_70c0_cdc4;
/// Pinned digest of [`sec6`].
pub const SEC6_DIGEST: u64 = 0xdd16_9f20_7d58_1352;
/// Pinned digest of [`ablation_collectives`].
pub const ABLATION_COLLECTIVES_DIGEST: u64 = 0xf47d_239a_80ed_e57a;
/// Pinned digest of [`ablation_switch_upgrade`].
pub const ABLATION_SWITCH_UPGRADE_DIGEST: u64 = 0xae64_ca18_d8ea_0da0;
/// Pinned digest of [`ablation_page_policies`].
pub const ABLATION_PAGE_POLICIES_DIGEST: u64 = 0x135a_2e08_fcba_99e2;
