//! Differential tests: indexed integration against the naive oracle.
//!
//! [`integrate_aligned`] dispatches on [`Params::indexed_integration`]
//! between two implementations of Algorithm 3. The indexed path claims to
//! be **bit-identical** to the naive scan — same clusters, same IDs, same
//! result order, same merge count — while skipping only comparisons the
//! inverted indexes or the admissible similarity bound prove are
//! ≤ `δsim`. These tests check that claim across random inputs (seeded
//! through `cps-testkit`; rerun a failure with `CPS_FAULT_SEED=<seed>`),
//! both time alignments, all five balance functions, and the adversarial
//! shapes that stress each pruning rule.

use atypical::integrate::{
    integrate_aligned, is_fixpoint_aligned, IntegrationStats, TimeAlignment,
};
use atypical::similarity::similarity_folded;
use atypical::AtypicalCluster;
use cps_core::ids::ClusterIdGen;
use cps_core::{BalanceFunction, ClusterId, Params, SensorId, Severity, TimeWindow};
use cps_testkit::fixtures::random_clusters;
use cps_testkit::{canonicalize, run_seeded};
use proptest::prelude::*;
use std::collections::VecDeque;

const ALIGNMENTS: [TimeAlignment; 2] = [
    TimeAlignment::Absolute,
    TimeAlignment::TimeOfDay {
        windows_per_day: 96,
    },
];

/// Runs both strategies on the same input and checks every differential
/// invariant; returns `(naive, indexed)` stats for extra assertions.
fn check_equivalence(
    input: &[AtypicalCluster],
    params: &Params,
    alignment: TimeAlignment,
    context: &str,
) -> (IntegrationStats, IntegrationStats) {
    let naive_params = params.with_indexed_integration(false);
    let indexed_params = params.with_indexed_integration(true);
    let mut naive_ids = ClusterIdGen::new(1_000_000);
    let mut indexed_ids = ClusterIdGen::new(1_000_000);
    let (naive, naive_stats) =
        integrate_aligned(input.to_vec(), &naive_params, alignment, &mut naive_ids);
    let (indexed, indexed_stats) =
        integrate_aligned(input.to_vec(), &indexed_params, alignment, &mut indexed_ids);

    // Both outputs reach the Algorithm 3 fixpoint.
    assert!(
        is_fixpoint_aligned(&naive, params, alignment),
        "{context}: naive output is not a fixpoint"
    );
    assert!(
        is_fixpoint_aligned(&indexed, params, alignment),
        "{context}: indexed output is not a fixpoint"
    );
    // Identical multiset of cluster contents (order- and ID-free)...
    assert_eq!(
        canonicalize(&naive),
        canonicalize(&indexed),
        "{context}: cluster multisets diverge"
    );
    // ...and in fact bit-identical output: same order, same fresh IDs.
    assert_eq!(naive, indexed, "{context}: outputs are not bit-identical");
    assert_eq!(
        naive_stats.merges, indexed_stats.merges,
        "{context}: merge counts diverge"
    );
    // The index only ever *skips* evaluations.
    assert!(
        indexed_stats.comparisons <= naive_stats.comparisons,
        "{context}: indexed did {} comparisons, naive {}",
        indexed_stats.comparisons,
        naive_stats.comparisons
    );
    // Evaluations plus bound skips never exceed the naive scan: both
    // count result members at positions up to the first hit, and the
    // indexed side only considers the candidate subset of those.
    // (`candidates_pruned` is excluded — it is charged for the whole
    // result set upfront, including positions past the hit that a naive
    // scan never reaches, so exact accounting only holds merge-free.)
    assert!(
        indexed_stats.comparisons + indexed_stats.bound_skips <= naive_stats.comparisons,
        "{context}: indexed evaluated {} + skipped {}, naive evaluated {}",
        indexed_stats.comparisons,
        indexed_stats.bound_skips,
        naive_stats.comparisons
    );
    if naive_stats.merges == 0 {
        // Merge-free, the scan lengths match member-for-member, so every
        // naive evaluation is accounted for: evaluated exactly, pruned by
        // the indexes, or skipped by the bound.
        assert_eq!(
            indexed_stats.comparisons + indexed_stats.candidates_pruned + indexed_stats.bound_skips,
            naive_stats.comparisons,
            "{context}: merge-free comparison accounting diverges"
        );
    }
    (naive_stats, indexed_stats)
}

/// Hand-built cluster over explicit `(key, severity-seconds)` pairs. SF
/// and TF totals are balanced with a sink key only when they differ, so
/// disjointness of the listed keys is preserved.
fn cluster(id: u64, sf: &[(u32, u64)], tf: &[(u32, u64)]) -> AtypicalCluster {
    let mut sf: Vec<(SensorId, Severity)> = sf
        .iter()
        .map(|&(s, secs)| (SensorId::new(s), Severity::from_secs(secs)))
        .collect();
    let mut tf: Vec<(TimeWindow, Severity)> = tf
        .iter()
        .map(|&(w, secs)| (TimeWindow::new(w), Severity::from_secs(secs)))
        .collect();
    let st: u64 = sf.iter().map(|(_, s)| s.as_secs()).sum();
    let tt: u64 = tf.iter().map(|(_, s)| s.as_secs()).sum();
    if st < tt {
        sf.push((SensorId::new(999_999), Severity::from_secs(tt - st)));
    } else if tt < st {
        tf.push((TimeWindow::new(999_999), Severity::from_secs(st - tt)));
    }
    AtypicalCluster::new(
        ClusterId::new(id),
        sf.into_iter().collect(),
        tf.into_iter().collect(),
    )
}

#[test]
fn random_inputs_all_alignments_all_balances() {
    run_seeded("random_inputs_all_alignments_all_balances", |seed| {
        for round in 0..8u64 {
            let input = random_clusters(seed.wrapping_add(round), 40, 8);
            for alignment in ALIGNMENTS {
                for g in BalanceFunction::ALL {
                    let params = Params::paper_defaults().with_balance(g);
                    check_equivalence(
                        &input,
                        &params,
                        alignment,
                        &format!("seed {seed} round {round} {alignment:?} {g:?}"),
                    );
                }
            }
        }
    });
}

#[test]
fn random_inputs_across_thresholds() {
    run_seeded("random_inputs_across_thresholds", |seed| {
        // Low thresholds force merge cascades (re-enqueues), high ones
        // force full scans; both paths must stay identical throughout.
        for &delta_sim in &[0.0, 0.05, 0.2, 0.5, 0.8, 0.99] {
            let input = random_clusters(seed, 60, 6);
            for alignment in ALIGNMENTS {
                let params = Params::paper_defaults().with_delta_sim(delta_sim);
                check_equivalence(
                    &input,
                    &params,
                    alignment,
                    &format!("seed {seed} δsim {delta_sim} {alignment:?}"),
                );
            }
        }
    });
}

#[test]
fn disjoint_sensor_sets_prune_everything() {
    // Pairwise-disjoint sensors AND windows: similarity is exactly 0 for
    // every pair, so the indexed path must do zero exact evaluations.
    let input: Vec<AtypicalCluster> = (0..25u64)
        .map(|i| {
            let base = (i as u32) * 10;
            cluster(
                i,
                &[(base, 600), (base + 1, 300)],
                &[(base, 450), (base + 1, 450)],
            )
        })
        .collect();
    for alignment in [TimeAlignment::Absolute] {
        for g in BalanceFunction::ALL {
            let params = Params::paper_defaults().with_balance(g);
            let (naive_stats, indexed_stats) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("disjoint {alignment:?} {g:?}"),
            );
            assert_eq!(indexed_stats.comparisons, 0, "{g:?}");
            assert_eq!(indexed_stats.bound_skips, 0, "{g:?}");
            assert_eq!(
                indexed_stats.candidates_pruned, naive_stats.comparisons,
                "{g:?}"
            );
        }
    }
}

#[test]
fn identical_clusters_collapse_to_one() {
    // N copies of one cluster: every admission merges with the sole
    // result member, so both strategies chain N-1 merges into one
    // macro-cluster. (Copies share every key — nothing is prunable on
    // the first comparison of each admission.)
    let input: Vec<AtypicalCluster> = (0..12u64)
        .map(|i| cluster(i, &[(5, 600), (6, 600)], &[(7, 600), (8, 600)]))
        .collect();
    for alignment in ALIGNMENTS {
        for g in BalanceFunction::ALL {
            let params = Params::paper_defaults().with_balance(g);
            let (naive_stats, indexed_stats) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("identical {alignment:?} {g:?}"),
            );
            assert_eq!(naive_stats.merges, 11, "{g:?}");
            assert_eq!(indexed_stats.merges, 11, "{g:?}");
        }
    }
}

#[test]
fn severity_ties_straddle_the_threshold() {
    // Engineered overlaps that land exactly on, just under, and just over
    // δsim. Algorithm 3 merges on *strictly greater*, so the boundary
    // pair must NOT merge — and the indexed bound (which skips on
    // `bound ≤ δsim`) must agree with the exact evaluation in all three
    // regimes.
    //
    // With arithmetic-mean balance and full window overlap,
    // Sim = ½(SimSF + 1): SimSF = 0.0 → 0.5 (= δsim, no merge);
    // a tiny shared sensor fraction pushes it just over.
    let params = Params::paper_defaults(); // δsim = 0.5, arithmetic mean
    assert_eq!(params.delta_sim, 0.5, "test assumes the paper's δsim");

    // Shared window 7 with identical mass; sensors disjoint → Sim = 0.5.
    let at_threshold = vec![
        cluster(0, &[(1, 600)], &[(7, 600)]),
        cluster(1, &[(2, 600)], &[(7, 600)]),
    ];
    // Same, plus a shared sensor carrying 1 of 600 seconds → Sim > 0.5.
    let just_over = vec![
        cluster(0, &[(1, 599), (3, 1)], &[(7, 600)]),
        cluster(1, &[(2, 599), (3, 1)], &[(7, 600)]),
    ];
    // Shared window carries half the mass; sensors disjoint → Sim = 0.25.
    let under = vec![
        cluster(0, &[(1, 600)], &[(7, 300), (8, 300)]),
        cluster(1, &[(2, 600)], &[(7, 300), (9, 300)]),
    ];

    for (input, expected_merges, label) in [
        (at_threshold, 0u64, "at-threshold"),
        (just_over, 1, "just-over"),
        (under, 0, "under"),
    ] {
        for alignment in ALIGNMENTS {
            let (naive_stats, indexed_stats) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("{label} {alignment:?}"),
            );
            assert_eq!(naive_stats.merges, expected_merges, "{label} naive");
            assert_eq!(indexed_stats.merges, expected_merges, "{label} indexed");
        }
    }
}

#[test]
fn time_of_day_folding_merges_across_days() {
    // Same time-of-day on consecutive days: disjoint absolute windows
    // (no merge) but identical folded windows (merge under TimeOfDay).
    // Exercises the folded-window index keys.
    let wpd = 96u32;
    let input = vec![
        cluster(0, &[(1, 600)], &[(10, 600)]),
        cluster(1, &[(1, 600)], &[(10 + wpd, 600)]),
    ];
    let params = Params::paper_defaults();
    let (_, abs_stats) =
        check_equivalence(&input, &params, TimeAlignment::Absolute, "tod absolute");
    let (_, tod_stats) = check_equivalence(
        &input,
        &params,
        TimeAlignment::TimeOfDay {
            windows_per_day: wpd,
        },
        "tod folded",
    );
    assert_eq!(abs_stats.merges, 0);
    assert_eq!(tod_stats.merges, 1);
}

#[test]
fn empty_and_singleton_inputs() {
    let params = Params::paper_defaults();
    for alignment in ALIGNMENTS {
        check_equivalence(&[], &params, alignment, "empty");
        let one = vec![cluster(0, &[(1, 600)], &[(2, 600)])];
        let (naive_stats, indexed_stats) = check_equivalence(&one, &params, alignment, "singleton");
        assert_eq!(naive_stats.comparisons, 0);
        assert_eq!(indexed_stats.comparisons, 0);
    }
}

#[test]
fn merge_cascades_stay_identical() {
    run_seeded("merge_cascades_stay_identical", |seed| {
        // A chain a₀~a₁~…~aₙ where consecutive clusters overlap heavily:
        // each admission merges and the merged cluster re-enqueues,
        // exercising swap_remove order perturbation and queue-back
        // re-insertion on both paths.
        let n = 30u64;
        let mut input: Vec<AtypicalCluster> = (0..n)
            .map(|i| {
                let base = i as u32;
                cluster(
                    i,
                    &[(base, 600), (base + 1, 600)],
                    &[(base, 600), (base + 1, 600)],
                )
            })
            .collect();
        // Deterministic shuffle from the test seed so the admission order
        // varies run-to-run under CPS_FAULT_SEED replay.
        let mut state = seed | 1;
        for i in (1..input.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            input.swap(i, j);
        }
        for alignment in ALIGNMENTS {
            let params = Params::paper_defaults().with_delta_sim(0.3);
            let (naive_stats, _) = check_equivalence(
                &input,
                &params,
                alignment,
                &format!("cascade seed {seed} {alignment:?}"),
            );
            assert!(naive_stats.merges > 0, "cascade must actually merge");
        }
    });
}

#[test]
fn one_dimension_overlaps_around_half() {
    // A pair sharing keys in one dimension only scores at most ½, and
    // exactly ½ when both put all their mass there: at δsim ≥ ½ the
    // indexed path must prune it, just below ½ it must evaluate and merge
    // it. Sensor-only pairs share sensors 1–2 and no (folded) window;
    // window-only pairs share windows 70–71 — on different days, so they
    // share them only when folded — and no sensor.
    let wpd = 96u32;
    let sensor_only: Vec<AtypicalCluster> = (0..6u32)
        .map(|k| {
            let split = 100 * u64::from(k + 1);
            cluster(
                u64::from(k),
                &[(1, split), (2, 900 - split)],
                &[(10 + 7 * k, 900)],
            )
        })
        .collect();
    let window_only: Vec<AtypicalCluster> = (0..6u32)
        .map(|k| {
            let split = 100 * u64::from(k + 1);
            cluster(
                u64::from(10 + k),
                &[(100 + k, 900)],
                &[(70 + k * wpd, split), (71 + k * wpd, 900 - split)],
            )
        })
        .collect();
    // Control pairs sharing both dimensions partially.
    let both: Vec<AtypicalCluster> = (0..4u32)
        .map(|k| {
            cluster(
                u64::from(20 + k),
                &[(200, 300), (201 + k, 600)],
                &[(80, 300), (81 + k, 600)],
            )
        })
        .collect();
    let one_dimension: Vec<AtypicalCluster> =
        sensor_only.iter().chain(&window_only).cloned().collect();
    let mixed: Vec<AtypicalCluster> = one_dimension.iter().chain(&both).cloned().collect();
    for delta_sim in [0.49, 0.5, 0.51] {
        for alignment in [
            TimeAlignment::Absolute,
            TimeAlignment::TimeOfDay {
                windows_per_day: wpd,
            },
        ] {
            for g in BalanceFunction::ALL {
                let params = Params::paper_defaults()
                    .with_delta_sim(delta_sim)
                    .with_balance(g);
                let context = format!("δsim {delta_sim} {alignment:?} {g:?}");
                let (naive, indexed) =
                    check_equivalence(&one_dimension, &params, alignment, &context);
                if delta_sim >= 0.5 {
                    assert_eq!(naive.merges, 0, "{context}");
                    assert_eq!(
                        indexed.comparisons, 0,
                        "{context}: one-dimension pair evaluated"
                    );
                    assert_eq!(indexed.bound_skips, 0, "{context}");
                } else {
                    assert!(naive.merges > 0, "{context}: Sim = ½ must merge below ½");
                }
                check_equivalence(&mixed, &params, alignment, &format!("mixed {context}"));
            }
        }
    }
}

/// `c` with its keys moved near `u32::MAX`, near 0 and to mid-range:
/// posting tables must stay exact (and bounded) whatever the key values.
fn far_keys(c: &AtypicalCluster) -> AtypicalCluster {
    let sensor = |s: u32| match s % 3 {
        0 => u32::MAX - s,
        1 => s,
        _ => (1 << 31) + s,
    };
    AtypicalCluster::new(
        c.id,
        c.sf.iter()
            .map(|(s, sev)| (SensorId::new(sensor(s.raw())), sev))
            .collect(),
        c.tf.iter()
            .map(|(w, sev)| (TimeWindow::new(u32::MAX - w.raw()), sev))
            .collect(),
    )
}

#[test]
fn keys_near_u32_max_stay_identical() {
    run_seeded("keys_near_u32_max_stay_identical", |seed| {
        for round in 0..4u64 {
            let input: Vec<AtypicalCluster> = random_clusters(seed.wrapping_add(round), 40, 8)
                .iter()
                .map(far_keys)
                .collect();
            for alignment in ALIGNMENTS {
                for g in BalanceFunction::ALL {
                    let params = Params::paper_defaults().with_balance(g).with_delta_sim(0.3);
                    check_equivalence(
                        &input,
                        &params,
                        alignment,
                        &format!("far keys seed {seed} round {round} {alignment:?} {g:?}"),
                    );
                }
            }
        }
    });
}

/// Algorithm 3 with the eager merge chain: every merge builds the full
/// raw TF with `AtypicalCluster::merge`, and similarity folds per
/// comparison. The reference for the integrators' deferred raw-TF merges.
fn eager_time_of_day(
    clusters: Vec<AtypicalCluster>,
    params: &Params,
    windows_per_day: u32,
    ids: &mut ClusterIdGen,
) -> Vec<AtypicalCluster> {
    let mut queue: VecDeque<AtypicalCluster> = clusters.into();
    let mut result: Vec<AtypicalCluster> = Vec::new();
    while let Some(candidate) = queue.pop_front() {
        let hit = result.iter().position(|existing| {
            similarity_folded(&candidate, existing, params.balance, windows_per_day)
                > params.delta_sim
        });
        match hit {
            Some(i) => {
                let existing = result.swap_remove(i);
                queue.push_back(candidate.merge(&existing, ids.next_id()));
            }
            None => result.push(candidate),
        }
    }
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Deferred raw-TF materialisation equals the eager merge chain: same
    /// clusters, ids, order and raw TFs, on both integrators, for clusters
    /// that recur over several days.
    #[test]
    fn deferred_raw_tf_equals_eager_merge_chain(
        shapes in prop::collection::vec(
            (0u32..12, 0u32..20, 0u32..6, 1u32..5, 30u64..3600),
            1..40,
        ),
        delta_sim in 0.1f64..0.7,
        g_idx in 0usize..5,
    ) {
        let wpd = 96u32;
        let input: Vec<AtypicalCluster> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(sensor, clock, day, width, secs))| {
                let keys: Vec<(u32, u64)> = (0..width).map(|k| (k, secs + u64::from(k))).collect();
                cluster(
                    i as u64,
                    &keys.iter().map(|&(k, s)| (sensor + k, s)).collect::<Vec<_>>(),
                    &keys
                        .iter()
                        .map(|&(k, s)| (day * wpd + clock + k, s))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let params = Params::paper_defaults()
            .with_delta_sim(delta_sim)
            .with_balance(BalanceFunction::ALL[g_idx]);
        let alignment = TimeAlignment::TimeOfDay { windows_per_day: wpd };
        let eager = eager_time_of_day(input.clone(), &params, wpd, &mut ClusterIdGen::new(1_000));
        for indexed in [false, true] {
            let (out, _) = integrate_aligned(
                input.clone(),
                &params.with_indexed_integration(indexed),
                alignment,
                &mut ClusterIdGen::new(1_000),
            );
            prop_assert_eq!(&out, &eager);
        }
    }
}
