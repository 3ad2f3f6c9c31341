//! Cluster similarity (Equations 2–4).
//!
//! ```text
//! Sim(C₁,C₂)      = ½ (SimSF + SimTF)                              (2)
//! SimSF(C₁,C₂)    = g( Σ_{S₁∩S₂} μ¹ / Σ_{S₁} μ¹ ,
//!                      Σ_{S₁∩S₂} μ² / Σ_{S₂} μ² )                  (3)
//! SimTF(C₁,C₂)    = g( … same over time windows … )                 (4)
//! ```
//!
//! `g` balances the two per-cluster overlap fractions; see
//! [`cps_core::BalanceFunction`] for the five choices and why `max` is the
//! forgiving one when cluster sizes differ.

use crate::cluster::AtypicalCluster;
use cps_core::{BalanceFunction, Severity};

/// Spatial similarity (Equation 3).
pub fn spatial_similarity(a: &AtypicalCluster, b: &AtypicalCluster, g: BalanceFunction) -> f64 {
    let (oa, ob) = a.sf.overlap(&b.sf);
    g.apply(oa.fraction_of(a.sf.total()), ob.fraction_of(b.sf.total()))
}

/// Temporal similarity (Equation 4).
pub fn temporal_similarity(a: &AtypicalCluster, b: &AtypicalCluster, g: BalanceFunction) -> f64 {
    let (oa, ob) = a.tf.overlap(&b.tf);
    g.apply(oa.fraction_of(a.tf.total()), ob.fraction_of(b.tf.total()))
}

/// Combined similarity (Equation 2). Routed through [`similarity_parts`] so
/// its debug-build NaN/Inf guard covers every caller.
pub fn similarity(a: &AtypicalCluster, b: &AtypicalCluster, g: BalanceFunction) -> f64 {
    similarity_parts(&a.sf, &a.tf, &b.sf, &b.tf, g)
}

/// Folds a temporal feature to time-of-day granularity: window `w` maps to
/// `w mod windows_per_day`, accumulating severities.
///
/// The paper's temporal features are clock-time windows ("8:05am–8:10am" in
/// Figure 5, no date attached): two events are temporally similar when they
/// happen at the same *time of day*, which is what lets a month of daily
/// rush-hour jams integrate into one macro-cluster ("the 10E freeway often
/// jams near downtown in the evening rush hours") while keeping the
/// morning/evening pair of Example 5 apart. Within a single day folding is
/// the identity, so micro-cluster comparisons are unaffected.
pub fn fold_tf(
    tf: &crate::feature::TemporalFeature,
    windows_per_day: u32,
) -> crate::feature::TemporalFeature {
    tf.iter()
        .map(|(w, s)| (cps_core::TimeWindow::new(w.raw() % windows_per_day), s))
        .collect()
}

/// Equation 2 computed from explicit feature parts — used by integration,
/// which caches folded temporal features instead of refolding per
/// comparison.
pub fn similarity_parts(
    sf1: &crate::feature::SpatialFeature,
    tf1: &crate::feature::TemporalFeature,
    sf2: &crate::feature::SpatialFeature,
    tf2: &crate::feature::TemporalFeature,
    g: BalanceFunction,
) -> f64 {
    let sim_sf = dimension_similarity(g, sf1.overlap(sf2), (sf1.total(), sf2.total()));
    let sim_tf = dimension_similarity(g, tf1.overlap(tf2), (tf1.total(), tf2.total()));
    combine_dimensions(sim_sf, sim_tf)
}

/// Equation 3 or 4 from one dimension's overlap masses `(Σ_{K₁∩K₂} μ¹,
/// Σ_{K₁∩K₂} μ²)` and totals `(Σ_{K₁} μ¹, Σ_{K₂} μ²)`: the indexed
/// integrator gathers the overlaps from its postings and computes the same
/// value without walking the features.
#[inline]
pub(crate) fn dimension_similarity(
    g: BalanceFunction,
    overlap: (Severity, Severity),
    totals: (Severity, Severity),
) -> f64 {
    g.apply(
        overlap.0.fraction_of(totals.0),
        overlap.1.fraction_of(totals.1),
    )
}

/// Equation 2 from its two dimensions.
#[inline]
pub(crate) fn combine_dimensions(sim_sf: f64, sim_tf: f64) -> f64 {
    let sim = 0.5 * (sim_sf + sim_tf);
    // `fraction_of` maps 0/0 to 0 and every `g` maps [0,1]² into [0,1]
    // (harmonic handles its 0/0 pole explicitly), so no input — empty
    // features, zero severities, degenerate overlaps — may ever produce a
    // NaN/Inf or leave the unit interval. Integration thresholds would
    // silently misbehave on such a value, hence the guard.
    debug_assert!(
        sim.is_finite() && (0.0..=1.0 + 1e-12).contains(&sim),
        "similarity must stay in [0, 1]: got {sim} (sf {sim_sf}, tf {sim_tf})"
    );
    sim
}

/// Similarity with time-of-day alignment: spatial on absolute sensors,
/// temporal on folded windows.
pub fn similarity_folded(
    a: &AtypicalCluster,
    b: &AtypicalCluster,
    g: BalanceFunction,
    windows_per_day: u32,
) -> f64 {
    similarity_parts(
        &a.sf,
        &fold_tf(&a.tf, windows_per_day),
        &b.sf,
        &fold_tf(&b.tf, windows_per_day),
        g,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use cps_core::{ClusterId, SensorId, Severity, TimeWindow};
    use proptest::prelude::*;

    fn cluster(id: u64, sensors: &[(u32, f64)], windows: &[(u32, f64)]) -> AtypicalCluster {
        let sf: SpatialFeature = sensors
            .iter()
            .map(|&(s, m)| (SensorId::new(s), Severity::from_minutes(m)))
            .collect();
        let tf: TemporalFeature = windows
            .iter()
            .map(|&(w, m)| (TimeWindow::new(w), Severity::from_minutes(m)))
            .collect();
        // Tests construct SF/TF totals independently; bypass the invariant
        // by balancing totals with a sink key when necessary.
        let (st, tt) = (sf.total(), tf.total());
        let mut sf = sf;
        let mut tf = tf;
        if st < tt {
            sf.add(SensorId::new(9999), tt.saturating_sub(st));
        } else {
            tf.add(TimeWindow::new(99999), st.saturating_sub(tt));
        }
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    /// The paper's Example 5: CA and CB share sensors but not windows — they
    /// must not look similar; CA and CC share both — they must.
    #[test]
    fn example_5_morning_vs_evening() {
        let g = BalanceFunction::ArithmeticMean;
        // CA: morning event on sensors 1–4.
        let ca = cluster(
            1,
            &[(1, 182.0), (2, 97.0), (3, 33.0), (4, 12.0)],
            &[(97, 100.0), (98, 120.0), (99, 104.0)],
        );
        // CB: evening event on the same sensors.
        let cb = cluster(
            2,
            &[(1, 12.0), (2, 51.0), (3, 34.0), (4, 140.0)],
            &[(220, 80.0), (221, 90.0), (222, 67.0)],
        );
        // CC: morning event, overlapping sensors 1–2.
        let cc = cluster(
            3,
            &[(1, 103.0), (2, 75.0), (7, 54.0), (9, 60.0)],
            &[(98, 110.0), (99, 100.0), (100, 82.0)],
        );
        let sim_ab = similarity(&ca, &cb, g);
        let sim_ac = similarity(&ca, &cc, g);
        assert_eq!(temporal_similarity(&ca, &cb, g), 0.0, "no common windows");
        assert!(
            sim_ac > sim_ab,
            "morning pair must beat morning/evening pair: {sim_ac} vs {sim_ab}"
        );
        assert!(
            sim_ac > 0.5,
            "CA/CC should clear the default δsim: {sim_ac}"
        );
    }

    #[test]
    fn identical_clusters_have_similarity_one() {
        let c = cluster(1, &[(1, 10.0), (2, 20.0)], &[(5, 15.0), (6, 15.0)]);
        for g in BalanceFunction::ALL {
            assert!((similarity(&c, &c, g) - 1.0).abs() < 1e-12, "{g}");
        }
    }

    #[test]
    fn disjoint_clusters_have_similarity_zero() {
        let a = cluster(1, &[(1, 10.0)], &[(5, 10.0)]);
        let b = cluster(2, &[(2, 10.0)], &[(9, 10.0)]);
        for g in BalanceFunction::ALL {
            assert_eq!(similarity(&a, &b, g), 0.0, "{g}");
        }
    }

    #[test]
    fn max_is_forgiving_to_size_imbalance() {
        // A huge cluster fully containing a small one: the small cluster's
        // fraction is 1.0, the huge one's tiny.
        let big = cluster(
            1,
            &(0..100).map(|i| (i, 10.0)).collect::<Vec<_>>(),
            &(0..100).map(|i| (i, 10.0)).collect::<Vec<_>>(),
        );
        let small = cluster(2, &[(0, 10.0), (1, 10.0)], &[(0, 10.0), (1, 10.0)]);
        let with_max = similarity(&big, &small, BalanceFunction::Max);
        let with_min = similarity(&big, &small, BalanceFunction::Min);
        assert!(with_max > 0.9, "max sees the containment: {with_max}");
        assert!(with_min < 0.1, "min penalizes the big side: {with_min}");
    }

    #[test]
    fn folding_aligns_recurring_daily_events() {
        // The same rush-hour jam on two consecutive days: absolute windows
        // are disjoint (similarity capped at 0.5), folded windows coincide.
        let wpd = 288;
        let day0 = cluster(1, &[(1, 50.0), (2, 50.0)], &[(100, 60.0), (101, 40.0)]);
        let day1 = cluster(
            2,
            &[(1, 50.0), (2, 50.0)],
            &[(wpd + 100, 60.0), (wpd + 101, 40.0)],
        );
        let g = BalanceFunction::ArithmeticMean;
        assert_eq!(temporal_similarity(&day0, &day1, g), 0.0);
        assert!(similarity(&day0, &day1, g) <= 0.5);
        let folded = similarity_folded(&day0, &day1, g, wpd);
        assert!(
            folded > 0.95,
            "recurring events align when folded: {folded}"
        );
    }

    #[test]
    fn folding_keeps_morning_and_evening_apart() {
        let wpd = 288;
        let morning = cluster(1, &[(1, 50.0)], &[(100, 50.0)]);
        let evening_next_day = cluster(2, &[(1, 50.0)], &[(wpd + 210, 50.0)]);
        let g = BalanceFunction::ArithmeticMean;
        let folded = similarity_folded(&morning, &evening_next_day, g, wpd);
        assert_eq!(folded, 0.5, "spatial 1, temporal 0");
    }

    #[test]
    fn folding_is_identity_within_a_day() {
        let a = cluster(1, &[(1, 10.0), (2, 20.0)], &[(100, 15.0), (102, 15.0)]);
        let b = cluster(2, &[(2, 10.0), (3, 20.0)], &[(102, 25.0), (103, 5.0)]);
        let g = BalanceFunction::GeometricMean;
        let plain = similarity(&a, &b, g);
        let folded = similarity_folded(&a, &b, g, 288);
        assert!((plain - folded).abs() < 1e-12);
    }

    #[test]
    fn fold_accumulates_same_clock_windows() {
        let tf: crate::feature::TemporalFeature = [
            (TimeWindow::new(100), Severity::from_minutes(10.0)),
            (TimeWindow::new(388), Severity::from_minutes(20.0)), // 100 + 288
        ]
        .into_iter()
        .collect();
        let folded = fold_tf(&tf, 288);
        assert_eq!(folded.len(), 1);
        assert_eq!(
            folded.get(TimeWindow::new(100)),
            Severity::from_minutes(30.0)
        );
        assert_eq!(folded.total(), tf.total());
    }

    /// Degenerate-input sweep: no NaN/Inf may ever leave `similarity_parts`
    /// (the debug_assert inside it fires first in debug builds; the
    /// assertions here also hold in release).
    #[test]
    fn degenerate_inputs_never_produce_nan() {
        let empty = AtypicalCluster::new(
            ClusterId::new(1),
            SpatialFeature::new(),
            TemporalFeature::new(),
        );
        let zero_sev = cluster(2, &[(1, 0.0), (2, 0.0)], &[(5, 0.0), (6, 0.0)]);
        let normal = cluster(3, &[(1, 10.0), (2, 20.0)], &[(5, 15.0), (6, 15.0)]);
        let single = cluster(4, &[(1, 10.0)], &[(5, 10.0)]);
        let cases = [&empty, &zero_sev, &normal, &single];
        for g in BalanceFunction::ALL {
            for a in cases {
                for b in cases {
                    let sim = similarity(a, b, g);
                    assert!(
                        sim.is_finite() && (0.0..=1.0 + 1e-12).contains(&sim),
                        "{g}: sim({:?}, {:?}) = {sim}",
                        a.id,
                        b.id
                    );
                    let folded = similarity_folded(a, b, g, 288);
                    assert!(folded.is_finite(), "{g}: folded = {folded}");
                }
            }
        }
    }

    /// Empty features overlap nothing: similarity against anything is 0,
    /// for every balance function (0/0 fractions collapse to 0, not NaN).
    #[test]
    fn empty_cluster_is_similar_to_nothing() {
        let empty = AtypicalCluster::new(
            ClusterId::new(1),
            SpatialFeature::new(),
            TemporalFeature::new(),
        );
        let other = cluster(2, &[(1, 10.0)], &[(5, 10.0)]);
        for g in BalanceFunction::ALL {
            assert_eq!(similarity(&empty, &other, g), 0.0, "{g}");
            assert_eq!(similarity(&empty, &empty, g), 0.0, "{g} self");
        }
    }

    /// A single shared sensor with all of both clusters' spatial mass:
    /// SimSF = g(1, 1) = 1 for every g, SimTF = 0 ⇒ Sim = 0.5 exactly.
    #[test]
    fn single_sensor_full_overlap_scores_half() {
        let a = cluster(1, &[(7, 30.0)], &[(100, 30.0)]);
        let b = cluster(2, &[(7, 99.0)], &[(200, 99.0)]);
        for g in BalanceFunction::ALL {
            assert_eq!(similarity(&a, &b, g), 0.5, "{g}");
        }
    }

    /// Harmonic and geometric means hit their 0·0 / 0+0 poles when the
    /// shared keys carry zero severity on one or both sides — the result
    /// must be 0, not NaN.
    #[test]
    fn harmonic_and_geometric_handle_zero_severity_overlap() {
        // Shared sensor 1 and shared window 5, but `a` carries zero
        // severity on both shared keys (its mass sits on sensor 2/window 6).
        let a = cluster(1, &[(1, 0.0), (2, 40.0)], &[(5, 0.0), (6, 40.0)]);
        let b = cluster(2, &[(1, 40.0), (3, 0.0)], &[(5, 40.0), (7, 0.0)]);
        for g in [
            BalanceFunction::HarmonicMean,
            BalanceFunction::GeometricMean,
        ] {
            let sim = similarity(&a, &b, g);
            assert_eq!(sim, 0.0, "{g}: zero-mass overlap must score 0");
        }
        // All-zero totals on both sides: every fraction is 0/0 ⇒ 0.
        let za = cluster(3, &[(1, 0.0)], &[(5, 0.0)]);
        let zb = cluster(4, &[(1, 0.0)], &[(5, 0.0)]);
        for g in BalanceFunction::ALL {
            let sim = similarity(&za, &zb, g);
            assert!(sim.is_finite() && sim == 0.0, "{g}: {sim}");
        }
    }

    proptest! {
        /// Similarity is symmetric and in [0, 1] for every balance function.
        #[test]
        fn prop_symmetric_unit_interval(
            xs in prop::collection::vec((0u32..20, 1.0f64..50.0), 1..15),
            ys in prop::collection::vec((0u32..20, 1.0f64..50.0), 1..15),
            ws in prop::collection::vec((0u32..20, 1.0f64..50.0), 1..15),
            vs in prop::collection::vec((0u32..20, 1.0f64..50.0), 1..15),
        ) {
            let a = cluster(1, &xs, &ws);
            let b = cluster(2, &ys, &vs);
            for g in BalanceFunction::ALL {
                let sab = similarity(&a, &b, g);
                let sba = similarity(&b, &a, g);
                prop_assert!((sab - sba).abs() < 1e-12);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&sab));
            }
        }

        /// For fixed clusters the g functions are ordered min ≤ har ≤ geo ≤
        /// avg ≤ max (drives the Figure 21 ordering).
        #[test]
        fn prop_balance_ordering_carries_over(
            xs in prop::collection::vec((0u32..20, 1.0f64..50.0), 1..15),
            ys in prop::collection::vec((0u32..20, 1.0f64..50.0), 1..15),
        ) {
            let a = cluster(1, &xs, &xs);
            let b = cluster(2, &ys, &ys);
            let sims: Vec<f64> = BalanceFunction::ALL
                .iter()
                .map(|&g| similarity(&a, &b, g))
                .collect();
            for w in sims.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }
}
