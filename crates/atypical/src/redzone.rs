//! Red zones (Algorithm 4, lines 1–3; Properties 4–5).
//!
//! The total severity `F(W′, T)` over a pre-defined region `W′` is
//! distributive (Property 4), hence cheap to compute bottom-up. Property 5
//! turns it into a *safe* pruning bound: if `F(W′,T)` is below the
//! significance threshold, no significant macro-cluster can live entirely
//! inside `W′` — so micro-clusters whose sensors all fall in non-red
//! regions can be discarded before the quadratic integration without
//! introducing false negatives.

use crate::cluster::AtypicalCluster;
use crate::significant::significance_threshold;
use cps_core::{Params, RegionId, SensorId, Severity, TimeRange};
use cps_geo::grid::SensorPartition;

/// The red-zone classification of a region partition for one query.
#[derive(Clone, Debug)]
pub struct RedZones {
    f_values: Vec<Severity>,
    red: Vec<bool>,
    threshold: Severity,
}

impl RedZones {
    /// Computes `F(Wᵢ, T)` for every region from the query's micro-clusters
    /// and marks regions whose severity *density* meets `δs` as red:
    /// `F(Wᵢ, T) ≥ δs · length(T) · Nᵢ` with `Nᵢ` the sensors in `Wᵢ`.
    ///
    /// Property 5 is stated with the query-wide sensor count `N`; scaling
    /// the bound to each region's own `Nᵢ ≤ N` only *lowers* the bar, so
    /// every region the paper's literal rule would mark red is still red —
    /// the filter stays free of false negatives while remaining useful at
    /// any deployment scale (with the global `N`, a single zipcode-sized
    /// region could almost never amass a whole significant cluster's worth
    /// of severity by itself).
    ///
    /// The micro-clusters passed in must already be restricted to the query
    /// range `T`; their spatial features then sum to exactly the bottom-up
    /// aggregate `F` (both add the same atypical records — Property 4).
    pub fn compute(
        micros: &[AtypicalCluster],
        partition: &SensorPartition,
        params: &Params,
        range: TimeRange,
        n_sensors: u32,
    ) -> Self {
        let mut f_values = vec![Severity::ZERO; partition.num_regions() as usize];
        for cluster in micros {
            for (sensor, severity) in cluster.sf.iter() {
                let region = partition.region_of(sensor);
                f_values[region.index()] += severity;
            }
        }
        Self::from_f(f_values, partition, params, range, n_sensors)
    }

    /// Marks red regions from an already composed `F(Wᵢ, T)` vector (one
    /// entry per region of `partition`) — e.g. summed from per-day
    /// vectors maintained incrementally, which equals
    /// [`compute`](Self::compute) on the same micro-clusters by
    /// distributivity (Property 4). This is the one place the per-region
    /// density test lives.
    pub fn from_f(
        f_values: Vec<Severity>,
        partition: &SensorPartition,
        params: &Params,
        range: TimeRange,
        n_sensors: u32,
    ) -> Self {
        debug_assert_eq!(f_values.len(), partition.num_regions() as usize);
        let red = f_values
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                let n_i = partition.sensors_in(RegionId::new(i as u32)).len() as u32;
                n_i > 0 && f >= significance_threshold(params, range, n_i)
            })
            .collect();
        Self {
            f_values,
            red,
            threshold: significance_threshold(params, range, n_sensors),
        }
    }

    /// Whether `region` is red.
    #[inline]
    pub fn is_red(&self, region: RegionId) -> bool {
        self.red[region.index()]
    }

    /// `F(Wᵢ, T)` of one region.
    pub fn f_value(&self, region: RegionId) -> Severity {
        self.f_values[region.index()]
    }

    /// Number of red regions.
    pub fn num_red(&self) -> usize {
        self.red.iter().filter(|&&r| r).count()
    }

    /// The red regions with their `F` values, in region order.
    pub fn red_regions(&self) -> Vec<(RegionId, Severity)> {
        self.red
            .iter()
            .zip(&self.f_values)
            .enumerate()
            .filter(|&(_, (&red, _))| red)
            .map(|(i, (_, &f))| (RegionId::new(i as u32), f))
            .collect()
    }

    /// Every sensor of a red region — the exact pushdown form of
    /// [`qualifies`](Self::qualifies): a cluster touches a red region iff
    /// it touches one of these sensors.
    pub fn red_sensors(&self, partition: &SensorPartition) -> Vec<SensorId> {
        self.red_regions()
            .into_iter()
            .flat_map(|(region, _)| partition.sensors_in(region).iter().copied())
            .collect()
    }

    /// The query-scale significance threshold (`N` = sensors in `W`) — for
    /// reporting; the red marking itself uses per-region densities.
    pub fn threshold(&self) -> Severity {
        self.threshold
    }

    /// Whether a micro-cluster touches any red zone (Algorithm 4's keep
    /// rule: clusters inside or intersecting red zones survive; clusters
    /// entirely outside are pruned).
    pub fn qualifies(&self, cluster: &AtypicalCluster, partition: &SensorPartition) -> bool {
        cluster
            .sf
            .keys()
            .any(|s| self.is_red(partition.region_of(s)))
    }

    /// Partitions micro-clusters into `(qualified, pruned)`.
    pub fn filter(
        &self,
        micros: Vec<AtypicalCluster>,
        partition: &SensorPartition,
    ) -> (Vec<AtypicalCluster>, Vec<AtypicalCluster>) {
        micros
            .into_iter()
            .partition(|c| self.qualifies(c, partition))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use cps_core::{ClusterId, TimeWindow, WindowSpec};

    /// Ten sensors, two regions: sensors 0–4 in region 0, 5–9 in region 1.
    fn two_region_partition() -> SensorPartition {
        let assignment: Vec<RegionId> = (0..10)
            .map(|i| RegionId::new(if i < 5 { 0 } else { 1 }))
            .collect();
        SensorPartition::new("halves", assignment, 2)
    }

    fn cluster(id: u64, sensors: &[(u32, f64)]) -> AtypicalCluster {
        let sf: SpatialFeature = sensors
            .iter()
            .map(|&(s, m)| (SensorId::new(s), Severity::from_minutes(m)))
            .collect();
        let total = sf.total();
        let tf: TemporalFeature = std::iter::once((TimeWindow::new(0), total)).collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    #[test]
    fn f_values_sum_cluster_severities_per_region() {
        let part = two_region_partition();
        let micros = vec![
            cluster(1, &[(0, 100.0), (1, 50.0)]),
            cluster(2, &[(4, 25.0), (5, 75.0)]),
        ];
        let params = Params::paper_defaults();
        let range = WindowSpec::PEMS.day_range(0, 1);
        let zones = RedZones::compute(&micros, &part, &params, range, 10);
        assert_eq!(
            zones.f_value(RegionId::new(0)),
            Severity::from_minutes(175.0)
        );
        assert_eq!(
            zones.f_value(RegionId::new(1)),
            Severity::from_minutes(75.0)
        );
    }

    #[test]
    fn red_marking_uses_query_scale_threshold() {
        let part = two_region_partition();
        // Per-region threshold = 0.05 · 288 · 5 = 72 min (5 sensors each);
        // the reported query threshold stays 0.05 · 288 · 10 = 144 min.
        let micros = vec![
            cluster(1, &[(0, 200.0)]), // region 0: F = 200 ≥ 72, red
            cluster(2, &[(5, 50.0)]),  // region 1: F = 50 < 72, not red
        ];
        let params = Params::paper_defaults();
        let range = WindowSpec::PEMS.day_range(0, 1);
        let zones = RedZones::compute(&micros, &part, &params, range, 10);
        assert!(zones.is_red(RegionId::new(0)));
        assert!(!zones.is_red(RegionId::new(1)));
        assert_eq!(zones.num_red(), 1);
        assert_eq!(zones.threshold(), Severity::from_minutes(144.0));
    }

    #[test]
    fn intersecting_clusters_survive_filtering() {
        let part = two_region_partition();
        let micros = vec![
            cluster(1, &[(0, 200.0)]),           // inside red zone
            cluster(2, &[(4, 10.0), (5, 10.0)]), // straddles red/non-red: keep
            cluster(3, &[(6, 10.0)]),            // entirely outside: prune
        ];
        let params = Params::paper_defaults();
        let range = WindowSpec::PEMS.day_range(0, 1);
        let zones = RedZones::compute(&micros, &part, &params, range, 10);
        let (kept, pruned) = zones.filter(micros, &part);
        let kept_ids: Vec<u64> = kept.iter().map(|c| c.id.raw()).collect();
        assert_eq!(kept_ids, vec![1, 2]);
        assert_eq!(pruned.len(), 1);
        assert_eq!(pruned[0].id, ClusterId::new(3));
    }

    /// Property 5 as stated: no significant macro-cluster can be formed
    /// entirely from pruned micro-clusters.
    #[test]
    fn property_5_no_significant_cluster_outside_red_zones() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let part = two_region_partition();
        let params = Params::paper_defaults();
        let range = WindowSpec::PEMS.day_range(0, 1);
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..50 {
            let micros: Vec<AtypicalCluster> = (0u64..rng.gen_range(1..10))
                .map(|i| {
                    let s = rng.gen_range(0..10u32);
                    cluster(i, &[(s, rng.gen_range(1.0..400.0))])
                })
                .collect();
            let zones = RedZones::compute(&micros, &part, &params, range, 10);
            let (_, pruned) = zones.filter(micros, &part);
            // Merge *all* pruned clusters together (the most severity any
            // macro-cluster built purely from pruned micros could have):
            // it must still be below the threshold.
            let total_pruned: Severity = pruned.iter().map(|c| c.severity()).sum();
            // All pruned clusters live in non-red regions, whose total F is
            // below threshold per region. With clusters confined to single
            // regions here, the bound applies per region.
            for region in [RegionId::new(0), RegionId::new(1)] {
                if !zones.is_red(region) {
                    let region_pruned: Severity = pruned
                        .iter()
                        .filter(|c| c.sf.keys().all(|s| part.region_of(s) == region))
                        .map(|c| c.severity())
                        .sum();
                    assert!(
                        region_pruned < zones.threshold(),
                        "trial {trial}: significant mass pruned"
                    );
                }
            }
            let _ = total_pruned;
        }
    }
}
