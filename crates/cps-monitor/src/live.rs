//! Mutable query-side state of the running service.
//!
//! The merger thread is the only writer, and no query reads this state
//! directly: the merger publishes immutable [`cps_serve::LiveSnapshot`]s
//! of it at a configurable cadence, and readers pin them through a
//! [`cps_serve::ReadView`] without ever touching the lock.
//!
//! To make publication cheap, every container a snapshot exposes is held
//! copy-on-write: day buckets, per-day region `F` vectors, and the
//! persisted-day set live behind `Arc`s that snapshots share. The merger
//! mutates through [`Arc::make_mut`], which clones a bucket only when a
//! published snapshot still references it — so publication is a handful
//! of pointer bumps and mutation pays at most one day-bucket clone per
//! publication, never a full-state copy.
//!
//! Three structures are maintained incrementally as micro-clusters are
//! finalized:
//!
//! - `micros_by_day` — the live (not yet persisted) day level of the
//!   forest;
//! - `region_f_by_day` — per-day, per-region total severity `F(Wᵢ, day)`.
//!   `F` is distributive (Property 4), so a query's red zones over any
//!   whole-day range come from summing these vectors — no scan of the
//!   micro-clusters, and the vectors survive day eviction so persisted
//!   days stay cheap to pre-filter;
//! - `macros` — live macro-clusters, kept at the Algorithm 3 fixpoint by
//!   re-running the work-queue step for each arriving micro-cluster only.
//!   [`Params::indexed_integration`] (default on) selects the
//!   inverted-index integrator, which prunes result members sharing no
//!   sensor and no window with the arriving cluster instead of scanning
//!   the whole fixpoint set; both strategies maintain the same set and
//!   both instrument their scans ([`LiveMacros::stats`]).

use atypical::integrate::{IntegrationStats, TimeAlignment};
use atypical::similarity::similarity;
use atypical::AtypicalCluster;
use atypical::IndexedIntegrator;
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, Severity, WindowSpec};
use cps_geo::grid::SensorPartition;
use cps_serve::LiveSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The live macro-cluster fixpoint set, maintained by either integration
/// strategy. Live comparison uses absolute time windows (the monitor
/// integrates within its streaming horizon; cross-day folding happens in
/// offline forest roll-ups).
pub(crate) enum LiveMacros {
    /// Naive incremental scan — the oracle the indexed path is
    /// differential-tested against. Instrumented like the offline naive
    /// integrator: every similarity evaluation counts one comparison
    /// (including the evaluation that hits), every merge one merge.
    Naive {
        /// The fixpoint set.
        set: Vec<AtypicalCluster>,
        /// Scan counters (`candidates_pruned`/`bound_skips` stay zero:
        /// the naive path prunes nothing).
        stats: IntegrationStats,
    },
    /// Inverted-index candidate generation (see
    /// `atypical::integrate_index`). Boxed: the integrator's slab and
    /// scratch arrays dwarf the naive variant.
    Indexed(Box<IndexedIntegrator>),
}

impl LiveMacros {
    fn new(params: &Params) -> Self {
        if params.indexed_integration {
            LiveMacros::Indexed(Box::new(IndexedIntegrator::new(
                params,
                TimeAlignment::Absolute,
            )))
        } else {
            LiveMacros::Naive {
                set: Vec::new(),
                stats: IntegrationStats::default(),
            }
        }
    }

    /// Number of live macro-clusters.
    pub(crate) fn len(&self) -> usize {
        match self {
            LiveMacros::Naive { set, .. } => set.len(),
            LiveMacros::Indexed(ix) => ix.len(),
        }
    }

    /// Clones the current fixpoint set.
    pub(crate) fn snapshot(&self) -> Vec<AtypicalCluster> {
        match self {
            LiveMacros::Naive { set, .. } => set.clone(),
            LiveMacros::Indexed(ix) => ix.snapshot(),
        }
    }

    /// Scan counters from either strategy. Comparisons/merges are live on
    /// both paths; `candidates_pruned`/`bound_skips` are zero on the
    /// naive path (it prunes nothing, by construction).
    pub(crate) fn stats(&self) -> IntegrationStats {
        match self {
            LiveMacros::Naive { stats, .. } => *stats,
            LiveMacros::Indexed(ix) => ix.stats(),
        }
    }

    /// One incremental step of Algorithm 3: the candidate is compared
    /// against the fixpoint set; a hit merges and re-enqueues, so the
    /// pairwise-non-similar invariant is restored before returning.
    fn integrate(&mut self, cluster: AtypicalCluster, params: &Params, ids: &mut ClusterIdGen) {
        match self {
            LiveMacros::Indexed(ix) => ix.admit(cluster, ids),
            LiveMacros::Naive { set, stats } => {
                let mut queue = vec![cluster];
                while let Some(candidate) = queue.pop() {
                    let mut hit = None;
                    for (i, m) in set.iter().enumerate() {
                        stats.comparisons += 1;
                        if similarity(&candidate, m, params.balance) > params.delta_sim {
                            hit = Some(i);
                            break;
                        }
                    }
                    match hit {
                        Some(i) => {
                            let existing = set.swap_remove(i);
                            stats.merges += 1;
                            queue.push(candidate.merge(&existing, ids.next_id()));
                        }
                        None => set.push(candidate),
                    }
                }
            }
        }
    }
}

pub(crate) struct LiveState {
    pub(crate) ids: ClusterIdGen,
    /// Finalized micro-clusters per day, until the day is persisted.
    /// Copy-on-write: published snapshots share the day buckets.
    pub(crate) micros_by_day: BTreeMap<u32, Arc<Vec<AtypicalCluster>>>,
    /// Per-day red-zone numerators `F(Wᵢ, day)`; retained after eviction.
    pub(crate) region_f_by_day: BTreeMap<u32, Arc<Vec<Severity>>>,
    /// Live macro-clusters (pairwise similarity ≤ δsim invariant).
    pub(crate) macros: LiveMacros,
    /// Days whose micro-clusters moved to the snapshot store.
    pub(crate) persisted_days: Arc<BTreeSet<u32>>,
    /// Bumped once per day eviction; snapshots carry it so caches can
    /// tell "a day sealed" from "a cluster arrived".
    pub(crate) seal_epoch: u64,
    /// Memoized `Arc` of the macro fixpoint set, rebuilt lazily after a
    /// mutation so back-to-back publications with no intervening
    /// integration share one allocation.
    macros_memo: Option<Arc<Vec<AtypicalCluster>>>,
}

impl LiveState {
    pub(crate) fn new(params: &Params) -> Self {
        Self {
            ids: ClusterIdGen::new(1),
            micros_by_day: BTreeMap::new(),
            region_f_by_day: BTreeMap::new(),
            macros: LiveMacros::new(params),
            persisted_days: Arc::new(BTreeSet::new()),
            seal_epoch: 0,
            macros_memo: None,
        }
    }

    /// Rebuilds the live state from a checkpoint. The macro fixpoint set
    /// is restored by re-admitting each checkpointed cluster: the set is
    /// pairwise non-similar, so no admission merges — no IDs are consumed
    /// and both containers end holding exactly the checkpointed set (the
    /// indexed integrator additionally rebuilds its inverted index).
    pub(crate) fn restore(params: &Params, ckpt: &crate::durability::LiveCkpt) -> Self {
        let mut ids = ClusterIdGen::new(ckpt.next_id);
        let mut macros = LiveMacros::new(params);
        for cluster in &ckpt.macros {
            macros.integrate(cluster.clone(), params, &mut ids);
        }
        debug_assert_eq!(
            ids.peek(),
            ckpt.next_id,
            "restoring a fixpoint set must not merge"
        );
        let persisted: BTreeSet<u32> = ckpt.persisted_days.iter().copied().collect();
        Self {
            ids,
            micros_by_day: ckpt
                .micros_by_day
                .iter()
                .map(|(day, micros)| (*day, Arc::new(micros.clone())))
                .collect(),
            region_f_by_day: ckpt
                .region_f_by_day
                .iter()
                .map(|(day, f)| (*day, Arc::new(f.clone())))
                .collect(),
            macros,
            seal_epoch: persisted.len() as u64,
            persisted_days: Arc::new(persisted),
            macros_memo: None,
        }
    }

    /// Admits one finalized micro-cluster: files it under its day (day of
    /// its first window), folds its severity into the day's region `F`
    /// vector, and integrates it into the live macro-clusters.
    pub(crate) fn admit(
        &mut self,
        cluster: AtypicalCluster,
        spec: WindowSpec,
        partition: &SensorPartition,
        params: &Params,
    ) {
        let day = spec.day_of(cluster.time_range().start);
        let f = self
            .region_f_by_day
            .entry(day)
            .or_insert_with(|| Arc::new(vec![Severity::ZERO; partition.num_regions() as usize]));
        let f = Arc::make_mut(f);
        for (sensor, severity) in cluster.sf.iter() {
            f[partition.region_of(sensor).index()] += severity;
        }
        self.macros
            .integrate(cluster.clone(), params, &mut self.ids);
        self.macros_memo = None;
        Arc::make_mut(self.micros_by_day.entry(day).or_default()).push(cluster);
    }

    /// Removes a completed day's micro-clusters for persistence. The
    /// day's `F` vector stays so red-zone guidance keeps covering it.
    pub(crate) fn evict_day(&mut self, day: u32) -> Option<Arc<Vec<AtypicalCluster>>> {
        let micros = self.micros_by_day.remove(&day)?;
        Arc::make_mut(&mut self.persisted_days).insert(day);
        self.seal_epoch += 1;
        Some(micros)
    }

    /// Undoes [`evict_day`](Self::evict_day) after a failed persistence
    /// attempt, so the day keeps being served from memory.
    pub(crate) fn unevict_day(&mut self, day: u32, micros: Arc<Vec<AtypicalCluster>>) {
        Arc::make_mut(&mut self.persisted_days).remove(&day);
        self.micros_by_day.insert(day, micros);
    }

    /// The macro fixpoint set as a shared `Arc`, memoized until the next
    /// integration.
    pub(crate) fn macros_arc(&mut self) -> Arc<Vec<AtypicalCluster>> {
        self.macros_memo
            .get_or_insert_with(|| Arc::new(self.macros.snapshot()))
            .clone()
    }

    /// Builds an epoch-stamped publication of this state. Cheap: every
    /// container is shared copy-on-write with the live maps.
    pub(crate) fn publishable(&mut self, epoch: u64) -> LiveSnapshot {
        LiveSnapshot {
            epoch,
            seal_epoch: self.seal_epoch,
            micros_by_day: self.micros_by_day.clone(),
            region_f_by_day: self.region_f_by_day.clone(),
            macros: self.macros_arc(),
            persisted_days: self.persisted_days.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atypical::feature::{SpatialFeature, TemporalFeature};
    use cps_core::{ClusterId, SensorId, TimeWindow};

    fn cluster(id: u64, sensors: &[u32], windows: &[u32]) -> AtypicalCluster {
        let sf: SpatialFeature = sensors
            .iter()
            .map(|&s| (SensorId::new(s), Severity::from_minutes(10.0)))
            .collect();
        let tf: TemporalFeature = windows
            .iter()
            .map(|&w| (TimeWindow::new(w), Severity::from_minutes(10.0)))
            .collect();
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    /// The indexed live fixpoint must evolve exactly like the naive one
    /// under the same admission sequence (same clusters, same ids: the
    /// incremental step evaluates candidates in the same set order).
    #[test]
    fn indexed_live_macros_match_naive_admission() {
        let params = Params::paper_defaults();
        let naive_params = params.with_indexed_integration(false);
        let mut naive = LiveMacros::new(&naive_params);
        let mut indexed = LiveMacros::new(&params);
        assert!(matches!(indexed, LiveMacros::Indexed(_)));
        let mut ids_n = ClusterIdGen::new(100);
        let mut ids_i = ClusterIdGen::new(100);
        for i in 0..30u32 {
            let base = (i % 7) * 2;
            let c = cluster(
                u64::from(i),
                &[base, base + 1, base + 2],
                &[base, base + 1, base + 2],
            );
            naive.integrate(c.clone(), &params, &mut ids_n);
            indexed.integrate(c, &params, &mut ids_i);
            assert_eq!(naive.snapshot(), indexed.snapshot(), "step {i}");
        }
        assert_eq!(naive.len(), indexed.len());
        assert!(indexed.stats().merges > 0);
        // Both strategies walk the same work queue, so they merge the
        // same pairs; the index only skips comparisons it proves
        // fruitless, so the naive count dominates.
        assert_eq!(naive.stats().merges, indexed.stats().merges);
        assert!(naive.stats().comparisons >= indexed.stats().comparisons);
    }

    /// The naive scan instruments itself: comparisons and merges are
    /// counted (they fed all-zero gauges before), while the prune/bound
    /// counters stay zero — the naive path skips nothing.
    #[test]
    fn naive_stats_are_live() {
        let params = Params::paper_defaults().with_indexed_integration(false);
        let mut naive = LiveMacros::new(&params);
        let mut ids = ClusterIdGen::new(100);
        for i in 0..10u32 {
            naive.integrate(
                cluster(u64::from(i), &[1, 2, 3], &[1, 2, 3]),
                &params,
                &mut ids,
            );
        }
        let stats = naive.stats();
        assert!(stats.comparisons > 0, "scan evaluations must be counted");
        assert!(stats.merges > 0, "identical clusters must merge");
        assert_eq!(stats.candidates_pruned, 0);
        assert_eq!(stats.bound_skips, 0);
    }

    /// `indexed_integration = false` selects the naive container.
    #[test]
    fn params_flag_selects_strategy() {
        let naive_params = Params::paper_defaults().with_indexed_integration(false);
        assert!(matches!(
            LiveMacros::new(&naive_params),
            LiveMacros::Naive { .. }
        ));
        assert_eq!(
            LiveMacros::new(&naive_params).stats(),
            IntegrationStats::default()
        );
    }

    /// Publications share containers copy-on-write: a published snapshot
    /// keeps its day bucket bit-identical while the live state mutates on.
    #[test]
    fn publishable_snapshots_are_isolated_from_later_admissions() {
        let params = Params::paper_defaults();
        let network = cps_sim::TrafficSim::new(cps_sim::SimConfig::new(cps_sim::Scale::Tiny, 1))
            .network()
            .clone();
        let partition = cps_geo::grid::UniformGrid::over(&network, 2.0).partition(&network);
        let spec = WindowSpec::PEMS;
        let mut live = LiveState::new(&params);
        live.admit(cluster(1, &[0, 1], &[3, 4]), spec, &partition, &params);
        let snap = live.publishable(1);
        let frozen_micros = snap.micros_by_day.clone();
        let frozen_f = snap.region_f_by_day.clone();
        live.admit(cluster(2, &[5, 6], &[30, 31]), spec, &partition, &params);
        live.admit(cluster(3, &[0, 1], &[3, 4]), spec, &partition, &params);
        assert_eq!(snap.micros_by_day, frozen_micros, "pinned bucket unchanged");
        assert_eq!(snap.region_f_by_day, frozen_f, "pinned F vector unchanged");
        assert_eq!(snap.micros_by_day[&0].len(), 1);
        assert_eq!(live.micros_by_day[&0].len(), 3);
        // Eviction bumps the seal epoch and the persisted set, without
        // touching the published snapshot's view of either.
        let evicted = live.evict_day(0).expect("day 0 is live");
        assert_eq!(evicted.len(), 3);
        assert_eq!(live.seal_epoch, 1);
        assert!(snap.persisted_days.is_empty());
        assert_eq!(snap.seal_epoch, 0);
    }
}
