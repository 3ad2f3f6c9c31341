//! Indexed cluster integration: Algorithm 3 with inverted-index candidate
//! generation.
//!
//! The naive integration loop evaluates every incoming cluster against the
//! entire tentative result set — `O(n²)` similarity computations to reach
//! the fixpoint. But Equation 2's similarity is *zero-overlap-zero*: the
//! numerators of Equations 3/4 are sums over the key intersections, so a
//! pair sharing no sensor has `SimSF = g(0, 0) = 0` and a pair sharing no
//! (aligned) time window has `SimTF = 0`. A cluster sharing **neither** has
//! `Sim = 0 ≤ δsim` and can never merge. Two inverted indexes — `sensor →
//! result slot` and `(folded) window → result slot` — therefore produce an
//! **exact** candidate set; everything else is pruned without evaluation
//! (`IntegrationStats::candidates_pruned`).
//!
//! Candidates are further screened by an admissible upper bound before the
//! exact similarity is computed. Gathering candidates walks the incoming
//! cluster's own features, so the incoming-side overlap mass `o₁ = Σ_{K₁∩K₂}
//! μ¹` is known exactly; the other side's fraction is at most 1. Every
//! balance function `g` is monotone in each argument, hence per dimension
//!
//! ```text
//! SimSF = g(o₁/Σμ¹, o₂/Σμ²) ≤ g(min(1, o₁/Σμ¹), 1)
//! ```
//!
//! and `Sim ≤ ½·(bound_SF + bound_TF)`, where a dimension with no shared
//! keys contributes exactly 0 (not the one-sided bound — `g(0,0) = 0` for
//! all five `g`, including `max`). If the bound is ≤ `δsim` the candidate
//! is skipped (`IntegrationStats::bound_skips`); otherwise the exact
//! similarity decides (`IntegrationStats::comparisons`). Concretely the
//! per-dimension bound is `p ↦ p` for `min`, `(1+p)/2` for the arithmetic
//! mean, `√p` for the geometric, `2p/(1+p)` for the harmonic, and the
//! vacuous `1` for `max` (admissible but never selective — `max` relies on
//! candidate pruning alone). See DESIGN.md for the admissibility argument.
//!
//! Each posting carries its slot's severity on the key, so the same walk
//! also sums the slot-side overlap `o₂`: the exact similarity is Equation
//! 2's arithmetic on the gathered integer overlaps and the cached totals,
//! bit-for-bit what `similarity_parts` computes after walking both
//! features (debug builds assert it), without the walk.
//!
//! The same argument makes one-dimension candidates moot when `δsim ≥ ½`:
//! a cluster sharing keys in one dimension only has `Sim ≤ ½·g(p, 1) ≤ ½`.
//! The window walk then only extends slots that already share a sensor,
//! and slots sharing one dimension count as `candidates_pruned`.
//!
//! **The indexed path is exact, not approximate.** Candidates are evaluated
//! in result-set order (the same order the naive scan walks, including the
//! `swap_remove` perturbation on merges) and the first above-threshold hit
//! merges, so the indexed integrator reproduces the naive fixpoint
//! *bit-for-bit* — same clusters, same ids, same merge count. The bound is
//! taken over the unordered candidates and only its survivors are ordered;
//! `bound_skips` still counts only the skips the ordered scan meets before
//! its hit. The differential suite (`tests/integrate_differential.rs`)
//! asserts exactness across alignments, balance functions, and adversarial
//! inputs.

use crate::cluster::AtypicalCluster;
use crate::integrate::{is_fixpoint_aligned, Aligned, IntegrationStats, TimeAlignment};
use crate::similarity::{combine_dimensions, dimension_similarity};
use cps_core::ids::ClusterIdGen;
use cps_core::{BalanceFunction, Params, Severity};
use std::collections::VecDeque;

/// How many times the keys present the dense posting span may cover when
/// it grows or is laid out (twice that before it shrinks).
const DENSE_FACTOR: usize = 8;

/// Span the dense postings may cover beyond `DENSE_FACTOR` per key, so
/// small tables stay dense however their first keys arrive.
const DENSE_SLACK: usize = 256;

/// One posting: a result slot holding the key, with the slot's severity
/// on it, so gathering candidates also gathers both sides' overlap masses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Posting {
    secs: u64,
    slot: u32,
}

/// Posting lists of one key dimension (sensor ids, or aligned window
/// numbers), looked up by raw key without hashing.
///
/// Keys in `[base, base + dense.len())` index `dense` directly; every other
/// key with postings sits in `sparse`, sorted by key. The dense span stays
/// within `2·DENSE_FACTOR·keys + 2·DENSE_SLACK` (`keys` = distinct keys
/// with postings), so memory follows the keys present, not their values: a
/// sink key near `u32::MAX`, or absolute windows far into a deployment's
/// life, cost one sparse entry each until enough neighbours join them.
/// Posting lists are unordered; [`IndexedIntegrator::place`] orders
/// candidates.
#[derive(Default)]
struct Postings {
    base: u32,
    dense: Vec<Vec<Posting>>,
    sparse: Vec<(u32, Vec<Posting>)>,
    /// Distinct keys with at least one posting, dense and sparse.
    keys: usize,
    /// `sparse.len()` above which [`Self::relayout`] runs again.
    relayout_at: usize,
}

impl Postings {
    /// The postings under `key` (empty if none).
    #[inline]
    fn get(&self, key: u32) -> &[Posting] {
        if let Some(list) = self.dense.get(key.wrapping_sub(self.base) as usize) {
            return list;
        }
        match self.sparse.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => &self.sparse[i].1,
            Err(_) => &[],
        }
    }

    /// Registers `posting` under `key`.
    fn insert(&mut self, key: u32, posting: Posting) {
        if self.dense_index(key).is_none() && !self.grow_to(key) {
            match self.sparse.binary_search_by_key(&key, |e| e.0) {
                Ok(i) => self.sparse[i].1.push(posting),
                Err(i) => {
                    self.sparse.insert(i, (key, vec![posting]));
                    self.keys += 1;
                    if self.sparse.len() > self.relayout_at.max(8) {
                        self.relayout();
                    }
                }
            }
            return;
        }
        let i = self.dense_index(key).expect("key was just covered");
        if self.dense[i].is_empty() {
            self.keys += 1;
        }
        self.dense[i].push(posting);
    }

    /// Unregisters `slot` from `key`, which it was inserted under.
    fn remove(&mut self, key: u32, slot: u32) {
        let emptied = if let Some(i) = self.dense_index(key) {
            swap_remove_slot(&mut self.dense[i], slot);
            self.dense[i].is_empty()
        } else {
            let i = self
                .sparse
                .binary_search_by_key(&key, |e| e.0)
                .expect("removed key has postings");
            swap_remove_slot(&mut self.sparse[i].1, slot);
            let emptied = self.sparse[i].1.is_empty();
            if emptied {
                self.sparse.remove(i);
            }
            emptied
        };
        if emptied {
            self.keys -= 1;
            if self.dense.len() > 2 * (DENSE_FACTOR * self.keys + DENSE_SLACK) {
                self.relayout();
            }
        }
    }

    #[inline]
    fn dense_index(&self, key: u32) -> Option<usize> {
        let i = key.wrapping_sub(self.base) as usize;
        (i < self.dense.len()).then_some(i)
    }

    /// Widens the dense span to cover `key` if the widened span stays
    /// within `DENSE_FACTOR·keys + DENSE_SLACK`; returns whether it did.
    fn grow_to(&mut self, key: u32) -> bool {
        if self.dense.is_empty() {
            self.base = key;
        }
        let lo = u64::from(self.base.min(key));
        let hi = (u64::from(self.base) + self.dense.len() as u64).max(u64::from(key) + 1);
        if hi - lo > (DENSE_FACTOR * (self.keys + 1) + DENSE_SLACK) as u64 {
            return false;
        }
        if key < self.base {
            let shift = (self.base - key) as usize;
            self.dense
                .splice(0..0, std::iter::repeat_with(Vec::new).take(shift));
            self.base = key;
        } else {
            self.dense.resize_with((hi - lo) as usize, Vec::new);
        }
        // Sparse keys the widened span now covers move into it.
        let end = u64::from(self.base) + self.dense.len() as u64;
        let from = self.sparse.partition_point(|e| e.0 < self.base);
        let to = self.sparse.partition_point(|e| u64::from(e.0) < end);
        for (k, list) in self.sparse.drain(from..to) {
            self.dense[(k - self.base) as usize] = list;
        }
        true
    }

    /// Lays the postings out afresh: the run of keys with the most keys
    /// whose span is at most `DENSE_FACTOR·keys + DENSE_SLACK` goes dense,
    /// the rest sparse.
    fn relayout(&mut self) {
        let base = self.base;
        let mut lists = std::mem::take(&mut self.sparse);
        lists.extend(
            std::mem::take(&mut self.dense)
                .into_iter()
                .enumerate()
                .filter(|(_, list)| !list.is_empty())
                .map(|(i, list)| (base + i as u32, list)),
        );
        lists.sort_unstable_by_key(|e| e.0);
        let limit = (DENSE_FACTOR * lists.len() + DENSE_SLACK) as u64;
        let (mut best, mut lo) = ((0, 0), 0);
        for hi in 0..lists.len() {
            while u64::from(lists[hi].0) - u64::from(lists[lo].0) >= limit {
                lo += 1;
            }
            if hi + 1 - lo > best.1 - best.0 {
                best = (lo, hi + 1);
            }
        }
        let mut rest = lists.split_off(best.1);
        let dense = lists.split_off(best.0);
        lists.append(&mut rest);
        self.sparse = lists;
        if let (Some(&(first, _)), Some(&(last, _))) = (dense.first(), dense.last()) {
            self.base = first;
            self.dense
                .resize_with((last - first) as usize + 1, Vec::new);
            for (k, list) in dense {
                self.dense[(k - first) as usize] = list;
            }
        }
        self.relayout_at = 2 * self.sparse.len();
    }
}

/// Removes `slot`'s posting from an unordered posting list.
fn swap_remove_slot(list: &mut Vec<Posting>, slot: u32) {
    let i = list
        .iter()
        .position(|p| p.slot == slot)
        .expect("removed slot has a posting under this key");
    list.swap_remove(i);
}

/// One result slot's overlap with the current probe.
#[derive(Clone, Copy, Default)]
struct Lane {
    /// Probe epoch the other fields belong to; stale lanes are unset.
    epoch: u32,
    /// Shared sensors.
    sf_keys: u32,
    /// Shared (aligned) windows.
    tf_keys: u32,
    /// Severity mass (seconds) on the shared sensors: `[probe, slot]`.
    sf: [u64; 2],
    /// Severity mass (seconds) on the shared windows: `[probe, slot]`.
    tf: [u64; 2],
}

impl Lane {
    /// Equation 3's or 4's overlap masses `(probe, slot)`.
    #[inline]
    fn overlap(masses: [u64; 2]) -> (Severity, Severity) {
        (
            Severity::from_secs(masses[0]),
            Severity::from_secs(masses[1]),
        )
    }
}

/// Per-probe scratch: epoch-stamped lanes, one per result slot, reused
/// across probes so candidate gathering allocates only when the slot
/// universe grows.
#[derive(Default)]
struct Scratch {
    epoch: u32,
    lanes: Vec<Lane>,
    /// Slots touched this epoch, in discovery order; the candidates once
    /// gathering ends.
    touched: Vec<u32>,
    /// `(result position, slot)` of the candidates the bound keeps.
    ranked: Vec<(usize, u32)>,
    /// Result positions of the candidates the bound skips.
    skipped: Vec<usize>,
}

impl Scratch {
    fn begin(&mut self, num_slots: usize) {
        if self.lanes.len() < num_slots {
            self.lanes.resize(num_slots, Lane::default());
        }
        self.touched.clear();
        self.ranked.clear();
        self.skipped.clear();
        if self.epoch == u32::MAX {
            self.lanes.fill(Lane::default());
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The lane of `slot`, reset and marked touched on its first touch
    /// this epoch.
    #[inline]
    fn lane(&mut self, slot: u32) -> &mut Lane {
        let lane = &mut self.lanes[slot as usize];
        if lane.epoch != self.epoch {
            *lane = Lane {
                epoch: self.epoch,
                ..Lane::default()
            };
            self.touched.push(slot);
        }
        lane
    }

    /// Adds a shared sensor's masses to `p.slot`.
    #[inline]
    fn touch_sf(&mut self, p: Posting, probe_secs: u64) {
        let lane = self.lane(p.slot);
        lane.sf_keys += 1;
        add_masses(&mut lane.sf, probe_secs, p.secs);
    }

    /// Adds a shared window's masses to `p.slot`.
    #[inline]
    fn touch_tf(&mut self, p: Posting, probe_secs: u64) {
        let lane = self.lane(p.slot);
        lane.tf_keys += 1;
        add_masses(&mut lane.tf, probe_secs, p.secs);
    }

    /// [`Self::touch_tf`] for slots already touched through a sensor;
    /// other slots are left alone. Branch-free: the window postings are
    /// the long ones, and most of their slots share no sensor.
    #[inline]
    fn touch_tf_if_sf(&mut self, p: Posting, probe_secs: u64) {
        let lane = &mut self.lanes[p.slot as usize];
        let live = u64::from(lane.epoch == self.epoch);
        lane.tf_keys += live as u32;
        add_masses(&mut lane.tf, live * probe_secs, live * p.secs);
    }
}

/// Accumulates one shared key's masses with `Severity`'s saturating sum,
/// so the overlaps equal [`crate::feature::Feature::overlap`]'s.
#[inline]
fn add_masses(acc: &mut [u64; 2], probe_secs: u64, slot_secs: u64) {
    acc[0] = acc[0].saturating_add(probe_secs);
    acc[1] = acc[1].saturating_add(slot_secs);
}

/// One dimension of the admissible bound: 0 when no key is shared (then the
/// dimension's similarity is exactly `g(0,0) = 0`), otherwise the one-sided
/// `g(min(1, probe-overlap/probe-total), 1)`.
#[inline]
fn side_bound(g: BalanceFunction, shared_keys: u32, probe_secs: u64, total: Severity) -> f64 {
    if shared_keys == 0 {
        return 0.0;
    }
    g.apply(
        Severity::from_secs(probe_secs).fraction_of(total).min(1.0),
        1.0,
    )
}

/// Maintains the Algorithm 3 result set (pairwise similarity ≤ `δsim`)
/// together with inverted indexes over its sensor and (aligned) window
/// keys, supporting incremental admission and exact candidate generation.
///
/// Two modes of use:
///
/// * **batch** — [`integrate_aligned_indexed`] drives the same FIFO work
///   queue as the naive oracle and produces identical output;
/// * **persistent** — `cps-monitor` keeps one integrator alive and
///   [`Self::admit`]s each finalized micro-cluster, so the live
///   macro-cluster set stays at the fixpoint without rescanning.
pub struct IndexedIntegrator {
    params: Params,
    alignment: TimeAlignment,
    /// Slab of result entries; `None` marks a free slot.
    slots: Vec<Option<Aligned>>,
    free: Vec<u32>,
    /// Result-set order: mirrors the naive path's result `Vec` exactly,
    /// including `swap_remove` on merge, so candidate evaluation order (and
    /// hence the chosen merge partner) matches the oracle.
    order: Vec<u32>,
    /// `pos[slot]` = index of `slot` in `order` (valid for live slots).
    pos: Vec<usize>,
    sensors: Postings,
    windows: Postings,
    /// `(Σ SF, Σ aligned TF)` of each live slot.
    totals: Vec<(Severity, Severity)>,
    scratch: Scratch,
    stats: IntegrationStats,
}

impl IndexedIntegrator {
    /// An empty integrator for the given parameters and alignment.
    pub fn new(params: &Params, alignment: TimeAlignment) -> Self {
        debug_assert!(
            params.delta_sim >= 0.0,
            "index pruning assumes zero-similarity pairs never merge (δsim ≥ 0)"
        );
        Self {
            params: *params,
            alignment,
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            pos: Vec::new(),
            sensors: Postings::default(),
            windows: Postings::default(),
            totals: Vec::new(),
            scratch: Scratch::default(),
            stats: IntegrationStats::default(),
        }
    }

    /// Number of clusters currently in the result set.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Counters accumulated over every admission so far.
    pub fn stats(&self) -> IntegrationStats {
        self.stats
    }

    /// Clones the current result set, in result order.
    pub fn snapshot(&self) -> Vec<AtypicalCluster> {
        self.order
            .iter()
            .map(|&slot| {
                self.slots[slot as usize]
                    .as_ref()
                    .expect("ordered slot is live")
                    .to_cluster()
            })
            .collect()
    }

    /// Consumes the integrator, returning the result set in result order.
    pub fn into_clusters(mut self) -> Vec<AtypicalCluster> {
        self.order
            .iter()
            .map(|&slot| {
                self.slots[slot as usize]
                    .take()
                    .expect("ordered slot is live")
                    .into_cluster()
            })
            .collect()
    }

    /// Admits one cluster, restoring the fixpoint before returning: the
    /// incremental step of Algorithm 3 (merge, then re-place the merged
    /// cluster, until it lands without a hit).
    pub fn admit(&mut self, cluster: AtypicalCluster, ids: &mut ClusterIdGen) {
        let mut entry = Aligned::new(cluster, self.alignment);
        while let Some(merged) = self.place(entry, ids) {
            entry = merged;
        }
    }

    /// One placement attempt: evaluates `entry` against the result set in
    /// order. On the first above-threshold hit the partner is removed and
    /// the merged cluster returned (the caller decides where it re-enters
    /// the work queue); otherwise `entry` is inserted and `None` returned.
    pub(crate) fn place(&mut self, entry: Aligned, ids: &mut ClusterIdGen) -> Option<Aligned> {
        let g = self.params.balance;
        let delta_sim = self.params.delta_sim;
        // A slot sharing keys in one dimension only has Sim ≤ ½·g(p, 1) ≤ ½,
        // so when δsim ≥ ½ only slots sharing both a sensor and a window
        // are candidates: the window walk then extends sensor-sharing slots
        // and creates none.
        let need_both = delta_sim >= 0.5;

        // Gather candidates: walk the probe's keys through the postings,
        // accumulating both sides' overlap masses per touched slot.
        let scratch = &mut self.scratch;
        scratch.begin(self.slots.len());
        for (sensor, severity) in entry.sf().iter() {
            for &p in self.sensors.get(sensor.raw()) {
                scratch.touch_sf(p, severity.as_secs());
            }
        }
        for (window, severity) in entry.tf().iter() {
            for &p in self.windows.get(window.raw()) {
                if need_both {
                    scratch.touch_tf_if_sf(p, severity.as_secs());
                } else {
                    scratch.touch_tf(p, severity.as_secs());
                }
            }
        }
        if need_both {
            let lanes = &scratch.lanes;
            scratch
                .touched
                .retain(|&slot| lanes[slot as usize].tf_keys > 0);
        }
        self.stats.candidates_pruned += (self.order.len() - scratch.touched.len()) as u64;

        // Bound first, over the unordered candidates; only the survivors
        // are ordered by result position, the naive scan's order, so the
        // first hit is the cluster the oracle would merge with.
        let sf_total = entry.sf().total();
        let tf_total = entry.tf().total();
        for &slot in &scratch.touched {
            let lane = &scratch.lanes[slot as usize];
            let bound = 0.5
                * (side_bound(g, lane.sf_keys, lane.sf[0], sf_total)
                    + side_bound(g, lane.tf_keys, lane.tf[0], tf_total));
            let pos = self.pos[slot as usize];
            if bound <= delta_sim {
                scratch.skipped.push(pos);
            } else {
                scratch.ranked.push((pos, slot));
            }
        }
        scratch.ranked.sort_unstable_by_key(|&(pos, _)| pos);

        // Exact similarity from the gathered overlaps: the same Equation 2
        // arithmetic `similarity_parts` does after walking both features.
        let mut hit: Option<(usize, u32)> = None;
        for &(pos, slot) in &scratch.ranked {
            self.stats.comparisons += 1;
            let lane = &scratch.lanes[slot as usize];
            let (sf_slot, tf_slot) = self.totals[slot as usize];
            let sim = combine_dimensions(
                dimension_similarity(g, Lane::overlap(lane.sf), (sf_total, sf_slot)),
                dimension_similarity(g, Lane::overlap(lane.tf), (tf_total, tf_slot)),
            );
            debug_assert_eq!(
                sim.to_bits(),
                entry
                    .similarity_to(
                        self.slots[slot as usize]
                            .as_ref()
                            .expect("candidate slot is live"),
                        g
                    )
                    .to_bits(),
                "indexed similarity must equal the feature walk's"
            );
            if sim > delta_sim {
                hit = Some((pos, slot));
                break;
            }
        }
        // Bound skips count as the ordered scan met them: before the hit.
        let hit_pos = hit.map_or(usize::MAX, |(pos, _)| pos);
        self.stats.bound_skips += scratch.skipped.iter().filter(|&&p| p < hit_pos).count() as u64;

        match hit {
            Some((_, slot)) => {
                let existing = self.remove_slot(slot);
                self.stats.merges += 1;
                Some(entry.merge(existing, ids.next_id()))
            }
            None => {
                self.insert_entry(entry);
                None
            }
        }
    }

    /// Inserts a fixpoint-compatible entry at the back of the result order
    /// and registers its keys.
    fn insert_entry(&mut self, entry: Aligned) {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                self.pos.push(usize::MAX);
                self.totals.push((Severity::ZERO, Severity::ZERO));
                (self.slots.len() - 1) as u32
            }
        };
        for (sensor, severity) in entry.sf().iter() {
            let secs = severity.as_secs();
            self.sensors.insert(sensor.raw(), Posting { secs, slot });
        }
        for (window, severity) in entry.tf().iter() {
            let secs = severity.as_secs();
            self.windows.insert(window.raw(), Posting { secs, slot });
        }
        self.totals[slot as usize] = (entry.sf().total(), entry.tf().total());
        self.pos[slot as usize] = self.order.len();
        self.order.push(slot);
        self.slots[slot as usize] = Some(entry);
    }

    /// Removes a live slot: deregisters its keys and applies the same
    /// `swap_remove` to the result order the naive path applies to its
    /// result `Vec`.
    fn remove_slot(&mut self, slot: u32) -> Aligned {
        let entry = self.slots[slot as usize]
            .take()
            .expect("removed slot is live");
        for sensor in entry.sf().keys() {
            self.sensors.remove(sensor.raw(), slot);
        }
        for window in entry.tf().keys() {
            self.windows.remove(window.raw(), slot);
        }
        let at = self.pos[slot as usize];
        self.order.swap_remove(at);
        if at < self.order.len() {
            self.pos[self.order[at] as usize] = at;
        }
        self.free.push(slot);
        entry
    }
}

/// [`crate::integrate::integrate_aligned_naive`] with inverted-index
/// candidate generation — identical output, fewer similarity evaluations.
/// See the module docs for why the result is exact.
pub fn integrate_aligned_indexed(
    clusters: Vec<AtypicalCluster>,
    params: &Params,
    alignment: TimeAlignment,
    ids: &mut ClusterIdGen,
) -> (Vec<AtypicalCluster>, IntegrationStats) {
    let mut integrator = IndexedIntegrator::new(params, alignment);
    let mut queue: VecDeque<Aligned> = clusters
        .into_iter()
        .map(|c| Aligned::new(c, alignment))
        .collect();
    while let Some(entry) = queue.pop_front() {
        if let Some(merged) = integrator.place(entry, ids) {
            // Re-enqueue at the back, exactly like the naive work queue.
            queue.push_back(merged);
        }
    }
    let stats = integrator.stats();
    let out = integrator.into_clusters();
    debug_assert!(
        is_fixpoint_aligned(&out, params, alignment),
        "indexed integration must return a pairwise-non-similar set"
    );
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feature::{SpatialFeature, TemporalFeature};
    use crate::integrate::integrate_aligned_naive;
    use cps_core::{ClusterId, SensorId, TimeWindow};

    fn cluster(id: u64, sensors: &[(u32, f64)], windows: &[(u32, f64)]) -> AtypicalCluster {
        let sf: SpatialFeature = sensors
            .iter()
            .map(|&(s, m)| (SensorId::new(s), Severity::from_minutes(m)))
            .collect();
        let tf: TemporalFeature = windows
            .iter()
            .map(|&(w, m)| (TimeWindow::new(w), Severity::from_minutes(m)))
            .collect();
        // Balance SF/TF totals with a sink key only when they differ, so
        // tests over disjoint key sets stay genuinely disjoint.
        let (st, tt) = (sf.total(), tf.total());
        let mut sf = sf;
        let mut tf = tf;
        if st < tt {
            sf.add(SensorId::new(9999), tt.saturating_sub(st));
        } else if tt < st {
            tf.add(TimeWindow::new(999_999), st.saturating_sub(tt));
        }
        AtypicalCluster::new(ClusterId::new(id), sf, tf)
    }

    fn uniform(id: u64, sensors: &[u32], windows: &[u32]) -> AtypicalCluster {
        cluster(
            id,
            &sensors.iter().map(|&s| (s, 10.0)).collect::<Vec<_>>(),
            &windows.iter().map(|&w| (w, 10.0)).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn disjoint_clusters_are_all_pruned() {
        let params = Params::paper_defaults();
        let inputs: Vec<AtypicalCluster> = (0..10)
            .map(|i| {
                uniform(
                    i,
                    &[i as u32 * 10, i as u32 * 10 + 1],
                    &[i as u32 * 10, i as u32 * 10 + 1],
                )
            })
            .collect();
        let mut ids = ClusterIdGen::new(100);
        let (out, stats) =
            integrate_aligned_indexed(inputs, &params, TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 10);
        assert_eq!(stats.comparisons, 0, "no pair shares a key");
        assert_eq!(stats.bound_skips, 0);
        assert_eq!(stats.candidates_pruned, 45, "all 10·9/2 pairs pruned");
    }

    #[test]
    fn identical_clusters_collapse_with_one_comparison_each() {
        let params = Params::paper_defaults();
        let inputs: Vec<AtypicalCluster> =
            (0..5).map(|i| uniform(i, &[1, 2, 3], &[7, 8, 9])).collect();
        let mut ids = ClusterIdGen::new(100);
        let (out, stats) =
            integrate_aligned_indexed(inputs, &params, TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].merged_count, 5);
        assert_eq!(stats.merges, 4);
        assert_eq!(stats.candidates_pruned, 0);
    }

    #[test]
    fn min_balance_bound_skips_weak_overlaps() {
        // Under g = min the one-sided bound equals the probe's own overlap
        // fraction: a probe putting 1/101 of its mass on a shared sensor and
        // 1/101 on a shared window is bounded by ½·(1/101 + 1/101) ≤ δsim
        // and skipped without an exact evaluation.
        let params = Params::paper_defaults().with_balance(BalanceFunction::Min);
        let a = cluster(1, &[(1, 100.0), (2, 10.0)], &[(5, 100.0), (6, 10.0)]);
        let b = cluster(2, &[(2, 1.0), (3, 100.0)], &[(6, 1.0), (7, 100.0)]);
        let mut ids = ClusterIdGen::new(10);
        let (out, stats) =
            integrate_aligned_indexed(vec![a, b], &params, TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.bound_skips, 1, "shared keys, but bound ≤ δsim");
        assert_eq!(stats.comparisons, 0);

        // Sharing one dimension only caps Sim at ½ = δsim: such a pair is
        // not a candidate at all, so it is pruned, not bound-skipped.
        let a = cluster(1, &[(1, 100.0), (2, 10.0)], &[(5, 110.0)]);
        let b = cluster(2, &[(2, 1.0), (3, 100.0)], &[(9, 101.0)]);
        let (out, stats) =
            integrate_aligned_indexed(vec![a, b], &params, TimeAlignment::Absolute, &mut ids);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.candidates_pruned, 1, "one shared dimension only");
        assert_eq!(stats.bound_skips, 0);
        assert_eq!(stats.comparisons, 0);
    }

    /// `bound_skips` counts what an ordered scan meets before its hit:
    /// bounding the unordered candidates first must not charge a skip that
    /// sits behind the merge partner.
    #[test]
    fn bound_skips_behind_the_hit_are_not_counted() {
        let params = Params::paper_defaults().with_balance(BalanceFunction::Min);
        let partner = || cluster(1, &[(1, 100.0), (2, 10.0)], &[(5, 100.0), (6, 10.0)]);
        // Shares sensor 2 and window 6 with the partner and the probe, with
        // 1/11 of the probe's mass there: bounded by 1/11 ≤ δsim.
        let weak = || cluster(2, &[(2, 1.0), (3, 100.0)], &[(6, 1.0), (7, 100.0)]);
        let probe = || cluster(3, &[(1, 100.0), (2, 10.0)], &[(5, 100.0), (6, 10.0)]);
        for (inputs, skips) in [
            // weak's placement (1), then the merged partner's (1); the
            // probe hits the partner ahead of weak and charges nothing.
            (vec![partner(), weak(), probe()], 2),
            // partner's placement (1), the probe meets weak before its hit
            // (1), the merged partner's (1).
            (vec![weak(), partner(), probe()], 3),
        ] {
            let mut ids = ClusterIdGen::new(10);
            let (out, stats) =
                integrate_aligned_indexed(inputs, &params, TimeAlignment::Absolute, &mut ids);
            assert_eq!(out.len(), 2);
            assert_eq!((stats.merges, stats.comparisons), (1, 1));
            assert_eq!(stats.bound_skips, skips);
        }
    }

    #[test]
    fn one_dimension_candidates_remain_below_half_threshold() {
        // With δsim < ½ a one-dimension pair can merge (Sim = ½ here), so
        // the window walk must still create candidates of its own.
        let params = Params::paper_defaults().with_delta_sim(0.49);
        let a = uniform(1, &[1, 2], &[10, 11]);
        let b = uniform(2, &[50, 51], &[10, 11]);
        for (x, y) in [(a.clone(), b.clone()), (b, a)] {
            let mut ids_i = ClusterIdGen::new(10);
            let mut ids_n = ClusterIdGen::new(10);
            let (indexed, is) = integrate_aligned_indexed(
                vec![x.clone(), y.clone()],
                &params,
                TimeAlignment::Absolute,
                &mut ids_i,
            );
            let (naive, ns) =
                integrate_aligned_naive(vec![x, y], &params, TimeAlignment::Absolute, &mut ids_n);
            assert_eq!(indexed, naive);
            assert_eq!(indexed.len(), 1, "Sim = ½ > 0.49 merges");
            assert_eq!((is.comparisons, is.merges), (ns.comparisons, ns.merges));
        }
    }

    #[test]
    fn persistent_admission_matches_batch_result() {
        let params = Params::paper_defaults();
        // Six groups of identical clusters, disjoint across groups, so the
        // fixpoint partition is order-independent and batch vs eager
        // admission must agree on content.
        let inputs: Vec<AtypicalCluster> = (0..20)
            .map(|i| {
                let base = (i % 6) as u32 * 4;
                uniform(i, &[base, base + 1, base + 2], &[base, base + 1, base + 2])
            })
            .collect();
        let mut ids_batch = ClusterIdGen::new(500);
        let (batch, _) = integrate_aligned_indexed(
            inputs.clone(),
            &params,
            TimeAlignment::Absolute,
            &mut ids_batch,
        );

        let mut ids_live = ClusterIdGen::new(500);
        let mut live = IndexedIntegrator::new(&params, TimeAlignment::Absolute);
        for c in inputs {
            live.admit(c, &mut ids_live);
        }
        assert_eq!(live.len(), batch.len());
        // Content equality as multisets: ids can differ because the batch
        // queue defers merged clusters while admission re-places eagerly.
        let mut batch_sets: Vec<_> = batch
            .iter()
            .map(|c| (c.sf.clone(), c.tf.clone(), c.merged_count))
            .collect();
        let mut live_sets: Vec<_> = live
            .snapshot()
            .iter()
            .map(|c| (c.sf.clone(), c.tf.clone(), c.merged_count))
            .collect();
        batch_sets.sort_by_key(|t| format!("{t:?}"));
        live_sets.sort_by_key(|t| format!("{t:?}"));
        assert_eq!(batch_sets, live_sets);
        assert!(live.stats().merges > 0);
    }

    #[test]
    fn slab_reuses_slots_across_merges() {
        // Repeated merges churn slots; the free list must recycle them and
        // keep postings consistent (exercised by naive equivalence).
        let params = Params::paper_defaults().with_delta_sim(0.3);
        let inputs: Vec<AtypicalCluster> = (0..30)
            .map(|i| {
                let base = (i % 3) as u32;
                uniform(i, &[base, base + 1], &[10, 11])
            })
            .collect();
        let mut ids_a = ClusterIdGen::new(1000);
        let mut ids_b = ClusterIdGen::new(1000);
        let (indexed, is) =
            integrate_aligned_indexed(inputs.clone(), &params, TimeAlignment::Absolute, &mut ids_a);
        let (naive, ns) =
            integrate_aligned_naive(inputs, &params, TimeAlignment::Absolute, &mut ids_b);
        assert_eq!(indexed, naive);
        assert_eq!(is.merges, ns.merges);
        assert!(is.comparisons <= ns.comparisons);
    }

    fn sorted_slots(postings: &Postings, key: u32) -> Vec<u32> {
        let mut slots: Vec<u32> = postings.get(key).iter().map(|p| p.slot).collect();
        slots.sort_unstable();
        slots
    }

    fn posting(slot: u32) -> Posting {
        Posting {
            secs: u64::from(slot) * 60,
            slot,
        }
    }

    #[test]
    fn postings_insert_gather_remove_roundtrip() {
        let mut p = Postings::default();
        for (slot, keys) in [(0, &[1u32, 2, 3][..]), (1, &[3, 4][..])] {
            for &k in keys {
                p.insert(k, posting(slot));
            }
        }
        assert_eq!(p.keys, 4);
        assert_eq!(sorted_slots(&p, 1), vec![0]);
        assert_eq!(sorted_slots(&p, 3), vec![0, 1]);
        for k in [1, 2, 3] {
            p.remove(k, 0);
        }
        assert!(p.get(1).is_empty());
        assert_eq!(sorted_slots(&p, 3), vec![1]);
        for k in [3, 4] {
            p.remove(k, 1);
        }
        assert_eq!(p.keys, 0);
        assert!(p.get(99).is_empty());
    }

    #[test]
    fn postings_disjoint_slots_never_share_postings() {
        let mut p = Postings::default();
        for k in [10, 11] {
            p.insert(k, posting(7));
        }
        for k in [20, 21] {
            p.insert(k, posting(8));
        }
        for k in [10, 11] {
            assert_eq!(p.get(k), &[posting(7)]);
        }
        for k in [20, 21] {
            assert_eq!(p.get(k), &[posting(8)]);
        }
        assert!(p.get(99).is_empty());
    }

    /// A sparse key that the dense span grows over moves into it with its
    /// postings.
    #[test]
    fn postings_sparse_key_joins_the_span_that_covers_it() {
        let mut p = Postings::default();
        p.insert(300, posting(0));
        p.insert(0, posting(1));
        assert_eq!(p.sparse.len(), 1, "key 0 is too far from 300 to go dense");
        for k in (1..300).rev() {
            p.insert(k, posting(2));
        }
        p.insert(0, posting(3));
        assert!(p.sparse.is_empty());
        assert_eq!(sorted_slots(&p, 0), vec![1, 3]);
        assert_eq!(sorted_slots(&p, 300), vec![0]);
    }

    #[test]
    fn postings_reinsert_after_remove_is_clean() {
        let mut p = Postings::default();
        p.insert(5, posting(0));
        p.insert(5, posting(1));
        p.remove(5, 0);
        p.insert(5, posting(2));
        assert_eq!(sorted_slots(&p, 5), vec![1, 2]);
    }

    /// Memory follows the keys present, not their values: far-apart keys
    /// (up to `u32::MAX`) stay sparse, a dense run goes dense whatever
    /// order its keys arrive in, and a span that empties shrinks.
    #[test]
    fn postings_memory_is_bounded_by_keys_present() {
        let bound = |p: &Postings| 2 * (DENSE_FACTOR * p.keys + DENSE_SLACK);
        let mut p = Postings::default();
        let far = [u32::MAX, 0, 999_999, u32::MAX - 1, 1 << 31, 7];
        for (slot, &k) in far.iter().enumerate() {
            p.insert(k, posting(slot as u32));
            assert!(
                p.dense.len() <= bound(&p),
                "{} > {}",
                p.dense.len(),
                bound(&p)
            );
        }
        for (slot, &k) in far.iter().enumerate() {
            assert_eq!(sorted_slots(&p, k), vec![slot as u32], "key {k}");
        }
        // A dense run, inserted back to front, away from the far keys.
        for k in (0..500u32).rev() {
            p.insert(1_000_000 + k, posting(100 + k));
            assert!(p.dense.len() <= bound(&p));
        }
        assert!(
            p.sparse.len() < 50,
            "the run went dense: {}",
            p.sparse.len()
        );
        // Absolute windows slide: each new window arrives as the oldest
        // leaves, for far longer than the span the table may cover.
        for k in 500..5_000u32 {
            p.insert(1_000_000 + k, posting(100 + k));
            p.remove(1_000_000 + k - 500, 100 + k - 500);
            assert!(p.dense.len() <= bound(&p));
        }
        for k in 4_500..5_000u32 {
            assert_eq!(sorted_slots(&p, 1_000_000 + k), vec![100 + k]);
        }
        assert!(p.get(1_000_000 + 4_499).is_empty());
        for (slot, &k) in far.iter().enumerate() {
            assert_eq!(p.get(k), &[posting(slot as u32)], "key {k}");
        }
        assert_eq!(p.keys, far.len() + 500);
        // Most keys leave: the dense span shrinks with them.
        for k in 4_500..4_950u32 {
            p.remove(1_000_000 + k, 100 + k);
            assert!(p.dense.len() <= bound(&p));
        }
        for k in 4_950..5_000u32 {
            assert_eq!(p.get(1_000_000 + k), &[posting(100 + k)]);
        }
        assert_eq!(p.keys, far.len() + 50);
    }
}
