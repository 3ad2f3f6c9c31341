//! Query sequences, the dashboard poll, and the quiescent cache gate.

use atypical::AtypicalCluster;
use cps_core::{RegionId, Severity};
use cps_monitor::{GuidedQuery, ReadView, ServeHandle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// The query surface the benchmark drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Red,
    Guided,
    Significant,
}

/// One whole-day query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Query {
    pub kind: Kind,
    pub first_day: u32,
    pub n_days: u32,
}

/// An answer, comparable across the cached and uncached read paths.
#[derive(Debug, PartialEq)]
pub enum Answer {
    Red(Arc<Vec<(RegionId, Severity)>>),
    Guided(Arc<GuidedQuery>),
    Clusters(Arc<Vec<AtypicalCluster>>),
}

/// Through the cached `ServeHandle`.
pub fn serve(handle: &ServeHandle, q: Query) -> cps_core::Result<Answer> {
    Ok(match q.kind {
        Kind::Red => Answer::Red(handle.red_regions(q.first_day, q.n_days)),
        Kind::Guided => Answer::Guided(handle.query_guided(q.first_day, q.n_days)?),
        Kind::Significant => Answer::Clusters(handle.significant_clusters(q.first_day, q.n_days)?),
    })
}

/// Recomputed on an uncached `ReadView`.
pub fn recompute(view: &ReadView, q: Query) -> cps_core::Result<Answer> {
    Ok(match q.kind {
        Kind::Red => Answer::Red(Arc::new(view.red_regions(q.first_day, q.n_days))),
        Kind::Guided => Answer::Guided(Arc::new(view.query_guided(q.first_day, q.n_days)?)),
        Kind::Significant => {
            Answer::Clusters(Arc::new(view.significant_clusters(q.first_day, q.n_days)?))
        }
    })
}

/// `n` seeded guided/significant queries over `days` sealed days. Each
/// `n_days` in `1..=max_days` occurs equally often (the last round is a
/// seeded subset), in seeded order; the first day is uniform over the
/// ranges that fit and the kind is a fair coin.
pub fn history_sequence(seed: u64, n: usize, days: u32, max_days: u32) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5155_4552_5953_4551);
    let max_days = max_days.min(days).max(1);
    let mut lengths: Vec<u32> = (1..=max_days).cycle().take(n).collect();
    lengths.shuffle(&mut rng);
    lengths
        .into_iter()
        .map(|n_days| Query {
            kind: if rng.gen_bool(0.5) {
                Kind::Guided
            } else {
                Kind::Significant
            },
            first_day: rng.gen_range(0..=days - n_days),
            n_days,
        })
        .collect()
}

/// One round's probe queries over `days` sealed days: every
/// guided/significant key with `n_days` in 2..=6 and a first day of at
/// least 1 (so no probe key is a dashboard key), each once, in an order
/// seeded by `(seed, round)`. Every round asks its whole key space, so a
/// round's latencies depend on its feed and not on a draw of keys.
pub fn probe_round(seed: u64, round: usize, days: u32) -> Vec<Query> {
    let mut keys: Vec<Query> = (2..=6u32)
        .filter(|&n_days| n_days < days)
        .flat_map(|n_days| {
            (1..=days - n_days).flat_map(move |first_day| {
                [Kind::Guided, Kind::Significant].map(|kind| Query {
                    kind,
                    first_day,
                    n_days,
                })
            })
        })
        .collect();
    let mut rng = StdRng::seed_from_u64((seed ^ 0x0050_524f_4245).wrapping_add(round as u64));
    keys.shuffle(&mut rng);
    keys
}

/// The three queries of one dashboard poll as of sealed day `as_of`:
/// red regions and significant clusters over the trailing week ending at
/// that day, plus a one-day guided drill-down rotating over that week.
pub fn dashboard_poll(as_of: u32, poll: u64) -> [Query; 3] {
    let n_days = (as_of + 1).min(7);
    let first_day = as_of + 1 - n_days;
    let drill = first_day + (poll % u64::from(n_days)) as u32;
    [
        Query {
            kind: Kind::Red,
            first_day,
            n_days,
        },
        Query {
            kind: Kind::Significant,
            first_day,
            n_days,
        },
        Query {
            kind: Kind::Guided,
            first_day: drill,
            n_days: 1,
        },
    ]
}

/// What a query client saw.
#[derive(Default)]
pub struct ClientLog {
    /// Seconds per timed unit (one query, or one full dashboard poll).
    pub latency_s: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    /// Every distinct query served, for the quiescent gate.
    pub served: BTreeSet<Query>,
    /// Wall time of the whole client loop.
    pub wall_s: f64,
}

impl ClientLog {
    /// Pools another client's samples into this one.
    pub fn absorb(&mut self, other: ClientLog) {
        self.latency_s.extend(other.latency_s);
        self.sent += other.sent;
        self.failed += other.failed;
        self.served.extend(other.served);
        self.wall_s += other.wall_s;
    }

    fn ask(&mut self, handle: &ServeHandle, q: Query) {
        self.sent += 1;
        match serve(handle, q) {
            Ok(answer) => {
                std::hint::black_box(answer);
                self.served.insert(q);
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Runs a fixed query sequence back to back, one client, closed loop.
    pub fn run_sequence(handle: &ServeHandle, queries: &[Query]) -> Self {
        let mut log = Self::default();
        let start = Instant::now();
        for &q in queries {
            let t = Instant::now();
            log.ask(handle, q);
            log.latency_s.push(t.elapsed().as_secs_f64());
        }
        log.wall_s = start.elapsed().as_secs_f64();
        log
    }

    /// Replays the dashboard over sealed history without think time:
    /// poll `i` looks at day `i mod days`, so the first pass is cold and
    /// later passes hit the cache.
    pub fn replay_dashboard(handle: &ServeHandle, days: u32, polls: u64) -> Self {
        let mut log = Self::default();
        let start = Instant::now();
        for poll in 0..polls {
            let t = Instant::now();
            for q in dashboard_poll((poll % u64::from(days.max(1))) as u32, poll) {
                log.ask(handle, q);
            }
            log.latency_s.push(t.elapsed().as_secs_f64());
        }
        log.wall_s = start.elapsed().as_secs_f64();
        log
    }
}

/// The quiescent gate: every distinct query served, asked again through
/// the cached handle, must equal a recomputation on a fresh uncached
/// `ReadView`. Returns the number of queries checked.
pub fn check_served(handle: &ServeHandle, served: &BTreeSet<Query>) -> Result<usize, String> {
    let view = handle.view();
    for &q in served {
        let cached = serve(handle, q).map_err(|e| format!("{q:?}: cached path failed: {e}"))?;
        let fresh = recompute(&view, q).map_err(|e| format!("{q:?}: fresh view failed: {e}"))?;
        if cached != fresh {
            return Err(format!(
                "{q:?}: cached answer differs from a fresh ReadView"
            ));
        }
    }
    Ok(served.len())
}
