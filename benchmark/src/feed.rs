//! Seeded `cps-sim` feeds and the per-run scratch directories.

use cps_core::{AtypicalRecord, WindowSpec};
use cps_geo::RoadNetwork;
use cps_sim::{build_source, Scale, SimConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hot-region skew of every feed: 15% of the sensors receive 60% of the
/// extra event mass, as in `repro query-serving`.
pub const HOT_REGION: (f64, f64) = (0.15, 0.6);

/// One generated feed: window-ordered atypical records plus the
/// deployment they play out on.
pub struct Feed {
    pub records: Vec<AtypicalRecord>,
    pub network: Arc<RoadNetwork>,
    pub spec: WindowSpec,
}

/// Simulator seed of round 0's deployment; round `r` plays out on
/// deployment `DEPLOYMENT_SEED + r` in every run.
pub const DEPLOYMENT_SEED: u64 = 1;

impl Feed {
    /// Generates the first `days` days of the traffic domain at `scale`
    /// on round `round`'s deployment, sorted by `(window, sensor)` as the
    /// monitor requires.
    ///
    /// The feeds are a fixed corpus, the same in every run: the simulator
    /// draws the road network, its hotspots and their activity over the
    /// archive from its seed, and the cost per record differs by up to
    /// ±30% between deployments, which would otherwise move every figure
    /// with the run seed. The run seed draws the read inputs.
    pub fn generate(scale: Scale, round: usize, days: u32) -> Self {
        let sim = build_source(
            SimConfig::new(scale, DEPLOYMENT_SEED + round as u64)
                .with_hot_region(HOT_REGION.0, HOT_REGION.1),
        );
        let mut records: Vec<AtypicalRecord> = Vec::new();
        for day in 0..days {
            let mut batch = sim.atypical_day(day);
            batch.sort_unstable_by_key(|r| (r.window, r.sensor));
            records.extend(batch);
        }
        Self {
            records,
            network: Arc::new(sim.network().clone()),
            spec: sim.config().spec,
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Days the feed touches (day of the last record + 1).
    pub fn days(&self) -> u32 {
        self.records
            .last()
            .map_or(0, |r| self.spec.day_of(r.window) + 1)
    }
}

/// A scratch directory owned by one run, removed on drop. The name is
/// keyed on the workload, the process id and a per-process counter, so
/// concurrent runs and repeated sessions never share state.
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    /// Creates `<base>/<workload>-<pid>-<n>`.
    pub fn new(base: &Path, workload: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let root = base.join(format!("{workload}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// A fresh, empty sub-directory for one monitor session.
    pub fn session(&self, tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).expect("create session directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave the shared base behind only while other runs still use it.
        if let Some(base) = self.root.parent() {
            let _ = std::fs::remove_dir(base);
        }
    }
}
