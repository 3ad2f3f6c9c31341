//! The snapshot read path must answer like the paper: at quiescence
//! (after `finish`, which joins the merger behind its final publication)
//! every query through a pinned [`ReadView`], through the cached
//! [`ServeHandle`], and through a cache-disabled handle equals the
//! offline pipeline (`QueryEngine::execute` with `Strategy::Gui`) over the
//! same micro-clusters — with and without a snapshot store, and for a
//! service rebuilt by crash recovery before it ingests anything new.
//!
//! [`ReadView`]: cps_monitor::ReadView
//! [`ServeHandle`]: cps_monitor::ServeHandle

use cps_monitor::{
    DurabilityConfig, FsyncPolicy, MonitorConfig, MonitorHandle, MonitorService, OverflowPolicy,
};
use cps_sim::{Scale, SimConfig, TrafficSim};
use cps_testkit::conformance::{assert_leaves_match_extraction, assert_serving_matches_offline};
use cps_testkit::fixtures::temp_dir;
use std::sync::Arc;

const DAYS: u32 = 3;

fn sim() -> TrafficSim {
    // Hot-region skew on: the differential guarantee must hold for the
    // skewed operational workload the serving bench replays, too.
    TrafficSim::new(SimConfig::new(Scale::Tiny, 7).with_hot_region(0.2, 0.5))
}

fn feed(sim: &TrafficSim) -> Vec<cps_core::AtypicalRecord> {
    let mut records: Vec<_> = (0..DAYS).flat_map(|d| sim.atypical_day(d)).collect();
    records.sort_unstable_by_key(|r| (r.window, r.sensor));
    assert!(!records.is_empty());
    records
}

fn base_config(sim: &TrafficSim) -> MonitorConfig {
    MonitorConfig {
        shards: 3,
        spec: sim.config().spec,
        overflow: OverflowPolicy::Block,
        ..MonitorConfig::default()
    }
}

/// Runs the feed to quiescence and returns the handle (the service itself
/// is consumed by `finish`), after checking its day leaves against an
/// offline extraction of the same feed.
fn run_to_quiescence(config: &MonitorConfig, sim: &TrafficSim) -> MonitorHandle {
    let network = Arc::new(sim.network().clone());
    let mut service = MonitorService::start(config, network).expect("service starts");
    let handle = service.handle();
    let records = feed(sim);
    for &record in &records {
        assert!(service.ingest(record).expect("healthy ingest"));
    }
    let metrics = service.finish();
    assert!(
        metrics.snapshots_published > 0,
        "the merger must publish: {metrics}"
    );
    assert_leaves_match_extraction(&handle, sim.network(), config, &records, DAYS, "serving");
    handle
}

/// Every query of the surface, through the read view and the cached
/// handle, over every whole-day range of the feed, against the offline
/// oracle.
fn assert_paths_agree(handle: &MonitorHandle, config: &MonitorConfig, sim: &TrafficSim) {
    assert_serving_matches_offline(handle, sim.network(), config, DAYS, "serving");
}

/// All-live configuration: no store, every day answered from memory.
#[test]
fn snapshot_paths_match_offline_at_quiescence() {
    let sim = sim();
    let config = base_config(&sim);
    let handle = run_to_quiescence(&config, &sim);
    assert_paths_agree(&handle, &config, &sim);
    let stats = handle.serve().cache_stats();
    assert!(stats.hits > 0, "second rounds must hit: {stats:?}");
}

/// With a snapshot store the early days seal mid-run: sealed days answer
/// from disk, live days from the snapshot — same answers either way, and
/// sealed-range cache entries are immutable (hits survive any epoch).
#[test]
fn snapshot_paths_match_offline_with_sealed_days() {
    let sim = sim();
    let dir = temp_dir("serving-diff-store");
    let config = MonitorConfig {
        snapshot_dir: Some(dir.clone()),
        ..base_config(&sim)
    };
    let handle = run_to_quiescence(&config, &sim);
    let view = handle.read_view();
    assert!(
        !view.snapshot().persisted_days.is_empty(),
        "a multi-day feed with a store must seal days"
    );
    assert!(view.seal_epoch() > 0);
    assert_paths_agree(&handle, &config, &sim);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disabling the cache changes performance, never answers: the handle
/// recomputes every query and its counters stay untouched.
#[test]
fn cache_disabled_serves_identical_results() {
    let sim = sim();
    let mut config = base_config(&sim);
    config.serving.cache = false;
    let handle = run_to_quiescence(&config, &sim);
    let serve = handle.serve();
    assert!(!serve.cache_enabled());
    assert_paths_agree(&handle, &config, &sim);
    let stats = serve.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.stale, stats.entries),
        (0, 0, 0, 0),
        "a disabled cache must not count or hold anything"
    );
}

/// A coarse publication cadence only changes *when* snapshots appear;
/// the merger's final publication still makes quiescent answers exact.
#[test]
fn coarse_cadence_still_converges_at_quiescence() {
    let sim = sim();
    let mut config = base_config(&sim);
    config.serving.publish_every_clusters = 1_000;
    config.serving.publish_every_windows = 500;
    let handle = run_to_quiescence(&config, &sim);
    assert_paths_agree(&handle, &config, &sim);
}

/// A crash-recovered service publishes its restored state as the initial
/// snapshot: the read view answers correctly before any new ingest.
#[test]
fn recovered_service_initial_view_matches_offline() {
    let sim = sim();
    let network = Arc::new(sim.network().clone());
    let wal_dir = temp_dir("serving-diff-wal");
    let config = MonitorConfig {
        durability: DurabilityConfig {
            wal_dir: Some(wal_dir.clone()),
            fsync: FsyncPolicy::Group,
            checkpoint_interval_records: 2_000,
            ..DurabilityConfig::default()
        },
        ..base_config(&sim)
    };
    {
        let mut service = MonitorService::start(&config, network.clone()).expect("service starts");
        for record in feed(&sim) {
            assert!(service.ingest(record).expect("healthy ingest"));
        }
        // Abrupt drop: no finish, no final checkpoint — the WAL replays.
    }
    let (service, report) = MonitorService::recover(&config, network).expect("recovery succeeds");
    assert!(report.replayed_entries > 0);
    let handle = service.handle();
    assert_paths_agree(&handle, &config, &sim);
    drop(service);
    let _ = std::fs::remove_dir_all(&wal_dir);
}
