//! One durable monitor session: a feed pushed closed loop through
//! `MonitorService::ingest_batch`, a crash (the service is dropped without
//! `finish`), `MonitorService::recover`, resumption from
//! `RecoveryReport::resume_from`, and `finish`.

use crate::feed::Feed;
use crate::stats::dir_bytes;
use cps_core::{AtypicalRecord, RecordBatch};
use cps_monitor::{
    DurabilityConfig, FsyncPolicy, MetricsSnapshot, MonitorConfig, MonitorHandle, MonitorService,
    OverflowPolicy, RecoveryReport,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Records per `ingest_batch` call.
pub const BATCH: usize = 256;
/// Worker shards of every monitor.
pub const SHARDS: usize = 2;

/// What one session does.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Records between checkpoints.
    pub checkpoint_interval: u64,
    /// The service is dropped without `finish` after the batch that
    /// reaches this many records, recovered, and resumed.
    pub crash_after: usize,
}

impl Plan {
    /// A checkpoint every 45% of the feed and a crash at `crash_share` of
    /// it, so the WAL suffix recovery replays is a fixed share of the feed.
    pub fn crash(feed_len: usize, crash_share: f64) -> Self {
        Self {
            checkpoint_interval: ((feed_len as f64 * 0.45).ceil() as u64).max(1),
            crash_after: ((feed_len as f64 * crash_share).round() as usize).min(feed_len),
        }
    }
}

/// The two directories a session owns.
#[derive(Clone, Debug)]
pub struct Dirs {
    pub wal: PathBuf,
    pub snapshots: PathBuf,
}

impl Dirs {
    pub fn under(root: &Path) -> Self {
        Self {
            wal: root.join("wal"),
            snapshots: root.join("snapshots"),
        }
    }
}

/// The monitor configuration of every session: 2 shards, `Block`,
/// group-commit WAL at the default cadence, columnar day seals, default
/// serving (cache on).
pub fn monitor_config(feed: &Feed, dirs: &Dirs, checkpoint_interval: u64) -> MonitorConfig {
    MonitorConfig {
        shards: SHARDS,
        spec: feed.spec,
        overflow: OverflowPolicy::Block,
        snapshot_dir: Some(dirs.snapshots.clone()),
        durability: DurabilityConfig {
            wal_dir: Some(dirs.wal.clone()),
            fsync: FsyncPolicy::Group,
            checkpoint_interval_records: checkpoint_interval,
            ..DurabilityConfig::default()
        },
        ..MonitorConfig::default()
    }
}

/// Accounting of one side of the crash. A batch that `ingest_batch`
/// refuses with an error fails the session instead (these feeds are
/// ordered and fault-free, and the error does not say how much of the
/// batch was delivered), so `rejected` is 0 in every ledger that closes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub offered: u64,
    /// The sum of what `ingest_batch` returned.
    pub accepted: u64,
    /// The service's own counters.
    pub ingested: u64,
    pub dropped: u64,
    pub shed: u64,
    pub quarantined: u64,
}

impl Ledger {
    fn close(offered: u64, accepted: u64, m: &MetricsSnapshot) -> Self {
        Self {
            offered,
            accepted,
            ingested: m.records_ingested,
            dropped: m.records_dropped,
            shed: m.records_shed,
            quarantined: m.records_quarantined,
        }
    }

    /// Records the service counted as dropped, shed or quarantined.
    pub fn refused(&self) -> u64 {
        self.dropped + self.shed + self.quarantined
    }

    /// `ingested + dropped + shed + quarantined + rejected == offered`,
    /// and the records `ingest_batch` reported accepted are the records
    /// the service counted as ingested.
    pub fn conserved(&self) -> bool {
        self.ingested + self.refused() == self.offered && self.accepted == self.ingested
    }
}

/// Everything a session measured.
pub struct Outcome {
    /// First batch to the return of `finish`, minus the recovery interval.
    /// The dropped service draining what it had accepted counts.
    pub write_s: f64,
    /// `recover` wall time.
    pub recovery_s: f64,
    /// Records the session ingested into its final state.
    pub records: u64,
    pub report: RecoveryReport,
    pub before_crash: Ledger,
    pub after_crash: Ledger,
    /// Counters of the first service when it crashed.
    pub metrics_before_crash: MetricsSnapshot,
    /// Counters of the recovered service at `finish`.
    pub metrics: MetricsSnapshot,
    /// Bytes of WAL, checkpoint and segments on disk after `finish`.
    pub disk_bytes: u64,
    /// The configuration the session ran with.
    pub config: MonitorConfig,
}

/// Splits records into `ingest_batch` batches, outside any timed interval.
pub fn batches(records: &[AtypicalRecord]) -> Vec<RecordBatch> {
    records
        .chunks(BATCH)
        .map(RecordBatch::from_records)
        .collect()
}

/// Runs one session. `on_crash` sees the WAL directory between the crash
/// and recovery. Returns the query handle of the finished service.
pub fn run(
    feed: &Feed,
    batches: &[RecordBatch],
    plan: Plan,
    dirs: &Dirs,
    on_crash: &mut dyn FnMut(&Path),
) -> Result<(Outcome, MonitorHandle), String> {
    let config = monitor_config(feed, dirs, plan.checkpoint_interval);
    let mut service = MonitorService::start(&config, feed.network.clone())?;
    let first = service.handle();
    let crash_batches = plan.crash_after.div_ceil(BATCH).min(batches.len());
    let mut accepted = 0u64;
    let mut sent = 0usize;

    let t0 = Instant::now();
    for batch in &batches[..crash_batches] {
        accepted += ingest(&mut service, batch)?;
        sent += batch.len();
    }

    // Crash: no finish, no final checkpoint. Dropping the service detaches
    // its worker and merger threads, which drain what was already sent;
    // they must be gone before recovery opens the same directories, or
    // both would write the same day segments.
    drop(service);
    wait_for_detached_threads()?;
    let metrics_before_crash = first.metrics();
    let before_crash = Ledger::close(sent as u64, accepted, &metrics_before_crash);
    on_crash(&dirs.wal);
    let recovery_start = Instant::now();
    let (mut service, report) = MonitorService::recover(&config, feed.network.clone())?;
    let recovery = recovery_start.elapsed();
    let resume = usize::try_from(report.resume_from).map_err(|e| e.to_string())?;
    if resume > sent {
        return Err(format!(
            "recovery resumes at {resume}, past the {sent} records sent"
        ));
    }
    // Resume on the same 256-record grid when the resume point is on it.
    let owned;
    let rest: &[RecordBatch] = if resume % BATCH == 0 {
        &batches[resume / BATCH..]
    } else {
        owned = self::batches(&feed.records[resume..]);
        &owned
    };
    let mut accepted_after = 0u64;
    for batch in rest {
        accepted_after += ingest(&mut service, batch)?;
    }
    let handle = service.handle();
    let metrics = service.finish();
    let write_s = (t0.elapsed() - recovery).as_secs_f64();
    let outcome = Outcome {
        write_s,
        recovery_s: recovery.as_secs_f64(),
        records: (resume + rest.iter().map(RecordBatch::len).sum::<usize>()) as u64,
        report,
        before_crash,
        after_crash: Ledger::close((feed.len() - resume) as u64, accepted_after, &metrics),
        metrics_before_crash,
        metrics,
        disk_bytes: dir_bytes(&dirs.wal) + dir_bytes(&dirs.snapshots),
        config,
    };
    Ok((outcome, handle))
}

/// Waits until no monitor worker or merger thread is left in this
/// process (thread names start with `cps-monitor`).
fn wait_for_detached_threads() -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let tasks =
            std::fs::read_dir("/proc/self/task").map_err(|e| format!("listing threads: {e}"))?;
        let busy = tasks.flatten().any(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with("cps-monitor"))
        });
        if !busy {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err("the dropped service's threads did not exit".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Offers one batch; returns the records `ingest_batch` accepted.
fn ingest(service: &mut MonitorService, batch: &RecordBatch) -> Result<u64, String> {
    service
        .ingest_batch(batch)
        .map_err(|e| format!("ingest_batch refused a batch: {e}"))
}

/// An uninterrupted session of the same configuration (no crash), used
/// as the reference the crashed-and-recovered session must equal.
pub fn reference(
    feed: &Feed,
    batches: &[RecordBatch],
    plan: Plan,
    dirs: &Dirs,
) -> Result<MonitorHandle, String> {
    let config = monitor_config(feed, dirs, plan.checkpoint_interval);
    let mut service = MonitorService::start(&config, feed.network.clone())?;
    for batch in batches {
        ingest(&mut service, batch)?;
    }
    let handle = service.handle();
    service.finish();
    Ok(handle)
}
