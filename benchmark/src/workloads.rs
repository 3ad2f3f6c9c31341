//! The two workloads and the metrics they report.

use crate::feed::{Feed, Scratch};
use crate::queries::{self, ClientLog, Query};
use crate::redrive::{self, canonical, QueryContext};
use crate::session::{self, Dirs, Outcome, Plan};
use crate::stats::{median, peak_rss_mb, Latency};
use crate::trace::Tracer;
use cps_core::RecordBatch;
use cps_monitor::{CacheStats, MonitorHandle};
use cps_sim::Scale;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    IngestRecover,
    HistoryScan,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest_recover" => Some(Self::IngestRecover),
            "history_scan" => Some(Self::HistoryScan),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::IngestRecover => "ingest_recover",
            Self::HistoryScan => "history_scan",
        }
    }
}

/// The fixed work of one run, derived from the workload and `--seconds`
/// (and `--smoke`) only, never from how fast the host is.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    pub scale: Scale,
    /// Days of every feed.
    pub days: u32,
    /// Rounds per run: each is one durable session on a fresh service
    /// followed by its share of the run's queries and polls.
    pub rounds: usize,
    /// Queries in the `history_scan` sequence.
    pub queries: usize,
    /// Longest range of the `history_scan` sequence, in days.
    pub max_query_days: u32,
    /// Polls of the dashboard replay.
    pub replay_polls: u64,
}

/// Share of the feed after which every session crashes.
const CRASH_SHARE: f64 = 0.8;

impl Sizing {
    pub fn new(workload: Workload, seconds: u64, smoke: bool) -> Self {
        let seconds = seconds.max(1) as usize;
        if smoke {
            return Self {
                scale: Scale::Tiny,
                days: 9,
                rounds: 2,
                queries: 30,
                max_query_days: 5,
                replay_polls: 20,
            };
        }
        // Every round is its own deployment and a median over rounds
        // outlasts a slow spell of the host: many short feeds rather than
        // a few long ones.
        let (days, rounds) = match workload {
            Workload::IngestRecover => (20, seconds.max(2)),
            Workload::HistoryScan => (30, (seconds * 3 / 4).max(2)),
        };
        Self {
            scale: Scale::Medium,
            days,
            rounds,
            queries: 100 * seconds,
            max_query_days: 20,
            replay_polls: 4000,
        }
    }
}

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

/// What a run reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Records ingested over all rounds.
    pub feed_records: usize,
    pub work: String,
    /// The fewest samples behind any reported p99.
    pub min_samples: usize,
}

/// A failed correctness gate: the run fails and prints no metric.
pub type Gate<T> = Result<T, String>;

fn gate(ok: bool, what: impl FnOnce() -> String) -> Gate<()> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Everything one workload produced, before it is turned into metrics.
struct Measured {
    setup_s: Vec<f64>,
    writes: Vec<Outcome>,
    queries: ClientLog,
    dashboard: ClientLog,
    /// `VmHWM` at the end of the run.
    peak_rss_mb: f64,
    feed_records: usize,
    work: String,
}

fn check_conservation(o: &Outcome) -> Gate<()> {
    for (side, l) in [
        ("before the crash", o.before_crash),
        ("after recovery", o.after_crash),
    ] {
        gate(l.conserved(), || {
            format!(
                "conservation broken {side}: offered {}, accepted {}, ingested {}, dropped {}, shed {}, quarantined {}",
                l.offered, l.accepted, l.ingested, l.dropped, l.shed, l.quarantined
            )
        })?;
    }
    Ok(())
}

/// Per-day canonical micro-clusters and the canonical macro set.
fn final_state(
    handle: &MonitorHandle,
    days: u32,
) -> Gate<(Vec<Vec<redrive::Canonical>>, Vec<redrive::Canonical>)> {
    let view = handle.read_view();
    let per_day = (0..days)
        .map(|d| view.micro_clusters_for_day(d).map(|m| canonical(&m)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("reading day micro-clusters: {e}"))?;
    Ok((per_day, canonical(&view.live_macro_clusters())))
}

/// A 64-bit digest of a session's final state, so a round keeps one
/// number instead of the state itself while its reference session runs.
fn digest(handle: &MonitorHandle, days: u32) -> Gate<u64> {
    let mut hasher = DefaultHasher::new();
    final_state(handle, days)?.hash(&mut hasher);
    Ok(hasher.finish())
}

/// Chunk `part` of `parts` of a seeded query sequence.
fn chunk<T: Copy>(items: &[T], part: usize, parts: usize) -> &[T] {
    let size = items.len().div_ceil(parts.max(1)).max(1);
    items.chunks(size).nth(part).unwrap_or(&[])
}

/// Adds one round's cache counters to the run's.
fn add_cache(total: &mut CacheStats, round: CacheStats) {
    total.hits += round.hits;
    total.misses += round.misses;
    total.stale += round.stale;
    total.entries += round.entries;
    total.evictions += round.evictions;
}

/// Inputs a traced run re-drives, kept from the untraced pass.
pub struct TraceInputs<'a> {
    feed: &'a Feed,
    batches: &'a [RecordBatch],
    outcome: &'a Outcome,
    handle: &'a MonitorHandle,
    served: BTreeSet<Query>,
    cache: CacheStats,
    recovery: RecoveryTrace,
}

#[derive(Default)]
struct RecoveryTrace {
    tracer: Option<Tracer>,
    untraced_ns: u64,
    traced_ns: u64,
}

/// Re-drives the recovery read path on a crash image twice: untraced,
/// then traced.
fn trace_recovery(wal: &Path) -> Gate<RecoveryTrace> {
    let (_, tracer, untraced_ns, traced_ns) = twice(|t| redrive::recovery(t, wal))?;
    Ok(RecoveryTrace {
        tracer: Some(tracer),
        untraced_ns,
        traced_ns,
    })
}

type TraceSink<'s> = &'s mut dyn FnMut(TraceInputs) -> Gate<()>;

/// Runs one workload untraced (`--trace 0`).
pub fn run(workload: Workload, seed: u64, sizing: &Sizing, scratch: &Scratch) -> Gate<Report> {
    let m = measure(workload, seed, sizing, scratch, None)?;
    Ok(end_to_end(&m))
}

fn measure(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    scratch: &Scratch,
    mut traced: Option<TraceSink>,
) -> Gate<Measured> {
    let trace_on = traced.is_some();
    let rounds = if trace_on { 1 } else { sizing.rounds };
    let mut recovery: Option<Gate<RecoveryTrace>> = None;
    let mut setup_s = Vec::with_capacity(rounds);
    let mut writes = Vec::with_capacity(rounds);
    let mut queries = ClientLog::default();
    let mut dashboard = ClientLog::default();
    let mut cache = CacheStats::default();
    let mut last = None;
    for round in 0..rounds {
        let root = scratch.session(workload.name());
        let dirs = Dirs::under(&root);
        let mut on_crash = |wal: &Path| {
            if trace_on {
                recovery = Some(trace_recovery(wal));
            }
        };
        // Each round generates its own feed, so a run averages over several
        // deployments instead of resting on one. The generation (and, for
        // `history_scan`, the preload) is the round's set-up.
        let start = Instant::now();
        let feed = Feed::generate(sizing.scale, round, sizing.days);
        let batches = session::batches(&feed.records);
        if workload == Workload::IngestRecover {
            setup_s.push(start.elapsed().as_secs_f64());
        }
        let plan = Plan::crash(feed.len(), CRASH_SHARE);
        let (outcome, handle) = session::run(&feed, &batches, plan, &dirs, &mut on_crash)?;
        if workload == Workload::HistoryScan {
            setup_s.push(start.elapsed().as_secs_f64());
        }
        check_conservation(&outcome)?;
        let days = feed.days();
        let serve = handle.serve();
        // A traced run does one round with one round's share of the reads.
        let part = match workload {
            Workload::IngestRecover => {
                ClientLog::run_sequence(&serve, &queries::probe_round(seed, round, days))
            }
            Workload::HistoryScan => {
                let sequence =
                    queries::history_sequence(seed, sizing.queries, days, sizing.max_query_days);
                ClientLog::run_sequence(&serve, chunk(&sequence, round, sizing.rounds))
            }
        };
        add_cache(&mut cache, serve.cache_stats());
        let polls = sizing.replay_polls.div_ceil(sizing.rounds as u64);
        let replay = ClientLog::replay_dashboard(&serve, days, polls);
        let served: BTreeSet<Query> = part.served.union(&replay.served).copied().collect();
        queries.absorb(part);
        dashboard.absorb(replay);
        // Each round's cache is checked against its own quiescent state.
        queries::check_served(&serve, &served)?;
        let state = digest(&handle, days)?;
        writes.push(outcome);
        let kept = if trace_on {
            Some((handle, served))
        } else {
            drop(handle);
            let _ = std::fs::remove_dir_all(&root);
            None
        };
        // The crashed-and-recovered session must equal an uninterrupted
        // session of the same configuration on the same feed, run after
        // the round's timed intervals and outside `setup_s`.
        let root = scratch.session("reference");
        let plan = Plan::crash(feed.len(), CRASH_SHARE);
        let reference = session::reference(&feed, &batches, plan, &Dirs::under(&root))?;
        let same = digest(&reference, days)? == state;
        drop(reference);
        let _ = std::fs::remove_dir_all(&root);
        gate(same, || {
            format!("round {round}: the crashed-and-recovered session differs from an uninterrupted one")
        })?;
        if let Some((handle, served)) = kept {
            last = Some((feed, batches, handle, served));
        }
    }
    let peak_rss = peak_rss_mb();
    let records: u64 = writes.iter().map(|o| o.records).sum();
    let work = match workload {
        Workload::IngestRecover => format!(
            "{rounds} crashed sessions, {records} records; {} probe queries; {} replay polls; {rounds} reference sessions",
            queries.sent, dashboard.latency_s.len()
        ),
        Workload::HistoryScan => format!(
            "{rounds} crashed preloads, {records} records; {} queries (1..={} days); {} replay polls; {rounds} reference sessions",
            queries.sent, sizing.max_query_days, dashboard.latency_s.len()
        ),
    };
    let recovery = recovery.unwrap_or_else(|| Ok(RecoveryTrace::default()))?;
    if let Some(sink) = traced.as_mut() {
        let (feed, batches, handle, served) = last.expect("one traced round");
        let outcome = writes.last().expect("one traced round");
        sink(TraceInputs {
            feed: &feed,
            batches: &batches,
            outcome,
            handle: &handle,
            served,
            cache,
            recovery,
        })?;
    }
    Ok(Measured {
        setup_s,
        writes,
        queries,
        dashboard,
        peak_rss_mb: peak_rss,
        feed_records: records as usize,
        work,
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Per-round values, for the human-readable report.
fn list(values: &[f64], decimals: usize) -> String {
    values
        .iter()
        .map(|v| format!("{v:.decimals$}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn end_to_end(m: &Measured) -> Report {
    let n = m.writes.len();
    let ingest_rps: Vec<f64> = m
        .writes
        .iter()
        .map(|o| o.records as f64 / o.write_s)
        .collect();
    let recovery: Vec<f64> = m.writes.iter().map(|o| o.recovery_s).collect();
    let disk: Vec<f64> = m
        .writes
        .iter()
        .map(|o| o.disk_bytes as f64 / o.records as f64)
        .collect();
    let query = Latency::from_secs(&m.queries.latency_s);
    let dash = Latency::from_secs(&m.dashboard.latency_s);
    let offered: u64 = m
        .writes
        .iter()
        .map(|o| o.before_crash.offered + o.after_crash.offered)
        .sum();
    let refused: u64 = m
        .writes
        .iter()
        .map(|o| o.before_crash.refused() + o.after_crash.refused())
        .sum();
    let metrics = vec![
        metric(
            "setup_s",
            median(&m.setup_s),
            "s",
            format!("median of {} set-ups", m.setup_s.len()),
        ),
        metric(
            "ingest_rps",
            median(&ingest_rps),
            "records/s",
            format!("median of {n} sessions: {}", list(&ingest_rps, 0)),
        ),
        metric(
            "recovery_s",
            median(&recovery),
            "s",
            format!(
                "median of {} recoveries: {}",
                recovery.len(),
                list(&recovery, 3)
            ),
        ),
        metric(
            "disk_bytes_per_record",
            median(&disk),
            "B/record",
            format!("median of {n} sessions"),
        ),
        metric(
            "query_qps",
            m.queries.sent as f64 / m.queries.wall_s,
            "queries/s",
            format!("{} queries", m.queries.sent),
        ),
        metric(
            "query_p50_ms",
            query.p50_ms,
            "ms",
            format!("n={}", query.samples),
        ),
        metric(
            "query_p99_ms",
            query.p99_ms,
            "ms",
            format!("n={}", query.samples),
        ),
        metric(
            "dash_p50_ms",
            dash.p50_ms,
            "ms",
            format!("n={} polls", dash.samples),
        ),
        metric(
            "dash_p99_ms",
            dash.p99_ms,
            "ms",
            format!("n={} polls", dash.samples),
        ),
        metric("peak_rss_mb", m.peak_rss_mb, "MB", "VmHWM"),
    ];
    Report {
        attempted: offered + m.queries.sent + m.dashboard.sent,
        failed: refused + m.queries.failed + m.dashboard.failed,
        metrics,
        feed_records: m.feed_records,
        work: m.work.clone(),
        min_samples: query.samples.min(dash.samples),
    }
}

/// Runs one workload with the traced re-drive (`--trace 1`).
pub fn run_traced(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    scratch: &Scratch,
    spans_out: &Path,
) -> Gate<Report> {
    let mut layers: Vec<Metric> = Vec::new();
    let mut sink = |inputs: TraceInputs| -> Gate<()> {
        layers = per_layer(inputs, scratch, spans_out)?;
        Ok(())
    };
    let m = measure(workload, seed, sizing, scratch, Some(&mut sink))?;
    let e2e = end_to_end(&m);
    let failed_frac = e2e.failed as f64 / e2e.attempted.max(1) as f64;
    layers.push(metric(
        "failed_frac",
        failed_frac,
        "ratio",
        format!("{} of {}", e2e.failed, e2e.attempted),
    ));
    Ok(Report {
        metrics: layers,
        ..e2e
    })
}

/// Times `f` once with tracing off and once on; returns the traced
/// result, the tracer, and both wall times in ns.
fn twice<T>(mut f: impl FnMut(&mut Tracer) -> Gate<T>) -> Gate<(T, Tracer, u64, u64)> {
    let start = Instant::now();
    f(&mut Tracer::disabled())?;
    let off = start.elapsed().as_nanos() as u64;
    let mut tracer = Tracer::new();
    let start = Instant::now();
    let out = f(&mut tracer)?;
    Ok((out, tracer, off, start.elapsed().as_nanos() as u64))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(inputs: TraceInputs, scratch: &Scratch, spans_out: &Path) -> Gate<Vec<Metric>> {
    let TraceInputs {
        feed,
        batches,
        outcome,
        handle,
        served,
        cache,
        recovery,
    } = inputs;
    let config = &outcome.config;

    let (ingest, ingest_t, ingest_off, ingest_on) =
        twice(|t| redrive::ingest(t, feed, batches, config, &scratch.session("redrive")))?;
    let mut service_micros: Vec<redrive::Canonical> = final_state(handle, feed.days())?
        .0
        .into_iter()
        .flatten()
        .collect();
    service_micros.sort();
    gate(canonical(&ingest.micros) == service_micros, || {
        "the stage-by-stage ingest re-drive produced different micro-clusters than the service"
            .to_string()
    })?;

    let ctx = QueryContext::new(feed, config)?;
    let serve = handle.serve();
    let view = handle.read_view();
    let list: Vec<Query> = served.into_iter().collect();
    let (qt, query_t, query_off, query_on) =
        twice(|t| redrive::queries(t, &ctx, &serve, &view, &list))?;

    let recovery_t = recovery.tracer.unwrap_or_else(Tracer::disabled);
    let tracers = [
        ("ingest", &ingest_t),
        ("query", &query_t),
        ("recover", &recovery_t),
    ];
    std::fs::create_dir_all(spans_out).map_err(|e| e.to_string())?;
    for (name, t) in tracers {
        t.write_tsv(&spans_out.join(format!("{name}.tsv")))
            .map_err(|e| e.to_string())?;
    }
    let mut selfs: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut roots = 0u64;
    for (_, t) in tracers {
        roots += t.root_ns();
        for (name, (ns, calls)) in t.self_times() {
            let e = selfs.entry(name).or_default();
            e.0 += ns;
            e.1 += calls;
        }
    }
    let self_ns = |name: &str| selfs.get(name).map_or(0, |v| v.0) as f64;
    let per_call = |name: &str| {
        selfs
            .get(name)
            .map_or(0.0, |&(ns, calls)| ratio(ns as f64, calls as f64))
    };
    let unattributed = ["ingest", "query", "recover"]
        .iter()
        .map(|n| self_ns(n))
        .sum::<f64>();

    let records = ingest.records as f64;
    let per_record = |name: &str| ratio(self_ns(name), records);
    let before = &outcome.metrics_before_crash;
    let after = &outcome.metrics;
    let both = |f: fn(&cps_monitor::MetricsSnapshot) -> u64| (f(before) + f(after)) as f64;
    let max_shard = ingest.per_shard.iter().copied().max().unwrap_or(0) as f64;
    let mean_shard = records / ingest.per_shard.len().max(1) as f64;
    let stats = ingest.integration;
    let planned = (qt.by_kind.get("guided").copied().unwrap_or(0)
        + qt.by_kind.get("significant").copied().unwrap_or(0)) as f64;
    let lookups = (cache.hits + cache.misses + cache.stale) as f64;
    let segment_bytes = crate::stats::dir_bytes(
        config
            .snapshot_dir
            .as_deref()
            .expect("sessions persist days"),
    );
    let replayed = outcome.report.replayed_records as f64;

    Ok(vec![
        metric(
            "shard.partition_ns",
            per_record("shard.partition"),
            "ns/record",
            "ShardMap::shard_of",
        ),
        metric(
            "shard.skew",
            ratio(max_shard, mean_shard),
            "ratio",
            "max/mean records per shard",
        ),
        metric(
            "monitor.rebalances",
            both(|m| m.rebalances),
            "count",
            "MetricsSnapshot",
        ),
        metric(
            "monitor.cross_shard_merges",
            both(|m| m.cross_shard_merges),
            "count",
            "MetricsSnapshot",
        ),
        metric(
            "online.extract_ns",
            per_record("online.extract"),
            "ns/record",
            "OnlineExtractor::push/finish",
        ),
        metric(
            "online.micro_clusters",
            ingest.micros.len() as f64,
            "count",
            "re-drive",
        ),
        metric(
            "durability.encode_ns",
            per_record("durability.encode"),
            "ns/record",
            "encode_batch_entry",
        ),
        metric(
            "wal.append_ns",
            per_record("wal.append"),
            "ns/record",
            "WalWriter::append",
        ),
        metric(
            "wal.sync_ns",
            per_record("wal.sync"),
            "ns/record",
            "WalWriter::sync",
        ),
        metric(
            "wal.bytes_per_record",
            ratio(both(|m| m.wal_bytes), outcome.records as f64),
            "B/record",
            "MetricsSnapshot",
        ),
        metric(
            "wal.replay_ns",
            ratio(self_ns("wal.replay"), replayed),
            "ns/record",
            "read_wal + decode_entry",
        ),
        metric("wal.replayed_records", replayed, "count", "RecoveryReport"),
        metric(
            "durability.checkpoint_load_ns",
            self_ns("durability.checkpoint_load"),
            "ns",
            "load_checkpoint",
        ),
        metric(
            "monitor.checkpoints",
            both(|m| m.checkpoints),
            "count",
            "MetricsSnapshot",
        ),
        metric(
            "integrate.admit_ns",
            per_record("integrate.admit"),
            "ns/record",
            "IndexedIntegrator::admit",
        ),
        metric(
            "integrate.comparisons",
            stats.comparisons as f64,
            "count",
            "re-drive",
        ),
        metric("integrate.merges", stats.merges as f64, "count", "re-drive"),
        metric(
            "integrate.pruned_ratio",
            ratio(
                stats.candidates_pruned as f64,
                (stats.candidates_pruned + stats.comparisons + stats.bound_skips) as f64,
            ),
            "ratio",
            "pruned / (pruned + compared + bound-skipped)",
        ),
        metric(
            "epoch.publish_ns",
            per_record("epoch.publish"),
            "ns/record",
            "SnapshotCell::publish",
        ),
        metric(
            "epoch.publishes",
            both(|m| m.snapshots_published),
            "count",
            "MetricsSnapshot",
        ),
        metric(
            "segment.encode_ns",
            per_record("segment.encode"),
            "ns/record",
            "write_clusters_columnar_with",
        ),
        metric(
            "segment.bytes_per_record",
            ratio(segment_bytes as f64, outcome.records as f64),
            "B/record",
            "segments on disk",
        ),
        metric(
            "monitor.days_persisted",
            both(|m| m.days_persisted),
            "count",
            "MetricsSnapshot",
        ),
        metric(
            "redzone.compose_ns",
            per_call("redzone.compose"),
            "ns/query",
            "ReadView::red_regions",
        ),
        metric(
            "guided.input_ratio",
            ratio(qt.inputs as f64, qt.candidates as f64),
            "ratio",
            "input / candidate clusters",
        ),
        metric(
            "store.load_filtered_ns",
            per_call("store.load_filtered"),
            "ns/query",
            "ForestStore::load_filtered",
        ),
        metric(
            "store.bytes_decoded_per_query",
            ratio(qt.bytes_decoded as f64, planned),
            "B/query",
            "IoSnapshot",
        ),
        metric(
            "store.chunks_skipped_ratio",
            ratio(
                qt.chunks_skipped as f64,
                (qt.chunks_skipped + qt.chunks_decoded) as f64,
            ),
            "ratio",
            "SegmentScan",
        ),
        metric(
            "store.files_opened_per_query",
            ratio(qt.files_opened as f64, planned),
            "count/query",
            "IoSnapshot",
        ),
        metric(
            "integrate.aligned_ns",
            per_call("integrate.aligned"),
            "ns/query",
            "integrate_aligned_indexed",
        ),
        metric(
            "integrate.query_comparisons",
            ratio(qt.comparisons as f64, planned),
            "count/query",
            "IntegrationStats",
        ),
        metric(
            "cache.hit_ratio",
            ratio(cache.hits as f64, lookups),
            "ratio",
            format!("{} lookups", lookups),
        ),
        metric("cache.stale", cache.stale as f64, "count", "CacheStats"),
        metric(
            "cache.evictions",
            cache.evictions as f64,
            "count",
            "CacheStats",
        ),
        metric(
            "serve.lookup_ns",
            per_call("serve.lookup"),
            "ns/query",
            "ServeHandle hit",
        ),
        metric(
            "view.query_guided_ns",
            per_call("view.query_guided"),
            "ns/query",
            "ReadView::query_guided",
        ),
        metric(
            "view.significant_ns",
            per_call("view.significant"),
            "ns/query",
            "ReadView::significant_clusters",
        ),
        metric(
            "view.red_regions_ns",
            per_call("view.red_regions"),
            "ns/query",
            "ReadView::red_regions",
        ),
        metric(
            "trace.unattributed_share",
            ratio(unattributed, roots as f64),
            "ratio",
            format!("{roots} ns traced"),
        ),
        metric(
            "trace.overhead_ratio",
            ratio(
                (ingest_on + query_on + recovery.traced_ns) as f64,
                (ingest_off + query_off + recovery.untraced_ns) as f64,
            ),
            "ratio",
            "traced / untraced re-drive wall time",
        ),
    ])
}
