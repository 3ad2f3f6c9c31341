//! The traced re-drive: the same inputs pushed through each layer's
//! public functions in stage order on one thread, one span per call.
//!
//! Ingest: `ShardMap::shard_of` → `durability::encode_batch_entry` →
//! `WalWriter::append`/`sync` → `OnlineExtractor::push`/`finish` →
//! `IndexedIntegrator::admit` → `SnapshotCell::publish` →
//! `write_clusters_columnar_with` per sealed day. Recovery:
//! `load_checkpoint` + `read_wal` + `decode_entry`. Query: `ServeHandle`
//! lookup → `ReadView` call → `ReadView::red_regions` →
//! `ForestStore::load_filtered` → `integrate_aligned_indexed`, with the
//! composed answer checked against `ReadView::query_guided`.

use crate::feed::Feed;
use crate::queries::{self, Answer, Kind, Query};
use crate::session::{BATCH, SHARDS};
use crate::trace::Tracer;
use atypical::integrate::{IntegrationStats, TimeAlignment};
use atypical::integrate_index::integrate_aligned_indexed;
use atypical::online::OnlineExtractor;
use atypical::store::write_clusters_columnar_with;
use atypical::{
    significance_threshold, AtypicalCluster, ForestLevel, ForestStore, IndexedIntegrator,
};
use cps_core::ids::ClusterIdGen;
use cps_core::{Params, RecordBatch, SensorId, Severity, WindowSpec};
use cps_geo::grid::{SensorPartition, UniformGrid};
use cps_index::st_index::max_gap_windows;
use cps_monitor::durability::{
    decode_entry, encode_batch_entry, load_checkpoint, shard_wal_dir, WalOp,
};
use cps_monitor::{GuidedQuery, MonitorConfig, ReadView, ServeHandle, ShardMap};
use cps_serve::{LiveSnapshot, SnapshotCell, QUERY_ID_BASE};
use cps_storage::wal::read_wal;
use cps_storage::{Io, Predicate, SyncPolicy, WalWriter};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

/// Order-free micro-cluster form (ids excluded: they are admission-order
/// artifacts across shards).
pub type Canonical = (Vec<(u32, Severity)>, Vec<(u32, Severity)>, u32);

pub fn canonical(clusters: &[AtypicalCluster]) -> Vec<Canonical> {
    let mut out: Vec<Canonical> = clusters
        .iter()
        .map(|c| {
            let sf = c.sf.iter().map(|(s, v)| (s.raw(), v)).collect();
            let tf = c.tf.iter().map(|(w, v)| (w.raw(), v)).collect();
            (sf, tf, c.merged_count)
        })
        .collect();
    out.sort();
    out
}

/// What the ingest re-drive produced and counted.
pub struct IngestTrace {
    pub records: u64,
    pub per_shard: Vec<u64>,
    pub micros: Vec<AtypicalCluster>,
    pub integration: IntegrationStats,
}

struct Live {
    partition: SensorPartition,
    micros_by_day: BTreeMap<u32, Arc<Vec<AtypicalCluster>>>,
    region_f_by_day: BTreeMap<u32, Arc<Vec<Severity>>>,
    persisted: Arc<BTreeSet<u32>>,
    integrator: IndexedIntegrator,
    ids: ClusterIdGen,
    cell: SnapshotCell<LiveSnapshot>,
    epoch: u64,
}

impl Live {
    fn admit(
        &mut self,
        t: &mut Tracer,
        sealed: Vec<AtypicalCluster>,
        config: &MonitorConfig,
        all: &mut Vec<AtypicalCluster>,
    ) {
        if sealed.is_empty() {
            return;
        }
        for cluster in sealed {
            let day = config.spec.day_of(cluster.time_range().start);
            let n = self.partition.num_regions() as usize;
            let f = Arc::make_mut(
                self.region_f_by_day
                    .entry(day)
                    .or_insert_with(|| Arc::new(vec![Severity::ZERO; n])),
            );
            for (sensor, severity) in cluster.sf.iter() {
                f[self.partition.region_of(sensor).index()] += severity;
            }
            let (integrator, ids) = (&mut self.integrator, &mut self.ids);
            let copy = cluster.clone();
            t.span("integrate.admit", |_| integrator.admit(copy, ids));
            Arc::make_mut(self.micros_by_day.entry(day).or_default()).push(cluster.clone());
            all.push(cluster);
        }
        self.publish(t);
    }

    fn publish(&mut self, t: &mut Tracer) {
        self.epoch += 1;
        t.span("epoch.publish", |_| {
            self.cell.publish(LiveSnapshot {
                epoch: self.epoch,
                seal_epoch: self.persisted.len() as u64,
                micros_by_day: self.micros_by_day.clone(),
                region_f_by_day: self.region_f_by_day.clone(),
                macros: Arc::new(self.integrator.snapshot()),
                persisted_days: self.persisted.clone(),
            })
        });
    }

    /// Seals every leading day `ready` accepts.
    fn seal(
        &mut self,
        t: &mut Tracer,
        ready: impl Fn(u32) -> bool,
        io: &Io,
        dir: &Path,
    ) -> Result<(), String> {
        while let Some((&day, _)) = self.micros_by_day.first_key_value() {
            if !ready(day) {
                break;
            }
            let micros = self.micros_by_day.remove(&day).expect("first key present");
            let path = dir.join(format!("day-{day:05}.acs"));
            t.span("segment.encode", |_| {
                write_clusters_columnar_with(io, &path, &micros)
            })
            .map_err(|e| e.to_string())?;
            Arc::make_mut(&mut self.persisted).insert(day);
            self.publish(t);
        }
        Ok(())
    }
}

/// Re-drives `batches` through the ingest stages under one root span.
pub fn ingest(
    t: &mut Tracer,
    feed: &Feed,
    batches: &[RecordBatch],
    config: &MonitorConfig,
    dir: &Path,
) -> Result<IngestTrace, String> {
    let params = config.params;
    let spec = config.spec;
    let network = &*feed.network;
    let io = Io::real();
    let map = ShardMap::build(network, SHARDS, params.delta_d_miles);
    let segments = dir.join("segments");
    std::fs::create_dir_all(&segments).map_err(|e| e.to_string())?;
    let mut writers = (0..SHARDS)
        .map(|s| {
            WalWriter::open(
                io.clone(),
                &shard_wal_dir(&dir.join("wal"), s),
                SyncPolicy::Never,
                config.durability.segment_bytes,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut extractor = OnlineExtractor::new(network, params, spec);
    let mut live = Live {
        partition: UniformGrid::over(network, config.red_cell_miles).partition(network),
        micros_by_day: BTreeMap::new(),
        region_f_by_day: BTreeMap::new(),
        persisted: Arc::new(BTreeSet::new()),
        integrator: IndexedIntegrator::new(&params, TimeAlignment::Absolute),
        ids: ClusterIdGen::new(1),
        cell: SnapshotCell::new(LiveSnapshot::empty()),
        epoch: 0,
    };
    let max_gap = u64::from(max_gap_windows(&params, spec));
    let wpd = u64::from(spec.windows_per_day());
    let mut per_shard = vec![0u64; SHARDS];
    let mut subs = vec![RecordBatch::with_capacity(BATCH); SHARDS];
    let mut unsynced = [0u64; SHARDS];
    let mut buf = Vec::new();
    let mut seq = 1u64;
    let mut micros = Vec::new();
    let mut records = 0u64;

    t.span("ingest", |t| -> Result<(), String> {
        for batch in batches {
            t.span("shard.partition", |_| {
                for r in batch.iter() {
                    let s = map.shard_of(r.sensor);
                    per_shard[s] += 1;
                    subs[s].push(r);
                }
            });
            let flush_first = seq;
            for s in 0..SHARDS {
                if subs[s].is_empty() {
                    continue;
                }
                let sub = &subs[s];
                t.span("durability.encode", |_| {
                    encode_batch_entry(seq, flush_first, batch.len() as u32, sub, &mut buf)
                });
                seq += sub.len() as u64;
                let writer = &mut writers[s];
                t.span("wal.append", |_| writer.append(&buf))
                    .map_err(|e| e.to_string())?;
                unsynced[s] += 1;
                if unsynced[s] >= config.durability.group_commit_records {
                    t.span("wal.sync", |_| writer.sync())
                        .map_err(|e| e.to_string())?;
                    unsynced[s] = 0;
                }
                subs[s].clear();
            }
            let sealed = t.span("online.extract", |_| -> Result<_, String> {
                for r in batch.iter() {
                    extractor.push(r).map_err(|e| format!("{e:?}"))?;
                }
                Ok(extractor.drain_sealed())
            })?;
            records += batch.len() as u64;
            live.admit(t, sealed, config, &mut micros);
            let clock = u64::from(extractor.current_window().raw());
            let floor = extractor
                .open_min_window_where(|_| true)
                .map(|w| u64::from(w.raw()));
            live.seal(
                t,
                |day| {
                    let day_end = (u64::from(day) + 1) * wpd - 1;
                    clock > day_end + max_gap && floor.is_none_or(|f| f > day_end)
                },
                &io,
                &segments,
            )?;
        }
        let rest = t.span("online.extract", |_| extractor.finish());
        live.admit(t, rest, config, &mut micros);
        live.seal(t, |_| true, &io, &segments)?;
        for writer in &mut writers {
            t.span("wal.sync", |_| writer.sync())
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    })?;

    Ok(IngestTrace {
        records,
        per_shard,
        micros,
        integration: live.integrator.stats(),
    })
}

/// Re-drives the read side of `MonitorService::recover` on a crash
/// image: the checkpoint load, then every shard log read and decoded.
/// Returns the records past the checkpoint.
pub fn recovery(t: &mut Tracer, wal_dir: &Path) -> Result<u64, String> {
    let io = Io::real();
    t.span("recover", |t| {
        let ckpt = t
            .span("durability.checkpoint_load", |_| {
                load_checkpoint(&io, wal_dir)
            })
            .map_err(|e| e.to_string())?;
        let last_seq = ckpt.map_or(0, |c| c.last_seq);
        let mut replayed = 0u64;
        for shard in 0..SHARDS {
            t.span("wal.replay", |_| -> Result<(), String> {
                let segments =
                    read_wal(&io, &shard_wal_dir(wal_dir, shard)).map_err(|e| e.to_string())?;
                for payload in segments.iter().flat_map(|s| &s.entries) {
                    let entry = decode_entry(payload).map_err(|e| e.to_string())?;
                    if entry.seq > last_seq {
                        replayed += match entry.op {
                            WalOp::Record(_) => 1,
                            WalOp::Batch { records, .. } => records.len() as u64,
                            _ => 0,
                        };
                    }
                }
                Ok(())
            })?;
        }
        Ok(replayed)
    })
}

/// Counters of the query re-drive.
#[derive(Default)]
pub struct QueryTrace {
    pub queries: u64,
    pub by_kind: BTreeMap<&'static str, u64>,
    pub candidates: u64,
    pub inputs: u64,
    pub comparisons: u64,
    pub chunks_decoded: u64,
    pub chunks_skipped: u64,
    pub bytes_decoded: u64,
    pub files_opened: u64,
}

/// The query context, built from the configuration the service ran with.
pub struct QueryContext {
    pub partition: SensorPartition,
    pub params: Params,
    pub spec: WindowSpec,
    pub num_sensors: u32,
    pub store: ForestStore,
}

impl QueryContext {
    pub fn new(feed: &Feed, config: &MonitorConfig) -> Result<Self, String> {
        let network = &*feed.network;
        let dir = config
            .snapshot_dir
            .as_ref()
            .ok_or("sessions persist days")?;
        Ok(Self {
            partition: UniformGrid::over(network, config.red_cell_miles).partition(network),
            params: config.params,
            spec: config.spec,
            num_sensors: network.num_sensors() as u32,
            store: ForestStore::open(dir).map_err(|e| e.to_string())?,
        })
    }
}

/// Re-drives `queries` at quiescence. `handle` is the warm cache that
/// already served them (so its lookups hit); `view` is a fresh pin.
pub fn queries(
    t: &mut Tracer,
    ctx: &QueryContext,
    handle: &ServeHandle,
    view: &ReadView,
    queries: &[Query],
) -> Result<QueryTrace, String> {
    let mut out = QueryTrace::default();
    let spec = ctx.spec;
    let io_before = ctx.store.io_stats();
    for &q in queries {
        t.span("query", |t| -> Result<(), String> {
            t.span("serve.lookup", |_| {
                queries::serve(handle, q).map(std::hint::black_box)
            })
            .map_err(|e| e.to_string())?;
            let expected = match q.kind {
                Kind::Red => t.span("view.red_regions", |_| queries::recompute(view, q)),
                Kind::Guided => t.span("view.query_guided", |_| queries::recompute(view, q)),
                Kind::Significant => t.span("view.significant", |_| queries::recompute(view, q)),
            }
            .map_err(|e| e.to_string())?;
            *out.by_kind
                .entry(match q.kind {
                    Kind::Red => "red",
                    Kind::Guided => "guided",
                    Kind::Significant => "significant",
                })
                .or_default() += 1;
            out.queries += 1;

            let red = t.span("redzone.compose", |_| {
                view.red_regions(q.first_day, q.n_days)
            });
            if q.kind == Kind::Red {
                return check(q, &expected, Answer::Red(Arc::new(red)));
            }
            let red_sensors: Vec<SensorId> = red
                .iter()
                .flat_map(|&(region, _)| ctx.partition.sensors_in(region).iter().copied())
                .collect();
            let pred = Predicate::all().with_sensors(red_sensors);
            let (inputs, candidates) = t.span("store.load_filtered", |_| -> Result<_, String> {
                let mut inputs = Vec::new();
                let mut candidates = 0usize;
                for day in q.first_day..q.first_day + q.n_days {
                    if let Some(f) = ctx
                        .store
                        .load_filtered(ForestLevel::Day, day, &pred)
                        .map_err(|e| e.to_string())?
                    {
                        candidates += f.total;
                        out.chunks_decoded += f.scan.chunks_decoded as u64;
                        out.chunks_skipped += f.scan.chunks_skipped as u64;
                        inputs.extend(f.clusters);
                    }
                }
                Ok((inputs, candidates))
            })?;
            let input_clusters = inputs.len();
            let range = spec.day_range(q.first_day, q.n_days);
            let alignment = TimeAlignment::TimeOfDay {
                windows_per_day: spec.windows_per_day(),
            };
            let (macros, stats) = t.span("integrate.aligned", |_| {
                integrate_aligned_indexed(
                    inputs,
                    &ctx.params,
                    alignment,
                    &mut ClusterIdGen::new(QUERY_ID_BASE),
                )
            });
            out.candidates += candidates as u64;
            out.inputs += input_clusters as u64;
            out.comparisons += stats.comparisons;
            let composed = GuidedQuery {
                range,
                macros,
                threshold: significance_threshold(&ctx.params, range, ctx.num_sensors),
                num_red_regions: red.len(),
                candidate_clusters: candidates,
                input_clusters,
            };
            let answer = match q.kind {
                Kind::Guided => Answer::Guided(Arc::new(composed)),
                _ => Answer::Clusters(Arc::new(
                    composed.significant().into_iter().cloned().collect(),
                )),
            };
            check(q, &expected, answer)
        })?;
    }
    let io = ctx.store.io_stats().since(io_before);
    out.bytes_decoded = io.bytes_decoded;
    out.files_opened = io.files_opened;
    Ok(out)
}

fn check(q: Query, expected: &Answer, composed: Answer) -> Result<(), String> {
    if *expected == composed {
        Ok(())
    } else {
        Err(format!(
            "{q:?}: the stage-by-stage answer differs from the ReadView answer"
        ))
    }
}
