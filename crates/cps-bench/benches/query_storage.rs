//! Storage substrate: encode/decode throughput.

use cps_core::{AtypicalRecord, SensorId, Severity, TimeWindow};
use cps_storage::format::{decode_atypical, encode_atypical};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

fn bench_codec(c: &mut Criterion) {
    let records: Vec<AtypicalRecord> = (0..4096u32)
        .map(|i| {
            AtypicalRecord::new(
                SensorId::new(i),
                TimeWindow::new(i * 3),
                Severity::from_secs(120),
            )
        })
        .collect();
    let mut group = c.benchmark_group("storage_codec");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("encode_block", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(records.len() * 16);
            for r in &records {
                encode_atypical(r, &mut buf);
            }
            black_box(buf.len())
        })
    });
    let mut buf = Vec::with_capacity(records.len() * 16);
    for r in &records {
        encode_atypical(r, &mut buf);
    }
    group.bench_function("decode_block", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for chunk in buf.chunks_exact(16) {
                total += decode_atypical(chunk).severity.as_secs();
            }
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
