//! Ablations for the design choices DESIGN.md calls out:
//!
//! * **red-zone filter rate** — §V-B claims "about 80 % micro-clusters
//!   could be filtered out with reasonable δs",
//! * **red-zone granularity** — finer grids give tighter Property-5 bounds
//!   but more `F(Wᵢ, T)` work,
//! * **indexed vs naive event retrieval** — Proposition 1's complexity gap.

use crate::table::{pct, secs, Table};
use crate::workbench::Workbench;
use atypical::event::extract_events;
use atypical::{Query, QueryEngine, Strategy};
use cps_core::{Params, Result};
use cps_index::{NaiveNeighbors, StIndex};
use std::time::Instant;

/// Red-zone filter rate and granularity sweep (14-day query).
pub fn run_redzone(wb: &Workbench, params: &Params) -> Result<Vec<Table>> {
    let mut forest = wb.build_forest_for_days(14, params)?;

    let mut table = Table::new(
        "Ablation: red-zone granularity (14-day query)",
        &[
            "cell (mi)",
            "regions",
            "red regions",
            "filtered out",
            "query time (s)",
        ],
    );
    for &cell in &[1.5, 3.0, 6.0, 12.0] {
        let partition = wb.partition_with_cell(cell);
        let engine = QueryEngine::new(wb.network(), &partition, *params);
        let result = engine.execute(&mut forest, &Query::days(0, 14), Strategy::Gui);
        let pruned = result.candidate_clusters - result.input_clusters;
        let filter_rate = pruned as f64 / result.candidate_clusters.max(1) as f64;
        table.row(vec![
            format!("{cell}"),
            partition.num_regions().to_string(),
            result.num_red_regions.unwrap_or_default().to_string(),
            pct(filter_rate),
            secs(result.elapsed),
        ]);
    }
    Ok(vec![table])
}

/// Proposition 1: indexed vs naive event extraction over one day.
pub fn run_retrieval(wb: &Workbench, params: &Params) -> Result<Vec<Table>> {
    let spec = wb.spec();
    let records = wb.sim.atypical_day(0);
    let mut table = Table::new(
        "Ablation: event retrieval, indexed vs naive (Proposition 1)",
        &["method", "records", "events", "time (s)"],
    );

    let start = Instant::now();
    let index = StIndex::build(&records, wb.network(), params, spec);
    let events_indexed = extract_events(&index);
    let indexed_time = start.elapsed();

    let start = Instant::now();
    let naive = NaiveNeighbors::new(&records, wb.network(), params, spec);
    let events_naive = extract_events(&naive);
    let naive_time = start.elapsed();

    assert_eq!(events_indexed.len(), events_naive.len());
    table.row(vec![
        "indexed".into(),
        records.len().to_string(),
        events_indexed.len().to_string(),
        secs(indexed_time),
    ]);
    table.row(vec![
        "naive".into(),
        records.len().to_string(),
        events_naive.len().to_string(),
        secs(naive_time),
    ]);
    Ok(vec![table])
}
