//! Plain-text table formatting for the experiment harness — the bench
//! binaries print tables shaped like the paper's.

use std::fmt::Write as _;

/// Render a fixed-width table: a header row, a separator, and data rows.
/// Column widths adapt to content. Panics if a row's length differs from
/// the header's.
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.len(), headers.len(), "row {i} has wrong arity");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |cells: Vec<String>, out: &mut String| {
        let mut first = true;
        for (w, cell) in widths.iter().zip(cells) {
            if !first {
                out.push_str("  ");
            }
            first = false;
            let _ = write!(out, "{cell:<w$}", w = w);
        }
        out.push('\n');
    };
    line(headers.iter().map(|s| s.to_string()).collect(), &mut out);
    line(widths.iter().map(|w| "-".repeat(*w)).collect(), &mut out);
    for row in rows {
        line(row.clone(), &mut out);
    }
    out
}

/// Format a metric to the paper's 4-decimal convention.
pub fn metric(x: f64) -> String {
    format!("{x:.4}")
}

/// Percentage improvement of `ours` over `best_baseline`, as the paper's
/// "% Impro." row.
pub fn improvement_pct(ours: f64, best_baseline: f64) -> f64 {
    if best_baseline <= 0.0 {
        return 0.0;
    }
    (ours - best_baseline) / best_baseline * 100.0
}

/// Header of the per-run summary table kept in `EXPERIMENTS.md` (see
/// "Run ledger" there): one row per recorded run, wiring the per-phase
/// timings of `BENCH_ckat_epoch.json` and the trainer's fault-tolerance
/// counters into the experiments ledger.
pub const RUN_SUMMARY_HEADER: &str = "| model | epochs | best recall@K | best epoch | sampling ms \
     | attention ms | forward ms | backward ms | eval ms | divergences | retries | resumed |\n\
     |---|---|---|---|---|---|---|---|---|---|---|---|";

/// One markdown row for the `EXPERIMENTS.md` run ledger: per-phase wall
/// time summed over the run's [`EpochProfile`]s plus the divergence /
/// retry counters of the [`TrainReport`].
///
/// [`EpochProfile`]: facility_models::EpochProfile
pub fn run_summary_row(report: &facility_eval::TrainReport) -> String {
    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);
    let mut sampling = 0u64;
    let mut attention = 0u64;
    let mut forward = 0u64;
    let mut backward = 0u64;
    let mut eval = 0u64;
    for log in &report.logs {
        if let Some(p) = &log.profile {
            sampling += p.sampling_ns;
            attention += p.attention_ns;
            forward += p.forward_ns;
            // The ledger's backward column predates the backward/optimizer
            // split and keeps meaning "everything after the forward pass";
            // prefetch wait and critical-path extraction ride along for the
            // same reason.
            backward += p.backward_ns + p.optimizer_ns + p.extract_wait_ns + p.extract_wall_ns;
            eval += p.eval_ns;
        }
    }
    let retries = report.divergences.iter().map(|d| d.retry).max().unwrap_or(0);
    format!(
        "| {} | {} | {:.4} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
        report.model,
        report.logs.len(),
        report.best.recall,
        report.best_epoch,
        ms(sampling),
        ms(attention),
        ms(forward),
        ms(backward),
        ms(eval),
        report.divergences.len(),
        retries,
        report.resumed_from.map_or("—".to_string(), |e| format!("epoch {e}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_layout_aligns_columns() {
        let t = format_table(
            &["Model", "recall@20"],
            &[vec!["BPRMF".into(), "0.1935".into()], vec!["CKAT".into(), "0.3217".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Model"));
        assert!(lines[1].starts_with("-----"));
        assert!(lines[3].contains("0.3217"));
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn mismatched_row_panics() {
        format_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn run_summary_row_aggregates_phases_and_counters() {
        use facility_eval::trainer::{DivergenceCause, DivergenceEvent, EpochLog};
        use facility_eval::{EvalResult, TrainReport};
        use facility_models::EpochProfile;
        let report = TrainReport {
            best: EvalResult {
                recall: 0.31,
                ndcg: 0.2,
                precision: 0.1,
                hit: 1.0,
                n_users: 4,
                k: 5,
            },
            best_epoch: 2,
            logs: vec![
                EpochLog {
                    epoch: 1,
                    loss: 0.5,
                    eval: None,
                    profile: Some(EpochProfile {
                        sampling_ns: 1_000_000,
                        forward_ns: 2_000_000,
                        ..Default::default()
                    }),
                },
                EpochLog {
                    epoch: 2,
                    loss: 0.4,
                    eval: None,
                    profile: Some(EpochProfile {
                        sampling_ns: 500_000,
                        backward_ns: 4_000_000,
                        ..Default::default()
                    }),
                },
            ],
            model: "CKAT".into(),
            divergences: vec![DivergenceEvent {
                epoch: 2,
                retry: 1,
                loss: f32::NAN,
                cause: DivergenceCause::NonFiniteLoss,
            }],
            resumed_from: Some(1),
            interrupted: false,
        };
        let row = run_summary_row(&report);
        assert!(row.starts_with("| CKAT | 2 | 0.3100 | 2 |"), "{row}");
        assert!(row.contains("| 1.5 |"), "summed sampling ms: {row}");
        assert!(row.contains("| 4.0 |"), "backward ms: {row}");
        assert!(row.ends_with("| 1 | 1 | epoch 1 |"), "{row}");
        assert_eq!(
            RUN_SUMMARY_HEADER.lines().next().unwrap().matches('|').count(),
            row.matches('|').count(),
            "header and row arity agree"
        );
    }

    #[test]
    fn improvement_matches_paper_arithmetic() {
        // Paper Table II: CKAT 0.3217 over KGCN 0.3020 → 6.1237 %.
        let pct = improvement_pct(0.3217, 0.3020);
        assert!((pct - 6.5231).abs() < 0.5, "pct {pct}");
        assert_eq!(improvement_pct(1.0, 0.0), 0.0);
    }

    #[test]
    fn metric_uses_four_decimals() {
        assert_eq!(metric(0.32169), "0.3217");
    }
}
