//! Per-phase CKAT epoch profiling: batch-local subgraph propagation vs
//! the full-graph oracle, on one simulated facility.
//!
//! Trains a few epochs in each mode with identical seeds, collects the
//! [`EpochProfile`] each epoch (sampling / attention refresh / forward /
//! backward / optimizer / prefetch timings, estimated forward FLOPs, and
//! gathered-vs-full row/edge counts), and writes the lot to
//! `BENCH_ckat_epoch.json` so later PRs have a perf trajectory to compare
//! against. Both modes train at the paper's dropout: masks are keyed by
//! micro-batch, layer, entity and column, so the sparse/lazy batch-local
//! frontier path is bitwise-equal to the dense full-graph oracle with
//! dropout on (`tests/batch_local_diff.rs`), and this binary asserts the
//! two loss trajectories are bitwise equal as an end-to-end check of the
//! same claim. Exits nonzero if the losses differ in any bit, if the
//! batch-local layers compute no fewer head rows than the full-graph
//! layers (a gate that holds even where the closure is every entity), or
//! if batch-local mode copies no fewer edges than the full graph.
//!
//! `--epochs N` overrides the default 3 epochs per mode; `--huge` profiles
//! the ~106k-entity stress world where the sparse path's advantage is
//! decisive rather than incremental.
//!
//! `--replicas N` switches the binary to the **replica sweep**: instead of
//! the batch-local/full-graph comparison it trains the same CKAT on the
//! deterministic macro-step path at every replica count in
//! `{1, 2, 4, 8} ∩ [1, N]`, asserts the loss trajectories are **bitwise
//! identical** across counts (the schedule is thread-count-invariant by
//! construction, dropout included), reports wall-clock speedups vs
//! `R = 1`, and merges one
//! record per facility into `BENCH_ckat_replicas.json`. The `> 1.5×`
//! speedup gate at `R = 4` only fires on the `--huge` world with at least
//! 4 cores — on fewer cores the sweep still proves determinism and
//! records honest (≈1×) numbers.
//!
//! The sweep runs with the hub-representation cache on (the default
//! config) and always enforces the extraction-scaling gate: aggregate
//! extraction CPU (`extract_ns`, summed across the pool) at the largest
//! replica count must stay within [`EXTRACT_CPU_RTOL`]× of `R = 1`,
//! because one shared union traversal per macro-step serves every
//! micro-batch regardless of `R`.

use facility_bench::{HarnessOpts, Profile};
use facility_ckat::{Experiment, ExperimentConfig};
use facility_linalg::seeded_rng;
use facility_models::ckat::Ckat;
use facility_models::replica::MACRO_WIDTH;
use facility_models::{EpochProfile, Recommender};
use std::time::Instant;

const DEFAULT_EPOCHS: usize = 3;

fn run_entry(mode: &str, epoch: usize, loss: f32, p: &EpochProfile) -> String {
    format!(
        concat!(
            "    {{\"mode\": \"{}\", \"epoch\": {}, \"loss\": {:.6}, ",
            "\"sampling_ns\": {}, \"attention_ns\": {}, \"forward_ns\": {}, ",
            "\"backward_ns\": {}, \"optimizer_ns\": {}, \"extract_ns\": {}, ",
            "\"extract_wall_ns\": {}, \"extract_wait_ns\": {}, ",
            "\"hub_cache_ns\": {}, \"eval_ns\": {}, \"forward_flops\": {}, ",
            "\"gathered_rows\": {}, \"gathered_edges\": {}, \"frontier_rows\": {}, ",
            "\"full_rows\": {}, \"full_edges\": {}, \"batches\": {}, ",
            "\"row_fraction\": {:.6}, \"edge_fraction\": {:.6}}}"
        ),
        mode,
        epoch,
        loss,
        p.sampling_ns,
        p.attention_ns,
        p.forward_ns,
        p.backward_ns,
        p.optimizer_ns,
        p.extract_ns,
        p.extract_wall_ns,
        p.extract_wait_ns,
        p.hub_cache_ns,
        p.eval_ns,
        p.forward_flops,
        p.gathered_rows,
        p.gathered_edges,
        p.frontier_rows,
        p.full_rows,
        p.full_edges,
        p.batches,
        p.row_fraction(),
        p.edge_fraction(),
    )
}

fn main() {
    let opts = HarnessOpts::from_args();
    let epochs = opts.epochs.unwrap_or(DEFAULT_EPOCHS);
    let (name, facility) = opts.facilities().remove(0);
    let exp = Experiment::prepare(&ExperimentConfig {
        facility,
        seed: opts.seed,
        ..ExperimentConfig::default()
    });
    let ctx = exp.ctx();
    eprintln!(
        "== epoch profile on {name}: {} entities, {} edges ==",
        exp.ckg.n_entities(),
        exp.ckg.n_edges()
    );

    // Profile at a small batch and depth 2 on the paper-scale worlds:
    // receptive-field locality is a function of seeds-per-batch relative to
    // graph size, and those worlds are tiny (a few thousand entities) with
    // hub attribute nodes (shared sites/data types), so a paper-sized batch
    // of 512 seeds at depth 3 saturates the L-hop closure. 32 seeds at
    // depth 2 is the regime the subgraph engine targets at facility scale.
    // The huge world IS facility scale, so it keeps its configured batch.
    let profile_batch =
        if opts.profile == Profile::Huge { opts.model_config().batch_size } else { 32 };

    if let Some(max_r) = opts.replicas {
        run_replica_sweep(&opts, name, &exp, epochs, max_r, profile_batch);
        return;
    }

    let mut entries: Vec<String> = Vec::new();
    let mut totals: Vec<(&str, EpochProfile)> = Vec::new();
    let mut losses: Vec<Vec<f32>> = Vec::new();
    for (mode, batch_local) in [("batch_local", true), ("full_graph", false)] {
        let mut cfg = opts.ckat_config();
        cfg.batch_local = batch_local;
        cfg.base.batch_size = profile_batch;
        let d = cfg.base.embed_dim;
        cfg.layer_dims = vec![d, d / 2];
        let mut model = Ckat::new(&ctx, &cfg);
        let mut rng = seeded_rng(opts.seed);
        let mut sum = EpochProfile::default();
        let mut mode_losses = Vec::with_capacity(epochs);
        for epoch in 1..=epochs {
            let loss = model.train_epoch(&ctx, &mut rng);
            let mut p = model.take_epoch_profile().expect("CKAT records profiles");
            // Time the full evaluation like the trainer does: cached-matrix
            // extraction plus the top-K ranking pass (which goes through
            // the blocked multi-query retrieval engine).
            let clock = Instant::now();
            model.prepare_eval(&ctx);
            std::hint::black_box(facility_eval::evaluate(&model, ctx.inter, opts.k));
            p.eval_ns = clock.elapsed().as_nanos() as u64;
            eprintln!(
                "  {mode} epoch {epoch}: loss {loss:.4}, forward {:.1} ms, \
                 backward {:.1} ms, optimizer {:.1} ms, extract {:.1} ms \
                 (waited {:.1} ms), rows {}/{}, layer rows {}, edges {}/{}",
                p.forward_ns as f64 / 1e6,
                p.backward_ns as f64 / 1e6,
                p.optimizer_ns as f64 / 1e6,
                p.extract_ns as f64 / 1e6,
                p.extract_wait_ns as f64 / 1e6,
                p.gathered_rows,
                p.full_rows,
                p.frontier_rows,
                p.gathered_edges,
                p.full_edges,
            );
            entries.push(run_entry(mode, epoch, loss, &p));
            mode_losses.push(loss);
            sum.sampling_ns += p.sampling_ns;
            sum.attention_ns += p.attention_ns;
            sum.forward_ns += p.forward_ns;
            sum.backward_ns += p.backward_ns;
            sum.optimizer_ns += p.optimizer_ns;
            sum.extract_ns += p.extract_ns;
            sum.extract_wall_ns += p.extract_wall_ns;
            sum.extract_wait_ns += p.extract_wait_ns;
            sum.hub_cache_ns += p.hub_cache_ns;
            sum.eval_ns += p.eval_ns;
            sum.forward_flops += p.forward_flops;
            sum.gathered_rows += p.gathered_rows;
            sum.gathered_edges += p.gathered_edges;
            sum.frontier_rows += p.frontier_rows;
            sum.full_rows += p.full_rows;
            sum.full_edges += p.full_edges;
            sum.batches += p.batches;
        }
        totals.push((mode, sum));
        losses.push(mode_losses);
    }

    let local = totals[0].1;
    let full = totals[1].1;
    let forward_speedup = full.forward_ns as f64 / local.forward_ns.max(1) as f64;
    let backward_speedup = full.backward_ns as f64 / local.backward_ns.max(1) as f64;
    let end_to_end_speedup = full.train_ns() as f64 / local.train_ns().max(1) as f64;
    let json = format!(
        concat!(
            "{{\n",
            "  \"facility\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"n_entities\": {},\n",
            "  \"n_edges\": {},\n",
            "  \"epochs_per_mode\": {},\n",
            "  \"runs\": [\n{}\n  ],\n",
            "  \"summary\": {{\n",
            "    \"batch_local_row_fraction\": {:.6},\n",
            "    \"batch_local_edge_fraction\": {:.6},\n",
            "    \"batch_local_layer_row_fraction\": {:.6},\n",
            "    \"batch_local_flop_fraction\": {:.6},\n",
            "    \"optimizer_ns\": {{\"batch_local\": {}, \"full_graph\": {}}},\n",
            "    \"forward_speedup_vs_full\": {:.3},\n",
            "    \"backward_speedup_vs_full\": {:.3},\n",
            "    \"end_to_end_speedup_vs_full\": {:.3}\n",
            "  }}\n",
            "}}\n"
        ),
        name,
        opts.seed,
        exp.ckg.n_entities(),
        exp.ckg.n_edges(),
        epochs,
        entries.join(",\n"),
        local.row_fraction(),
        local.edge_fraction(),
        local.frontier_rows as f64 / full.frontier_rows.max(1) as f64,
        local.forward_flops as f64 / full.forward_flops.max(1) as f64,
        local.optimizer_ns,
        full.optimizer_ns,
        forward_speedup,
        backward_speedup,
        end_to_end_speedup,
    );
    std::fs::write("BENCH_ckat_epoch.json", &json).expect("write BENCH_ckat_epoch.json");
    println!(
        "batch-local gathered {:.1}% of rows, {:.1}% of edges, computed {:.1}% of layer \
         rows; speedups vs full: forward {forward_speedup:.2}x, backward \
         {backward_speedup:.2}x, end-to-end {end_to_end_speedup:.2}x -> BENCH_ckat_epoch.json",
        100.0 * local.row_fraction(),
        100.0 * local.edge_fraction(),
        100.0 * local.frontier_rows as f64 / full.frontier_rows.max(1) as f64,
    );

    for (epoch, (l, f)) in losses[0].iter().zip(&losses[1]).enumerate() {
        assert_eq!(
            l.to_bits(),
            f.to_bits(),
            "epoch {} loss diverged between modes: batch_local {l} vs full_graph {f}",
            epoch + 1
        );
    }
    assert!(
        local.frontier_rows < full.frontier_rows,
        "batch-local layers must compute strictly fewer head rows than the full graph's \
         ({} vs {})",
        local.frontier_rows,
        full.frontier_rows
    );
    assert!(
        local.gathered_edges < local.full_edges,
        "batch-local mode must propagate strictly fewer edges than the full graph \
         ({} vs {})",
        local.gathered_edges,
        local.full_edges
    );
}

/// One replica count's aggregate over the sweep's epochs.
struct ReplicaRun {
    r: usize,
    wall_ns: u64,
    reduce_ns: u64,
    extract_ns: u64,
    extract_wall_ns: u64,
    extract_wait_ns: u64,
    hub_cache_ns: u64,
    losses: Vec<f32>,
}

/// Aggregate extraction CPU may grow at most this much from `R = 1` to
/// the largest swept replica count. Extraction is shared per macro-step
/// (one union traversal regardless of `R`), so the aggregate cost is
/// structurally flat; the headroom absorbs timer noise on short runs.
const EXTRACT_CPU_RTOL: f64 = 1.3;

/// Train the macro-step path at every replica count in `{1,2,4,8} ∩
/// [1, max_r]`, assert bitwise-identical loss trajectories, report
/// wall-clock scaling, and merge a record into
/// `BENCH_ckat_replicas.json`.
fn run_replica_sweep(
    opts: &HarnessOpts,
    name: &str,
    exp: &Experiment,
    epochs: usize,
    max_r: usize,
    profile_batch: usize,
) {
    let ctx = exp.ctx();
    let sweep: Vec<usize> = [1usize, 2, 4, 8].into_iter().filter(|&r| r <= max_r).collect();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    eprintln!(
        "== replica sweep on {name}: R in {sweep:?}, {cores} cores, \
         macro width {MACRO_WIDTH}, {epochs} epochs each =="
    );

    let mut runs: Vec<ReplicaRun> = Vec::new();
    let mut hub_entities = 0usize;
    for &r in &sweep {
        let mut cfg = opts.ckat_config();
        cfg.batch_local = true;
        cfg.base.batch_size = profile_batch;
        // Dropout keys come from each micro-batch's private stream, so the
        // per-epoch loss is a pure function of the seed at any `R`.
        let d = cfg.base.embed_dim;
        cfg.layer_dims = vec![d, d / 2];
        cfg.base.replicas = r;
        let mut model = Ckat::new(&ctx, &cfg);
        let mut rng = seeded_rng(opts.seed);
        let mut run = ReplicaRun {
            r,
            wall_ns: 0,
            reduce_ns: 0,
            extract_ns: 0,
            extract_wall_ns: 0,
            extract_wait_ns: 0,
            hub_cache_ns: 0,
            losses: Vec::with_capacity(epochs),
        };
        if r == sweep[0] {
            hub_entities = model.hub_count();
            eprintln!("  hub cache: {hub_entities} hub entities");
        }
        for epoch in 1..=epochs {
            let loss = model.train_epoch(&ctx, &mut rng);
            let p = model.take_epoch_profile().expect("CKAT records profiles");
            eprintln!(
                "  R={r} epoch {epoch}: loss {loss:.4}, wall {:.1} ms \
                 (reduce {:.1} ms, extract {:.1} ms CPU / {:.1} ms wall, \
                 hub cache {:.1} ms)",
                p.wall_ns as f64 / 1e6,
                p.reduce_ns as f64 / 1e6,
                p.extract_ns as f64 / 1e6,
                p.extract_wall_ns as f64 / 1e6,
                p.hub_cache_ns as f64 / 1e6,
            );
            run.losses.push(loss);
            run.wall_ns += p.wall_ns;
            run.reduce_ns += p.reduce_ns;
            run.extract_ns += p.extract_ns;
            run.extract_wall_ns += p.extract_wall_ns;
            run.extract_wait_ns += p.extract_wait_ns;
            run.hub_cache_ns += p.hub_cache_ns;
        }
        runs.push(run);
    }

    // Determinism gate: every replica count reproduces R=1's loss
    // trajectory bit for bit.
    let reference = &runs[0];
    assert_eq!(reference.r, 1, "sweep always includes R=1");
    for run in &runs[1..] {
        for (epoch, (a, b)) in reference.losses.iter().zip(&run.losses).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "epoch {} loss diverged: R=1 got {a}, R={} got {b}",
                epoch + 1,
                run.r
            );
        }
    }

    // Scaling-regression gate: one union traversal serves the whole
    // macro-step, so aggregate extraction CPU must stay flat in R instead
    // of growing with the replica count as it did when every micro-batch
    // re-extracted its own receptive field.
    for run in &runs[1..] {
        let ratio = run.extract_ns as f64 / reference.extract_ns.max(1) as f64;
        assert!(
            ratio <= EXTRACT_CPU_RTOL,
            "aggregate extraction CPU regressed with replica count: R={} spent {:.2}x \
             the R=1 extraction CPU (gate {EXTRACT_CPU_RTOL}x)",
            run.r,
            ratio
        );
    }

    let speedup = |run: &ReplicaRun| reference.wall_ns as f64 / run.wall_ns.max(1) as f64;
    let run_fields = runs
        .iter()
        .map(|run| {
            format!(
                concat!(
                    "{{\"r\": {}, \"wall_ns\": {}, \"reduce_ns\": {}, ",
                    "\"extract_ns\": {}, \"extract_wall_ns\": {}, ",
                    "\"extract_wait_ns\": {}, \"hub_cache_ns\": {}, ",
                    "\"final_loss\": {:.6}, \"speedup_vs_r1\": {:.3}}}"
                ),
                run.r,
                run.wall_ns,
                run.reduce_ns,
                run.extract_ns,
                run.extract_wall_ns,
                run.extract_wait_ns,
                run.hub_cache_ns,
                run.losses.last().copied().unwrap_or(f32::NAN),
                speedup(run),
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let record = format!(
        concat!(
            "{{\"facility\": \"{}\", \"profile\": \"{}\", \"seed\": {}, ",
            "\"cores\": {}, \"n_entities\": {}, \"n_edges\": {}, ",
            "\"epochs\": {}, \"macro_width\": {}, \"hub_entities\": {}, ",
            "\"losses_bitwise_equal\": true, ",
            "\"runs\": [{}]}}"
        ),
        name,
        format!("{:?}", opts.profile).to_lowercase(),
        opts.seed,
        cores,
        exp.ckg.n_entities(),
        exp.ckg.n_edges(),
        epochs,
        MACRO_WIDTH,
        hub_entities,
        run_fields,
    );
    merge_replica_records("BENCH_ckat_replicas.json", name, record);

    for run in &runs[1..] {
        println!(
            "R={}: {:.2}x wall-clock vs R=1 ({:.1} ms -> {:.1} ms), losses bitwise equal",
            run.r,
            speedup(run),
            reference.wall_ns as f64 / 1e6,
            run.wall_ns as f64 / 1e6,
        );
    }
    println!("-> BENCH_ckat_replicas.json ({name})");

    // The scaling gate only means something with real cores under the
    // pool and enough work per macro-step to amortize the fold; elsewhere
    // the sweep still proves determinism and records honest numbers.
    if let Some(r4) = runs.iter().find(|run| run.r == 4) {
        if cores >= 4 && opts.profile == Profile::Huge {
            let s = speedup(r4);
            assert!(
                s > 1.5,
                "replica pool must beat 1.5x at R=4 on the huge world with {cores} cores \
                 (got {s:.2}x)"
            );
        } else {
            eprintln!(
                "speedup gate skipped: {cores} cores, {:?} profile (needs >= 4 cores and --huge)",
                opts.profile
            );
        }
    }
}

/// Merge `record` into the JSON-array file at `path`, replacing any
/// previous record for the same facility (records are one line each, so
/// the file stays diffable as history accumulates).
fn merge_replica_records(path: &str, facility: &str, record: String) {
    let needle = format!("\"facility\": \"{facility}\"");
    let mut records: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let t = line.trim().trim_end_matches(',');
            if t.starts_with('{') && !t.contains(&needle) {
                records.push(t.to_string());
            }
        }
    }
    records.push(record);
    let body = records.iter().map(|r| format!("  {r}")).collect::<Vec<_>>().join(",\n");
    std::fs::write(path, format!("[\n{body}\n]\n")).unwrap_or_else(|e| {
        panic!("write {path}: {e}");
    });
}
