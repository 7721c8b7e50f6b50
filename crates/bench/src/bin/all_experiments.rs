//! Runs the entire experiment suite (Tables 1–3, 5, 6 and Figures 1–3) in
//! one process, sharing the generated datasets and cached exact answers,
//! and prints everything the individual binaries would.
//!
//! This is what EXPERIMENTS.md is produced from:
//!
//! ```text
//! cargo run --release -p cp-bench --bin all_experiments -- --scale=1.0 \
//!     | tee experiments_raw.txt
//! ```

use cp_bench::{pct, print_table, scaled_budget, Options};
use cp_core::experiment::{
    candidate_quality, dataset_stats, gpk_stats, run_kind, run_selector, Snapshots,
};
use cp_core::selectors::{ClassifierConfig, ClassifierSelector, SelectorKind};
use std::time::Instant;

fn main() {
    let opts = Options::from_env();
    let started = Instant::now();
    eprintln!(
        "all_experiments: scale {}, seed {}, {} threads",
        opts.scale, opts.seed, opts.threads
    );

    let mut all: Vec<Snapshots> = opts.all_snapshots();
    let m100 = scaled_budget(100, opts.scale);
    let slack_levels = [0u32, 1, 2];

    // ---- Table 2 ----
    let mut rows = Vec::new();
    for snaps in all.iter_mut() {
        let s = dataset_stats(snaps);
        rows.push(vec![
            s.dataset,
            format!("{}/{}", s.nodes.0, s.nodes.1),
            format!("{}/{}", s.edges.0, s.edges.1),
            format!("{}/{}", s.diameter.0, s.diameter.1),
            s.delta_max.to_string(),
            s.not_connected.to_string(),
        ]);
    }
    print_table(
        "Table 2: dataset characteristics",
        &[
            "dataset",
            "nodes t1/t2",
            "edges t1/t2",
            "diam t1/t2",
            "max delta",
            "not-conn",
        ],
        &rows,
    );
    eprintln!("table 2 done at {:?}", started.elapsed());

    // ---- Table 3 ----
    let mut rows = Vec::new();
    for snaps in all.iter_mut() {
        for slack in slack_levels {
            let s = gpk_stats(snaps, slack);
            rows.push(vec![
                s.dataset,
                format!("max-{}", s.slack),
                s.delta.to_string(),
                s.endpoints.to_string(),
                s.pairs.to_string(),
                s.maxcover.to_string(),
            ]);
        }
    }
    print_table(
        "Table 3: G^p_k characteristics",
        &[
            "dataset",
            "delta",
            "value",
            "endpoints",
            "pairs",
            "maxcover",
        ],
        &rows,
    );
    eprintln!("table 3 done at {:?}", started.elapsed());

    // ---- Table 5 ----
    // The slack = 1 column doubles as the "best single-feature selector"
    // scan that Figure 3 needs, so it is recorded here instead of being
    // recomputed (IncBet's betweenness pass is the expensive part).
    let suite = SelectorKind::table5_suite();
    let mut best_per_dataset: Vec<(SelectorKind, f64)> = vec![(suite[0], -1.0); all.len()];
    let mut stats_rows: Vec<Vec<String>> = Vec::new();
    for (di, snaps) in all.iter_mut().enumerate() {
        let mut rows = Vec::new();
        let mut agg = cp_core::topk::PipelineStats::default();
        for &kind in &suite {
            let mut cells = vec![kind.name().to_string()];
            for slack in slack_levels {
                let row = run_kind(snaps, kind, m100, slack, opts.seed);
                if slack == 1 && row.coverage > best_per_dataset[di].1 {
                    best_per_dataset[di] = (kind, row.coverage);
                }
                agg.selector_secs += row.stats.selector_secs;
                agg.prefetch_secs += row.stats.prefetch_secs;
                agg.scan_secs += row.stats.scan_secs;
                agg.sssp_secs += row.stats.sssp_secs;
                agg.sssp_t2_secs += row.stats.sssp_t2_secs;
                agg.sssp_computed += row.stats.sssp_computed;
                agg.cache_hits += row.stats.cache_hits;
                agg.cache_misses += row.stats.cache_misses;
                agg.repaired_rows += row.stats.repaired_rows;
                agg.repair_frontier_nodes += row.stats.repair_frontier_nodes;
                agg.recomputed_rows += row.stats.recomputed_rows;
                agg.cache_bytes = agg.cache_bytes.max(row.stats.cache_bytes);
                agg.threads = row.stats.threads;
                agg.kernel_stats.msbfs_waves += row.stats.kernel_stats.msbfs_waves;
                agg.kernel_stats.msbfs_rows += row.stats.kernel_stats.msbfs_rows;
                agg.kernel_stats.bfs_rows += row.stats.kernel_stats.bfs_rows;
                agg.kernel_stats.dijkstra_rows += row.stats.kernel_stats.dijkstra_rows;
                agg.kernel_stats.repair_rows += row.stats.kernel_stats.repair_rows;
                agg.scan_chunks_scanned += row.stats.scan_chunks_scanned;
                agg.scan_chunks_skipped += row.stats.scan_chunks_skipped;
                agg.scan_pairs_pruned += row.stats.scan_pairs_pruned;
                agg.arena.u16_rows = agg.arena.u16_rows.max(row.stats.arena.u16_rows);
                agg.arena.u32_rows = agg.arena.u32_rows.max(row.stats.arena.u32_rows);
                agg.arena.reused_rows += row.stats.arena.reused_rows;
                agg.arena.slab_bytes = agg.arena.slab_bytes.max(row.stats.arena.slab_bytes);
                cells.push(pct(row.coverage));
            }
            rows.push(cells);
        }
        stats_rows.push(vec![
            snaps.name.clone(),
            agg.threads.to_string(),
            agg.sssp_computed.to_string(),
            agg.kernel_stats.msbfs_waves.to_string(),
            format!(
                "{}/{}/{}/{}",
                agg.kernel_stats.msbfs_rows,
                agg.kernel_stats.bfs_rows,
                agg.kernel_stats.dijkstra_rows,
                agg.kernel_stats.repair_rows
            ),
            agg.cache_hits.to_string(),
            agg.cache_misses.to_string(),
            format!(
                "{}/{:.0}",
                agg.repaired_rows,
                agg.repair_frontier_nodes as f64 / agg.repaired_rows.max(1) as f64
            ),
            format!("{}", agg.cache_bytes / 1024),
            format!(
                "{}/{}/{}",
                agg.scan_chunks_scanned, agg.scan_chunks_skipped, agg.scan_pairs_pruned
            ),
            format!(
                "{}/{}/{}/{}",
                agg.arena.u16_rows,
                agg.arena.u32_rows,
                agg.arena.reused_rows,
                agg.arena.slab_bytes / 1024
            ),
            format!("{:.3}", agg.selector_secs),
            format!("{:.3}", agg.prefetch_secs),
            format!("{:.3}", agg.scan_secs),
            format!("{:.3}/{:.3}", agg.sssp_secs, agg.sssp_t2_secs),
        ]);
        let header: Vec<String> = std::iter::once("selector".to_string())
            .chain(slack_levels.iter().map(|s| {
                format!("d=max-{s} (k={})", {
                    let k = snaps.truth(*s).k();
                    k
                })
            }))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!("Table 5 [{}]: coverage % at m = {m100}", snaps.name),
            &header_refs,
            &rows,
        );
        eprintln!("table 5 [{}] done at {:?}", snaps.name, started.elapsed());
    }
    print_table(
        "Pipeline instrumentation: Table 5 suite totals per dataset",
        &[
            "dataset",
            "threads",
            "sssp",
            "waves",
            "ms/bfs/dij/rep rows",
            "cache hit",
            "cache miss",
            "repaired/region",
            "cache KiB",
            "chunks scan/skip/pruned",
            "arena u16/u32/reuse/KiB",
            "select s",
            "prefetch s",
            "scan s",
            "sssp/t2 s",
        ],
        &stats_rows,
    );

    // ---- Table 1 (budget split, measured) ----
    {
        let snaps = &mut all[2]; // Facebook panel, as in table1.rs
        let l = cp_core::selectors::DEFAULT_LANDMARKS;
        let mut rows = Vec::new();
        let plan: &[(&str, SelectorKind)] = &[
            ("Degree-based", SelectorKind::Degree),
            ("Dispersion-based", SelectorKind::MaxAvg),
            ("Landmark-based", SelectorKind::SumDiff { landmarks: l }),
            ("Hybrid", SelectorKind::Mmsd { landmarks: l }),
        ];
        for &(name, kind) in plan {
            let row = run_kind(snaps, kind, m100, 1, opts.seed);
            rows.push(vec![
                name.to_string(),
                row.budget.generation.to_string(),
                row.budget.topk.to_string(),
                row.budget.total().to_string(),
            ]);
        }
        let config = ClassifierConfig {
            threads: opts.threads,
            ..ClassifierConfig::default()
        };
        let mut classifier = snaps.local_classifier(config, opts.seed);
        let row = run_selector(snaps, &mut classifier, m100, 1);
        rows.push(vec![
            "Classification-based".to_string(),
            row.budget.generation.to_string(),
            row.budget.topk.to_string(),
            row.budget.total().to_string(),
        ]);
        print_table(
            &format!(
                "Table 1 [{}]: measured SSSP split, cap 2m = {}",
                snaps.name,
                2 * m100
            ),
            &["approach", "generation", "topk", "total"],
            &rows,
        );
    }
    eprintln!("table 1 done at {:?}", started.elapsed());

    // ---- Table 6 ----
    let mut rows = Vec::new();
    for snaps in all.iter_mut() {
        let spec = snaps.truth(1).spec();
        let full = cp_core::selectors::incidence_full(&snaps.g1, &snaps.g2, &spec);
        let truth = snaps.truth(1);
        let cov = cp_core::coverage::coverage(&full.result.pairs, truth);
        let n1 = snaps.g1.num_active_nodes().max(1);
        rows.push(vec![
            snaps.name.clone(),
            pct(cov),
            full.active_count.to_string(),
            format!("{:.2}", 100.0 * full.active_count as f64 / n1 as f64),
            format!("{:.2}", 100.0 * m100 as f64 / n1 as f64),
        ]);
        eprintln!("table 6 [{}] done at {:?}", snaps.name, started.elapsed());
    }
    print_table(
        "Table 6: unbudgeted Incidence (delta = max-1)",
        &[
            "dataset",
            "coverage %",
            "|A|",
            "|A| % of G_t1",
            "m % of G_t1",
        ],
        &rows,
    );

    // ---- Figure 1 ----
    let budgets: Vec<u64> = dedup_budgets(&[10, 20, 50, 100, 200, 300, 500], opts.scale);
    for snaps in all.iter_mut() {
        let mut rows = Vec::new();
        for kind in SelectorKind::fig1_suite() {
            let mut cells = vec![kind.name().to_string()];
            for &m in &budgets {
                cells.push(pct(run_kind(snaps, kind, m, 1, opts.seed).coverage));
            }
            rows.push(cells);
        }
        let header: Vec<String> = std::iter::once("selector".to_string())
            .chain(budgets.iter().map(|m| format!("m={m}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!(
                "Figure 1 [{}]: coverage % vs budget (delta = max-1)",
                snaps.name
            ),
            &header_refs,
            &rows,
        );
        eprintln!("figure 1 [{}] done at {:?}", snaps.name, started.elapsed());
    }

    // ---- Figure 2 (Facebook panel) ----
    {
        let snaps = &mut all[2];
        let budgets = dedup_budgets(&[20, 50, 100, 200, 300], opts.scale);
        for (title, in_cover) in [
            ("Figure 2(a): % of candidates in G^p_k", false),
            ("Figure 2(b): % of candidates in greedy cover", true),
        ] {
            let mut rows = Vec::new();
            for kind in SelectorKind::fig1_suite() {
                let mut cells = vec![kind.name().to_string()];
                for &m in &budgets {
                    let q = candidate_quality(snaps, kind, m, 1, opts.seed);
                    cells.push(pct(if in_cover {
                        q.in_greedy_cover
                    } else {
                        q.in_gpk
                    }));
                }
                rows.push(cells);
            }
            let header: Vec<String> = std::iter::once("selector".to_string())
                .chain(budgets.iter().map(|m| format!("m={m}")))
                .collect();
            let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
            print_table(&format!("{title} [{}]", snaps.name), &header_refs, &rows);
        }
    }
    eprintln!("figure 2 done at {:?}", started.elapsed());

    // ---- Figure 3 ----
    let config = ClassifierConfig {
        slack: 1,
        threads: opts.threads,
        ..ClassifierConfig::default()
    };
    let training: Vec<(cp_graph::Graph, cp_graph::Graph)> = all
        .iter()
        .map(|s| (s.train_g1.clone(), s.train_g2.clone()))
        .collect();
    let training_pairs: Vec<(&cp_graph::Graph, &cp_graph::Graph)> =
        training.iter().map(|(a, b)| (a, b)).collect();
    eprintln!("training G-Classifier on all training pairs...");
    let mut global = ClassifierSelector::train_global(&training_pairs, config, opts.seed);
    eprintln!("G-Classifier trained at {:?}", started.elapsed());
    let budgets = dedup_budgets(&[20, 50, 100, 200, 300], opts.scale);
    for (di, snaps) in all.iter_mut().enumerate() {
        // Best single-feature selector, recorded during the Table 5 scan.
        let (best_kind, _) = best_per_dataset[di];
        let mut rows = Vec::new();
        let mut cells = vec![format!("best ({})", best_kind.name())];
        for &m in &budgets {
            cells.push(pct(run_kind(snaps, best_kind, m, 1, opts.seed).coverage));
        }
        rows.push(cells);

        let mut local = snaps.local_classifier(config, opts.seed);
        let mut cells = vec!["L-Classifier".to_string()];
        for &m in &budgets {
            cells.push(pct(run_selector(snaps, &mut local, m, 1).coverage));
        }
        rows.push(cells);

        let mut cells = vec!["G-Classifier".to_string()];
        for &m in &budgets {
            cells.push(pct(run_selector(snaps, &mut global, m, 1).coverage));
        }
        rows.push(cells);

        let header: Vec<String> = std::iter::once("series".to_string())
            .chain(budgets.iter().map(|m| format!("m={m}")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!(
                "Figure 3 [{}]: classifiers vs best (delta = max-1)",
                snaps.name
            ),
            &header_refs,
            &rows,
        );
        eprintln!("figure 3 [{}] done at {:?}", snaps.name, started.elapsed());
    }

    eprintln!("all experiments finished in {:?}", started.elapsed());
}

fn dedup_budgets(full: &[u64], scale: f64) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::new();
    for &m in full {
        let s = scaled_budget(m, scale);
        if out.last() != Some(&s) {
            out.push(s);
        }
    }
    out
}
