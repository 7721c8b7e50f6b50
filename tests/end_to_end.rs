//! End-to-end integration tests spanning all crates: generator → snapshot
//! pair → exact baseline → budgeted pipeline → coverage, for every
//! selector in the suite, on every dataset emulator (at small scale).

use converging_pairs::core::experiment::{run_kind, run_selector, Snapshots};
use converging_pairs::core::selectors::{ClassifierConfig, SelectorKind};
use converging_pairs::prelude::*;

fn snapshots(kind: DatasetKind) -> Snapshots {
    let t = DatasetProfile::scaled(kind, 0.04).generate(123);
    Snapshots::from_temporal(kind.name(), &t, 2)
}

#[test]
fn every_selector_runs_on_every_dataset() {
    for kind in DatasetKind::ALL {
        let mut snaps = snapshots(kind);
        for selector in SelectorKind::table5_suite() {
            let row = run_kind(&mut snaps, selector, 8, 1, 7);
            assert!(
                (0.0..=1.0).contains(&row.coverage),
                "{} on {}: coverage {}",
                selector.name(),
                kind.name(),
                row.coverage
            );
            assert!(
                row.budget.total() <= 16,
                "{} on {} overspent: {:?}",
                selector.name(),
                kind.name(),
                row.budget
            );
        }
    }
}

#[test]
fn informed_selectors_beat_random_on_average() {
    // Averaged over the four datasets, the best landmark hybrid must beat
    // the uniform-random control at the same (tight) budget.
    let mut hybrid_total = 0.0;
    let mut random_total = 0.0;
    for kind in DatasetKind::ALL {
        let mut snaps = snapshots(kind);
        hybrid_total +=
            run_kind(&mut snaps, SelectorKind::Mmsd { landmarks: 5 }, 12, 1, 7).coverage;
        random_total += run_kind(&mut snaps, SelectorKind::Random, 12, 1, 7).coverage;
    }
    assert!(
        hybrid_total > random_total,
        "hybrid {hybrid_total} vs random {random_total}"
    );
}

#[test]
fn coverage_is_monotone_in_budget_for_deterministic_selectors() {
    // Larger budgets extend the candidate prefix for deterministic
    // selectors, so coverage cannot drop.
    let mut snaps = snapshots(DatasetKind::Dblp);
    for kind in [
        SelectorKind::Degree,
        SelectorKind::DegRel,
        SelectorKind::MaxAvg,
    ] {
        let mut last = -1.0;
        for m in [4u64, 8, 16, 32, 64] {
            let cov = run_kind(&mut snaps, kind, m, 1, 7).coverage;
            assert!(
                cov + 1e-9 >= last,
                "{} coverage dropped from {last} to {cov} at m={m}",
                kind.name()
            );
            last = cov;
        }
    }
}

#[test]
fn full_budget_equals_exact_for_all_selectors() {
    let mut snaps = snapshots(DatasetKind::Facebook);
    let n = snaps.g1.num_nodes() as u64;
    for kind in [
        SelectorKind::Degree,
        SelectorKind::SumDiff { landmarks: 5 },
        SelectorKind::Mmsd { landmarks: 5 },
        SelectorKind::Random,
    ] {
        // Budget of n candidates: these selectors rank every node of V_t1,
        // so the pipeline can afford them all and must recover the exact
        // answer. (The Incidence baselines are excluded on purpose: they
        // only rank active nodes, and a converging pair may have both
        // endpoints away from any new edge.)
        let row = run_kind(&mut snaps, kind, n, 0, 7);
        assert_eq!(
            row.coverage,
            1.0,
            "{} did not reach full coverage at full budget",
            kind.name()
        );
    }
}

#[test]
fn classifier_end_to_end() {
    let mut snaps = snapshots(DatasetKind::Facebook);
    let config = ClassifierConfig {
        landmarks: 5,
        threads: 2,
        ..ClassifierConfig::default()
    };
    let mut local = snaps.local_classifier(config, 7);
    let row = run_selector(&mut snaps, &mut local, 20, 1);
    assert_eq!(row.selector, "L-Classifier");
    assert!(row.budget.total() <= 40);
    assert!((0.0..=1.0).contains(&row.coverage));
}

#[test]
fn budgeted_pairs_are_always_true_pairs() {
    // Soundness: every pair the budgeted pipeline reports, at the exact
    // threshold, must be in the exact answer (the pipeline never invents
    // pairs, it only misses them).
    let t = DatasetProfile::scaled(DatasetKind::InternetLinks, 0.04).generate(5);
    let (g1, g2) = t.snapshot_pair(0.8, 1.0);
    let exact = exact_top_k(&g1, &g2, &TopKSpec::ThresholdFromMax { slack: 1 }, 2);
    let truth = exact.pair_set();
    for kind in [SelectorKind::MaxAvg, SelectorKind::Mmsd { landmarks: 5 }] {
        let mut sel = kind.build(3);
        let result = budgeted_top_k(&g1, &g2, sel.as_mut(), 15, &exact.spec());
        for p in &result.pairs {
            assert!(
                truth.contains(&p.pair),
                "{} reported ({}, {}) delta {} not in the exact answer",
                kind.name(),
                p.pair.0,
                p.pair.1,
                p.delta
            );
        }
    }
}

#[test]
fn malformed_edge_lists_error_instead_of_panicking() {
    // Regression: the I/O layer propagates structured errors through the
    // crate facade — a bad input names its line, and a missing file is an
    // I/O error, never a panic.
    use converging_pairs::gen::io::{read_temporal, read_temporal_file, IoError};
    let err = read_temporal("0 1\n2\n".as_bytes()).expect_err("truncated record must error");
    assert!(
        matches!(err, IoError::Parse { line: 2, .. }),
        "wrong error: {err}"
    );
    assert!(err.to_string().contains("line 2"), "{err}");
    assert!(
        read_temporal("0 1 soon\n".as_bytes()).is_err(),
        "non-numeric time column must be rejected"
    );
    assert!(
        matches!(
            read_temporal_file("/nonexistent/converging-pairs-input.txt"),
            Err(IoError::Io(_))
        ),
        "missing file must surface as an I/O error"
    );
}

#[test]
fn temporal_io_roundtrip_preserves_experiment() {
    // Write the stream to disk, read it back, and check the exact answer
    // is identical — the I/O layer is faithful.
    use converging_pairs::gen::io::{read_temporal, write_temporal};
    let t = DatasetProfile::scaled(DatasetKind::Dblp, 0.03).generate(11);
    let mut buf = Vec::new();
    write_temporal(&t, &mut buf).unwrap();
    let (back, labels) = read_temporal(buf.as_slice()).unwrap();
    // Dense ids that all occur parse to themselves.
    assert_eq!(back.num_nodes(), t.num_nodes());
    assert!(labels.iter().enumerate().all(|(i, &l)| l as usize == i));
    let (a1, a2) = t.snapshot_pair(0.8, 1.0);
    let (b1, b2) = back.snapshot_pair(0.8, 1.0);
    let ea = exact_top_k(&a1, &a2, &TopKSpec::ThresholdFromMax { slack: 1 }, 2);
    let eb = exact_top_k(&b1, &b2, &TopKSpec::ThresholdFromMax { slack: 1 }, 2);
    assert_eq!(ea.pairs, eb.pairs);
}
