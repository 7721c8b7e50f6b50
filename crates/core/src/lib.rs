//! Budgeted identification of converging node pairs in evolving graphs.
//!
//! Reproduction of *Identifying Converging Pairs of Nodes on a Budget*
//! (Lazaridou, Pitoura, Semertzidis, Tsaparas — EDBT 2015).
//!
//! # Problem
//!
//! Given two snapshots `G_t1 ⊆ G_t2` of a growing undirected graph and a
//! value `k`, the **top-k converging pairs** are the `k` pairs of nodes,
//! connected in `G_t1`, with the largest distance decrease
//! `Δ(u, v) = d_t1(u, v) − d_t2(u, v)` (Problem 1 in the paper). Computing
//! them exactly requires all-pairs shortest paths — quadratic output — so
//! the paper's *budgeted path cover* version (Problem 2) fixes a budget of
//! `2m` single-source shortest-path (SSSP) computations and asks for a set
//! `M` of candidate endpoints that covers as many top-k pairs as possible;
//! the quality yardstick is the greedy vertex cover of the *pair graph*
//! [`PairGraph`] whose edges are the top-k pairs.
//!
//! # Layout
//!
//! * [`exact`] — the exact all-pairs baseline and the δ-threshold top-k
//!   specification used throughout the evaluation.
//! * [`gpk`] — the pair graph `G^p_k`, greedy vertex cover and greedy
//!   max-coverage.
//! * [`oracle`] — [`SnapshotOracle`]: a pair of
//!   snapshots behind an SSSP interface that *counts and caps* every
//!   computation; this is how the budget of Table 1 is enforced rather
//!   than merely reported.
//! * [`scan`] — the blocked, branch-free Δ-scan kernel with chunk
//!   skipping and a shared rising Δ floor, shared by the budgeted
//!   pipeline and the exact baseline.
//! * [`topk`] — the generic budgeted pipeline (Algorithm 1 of the paper).
//! * [`selectors`] — the candidate-endpoint generation suite: Degree /
//!   DegDiff / DegRel, MaxMin / MaxAvg dispersion, SumDiff / MaxDiff
//!   landmarks, the four dispersion-landmark hybrids, the Incidence
//!   baselines of prior work, a uniform-random control, and the local /
//!   global logistic-regression classifiers.
//! * [`coverage`] — evaluation of a result against the exact ground truth.
//! * [`experiment`] — the harness that regenerates every table and figure
//!   of the paper's evaluation section.
//! * [`bounds`] — an extension beyond the paper: certified Δ lower/upper
//!   bounds for arbitrary pairs from landmark rows alone (no per-pair
//!   SSSP), enabling certify/rule-out/undecided triage of hypothesized
//!   pairs; also the resident-row landmark indexes the streaming query
//!   path captures ([`estimate`] is the compatibility shim of its former
//!   home).
//!
//! Continuous monitoring over whole snapshot sequences lives in the
//! `cp-stream` crate, built on this crate's oracle and pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod coverage;
pub mod estimate;
pub mod exact;
pub mod experiment;
pub mod gpk;
pub mod oracle;
pub mod scan;
pub mod selectors;
pub mod topk;

pub use bounds::{DeltaBounds, Triage};
pub use exact::{exact_top_k, ConvergingPair, ExactTopK, TopKSpec};
pub use gpk::PairGraph;
pub use oracle::{BudgetError, BudgetLedger, Phase, SnapshotOracle};
pub use selectors::{CandidateSelector, SelectorKind};
pub use topk::{budgeted_top_k, BudgetedResult};
