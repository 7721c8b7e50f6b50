//! The blocked, branch-free Δ-scan kernel behind the `M × V` pair scan.
//!
//! The scan is a pure reduction over two distance rows: for every node `v`
//! compute `Δ(u, v) = d_t1[v] − d_t2[v]` and keep the pairs above the
//! [`TopKSpec`](crate::exact::TopKSpec) floor. The reference
//! implementation is a per-element `Option` loop (kept only in the tests);
//! this module replaces it with a blocked kernel that is
//! memory-bandwidth-bound instead of branch-bound:
//!
//! * **Branch-free deltas.** `Δ = saturating_sub(d1, d2) · (d1 ≠ INF)` —
//!   the saturating subtraction zeroes the `d2 = INF` case on its own
//!   (growth-only snapshots never shrink distances), the finiteness mask
//!   zeroes the excluded `d1 = INF` pairs. Straight-line code over `u16`
//!   or `u32` lanes, which the compiler autovectorizes.
//! * **Chunk skipping.** Rows are walked in [`SCAN_CHUNK`]-element chunks.
//!   Each chunk's maximum Δ is computed branch-free first; a chunk whose
//!   maximum is below the current shared floor is skipped without
//!   materializing anything — and because the floor is at least 1, the
//!   common all-zero chunks (regions untouched by the snapshot delta) are
//!   always skipped.
//! * **A shared rising floor.** The floor is an `AtomicU32` that only
//!   rises: fixed for `Threshold`, raised from the exact running maximum
//!   for `ThresholdFromMax`, raised by workers' full local top-k buffers
//!   for `TopK` (see `topk.rs`). Every chunk maximum — skipped chunks
//!   included — is folded into the shared `observed_max` first, so the
//!   running maximum (and with it the final cut) is exact regardless of
//!   which chunks were skipped.
//!
//! Skipping is conservative by construction: a pair emitted by the
//! reference loop and surviving the final cut has `Δ ≥ final floor ≥` any
//! intermediate floor, so its chunk maximum can never test below the floor
//! and per-element filtering can never drop it. Pruned pairs are exactly
//! those the final cut would discard, which is why results stay
//! bit-identical to the per-element loop at any thread count while
//! [`ScanCounters`] (a wall-clock statistic, like timings) may vary run to
//! run.

use cp_graph::rowpack::{widen_u16_into, RowRef, INF_U16};
use cp_graph::INF;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};

/// Elements per scan chunk: the granularity of the skip test (and of
/// `observed_max`/floor updates).
pub const SCAN_CHUNK: usize = 1024;

/// Per-worker Δ-scan work counters, flushed into the run's totals after
/// each row. Counters are wall-clock statistics: they depend on floor
/// timing across workers and may vary run to run, unlike results.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanCounters {
    /// Chunks whose elements were walked (their maximum met the floor).
    pub chunks_scanned: u64,
    /// Chunks skipped whole: maximum Δ below the floor, nothing
    /// materialized.
    pub chunks_skipped: u64,
    /// Individual Δ ≥ 1 values in scanned chunks that tested below the
    /// floor — pairs the reference kernel would have materialized and the
    /// final cut would have discarded.
    pub pairs_pruned: u64,
}

impl ScanCounters {
    /// Accumulates another counter set (worker flush).
    pub fn absorb(&mut self, other: &ScanCounters) {
        self.chunks_scanned += other.chunks_scanned;
        self.chunks_skipped += other.chunks_skipped;
        self.pairs_pruned += other.pairs_pruned;
    }
}

/// A distance element the blocked kernel can scan: `u16`-packed or full
/// `u32` rows, each with its own sentinel.
trait PackedDelta: Copy {
    /// Branch-free `Δ(v)`: `saturating_sub(d1, d2)` masked to zero when
    /// `d1` is the unreachable sentinel (matching
    /// [`cp_graph::distance_decrease`]: `d1 = INF` pairs are excluded and
    /// `d2 = INF` saturates to no decrease).
    fn delta_u32(d1: Self, d2: Self) -> u32;

    /// Maximum `Δ` over a chunk, accumulated at native width — a
    /// straight-line loop the compiler autovectorizes.
    fn chunk_max(d1: &[Self], d2: &[Self]) -> u32;
}

impl PackedDelta for u16 {
    #[inline(always)]
    fn delta_u32(d1: u16, d2: u16) -> u32 {
        let fin = (d1 != INF_U16) as u16;
        u32::from(d1.saturating_sub(d2) * fin)
    }

    fn chunk_max(d1: &[u16], d2: &[u16]) -> u32 {
        let mut m = 0u16;
        for (&a, &b) in d1.iter().zip(d2) {
            let fin = (a != INF_U16) as u16;
            m = m.max(a.saturating_sub(b) * fin);
        }
        u32::from(m)
    }
}

impl PackedDelta for u32 {
    #[inline(always)]
    fn delta_u32(d1: u32, d2: u32) -> u32 {
        let fin = (d1 != INF) as u32;
        d1.saturating_sub(d2) * fin
    }

    fn chunk_max(d1: &[u32], d2: &[u32]) -> u32 {
        let mut m = 0u32;
        for (&a, &b) in d1.iter().zip(d2) {
            let fin = (a != INF) as u32;
            m = m.max(a.saturating_sub(b) * fin);
        }
        m
    }
}

/// The blocked kernel over one row pair at a single storage width.
#[allow(clippy::too_many_arguments)]
fn scan_packed<T: PackedDelta>(
    d1: &[T],
    d2: &[T],
    start: usize,
    floor: &AtomicU32,
    observed_max: &AtomicU32,
    from_max_slack: Option<u32>,
    counters: &mut ScanCounters,
    emit: &mut dyn FnMut(usize, u32),
) {
    let n = d1.len();
    debug_assert_eq!(n, d2.len(), "row length mismatch");
    let mut base = start;
    while base < n {
        let end = (base + SCAN_CHUNK).min(n);
        let cmax = T::chunk_max(&d1[base..end], &d2[base..end]);
        // Fold every chunk maximum — skipped ones included — into the
        // shared running maximum, so it is exact at the end of the scan.
        let prev = observed_max.fetch_max(cmax, Ordering::Relaxed);
        if let Some(slack) = from_max_slack {
            let new_floor = prev.max(cmax).saturating_sub(slack).max(1);
            floor.fetch_max(new_floor, Ordering::Relaxed);
        }
        let f = floor.load(Ordering::Relaxed);
        if cmax < f {
            counters.chunks_skipped += 1;
            base = end;
            continue;
        }
        counters.chunks_scanned += 1;
        for i in base..end {
            let delta = T::delta_u32(d1[i], d2[i]);
            if delta == 0 {
                continue;
            }
            if delta >= f {
                emit(i, delta);
            } else {
                counters.pairs_pruned += 1;
            }
        }
        base = end;
    }
}

/// Runs the blocked kernel over a row pair at whatever width the rows are
/// stored, emitting `(node index, Δ)` for every surviving `Δ ≥ 1` element
/// from `start` onward.
///
/// * `floor` — the shared rising Δ lower bound; elements and whole chunks
///   below it are pruned. Must start at the spec's initial floor (≥ 1).
/// * `observed_max` — the shared running maximum Δ; exact after the scan
///   (skipped chunks still contribute their maxima).
/// * `from_max_slack` — `Some(slack)` under `ThresholdFromMax`: the floor
///   is raised to `running max − slack` as the scan discovers larger Δs.
///
/// A mixed-width pair (one snapshot packed, the other not — e.g. an
/// unweighted `t1` against a weighted `t2`) is widened to `u32` first;
/// the oracle's packed reads normalize widths, so this path is cold.
#[allow(clippy::too_many_arguments)]
pub fn scan_delta_row(
    r1: RowRef<'_>,
    r2: RowRef<'_>,
    start: usize,
    floor: &AtomicU32,
    observed_max: &AtomicU32,
    from_max_slack: Option<u32>,
    counters: &mut ScanCounters,
    emit: &mut dyn FnMut(usize, u32),
) {
    match (r1, r2) {
        (RowRef::U16(a), RowRef::U16(b)) => scan_packed(
            a,
            b,
            start,
            floor,
            observed_max,
            from_max_slack,
            counters,
            emit,
        ),
        (RowRef::U32(a), RowRef::U32(b)) => scan_packed(
            a,
            b,
            start,
            floor,
            observed_max,
            from_max_slack,
            counters,
            emit,
        ),
        (a, b) => {
            let (mut w1, mut w2) = (Vec::new(), Vec::new());
            let a = match a {
                RowRef::U16(p) => {
                    widen_u16_into(p, &mut w1);
                    w1.as_slice()
                }
                RowRef::U32(r) => r,
            };
            let b = match b {
                RowRef::U16(p) => {
                    widen_u16_into(p, &mut w2);
                    w2.as_slice()
                }
                RowRef::U32(r) => r,
            };
            scan_packed(
                a,
                b,
                start,
                floor,
                observed_max,
                from_max_slack,
                counters,
                emit,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_graph::distance_decrease;
    use cp_graph::rowpack::pack_u16_into;

    /// Deterministic pseudo-random row pair with INF holes and a planted
    /// spike, long enough to span several chunks.
    fn synthetic_rows(n: usize, spike_at: usize, spike: u32) -> (Vec<u32>, Vec<u32>) {
        let mut d1 = Vec::with_capacity(n);
        let mut d2 = Vec::with_capacity(n);
        let mut x = 0x9e37_79b9u32;
        for i in 0..n {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let base = x % 40_000;
            if x.is_multiple_of(17) {
                d1.push(INF);
                d2.push(x % 5);
            } else if x.is_multiple_of(23) {
                d1.push(base);
                d2.push(INF);
            } else {
                let dec = if i == spike_at { spike } else { x % 3 };
                d1.push(base.max(dec));
                d2.push(base.max(dec) - dec);
            }
        }
        (d1, d2)
    }

    fn reference_emissions(d1: &[u32], d2: &[u32], start: usize) -> Vec<(usize, u32)> {
        (start..d1.len())
            .filter_map(|i| {
                distance_decrease(d1[i], d2[i])
                    .filter(|&d| d > 0)
                    .map(|d| (i, d))
            })
            .collect()
    }

    fn run_kernel(
        r1: RowRef<'_>,
        r2: RowRef<'_>,
        start: usize,
        floor0: u32,
        slack: Option<u32>,
    ) -> (Vec<(usize, u32)>, u32, u32, ScanCounters) {
        let floor = AtomicU32::new(floor0);
        let omax = AtomicU32::new(0);
        let mut counters = ScanCounters::default();
        let mut out = Vec::new();
        scan_delta_row(
            r1,
            r2,
            start,
            &floor,
            &omax,
            slack,
            &mut counters,
            &mut |i, d| out.push((i, d)),
        );
        (
            out,
            omax.load(Ordering::Relaxed),
            floor.load(Ordering::Relaxed),
            counters,
        )
    }

    #[test]
    fn matches_reference_loop_with_floor_one() {
        let (d1, d2) = synthetic_rows(5000, 2345, 9);
        let expected = reference_emissions(&d1, &d2, 0);
        let (got, omax, _, _) = run_kernel(RowRef::U32(&d1), RowRef::U32(&d2), 0, 1, None);
        assert_eq!(got, expected);
        assert_eq!(omax, expected.iter().map(|&(_, d)| d).max().unwrap());
    }

    #[test]
    fn u16_and_u32_paths_agree() {
        let (mut d1, mut d2) = synthetic_rows(4000, 100, 7);
        // Clamp finite distances into u16 range for the packed variant.
        for v in d1.iter_mut().chain(d2.iter_mut()) {
            if *v != INF {
                *v %= 60_000;
            }
        }
        // Re-impose monotonicity after clamping.
        for (a, b) in d1.iter_mut().zip(d2.iter_mut()) {
            if *a != INF && *b != INF && *b > *a {
                *b = *a;
            }
        }
        let (mut p1, mut p2) = (Vec::new(), Vec::new());
        pack_u16_into(&d1, &mut p1);
        pack_u16_into(&d2, &mut p2);
        let wide = run_kernel(RowRef::U32(&d1), RowRef::U32(&d2), 0, 1, None);
        let packed = run_kernel(RowRef::U16(&p1), RowRef::U16(&p2), 0, 1, None);
        let mixed = run_kernel(RowRef::U16(&p1), RowRef::U32(&d2), 0, 1, None);
        assert_eq!(wide.0, packed.0);
        assert_eq!(wide.1, packed.1);
        assert_eq!(wide.0, mixed.0);
    }

    #[test]
    fn chunks_below_the_floor_are_skipped_and_counted() {
        // One spike of 9 far into the row; floor 5 kills everything else.
        let (d1, d2) = synthetic_rows(8 * SCAN_CHUNK, 6 * SCAN_CHUNK + 17, 9);
        let expected: Vec<(usize, u32)> = reference_emissions(&d1, &d2, 0)
            .into_iter()
            .filter(|&(_, d)| d >= 5)
            .collect();
        let (got, omax, _, counters) = run_kernel(RowRef::U32(&d1), RowRef::U32(&d2), 0, 5, None);
        assert_eq!(got, expected);
        assert_eq!(omax, 9, "skipped chunks still feed the running max");
        assert!(counters.chunks_skipped >= 6, "cold chunks must be skipped");
        assert!(counters.chunks_scanned >= 1);
        assert_eq!(
            counters.chunks_scanned + counters.chunks_skipped,
            8,
            "every chunk is either scanned or skipped"
        );
    }

    #[test]
    fn from_max_raises_the_floor_as_the_scan_proceeds() {
        // Spike early so later chunks see the raised floor and skip.
        let (d1, d2) = synthetic_rows(8 * SCAN_CHUNK, 10, 12);
        let (got, omax, floor, counters) =
            run_kernel(RowRef::U32(&d1), RowRef::U32(&d2), 0, 1, Some(1));
        assert_eq!(omax, 12);
        assert_eq!(floor, 11, "floor follows max − slack");
        assert!(counters.chunks_skipped >= 6);
        // Everything the final ThresholdFromMax cut keeps must be emitted.
        let surviving: Vec<(usize, u32)> = reference_emissions(&d1, &d2, 0)
            .into_iter()
            .filter(|&(_, d)| d >= 11)
            .collect();
        for p in &surviving {
            assert!(got.contains(p), "answer pair {p:?} was pruned");
        }
    }

    #[test]
    fn start_offset_is_honored() {
        let (d1, d2) = synthetic_rows(3000, 40, 6);
        let start = 1500;
        let expected = reference_emissions(&d1, &d2, start);
        let (got, omax, _, _) = run_kernel(RowRef::U32(&d1), RowRef::U32(&d2), start, 1, None);
        assert_eq!(got, expected);
        // The pre-start spike is invisible to this scan.
        assert_eq!(
            omax,
            expected.iter().map(|&(_, d)| d).max().unwrap_or(0),
            "observed max covers [start, n) only"
        );
    }

    #[test]
    fn counters_absorb() {
        let mut a = ScanCounters {
            chunks_scanned: 1,
            chunks_skipped: 2,
            pairs_pruned: 3,
        };
        a.absorb(&ScanCounters {
            chunks_scanned: 10,
            chunks_skipped: 20,
            pairs_pruned: 30,
        });
        assert_eq!(a.chunks_scanned, 11);
        assert_eq!(a.chunks_skipped, 22);
        assert_eq!(a.pairs_pruned, 33);
    }
}
