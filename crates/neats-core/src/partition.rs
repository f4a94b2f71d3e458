//! Algorithm 1: partitioning a time series into fragments, each associated
//! with a nonlinear ε-approximation, minimising the encoded bit size.
//!
//! The paper models the problem as a shortest path on a DAG with one node per
//! data point (plus a sink): every fragment `T[i, j−1]` that some pair
//! `(f, ε) ∈ F × E` can ε-approximate contributes the edge `(i, j)` *and all
//! of its prefix and suffix edges*, weighted by the encoded size
//! `w_{f,ε}(i, j) = (j − i)·⌈log(2ε+1)⌉ + κ_f`. Instead of materialising the
//! graph, the algorithm sweeps nodes left to right keeping, per pair, only
//! the fragment overlapping the current node, splitting it into prefix and
//! suffix edges on the fly. Total time O(|F|·|E|·n).
//!
//! ## Two-stage parallel execution
//!
//! The dominant cost — running `MakeApproximation` for every pair at every
//! tiling position — depends only on `values`, never on the DP state: the
//! sweep fits a new fragment for pair `(f, ε)` at node `k` precisely when
//! the pair's previous fragment ends at or before `k`, so the fragments a
//! pair contributes are exactly its greedy tiling of the series.
//! [`partition`] exploits this by splitting Algorithm 1 into
//!
//! 1. **stage 1** — compute each pair's greedy tiling, with the pairs fanned
//!    out across threads ([`crate::parallel`]) over a shared [`FitView`]
//!    (the hoisted f64 view of the values). A tiling keeps one reusable
//!    fitter for all its fragments and asks only where each ends
//!    ([`fragment_end_in`]): the sweep weighs spans, not parameters.
//! 2. **stage 2** — a sequential shortest-path sweep over those span lists
//!    (`sweep`). It is event-driven: a pair is looked at only where one of
//!    its spans starts or ends; in between it is two running costs that a
//!    dense pass per node advances. The few winning edges are refitted at
//!    the end, from their origins, for their parameters.
//!
//! The result is bit-identical to the original one-pass sweep — same costs,
//! and among equal costs the same winner, because the order in which the
//! reference tries edges is reproduced (see `sweep`). The original is kept
//! as [`partition_reference`], the executable specification, and asserted
//! equivalent in the test suite.

use crate::fit::{
    fragment_end_in, longest_fragment, longest_fragment_in, FitView, Fragment, Kind, StabbingLine,
};
use crate::parallel::{effective_threads, parallel_map_indexed};
use succinct::bits_for_residual_bound;

/// A `(kind, ε)` pair considered by the partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pair {
    /// Function family.
    pub kind: Kind,
    /// Error bound.
    pub eps: u64,
}

/// Configuration of the partitioning algorithm.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// The `(f, ε)` pairs to consider (the paper's F × E, or a model-selected
    /// subset).
    pub pairs: Vec<Pair>,
    /// Global positivity shift for log-domain kinds (see
    /// [`positivity_shift`]).
    pub shift: i64,
    /// If `true` (lossless NeaTS) edge weights include `(j−i)·⌈log(2ε+1)⌉`
    /// bits of corrections; if `false` (lossy NeaTS-L) only the function
    /// parameters are charged.
    pub lossless: bool,
    /// Per-fragment metadata bits beyond the raw parameters (the paper's
    /// "small metadata": kind tag, start, offsets). Charged into κ_f.
    pub overhead_bits: u64,
    /// Worker threads for stage 1 of [`partition`]. `0` means automatic:
    /// the `NEATS_THREADS` environment variable if set, otherwise all
    /// available cores. The choice never affects the output — the
    /// partitioner is bit-deterministic across thread counts.
    pub threads: usize,
}

impl PartitionConfig {
    /// Lossless configuration over the cross product `kinds × epsilons`.
    pub fn lossless(kinds: &[Kind], epsilons: &[u64], shift: i64) -> Self {
        let pairs = kinds
            .iter()
            .flat_map(|&kind| epsilons.iter().map(move |&eps| Pair { kind, eps }))
            .collect();
        Self { pairs, shift, lossless: true, overhead_bits: DEFAULT_OVERHEAD_BITS, threads: 0 }
    }

    /// Lossy configuration with a single ε (paper §III-B, "Partitioning for
    /// lossy compression").
    pub fn lossy(kinds: &[Kind], eps: u64, shift: i64) -> Self {
        let pairs = kinds.iter().map(|&kind| Pair { kind, eps }).collect();
        Self { pairs, shift, lossless: false, overhead_bits: DEFAULT_OVERHEAD_BITS, threads: 0 }
    }

    /// Sets the stage-1 worker thread count (see [`Self::threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// κ_f for a pair: parameter storage plus fixed metadata.
    fn kappa(&self, kind: Kind) -> u64 {
        kind.param_count() as u64 * 64 + self.overhead_bits
    }

    /// Bits per correction for a pair.
    fn correction_width(&self, eps: u64) -> u64 {
        if self.lossless {
            bits_for_residual_bound(eps) as u64
        } else {
            0
        }
    }
}

/// Default per-fragment metadata charge: Elias-Fano start + offset entries,
/// packed width, kind tag, origin delta — about a machine word.
pub const DEFAULT_OVERHEAD_BITS: u64 = 64;

/// The paper's positivity shift (footnote 2): a constant `s` such that
/// `y + s − ε ≥ 1` for every value and every ε in use, enabling log-domain
/// transforms. Zero when the data is already sufficiently positive.
///
/// Saturates at `i64::MAX` where no such constant exists (an ε or a value
/// range near the width of `i64`); the fit then sees clamped log-domain
/// inputs and the corrections absorb the difference.
pub fn positivity_shift(values: &[i64], max_eps: u64) -> i64 {
    match values.iter().min() {
        Some(&min) => {
            let above_eps = i64::try_from(max_eps).unwrap_or(i64::MAX).saturating_add(1);
            above_eps.saturating_sub(min).max(0)
        }
        None => 0,
    }
}

/// The paper's default error-bound set `E = {0, 2¹, 2², …, 2^⌈log Δ⌉}`
/// (§III-B complexity analysis), strictly increasing. The ladder stops at
/// 2⁶³, the last power of two a `u64` holds — which only cuts it short for
/// Δ > 2⁶³, a series spanning more than half of `i64`.
pub fn default_epsilons(delta: u64) -> Vec<u64> {
    let mut eps = vec![0u64];
    if delta > 1 {
        let top = 64 - (delta - 1).leading_zeros(); // ⌈log₂ Δ⌉
        eps.extend((1..=top.min(63)).map(|i| 1u64 << i));
    }
    eps
}

/// An incoming shortest-path edge recorded for reconstruction.
///
/// Deliberately tiny (12 bytes): the fitted parameters are *not* stored per
/// node — fitting is deterministic, so the backtrack refits the `m ≪ n`
/// winning fragments from their origins instead, keeping the O(n) `prev`
/// array compact.
#[derive(Clone, Copy, Debug)]
struct PrevEdge {
    from: u32,
    origin: u32,
    /// Index into `config.pairs`.
    pair: u32,
}

/// Result of [`partition`]: the chosen fragments plus their ε bounds.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Fragments tiling `[0, n)` in order.
    pub fragments: Vec<Fragment>,
    /// The ε bound each fragment was fitted under (parallel to `fragments`).
    pub epsilons: Vec<u64>,
    /// Total cost of the shortest path in bits (the optimisation objective).
    pub cost_bits: u64,
}

/// Stage 1: the greedy tiling pair `(f, ε)` contributes to the sweep — the
/// exact sequence of fragment spans the reference sweep fits for that pair.
///
/// A fragment is fit at node `k` precisely when the previous one ends at or
/// before `k`; when the transform is undefined at `k` (fit returns `None`)
/// the sweep retries at `k + 1`. Both behaviours are reproduced here, so
/// each span's `start` records where the successful fit happened and gaps
/// encode the `None` stretches.
///
/// Only `(start, end)` spans are kept — 8 bytes per fragment. The DP never
/// needs the fitted parameters (edge weights depend on span length alone),
/// and noisy configurations produce millions of plan fragments, so storing
/// whole [`Fragment`]s here would cost hundreds of MB of allocation
/// traffic. The backtrack refits the few winners instead.
fn pair_plan(view: &FitView<'_>, pair: Pair) -> Vec<(u32, u32)> {
    let n = view.len();
    let mut line = StabbingLine::new(); // one fitter for the whole tiling
    let mut plan = Vec::new();
    let mut k = 0usize;
    while k < n {
        match fragment_end_in(view, &mut line, k, pair.kind, pair.eps) {
            Some(end) => {
                debug_assert!(end > k);
                plan.push((k as u32, end as u32));
                k = end;
            }
            None => k += 1,
        }
    }
    plan
}

/// Runs Algorithm 1 and returns the space-minimising partition.
///
/// This is the two-stage execution (see the module docs): per-pair greedy
/// fragment lists are computed in parallel over `config.threads` workers,
/// then a sequential DP sweep replays the edge relaxations. Output is
/// bit-identical to [`partition_reference`] for every thread count.
///
/// # Panics
/// Panics if `config.pairs` is empty, or if no pair can fit some position
/// (which cannot happen when `config.shift` comes from [`positivity_shift`]).
pub fn partition(values: &[i64], config: &PartitionConfig) -> Partition {
    assert!(!config.pairs.is_empty(), "need at least one (kind, eps) pair");
    let n = values.len();
    if n == 0 {
        return Partition { fragments: Vec::new(), epsilons: Vec::new(), cost_bits: 0 };
    }
    assert!(n < u32::MAX as usize, "series too long for u32 node ids");

    // Stage 1: per-pair greedy tilings, fanned out across threads.
    let with_log = config.pairs.iter().any(|p| p.kind.log_domain());
    let view = FitView::new(values, config.shift, with_log);
    let threads = effective_threads(config.threads);
    let plans: Vec<Vec<(u32, u32)>> =
        parallel_map_indexed(config.pairs.len(), threads, |pi| pair_plan(&view, config.pairs[pi]));

    // Stage 2: the sequential shortest-path sweep over the span lists.
    let (dist, prev) = sweep(n, &plans, config);

    let mut line = StabbingLine::new();
    backtrack(n, &dist, &prev, &config.pairs, |origin, pair| {
        longest_fragment_in(&view, &mut line, origin, pair.kind, pair.eps)
    })
}

/// "No pair" in the sweep's `u32` links.
const NIL: u32 = u32::MAX;

/// "No such edge" among the running costs. It keeps growing by `cw` per node
/// like a real cost, so it sits where that can neither overflow nor come
/// down to one: a path costs under 2^32 nodes · (64 + κ) bits.
const NO_EDGE: u64 = 1 << 62;

/// What the sweep keeps per pair: the cost, into the node it stands on, of
/// the two kinds of edge the pair's current span contributes.
#[derive(Clone, Copy)]
struct Running {
    /// Bits per covered point: what both costs grow by from node to node.
    cw: u64,
    /// The prefix edge `(start, k)`: `dist[start] + κ + (k − start)·cw`.
    /// [`NO_EDGE`] or more when the pair has no live span or `start` is
    /// unreachable.
    prefix: u64,
    /// The cheapest suffix edge `(j, k)` over the span's nodes `j < k`, κ
    /// not yet added: `min dist[j] + (k − j)·cw`. [`NO_EDGE`] or more while
    /// no such `j` is reachable.
    suffix: u64,
    /// The first `j` attaining `suffix`.
    suffix_from: u32,
}

/// Stage 2: shortest-path distances and incoming edges of every node, from
/// the per-pair span lists of stage 1.
///
/// The reference sweep visits every pair twice at every node and decides
/// each time what state it is in. Here a pair is *visited* only when one of
/// its spans starts or ends — the events, found through per-node buckets —
/// and everything in between is two numbers per pair ([`Running`]) that one
/// branch-light pass per node advances by `+cw`: the cost of the pair's
/// prefix edge into the node, and the cost of its cheapest suffix edge had
/// the span ended at the node. The pass min-scans the first; the second is
/// read once, where the span does end (every suffix edge `(j, end)` of a
/// span is relaxed there in one go, not one per node `j`).
///
/// ## Tie-break
///
/// The reference relaxes with a strict `<`, so among equal-cost edges into a
/// node the first one it tries wins, and it tries them in this order: the
/// suffix edges, by source node then pair index (they are relaxed while the
/// sweep stands on their source), then — standing on the node itself — the
/// prefix edges by pair index. The sweep reproduces exactly that: a span
/// keeps the *first* source attaining its cheapest suffix edge, a node takes
/// the least candidate among ending spans under `(cost, from, pair)`, and a
/// prefix edge replaces it only if strictly cheaper, the first pair winning
/// among equals. Unreachable nodes (`dist == u64::MAX`) source no edges.
fn sweep(
    n: usize,
    plans: &[Vec<(u32, u32)>],
    config: &PartitionConfig,
) -> (Vec<u64>, Vec<Option<PrevEdge>>) {
    let pairs = plans.len();
    let mut dist = vec![u64::MAX; n + 1];
    let mut prev: Vec<Option<PrevEdge>> = vec![None; n + 1];
    dist[0] = 0;

    let kappa: Vec<u64> = config.pairs.iter().map(|p| config.kappa(p.kind)).collect();
    let mut running: Vec<Running> = config
        .pairs
        .iter()
        .map(|p| Running {
            cw: config.correction_width(p.eps),
            prefix: NO_EDGE,
            suffix: NO_EDGE,
            suffix_from: 0,
        })
        .collect();
    // The span each pair is in, or — parked — will be in next.
    let mut span = vec![(0u32, 0u32); pairs];
    let mut cursor = vec![0usize; pairs];

    // bucket[k]: the pairs with an event at node k (their span ends there,
    // or their parked span starts there), chained through `chain`. A pair
    // has one span at a time, so it sits in at most one bucket.
    let mut bucket = vec![NIL; n + 1];
    let mut chain = vec![NIL; pairs];
    let mut starting: Vec<u32> = Vec::with_capacity(pairs);
    for (p, plan) in plans.iter().enumerate() {
        if let Some(&first) = plan.first() {
            (span[p], cursor[p]) = (first, 1);
            chain[p] = std::mem::replace(&mut bucket[first.0 as usize], p as u32);
        }
    }

    for k in 0..=n {
        // The pass: fold in the suffix edges out of the node just left (its
        // distance is final), bring both costs forward to k, and find the
        // cheapest prefix edge, first pair winning. Pairs between spans ride
        // along — a start resets them. So does the prefix cost of a span
        // ending at k, which is no prefix edge; but it costs what the span's
        // suffix edge from its start does, so it cannot win below.
        let behind = if k == 0 { u64::MAX } else { dist[k - 1] };
        let behind_at = (k as u32).wrapping_sub(1);
        let (mut least, mut winner) = (NO_EDGE, NIL);
        for (p, r) in running.iter_mut().enumerate() {
            let cheaper = behind < r.suffix;
            r.suffix = if cheaper { behind } else { r.suffix } + r.cw;
            r.suffix_from = if cheaper { behind_at } else { r.suffix_from };
            r.prefix += r.cw;
            if r.prefix < least {
                (least, winner) = (r.prefix, p as u32);
            }
        }

        // Events. Ending spans offer their cheapest suffix edge into k and
        // roll over to the pair's next span, which starts here or is parked
        // (the transform was undefined for a stretch) until it does.
        let mut best: Option<(u64, u32, u32, u32)> = None; // (cost, from, pair, origin)
        let mut event = std::mem::replace(&mut bucket[k], NIL);
        while event != NIL {
            let p = event as usize;
            let following = chain[p];
            let (start, end) = span[p];
            if end as usize == k {
                let r = &mut running[p];
                if r.suffix < NO_EDGE {
                    let candidate = (r.suffix + kappa[p], r.suffix_from, event, start);
                    if best.is_none_or(|b| candidate < b) {
                        best = Some(candidate);
                    }
                }
                r.prefix = NO_EDGE;
                if let Some(&next) = plans[p].get(cursor[p]) {
                    (span[p], cursor[p]) = (next, cursor[p] + 1);
                    if next.0 as usize == k {
                        starting.push(event);
                    } else {
                        chain[p] = std::mem::replace(&mut bucket[next.0 as usize], event);
                    }
                }
            } else {
                debug_assert_eq!(start as usize, k);
                starting.push(event);
            }
            event = following;
        }

        // Suffix edges were relaxed first; a prefix edge must beat them.
        if winner != NIL && least < best.map_or(u64::MAX, |b| b.0) {
            let start = span[winner as usize].0;
            dist[k] = least;
            prev[k] = Some(PrevEdge { from: start, origin: start, pair: winner });
        } else if let Some((cost, from, pair, origin)) = best {
            dist[k] = cost;
            prev[k] = Some(PrevEdge { from, origin, pair });
        }

        // dist[k] is final: spans starting here take it as their base.
        for event in starting.drain(..) {
            let p = event as usize;
            let reachable = dist[k] != u64::MAX;
            running[p].prefix = if reachable { dist[k] + kappa[p] } else { NO_EDGE };
            running[p].suffix = NO_EDGE;
            chain[p] = std::mem::replace(&mut bucket[span[p].1 as usize], event);
        }
    }
    (dist, prev)
}

/// The original inline one-pass sweep of Algorithm 1, kept as the executable
/// specification the two-stage [`partition`] is tested bit-identical
/// against (and as the "point 0" measured by the perf baseline harness).
pub fn partition_reference(values: &[i64], config: &PartitionConfig) -> Partition {
    assert!(!config.pairs.is_empty(), "need at least one (kind, eps) pair");
    let n = values.len();
    if n == 0 {
        return Partition { fragments: Vec::new(), epsilons: Vec::new(), cost_bits: 0 };
    }
    assert!(n < u32::MAX as usize, "series too long for u32 node ids");

    let mut dist = vec![u64::MAX; n + 1];
    let mut prev: Vec<Option<PrevEdge>> = vec![None; n + 1];
    dist[0] = 0;

    // Per-pair live fragment (the edge overlapping the sweep node).
    let mut live: Vec<Option<Fragment>> = vec![None; config.pairs.len()];
    // Cached per-pair constants.
    let weights: Vec<(u64, u64)> = config
        .pairs
        .iter()
        .map(|p| (config.correction_width(p.eps), config.kappa(p.kind)))
        .collect();

    for k in 0..n {
        for (pi, pair) in config.pairs.iter().enumerate() {
            let needs_new = live[pi].is_none_or(|f| f.end <= k);
            if needs_new {
                // A new fragment starts at the sweep node.
                live[pi] = longest_fragment(values, k, pair.kind, pair.eps, config.shift);
            } else if let Some(f) = live[pi] {
                // Relax the prefix edge (f.start, k).
                let (cw, kappa) = weights[pi];
                relax(&mut dist, &mut prev, f.start, k, cw, kappa, pi as u32, f.origin as u32);
            }
        }
        for (pi, _) in config.pairs.iter().enumerate() {
            if let Some(f) = live[pi] {
                // Relax the suffix edge (k, f.end) — the full edge when
                // k == f.start.
                let (cw, kappa) = weights[pi];
                relax(&mut dist, &mut prev, k, f.end, cw, kappa, pi as u32, f.origin as u32);
            }
        }
    }

    backtrack(n, &dist, &prev, &config.pairs, |origin, pair| {
        longest_fragment(values, origin, pair.kind, pair.eps, config.shift)
    })
}

/// Reads the shortest path backwards (paper lines 21–26), refitting each
/// winning edge's function from its origin to recover the parameters
/// (fitting is deterministic, so this reproduces the exact params the sweep
/// saw without having stored them per node).
fn backtrack(
    n: usize,
    dist: &[u64],
    prev: &[Option<PrevEdge>],
    pairs: &[Pair],
    mut refit: impl FnMut(usize, Pair) -> Option<Fragment>,
) -> Partition {
    let mut fragments = Vec::new();
    let mut epsilons = Vec::new();
    let mut k = n;
    while k != 0 {
        let e = prev[k].unwrap_or_else(|| panic!("node {k} unreachable: no pair covers it"));
        let pair = pairs[e.pair as usize];
        let fitted = refit(e.origin as usize, pair)
            .expect("refit of an edge the sweep fitted successfully");
        debug_assert_eq!(fitted.origin, e.origin as usize);
        debug_assert!(fitted.end >= k, "refit shorter than the recorded edge");
        fragments.push(Fragment {
            kind: pair.kind,
            params: fitted.params,
            start: e.from as usize,
            end: k,
            origin: e.origin as usize,
        });
        epsilons.push(pair.eps);
        k = e.from as usize;
    }
    fragments.reverse();
    epsilons.reverse();
    Partition { fragments, epsilons, cost_bits: dist[n] }
}

#[allow(clippy::too_many_arguments)]
#[inline]
fn relax(
    dist: &mut [u64],
    prev: &mut [Option<PrevEdge>],
    a: usize,
    b: usize,
    cw: u64,
    kappa: u64,
    pair: u32,
    origin: u32,
) {
    if a >= b || dist[a] == u64::MAX {
        return;
    }
    let w = (b - a) as u64 * cw + kappa;
    let cand = dist[a] + w;
    if cand < dist[b] {
        dist[b] = cand;
        prev[b] = Some(PrevEdge { from: a as u32, origin, pair });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::max_abs_residual;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn check_partition(values: &[i64], part: &Partition, shift: i64) {
        // Tiles [0, n) exactly.
        assert_eq!(part.fragments.len(), part.epsilons.len());
        if values.is_empty() {
            assert!(part.fragments.is_empty());
            return;
        }
        assert_eq!(part.fragments[0].start, 0);
        assert_eq!(part.fragments.last().unwrap().end, values.len());
        for w in part.fragments.windows(2) {
            assert_eq!(w[0].end, w[1].start, "gap or overlap");
        }
        // Every fragment respects its ε (±1 floor/float slack; the layout
        // widens correction cells when needed).
        for (f, &eps) in part.fragments.iter().zip(&part.epsilons) {
            let r = max_abs_residual(values, f, shift);
            assert!(r <= eps + 1, "fragment {:?} residual {r} > eps {eps}", f.kind);
            assert!(f.origin <= f.start, "origin after start");
        }
    }

    #[test]
    fn empty_series() {
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0, 2], 0);
        let p = partition(&[], &cfg);
        assert!(p.fragments.is_empty());
        assert_eq!(p.cost_bits, 0);
    }

    #[test]
    fn single_value() {
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0], 0);
        let p = partition(&[42], &cfg);
        check_partition(&[42], &p, 0);
        assert_eq!(p.fragments.len(), 1);
    }

    #[test]
    fn exact_line_single_fragment_eps0() {
        let values: Vec<i64> = (0..1000).map(|k| 5 * k - 17).collect();
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0], 0);
        let p = partition(&values, &cfg);
        check_partition(&values, &p, 0);
        assert_eq!(p.fragments.len(), 1, "an exact line is one fragment");
        // Cost: κ only (0-bit corrections).
        assert_eq!(p.cost_bits, 2 * 64 + DEFAULT_OVERHEAD_BITS);
    }

    #[test]
    fn positivity_shift_values() {
        assert_eq!(positivity_shift(&[5, 10], 2), 0);
        assert_eq!(positivity_shift(&[0, 10], 2), 3);
        assert_eq!(positivity_shift(&[-7], 4), 12);
        assert_eq!(positivity_shift(&[], 4), 0);
        assert_eq!(positivity_shift(&[3], 2), 0);
        assert_eq!(positivity_shift(&[2], 2), 1);
    }

    #[test]
    fn default_epsilons_follow_paper() {
        assert_eq!(default_epsilons(1), vec![0]);
        assert_eq!(default_epsilons(2), vec![0, 2]);
        assert_eq!(default_epsilons(5), vec![0, 2, 4, 8]); // ⌈log₂ 5⌉ = 3
        assert_eq!(default_epsilons(1024), vec![0, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
    }

    #[test]
    fn partition_cost_never_worse_than_single_pair_greedy() {
        // Optimality sanity: the DP with pairs {(linear, ε)} must cost no more
        // than the greedy minimal-fragment partition with the same pair.
        let mut rng = StdRng::seed_from_u64(1);
        let values: Vec<i64> = {
            let mut v = 0i64;
            (0..500).map(|_| { v += rng.random_range(-10..11); v }).collect()
        };
        for eps in [0u64, 2, 8] {
            let cfg = PartitionConfig::lossless(&[Kind::Linear], &[eps], 0);
            let p = partition(&values, &cfg);
            check_partition(&values, &p, 0);
            let greedy = crate::fit::greedy_partition(&values, Kind::Linear, eps, 0);
            let cw = bits_for_residual_bound(eps) as u64;
            let greedy_cost: u64 = greedy
                .iter()
                .map(|f| (f.len() as u64) * cw + 2 * 64 + DEFAULT_OVERHEAD_BITS)
                .sum();
            assert!(
                p.cost_bits <= greedy_cost,
                "eps={eps}: dp {} > greedy {greedy_cost}",
                p.cost_bits
            );
        }
    }

    #[test]
    fn dp_beats_greedy_on_crafted_input() {
        // A long line followed by a parabola: the multi-kind DP should choose
        // linear for the first part and quadratic for the second, costing less
        // than either kind alone.
        let mut values: Vec<i64> = (0..300).map(|k| 2 * k + 5).collect();
        values.extend((0..300).map(|k| 600 + k * k / 3));
        let shift = 0;
        let both = PartitionConfig::lossless(&[Kind::Linear, Kind::Quadratic], &[0, 2], shift);
        let lin_only = PartitionConfig::lossless(&[Kind::Linear], &[0, 2], shift);
        let p_both = partition(&values, &both);
        let p_lin = partition(&values, &lin_only);
        check_partition(&values, &p_both, shift);
        check_partition(&values, &p_lin, shift);
        assert!(p_both.cost_bits <= p_lin.cost_bits);
        let kinds_used: std::collections::HashSet<_> =
            p_both.fragments.iter().map(|f| f.kind).collect();
        assert!(kinds_used.contains(&Kind::Quadratic), "quadratic unused: {kinds_used:?}");
    }

    #[test]
    fn multi_eps_choice_adapts_to_noise_level() {
        // First half: exact line (wants ε = 0). Second half: noisy line
        // (wants larger ε). The DP should not pay big corrections everywhere.
        let mut rng = StdRng::seed_from_u64(9);
        let mut values: Vec<i64> = (0..400).map(|k| 3 * k).collect();
        values.extend((0..400).map(|k| 1200 + 3 * k + rng.random_range(-50..51)));
        let cfg = PartitionConfig::lossless(&[Kind::Linear], &[0, 2, 8, 32, 64], 0);
        let p = partition(&values, &cfg);
        check_partition(&values, &p, 0);
        // The clean prefix should be covered by few fragments with tiny ε.
        let first = &p.fragments[0];
        assert!(first.len() >= 300, "clean prefix fragmented: len {}", first.len());
        assert!(p.epsilons[0] <= 2, "clean prefix got eps {}", p.epsilons[0]);
    }

    #[test]
    fn lossy_config_charges_only_parameters() {
        let values: Vec<i64> = (0..100).map(|k| k * k).collect();
        let cfg = PartitionConfig::lossy(&[Kind::Linear, Kind::Quadratic], 3, 0);
        let p = partition(&values, &cfg);
        check_partition(&values, &p, 0);
        // cost = Σ κ_f, no correction term
        let expected: u64 = p
            .fragments
            .iter()
            .map(|f| f.kind.param_count() as u64 * 64 + DEFAULT_OVERHEAD_BITS)
            .sum();
        assert_eq!(p.cost_bits, expected);
    }

    #[test]
    fn log_domain_kinds_with_shift() {
        let mut rng = StdRng::seed_from_u64(33);
        let values: Vec<i64> = {
            let mut v = -50i64;
            (0..300).map(|_| { v += rng.random_range(-3..5); v }).collect()
        };
        let epsilons = [0u64, 2, 8];
        let shift = positivity_shift(&values, 8);
        let cfg = PartitionConfig::lossless(
            &[Kind::Linear, Kind::Exponential, Kind::Power, Kind::Gaussian],
            &epsilons,
            shift,
        );
        let p = partition(&values, &cfg);
        check_partition(&values, &p, shift);
    }

    #[test]
    fn suffix_edges_preserve_origin() {
        // Force a situation where suffix edges matter and verify origins are
        // recorded (origin ≤ start with correct residuals, already asserted
        // in check_partition on every test).
        let mut rng = StdRng::seed_from_u64(13);
        let values: Vec<i64> = {
            let mut v = 0i64;
            (0..600).map(|i| {
                if i % 97 == 0 { v += rng.random_range(-200..200); }
                v += rng.random_range(-2..3);
                v
            }).collect()
        };
        let cfg = PartitionConfig::lossless(
            &Kind::NEATS_DEFAULT,
            &[0, 2, 8],
            positivity_shift(&values, 8),
        );
        let p = partition(&values, &cfg);
        check_partition(&values, &p, cfg.shift);
    }
}
