//! Online stabbing-line maintenance — the engine behind Theorem 1.
//!
//! After the paper's per-kind change of variable, every ε-constraint has the
//! form `α_k ≤ m·t_k + b ≤ ω_k` with `t_k` strictly increasing: geometrically,
//! the line `y = m·t + b` must *stab* the vertical segment
//! `[(t_k, α_k), (t_k, ω_k)]` for every k. O'Rourke (CACM 1981) showed this
//! feasibility can be maintained online in amortised O(1) per segment by
//! tracking the extreme-slope feasible lines and two convex hulls of segment
//! endpoints. This module implements that algorithm; `fit::kinds` supplies
//! the per-function-kind transforms that feed it.
//!
//! Invariants maintained after each accepted segment:
//! * `line_max` — the feasible line of maximum slope, supported by a *floor*
//!   endpoint `(t_i, α_i)` on the left and a *ceiling* endpoint `(t_j, ω_j)`
//!   on the right (i < j).
//! * `line_min` — the feasible line of minimum slope, supported by a ceiling
//!   endpoint on the left and a floor endpoint on the right.
//! * `floor_hull` — the upper convex hull of floor endpoints seen so far
//!   (candidate left supports for future `line_max` rotations).
//! * `ceil_hull` — the lower convex hull of ceiling endpoints (candidate
//!   left supports for future `line_min` rotations).
//!
//! ## One fitter, many fragments
//!
//! Algorithm 1 grows millions of short fragments (a handful of points each
//! on noisy data), so whatever a fitter costs to set up is paid millions of
//! times. A [`StabbingLine`] is therefore built once and reused:
//! [`StabbingLine::clear`] empties it but keeps both hull buffers, and
//! [`StabbingLine::extend`] is the one place segments are fed in — it handles
//! the first and second segment (which only set the state up) before
//! entering a loop that knows two extreme lines exist, so that loop carries
//! no per-segment case analysis. [`StabbingLine::try_add`] is `extend` over
//! a single segment.
//!
//! Every extreme line remembers the slope it was built with, and a rotation
//! carries the slope it just compared into the next comparison and into the
//! new support. These are the same divisions of the same operands the
//! textbook formulation repeats at every use, done once: accept/refuse
//! decisions, hull contents and [`StabbingLine::solution`] are bit-identical
//! to recomputing them.

/// A 2D point in the transformed (t, value) space.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Point {
    /// Transformed abscissa `t_k`.
    pub t: f64,
    /// Transformed ordinate (`α_k` or `ω_k`).
    pub v: f64,
}

/// A line `y = slope·t + intercept` in the transformed space, i.e. a pair
/// `(m, b)` of feasible (transformed) function parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Line {
    /// Slope `m`.
    pub slope: f64,
    /// Intercept `b`.
    pub intercept: f64,
}

impl Line {
    /// Evaluates the line at `t`.
    #[inline]
    pub fn at(&self, t: f64) -> f64 {
        self.slope * t + self.intercept
    }
}

#[inline]
fn slope_between(a: Point, b: Point) -> f64 {
    (b.v - a.v) / (b.t - a.t)
}

/// Cross product of (b−a) × (c−a); positive for a counter-clockwise turn.
#[inline]
fn cross(a: Point, b: Point, c: Point) -> f64 {
    (b.t - a.t) * (c.v - a.v) - (b.v - a.v) * (c.t - a.t)
}

/// An extreme line: through `left` with the slope towards the right support
/// it was built from.
#[derive(Clone, Copy, Debug)]
struct Support {
    left: Point,
    slope: f64,
}

impl Support {
    /// Placeholder until two segments exist; never read before then.
    const UNSET: Support = Support { left: Point { t: 0.0, v: 0.0 }, slope: 0.0 };

    #[inline]
    fn through(left: Point, right: Point) -> Self {
        Self { left, slope: slope_between(left, right) }
    }

    #[inline]
    fn at(&self, t: f64) -> f64 {
        self.left.v + self.slope * (t - self.left.t)
    }
}

/// Online feasibility of a stabbing line through vertical segments with
/// strictly increasing abscissae.
#[derive(Clone, Debug)]
pub struct StabbingLine {
    /// Upper hull of floor points, front-trimmed by `floor_start`.
    floor_hull: Vec<Point>,
    floor_start: usize,
    /// Lower hull of ceiling points, front-trimmed by `ceil_start`.
    ceil_hull: Vec<Point>,
    ceil_start: usize,
    /// The extreme lines; meaningful once two segments are in.
    line_max: Support,
    line_min: Support,
    count: usize,
    last_t: f64,
}

impl Default for StabbingLine {
    fn default() -> Self {
        Self::new()
    }
}

impl StabbingLine {
    /// Creates an empty instance (no segments yet; any line is feasible).
    pub fn new() -> Self {
        Self {
            floor_hull: Vec::new(),
            floor_start: 0,
            ceil_hull: Vec::new(),
            ceil_start: 0,
            line_max: Support::UNSET,
            line_min: Support::UNSET,
            count: 0,
            last_t: f64::NEG_INFINITY,
        }
    }

    /// Forgets every segment, keeping the hull buffers: a cleared fitter
    /// behaves exactly like a new one and allocates nothing until a fragment
    /// outgrows the longest one it has held.
    pub fn clear(&mut self) {
        self.floor_hull.clear();
        self.floor_start = 0;
        self.ceil_hull.clear();
        self.ceil_start = 0;
        self.count = 0;
        self.last_t = f64::NEG_INFINITY;
    }

    /// Number of segments accepted so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether no segment has been accepted yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Tries to add the vertical segment `[lo, hi]` at abscissa `t`.
    ///
    /// Returns `true` if a stabbing line still exists (the segment is
    /// accepted and the state updated); `false` if adding the segment would
    /// make the problem infeasible (the state is left unchanged, ending the
    /// fragment as in Theorem 1).
    ///
    /// `t` must be strictly greater than the previous abscissa and
    /// `lo ≤ hi`; non-finite inputs are rejected.
    pub fn try_add(&mut self, t: f64, lo: f64, hi: f64) -> bool {
        let mut segment = Some((t, lo, hi));
        self.extend(|| segment.take()) == 1
    }

    /// Adds the segments `(t, lo, hi)` that `next` yields, in order, until
    /// one is refused (as [`Self::try_add`] would refuse it; the state then
    /// holds exactly the accepted ones) or `next` returns `None`. Returns
    /// how many were accepted.
    #[inline]
    pub fn extend(&mut self, mut next: impl FnMut() -> Option<(f64, f64, f64)>) -> usize {
        let before = self.count;
        if self.count < 2 {
            let (first_floor, first_ceil) = if self.count == 0 {
                let Some((floor, ceil)) = self.admit(&mut next) else { return 0 };
                self.floor_hull.push(floor);
                self.ceil_hull.push(ceil);
                self.accepted(floor.t);
                (floor, ceil)
            } else {
                // The hulls hold exactly the one segment's endpoints.
                (self.floor_hull[0], self.ceil_hull[0])
            };
            let Some((floor, ceil)) = self.admit(&mut next) else { return self.count - before };
            // Max-slope line: from the first floor up to the new ceiling.
            self.line_max = Support::through(first_floor, ceil);
            // Min-slope line: from the first ceiling down to the new floor.
            self.line_min = Support::through(first_ceil, floor);
            self.floor_hull.push(floor);
            self.ceil_hull.push(ceil);
            self.accepted(floor.t);
        }
        while let Some((floor, ceil)) = self.admit(&mut next) {
            let t = floor.t;
            let (at_max, at_min) = (self.line_max.at(t), self.line_min.at(t));
            // Feasibility: even the extreme lines must reach the segment.
            if at_max < floor.v || at_min > ceil.v {
                break;
            }
            // The new floor may force the min slope to rotate upwards.
            if at_min < floor.v {
                self.line_min = self.rotate_min(floor);
            }
            // The new ceiling may force the max slope to rotate downwards.
            if at_max > ceil.v {
                self.line_max = self.rotate_max(ceil);
            }
            self.push_floor(floor);
            self.push_ceil(ceil);
            self.accepted(t);
        }
        self.count - before
    }

    /// The next segment as its (floor, ceiling) endpoints, if there is one
    /// and it is well-formed: finite, `lo ≤ hi`, to the right of the last.
    /// Called at three places in `extend`; out of line, the four values come
    /// back through the stack on every segment.
    #[inline(always)]
    fn admit(&self, next: &mut impl FnMut() -> Option<(f64, f64, f64)>) -> Option<(Point, Point)> {
        let (t, lo, hi) = next()?;
        if !(t.is_finite() && lo.is_finite() && hi.is_finite()) || lo > hi || t <= self.last_t {
            return None;
        }
        Some((Point { t, v: lo }, Point { t, v: hi }))
    }

    #[inline(always)]
    fn accepted(&mut self, t: f64) {
        self.count += 1;
        self.last_t = t;
    }

    /// The new `line_min` through `p`: its left support is the ceiling-hull
    /// point maximising the slope towards `p`; advances the hull front.
    #[inline]
    fn rotate_min(&mut self, p: Point) -> Support {
        let hull = &self.ceil_hull;
        let mut i = self.ceil_start;
        let mut slope = slope_between(hull[i], p);
        while i + 1 < hull.len() {
            let next = slope_between(hull[i + 1], p);
            if next >= slope {
                (i, slope) = (i + 1, next);
            } else {
                break;
            }
        }
        self.ceil_start = i;
        Support { left: hull[i], slope }
    }

    /// The new `line_max` through `p`: its left support is the floor-hull
    /// point minimising the slope towards `p`; advances the hull front.
    #[inline]
    fn rotate_max(&mut self, p: Point) -> Support {
        let hull = &self.floor_hull;
        let mut i = self.floor_start;
        let mut slope = slope_between(hull[i], p);
        while i + 1 < hull.len() {
            let next = slope_between(hull[i + 1], p);
            if next <= slope {
                (i, slope) = (i + 1, next);
            } else {
                break;
            }
        }
        self.floor_start = i;
        Support { left: hull[i], slope }
    }

    /// Inserts a floor point into the upper hull (clockwise turns only).
    #[inline]
    fn push_floor(&mut self, p: Point) {
        while let [.., a, b] = self.floor_hull[self.floor_start..] {
            if cross(a, b, p) >= 0.0 {
                self.floor_hull.pop();
            } else {
                break;
            }
        }
        self.floor_hull.push(p);
    }

    /// Inserts a ceiling point into the lower hull (counter-clockwise turns
    /// only).
    #[inline]
    fn push_ceil(&mut self, p: Point) {
        while let [.., a, b] = self.ceil_hull[self.ceil_start..] {
            if cross(a, b, p) <= 0.0 {
                self.ceil_hull.pop();
            } else {
                break;
            }
        }
        self.ceil_hull.push(p);
    }

    /// Returns a feasible line for all accepted segments, or `None` if no
    /// segment was accepted.
    ///
    /// With two or more segments, the returned line bisects the extreme
    /// slopes through the intersection point of the two extreme lines, which
    /// is feasible by convexity of the (m, b) polygon (paper §II).
    pub fn solution(&self) -> Option<Line> {
        match self.count {
            0 => None,
            1 => {
                // The hulls hold exactly the one segment's endpoints.
                let (f, c) = (self.floor_hull[0], self.ceil_hull[0]);
                Some(Line { slope: 0.0, intercept: (f.v + c.v) / 2.0 })
            }
            _ => {
                let (lmax, lmin) = (self.line_max, self.line_min);
                let (smax, smin) = (lmax.slope, lmin.slope);
                let slope = 0.5 * (smax + smin);
                // Intersection of the two extreme lines.
                let bmax = lmax.left.v - smax * lmax.left.t;
                let bmin = lmin.left.v - smin * lmin.left.t;
                let intercept = if (smax - smin).abs() > f64::EPSILON * (1.0 + smax.abs()) {
                    let ix = (bmin - bmax) / (smax - smin);
                    let iy = smax * ix + bmax;
                    iy - slope * ix
                } else {
                    0.5 * (bmax + bmin)
                };
                Some(Line { slope, intercept })
            }
        }
    }

    /// The current feasible slope interval `[min, max]`; `None` with fewer
    /// than two segments (where the slope is unconstrained).
    pub fn slope_interval(&self) -> Option<(f64, f64)> {
        (self.count >= 2).then_some((self.line_min.slope, self.line_max.slope))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Brute-force feasibility: does a line stab every segment? Checked by
    /// LP over the candidate support slopes — O(n²) pairs suffice because an
    /// extreme feasible line can always be rotated onto two endpoints.
    fn feasible_brute(segs: &[(f64, f64, f64)]) -> bool {
        if segs.len() <= 2 {
            return segs.iter().all(|&(_, lo, hi)| lo <= hi);
        }
        // Max slope from pairs (floor_i, ceil_j) i<j; min slope from (ceil_i, floor_j).
        let mut smax = f64::INFINITY;
        let mut smin = f64::NEG_INFINITY;
        for i in 0..segs.len() {
            for j in i + 1..segs.len() {
                let dt = segs[j].0 - segs[i].0;
                smax = smax.min((segs[j].2 - segs[i].1) / dt);
                smin = smin.max((segs[j].1 - segs[i].2) / dt);
            }
        }
        if smin > smax + 1e-9 {
            return false;
        }
        // Check that some intercept works for a few candidate slopes.
        for &m in &[smin, smax, 0.5 * (smin + smax)] {
            let mut blo = f64::NEG_INFINITY;
            let mut bhi = f64::INFINITY;
            for &(t, lo, hi) in segs {
                blo = blo.max(lo - m * t);
                bhi = bhi.min(hi - m * t);
            }
            if blo <= bhi + 1e-9 {
                return true;
            }
        }
        false
    }

    fn check_line_stabs(line: Line, segs: &[(f64, f64, f64)], tol: f64) {
        for &(t, lo, hi) in segs {
            let y = line.at(t);
            assert!(
                y >= lo - tol && y <= hi + tol,
                "line {line:?} misses segment at t={t}: y={y} not in [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn empty_has_no_solution() {
        let s = StabbingLine::new();
        assert!(s.solution().is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn single_segment_horizontal_midline() {
        let mut s = StabbingLine::new();
        assert!(s.try_add(1.0, 3.0, 7.0));
        let l = s.solution().unwrap();
        assert_eq!(l.slope, 0.0);
        assert_eq!(l.intercept, 5.0);
    }

    #[test]
    fn two_segments_always_feasible() {
        let mut s = StabbingLine::new();
        assert!(s.try_add(1.0, 0.0, 1.0));
        assert!(s.try_add(2.0, 100.0, 101.0));
        let l = s.solution().unwrap();
        check_line_stabs(l, &[(1.0, 0.0, 1.0), (2.0, 100.0, 101.0)], 1e-9);
    }

    #[test]
    fn rejects_decreasing_t_and_bad_input() {
        let mut s = StabbingLine::new();
        assert!(s.try_add(2.0, 0.0, 1.0));
        assert!(!s.try_add(2.0, 0.0, 1.0)); // equal t
        assert!(!s.try_add(1.0, 0.0, 1.0)); // smaller t
        assert!(!s.try_add(3.0, 1.0, 0.0)); // lo > hi
        assert!(!s.try_add(f64::NAN, 0.0, 1.0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn exact_line_accepts_many_points() {
        // y = 2t + 1 with ±0.5 slack accepts any number of points.
        let mut s = StabbingLine::new();
        for k in 1..=1000 {
            let t = k as f64;
            let y = 2.0 * t + 1.0;
            assert!(s.try_add(t, y - 0.5, y + 0.5), "at k={k}");
        }
        let l = s.solution().unwrap();
        assert!((l.slope - 2.0).abs() < 1e-6);
        assert!((l.intercept - 1.0).abs() < 1e-3);
    }

    #[test]
    fn detects_infeasibility_on_break() {
        // A v-shape that no single line with tight slack can follow.
        let mut s = StabbingLine::new();
        assert!(s.try_add(1.0, 9.9, 10.1));
        assert!(s.try_add(2.0, 4.9, 5.1));
        assert!(s.try_add(3.0, 0.0, 0.2)); // still on the descending line
        assert!(!s.try_add(4.0, 4.9, 5.1)); // turns back up: infeasible
        assert_eq!(s.len(), 3);
        // State unchanged: solution still stabs the first three.
        let l = s.solution().unwrap();
        check_line_stabs(l, &[(1.0, 9.9, 10.1), (2.0, 4.9, 5.1), (3.0, 0.0, 0.2)], 1e-9);
    }

    #[test]
    fn matches_brute_force_on_random_streams() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..300 {
            let n = rng.random_range(3..30);
            let noise = rng.random_range(0.1..5.0);
            let slope = rng.random_range(-10.0..10.0);
            let mut segs: Vec<(f64, f64, f64)> = Vec::new();
            let mut t = 0.0;
            for _ in 0..n {
                t += rng.random_range(0.1..3.0);
                let mid = slope * t + rng.random_range(-noise..noise);
                let half = rng.random_range(0.0..noise);
                segs.push((t, mid - half, mid + half));
            }
            let mut s = StabbingLine::new();
            let mut accepted = Vec::new();
            for &(t, lo, hi) in &segs {
                if s.try_add(t, lo, hi) {
                    accepted.push((t, lo, hi));
                } else {
                    break;
                }
            }
            // 1. whatever was accepted must be brute-force feasible
            assert!(feasible_brute(&accepted), "trial {trial}: accepted set infeasible");
            // 2. the returned line must stab all accepted segments
            if let Some(line) = s.solution() {
                check_line_stabs(line, &accepted, 1e-6);
            }
            // 3. maximality: if we stopped early, accepted + next must be infeasible
            if accepted.len() < segs.len() {
                let mut extended = accepted.clone();
                extended.push(segs[accepted.len()]);
                assert!(
                    !feasible_brute(&extended),
                    "trial {trial}: stopped early at {} although feasible",
                    accepted.len()
                );
            }
        }
    }

    /// A stream of segments, some malformed: non-finite fields, `t` that
    /// repeats or steps back, `lo > hi`, and magnitudes where f64 no longer
    /// holds every integer.
    fn hostile_stream(rng: &mut StdRng) -> Vec<(f64, f64, f64)> {
        let n = rng.random_range(0..60);
        let scale = [1.0, 1e3, (1u64 << 55) as f64][rng.random_range(0..3)];
        let slope = rng.random_range(-4.0..4.0) * scale;
        let mut t = rng.random_range(-50.0..50.0);
        (0..n)
            .map(|_| {
                t += match rng.random_range(0..20) {
                    0 => 0.0,                           // equal t
                    1 => -rng.random_range(0.1..2.0), // decreasing t
                    _ => rng.random_range(0.1..3.0),
                };
                let mid = slope * t + rng.random_range(-2.0..2.0) * scale;
                let half = rng.random_range(0.0..3.0) * scale;
                let (lo, hi) = (mid - half, mid + half);
                match rng.random_range(0..40) {
                    0 => (f64::NAN, lo, hi),
                    1 => (t, f64::NEG_INFINITY, hi),
                    2 => (t, lo, f64::INFINITY),
                    3 => (t, f64::NAN, f64::NAN),
                    4 => (t, hi + scale, lo), // lo > hi
                    _ => (t, lo, hi),
                }
            })
            .collect()
    }

    #[test]
    fn cleared_fitter_is_indistinguishable_from_a_fresh_one() {
        let bits = |l: Option<Line>| l.map(|l| (l.slope.to_bits(), l.intercept.to_bits()));
        let mut rng = StdRng::seed_from_u64(0xC1EA2);
        let mut reused = StabbingLine::new();
        for trial in 0..2000 {
            // Whatever stream A left behind — hull contents, fronts, extreme
            // lines, a refusal — must not show through after `clear()`.
            let stream = hostile_stream(&mut rng);
            reused.clear();
            let mut fresh = StabbingLine::new();
            assert!(reused.is_empty() && reused.solution().is_none());
            for (k, &(t, lo, hi)) in stream.iter().enumerate() {
                // Unlike a fragment, keep feeding after a refusal: the state
                // a refusal leaves must be the same too.
                assert_eq!(
                    reused.try_add(t, lo, hi),
                    fresh.try_add(t, lo, hi),
                    "trial {trial}: segment {k} = ({t}, {lo}, {hi})"
                );
                assert_eq!(reused.len(), fresh.len(), "trial {trial} after segment {k}");
                assert_eq!(bits(reused.solution()), bits(fresh.solution()), "trial {trial} after segment {k}");
                assert_eq!(reused.slope_interval(), fresh.slope_interval(), "trial {trial} after segment {k}");
            }
            // And feeding the stream in one `extend` is the same as one
            // `try_add` per segment up to the first refusal.
            let mut batch = StabbingLine::new();
            let mut feed = stream.iter().copied();
            let accepted = batch.extend(|| feed.next());
            let mut single = StabbingLine::new();
            let expect = stream.iter().take_while(|&&(t, lo, hi)| single.try_add(t, lo, hi)).count();
            assert_eq!(accepted, expect, "trial {trial}");
            assert_eq!(bits(batch.solution()), bits(single.solution()), "trial {trial}");
        }
    }

    #[test]
    fn degenerate_zero_width_segments_exact_interpolation() {
        // Segments of zero height on a line: must accept all of them.
        let mut s = StabbingLine::new();
        for k in 1..=100 {
            let t = k as f64;
            let y = -3.0 * t + 7.0;
            assert!(s.try_add(t, y, y));
        }
        let l = s.solution().unwrap();
        assert!((l.slope + 3.0).abs() < 1e-9);
        assert!((l.intercept - 7.0).abs() < 1e-7);
    }

    #[test]
    fn slope_interval_narrows() {
        let mut s = StabbingLine::new();
        s.try_add(1.0, 0.0, 2.0);
        s.try_add(2.0, 1.0, 3.0);
        let (lo1, hi1) = s.slope_interval().unwrap();
        s.try_add(3.0, 2.0, 4.0);
        let (lo2, hi2) = s.slope_interval().unwrap();
        assert!(lo2 >= lo1 - 1e-12 && hi2 <= hi1 + 1e-12);
        assert!(lo2 <= hi2);
    }
}
