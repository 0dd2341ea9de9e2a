"""Random polytopes as point clouds and Monte Carlo mean outer radii.

The projected outer radius of a point hull is max_j |P_F X_j|, so no convex
hull is ever built; everything reduces to inner products with frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimates import Estimate
from .grassmann import haar_frames
from .parallel import lane_count, run_lanes
from .streams import StreamKey

_BLOCK = 1 << 16  # bound on a chunk's product and on a block of frames, in float64s
# np.add.reduceat sums a segment as its first element plus numpy's pairwise sum
# of the rest, and pairwise summation adds fewer than 8 terms left to right: a
# fact about numpy, not a tuning knob.
_PAIRWISE_LINEAR = 8
# Two facts about the OpenBLAS numpy bundles, pinned in tests/test_radii.py: at
# one thread, a chunk of rows of a product has the bits of the same rows of the
# whole product when (a) its GEMM does more than 10^6 multiply-adds, past which
# OpenBLAS leaves its small-matrix kernel, and (b) it starts on OpenBLAS's grid
# of 12-row tiles (at w = 199 or 260, chunks of 329 or 256 rows change entries
# in the last w % 8 columns); 48 rows also fit a grid of 16.
_GEMM_FLOOR = 1 << 20
_ROW_TILE = 48
_SCREEN_FLOATS = 1 << 18  # bound on a lane's float32 product in the max kernel's screen


@dataclass(frozen=True, eq=False)
class PointCloud:
    """N sample points whose convex hull is the random polytope.

    Kept only because the benchmark's radius_profile hook reads cloud.points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, n) array")


@dataclass(frozen=True, eq=False)
class RadiusProfile:
    """Flag-averaged projected radii over a grid of projection dimensions.

    Built from nested flags, so ``values`` is nondecreasing in k exactly,
    not just on average.
    """

    ks: np.ndarray
    values: np.ndarray
    stderrs: np.ndarray

    def estimate(self, k: int) -> Estimate:
        i = int(np.searchsorted(self.ks, k))
        if i >= self.ks.size or self.ks[i] != k:
            raise KeyError(f"profile has no entry for k={k}")
        return Estimate(float(self.values[i]), float(self.stderrs[i]))


def projected_sq_norms(points: np.ndarray, frames: np.ndarray, ks) -> np.ndarray:
    """(N, len(ks)) squared norms of the points projected onto the first k frame
    columns, for each k of the increasing ``ks``.  Squares are summed by segment
    and the segments accumulated, so every row is nondecreasing in k exactly.
    ``frames`` is one (n, k) frame or a (B, n, k) stack, which gives a
    (B, N, len(ks)) result whose slice b equals the result for frames[b] alone;
    one frame is projected as a stack of one, through _project_stack.

    The sums have the bits of np.cumsum(np.add.reduceat(sq, [0, *ks[:-1]])):
    segments of at most _PAIRWISE_LINEAR columns are summed as column adds in
    reduceat's order (the first column plus the rest added left to right),
    longer ones by reduceat itself, and the prefix sums are column adds.
    """
    N, kmax = points.shape[0], ks[-1]
    stack = frames[..., :kmax].reshape(-1, frames.shape[-2], kmax)
    out = np.empty((len(stack), N, len(ks)))
    _project_stack(points, lambda lo, hi: stack[lo:hi], len(stack), kmax,
                   lambda sq, lo, hi: _sum_segments(sq, ks, out[lo:hi]))
    return out.reshape(frames.shape[:-2] + out.shape[1:])


def _floor_rows(n: int, w: int) -> int:
    """The fewest rows, a multiple of _ROW_TILE, whose product with an (n, w)
    frame does _GEMM_FLOOR multiply-adds."""
    return -(-_GEMM_FLOOR // (n * w * _ROW_TILE)) * _ROW_TILE


def _chunk_rule(N: int, n: int, w: int, split_rows: bool) -> tuple[int, bool]:
    """How N points are projected onto a (B, n, w) stack: (slices per chunk, cut).

    A chunk is as many whole slices as keep its N x w products within _BLOCK
    floats, or one slice when a slice needs more.  With ``split_rows`` a
    slice is cut into rows when both hold: its N x w product exceeds _BLOCK
    floats, and the cloud holds at least two rescore chunks, N >=
    2 _floor_rows(n, w).  A cut slice is screened and projected only in the
    _rescore_chunks its screen keeps (_project_stack).
    """
    cut = split_rows and N * w > _BLOCK and N >= 2 * _floor_rows(n, w)
    return max(1, _BLOCK // (N * w)), cut


def _rescore_chunk(row: int, N: int, n: int, w: int) -> tuple[int, int]:
    """The rows r0..r1 that the max kernel projects in float64 for ``row``:
    _floor_rows(n, w) rows from the multiple of _ROW_TILE at or below row, or,
    where they would pass N, the rows to N from the last multiple that leaves
    at least that many (a cut cloud holds two such chunks).  Such a chunk starts
    on the tile grid and does _GEMM_FLOOR multiply-adds, so by the two facts
    above its rows have the bits of the same rows of the whole product."""
    rows = _floor_rows(n, w)
    r0 = row // _ROW_TILE * _ROW_TILE
    if r0 + rows <= N:
        return r0, r0 + rows
    return (N - rows) // _ROW_TILE * _ROW_TILE, N


def _project_stack(
    points: np.ndarray, frames, count: int, w: int, reduce,
    ks: np.ndarray | None = None, norms: np.ndarray | None = None,
) -> None:
    """Call reduce(points[r0:r1] @ frames(lo, hi), lo, hi) over a stack of
    ``count`` (n, w) slices, frames(lo, hi) being its slices lo..hi: each row
    chunk r0..r1 of each chunk of slices lo..hi.

    A chunk holds the slices per chunk of _chunk_rule, but no more than keep
    the lanes' frames within _BLOCK floats together (one slice when a single
    one needs more); the lanes are counted from _chunk_rule's chunks first.
    Chunks run in parallel.lane_count's lanes through run_lanes, so every
    product runs on one BLAS thread.  A lane calls frames once per chunk it
    takes and runs the chunk's row chunks in order, projecting into its own
    scratch; rows are cut only in chunks of one slice, so no two lanes write
    one slice's slots.  Neither ``frames`` nor ``reduce`` runs lanes; reduce
    may overwrite the product and writes (or accumulates) only lo..hi's slots.

    Rows are cut only for the max kernel, which passes its ``ks`` and the
    points' checked squared ``norms`` (for _Screen to overwrite).  The lane
    that takes a slice cut into rows screens it in float32 (_Screen), and
    its row chunks are the _rescore_chunk of each row that can hold the
    slice's max over the points for some k; a row may come twice, which a
    running max allows.  Otherwise the one row chunk is 0..N.
    """
    N, n = points.shape
    per_chunk, cut = _chunk_rule(N, n, w, ks is not None)
    # a rescore chunk that ends at N has fewer than _ROW_TILE rows more than the floor
    rows = _floor_rows(n, w) + _ROW_TILE if cut else N
    screen_floats = _SCREEN_FLOATS if cut else 0
    lanes = lane_count(-(-count // per_chunk), per_chunk * rows * w + screen_floats)
    per_chunk = min(per_chunk, max(1, _BLOCK // (lanes * n * w)))
    scratch = np.empty((lanes, min(per_chunk, count) * rows * w))
    screen = _Screen(points, norms, ks, lanes) if cut else None

    def block(lane: int, start: int, stop: int):
        for chunk in range(start, stop):
            yield
            lo = chunk * per_chunk
            hi = min(lo + per_chunk, count)
            stack = frames(lo, hi)
            cuts = [(0, N)]
            if cut:
                scan = _Scan(screen, stack[0].T @ stack[0])
                narrow = stack[0, :, : screen.width].astype(np.float32)
                for r0, r1 in screen.blocks:
                    sq = np.matmul(screen.points[r0:r1], narrow,
                                   out=screen.product[lane, : r1 - r0])
                    np.square(sq, out=sq)
                    scan.take(r0, np.matmul(sq, screen.prefix, out=screen.sums[lane, : r1 - r0]))
                cuts = scan.chunks()
            for r0, r1 in cuts:
                product = scratch[lane, : (hi - lo) * (r1 - r0) * w].reshape(hi - lo, r1 - r0, w)
                reduce(np.matmul(points[r0:r1], stack, out=product), lo, hi)

    run_lanes(block, -(-count // per_chunk), lanes)


def _gamma(m: int, unit: float) -> float:
    """Higham's gamma_m = m u / (1 - m u) for the unit roundoff ``unit``."""
    return m * unit / (1 - m * unit)


def _relative_error(ks: np.ndarray, adds: int, unit: float, rho: float, eps: float) -> np.ndarray:
    """The bound, over m, on the error of sum_{c<k} p_c^2 for each k of ks when
    each p_c is within rho |a| |f_c| of a . f_c, each square is rounded to
    ``unit`` and each sum takes at most ``adds`` adds (_Screen's derivation)."""
    d = (2 * np.sqrt(ks) * rho + ks * rho * rho) * (1 + eps)
    return ((1 + unit) * (1 + _gamma(adds, unit)) - 1) * (1 + eps + d) + d


class _Screen:
    """The max kernel's float32 screen of one cloud, made for slices cut into rows.

    Its bound needs n u below 1 for gamma_n and every squared norm finite
    and below 2^1000, far from float64's range: _flag_radii checks both.
    It holds a float32 copy of the cloud scaled by 2^-e, e = the exponent of
    max_j |x_j| plus one, so every coordinate is below 1/2 (the scaling is
    exact, and float32 neither overflows nor loses the max), and the float64
    squared norms |x_j|^2 times 2^-2e.  For a flag F the lane projects the
    copy onto F's float32 cast in blocks of at most _SCREEN_FLOATS entries,
    squares the block and takes its prefix sums with a 0/1 matrix: s_jk for
    each k of ``screened``, ks without a top k = n.  When ks[-1] = n the frame
    is square, and the scaled norm stands for s_jn.  _Scan keeps the rows j
    with s_jk + E_k >= T_k for some k, T_k = max_j (s_jk - E_k), where E_k
    bounds |s_jk - v_jk| for every j, v_jk being the float64 kernel's value
    (scaled): T_k is at most max_j v_jk, so a row where v_jk is the max
    passes T_k as it grows, and _rescore_chunk gives the max's bits.

    The bound.  Scaled by 2^-e, let a = x_j, m = the largest norm (at least
    max_j |a|^2 up to its rounding), q_k = sum_{c<k} (a . f_c)^2 exactly,
    eps >= |F^T F - I|_2, so |F|^2 and each |f_c|^2 are at most 1 + eps, and
    gamma_m = m u / (1 - m u): a sum or dot product of m terms errs by at
    most gamma_m times the sum of their magnitudes in any order, with FMA
    or without (Higham 2002, sec. 3.1).
      * Float32, u = 2^-24: y = fl(a) and g_c = fl(f_c) are within u of a
        and f_c entrywise, so the GEMM's p_c is within d_c = rho |a| |f_c|
        of a . f_c, rho = (1 + u)^2 (1 + gamma_n) - 1.  By Cauchy-Schwarz
        and q_k <= (1 + eps) |a|^2, sum_{c<k} |p_c^2 - (a . f_c)^2| <=
        sum d_c (2 |a . f_c| + d_c) <= D_k |a|^2, D_k = (2 sqrt(k) rho +
        k rho^2) (1 + eps).  The square, and the prefix sums of nonnegative
        terms with 0/1 weights in at most w' = width adds, scale that sum by
        at most (1 + u)(1 + gamma_w'), so |s_jk - q_k| <= [((1 + u)(1 +
        gamma_w') - 1)(1 + eps + D_k) + D_k] m (_relative_error).
      * The float64 kernel, u' = 2^-53: the same with rho' = gamma'_n (its
        inputs are exact) and at most w = ks[-1] adds.
      * The top column: the norm is within gamma'_n |a|^2 of |a|^2, and
        ||a|^2 - q_n| = |a^T (F F^T - I) a| <= eps |a|^2, since F F^T and
        F^T F have the same eigenvalues when F is square.
      * Underflow, also flushed to zero: each float32 operation errs by at
        most 2^-126 and each float64 one by 2^-1022 before scaling, so
        2^(-1022-e) on a product and 2^(-1022-2e) on a square or sum;
        ``underflow`` = 8 n w times their sum bounds the total of every
        value, the inputs' rounding included.
    E_k is the screen's bound plus the kernel's (or the top column's two),
    plus 8 u' m for the float64 comparisons with T_k and the underflow
    term, times 1 + 2^-4 for the rounding of m and of the bound itself.
    eps is twice |fl(F^T F) - I|_F + 2 gamma'_n trace(fl(F^T F)), whose
    second term bounds the Gram matrix's own rounding.
    """

    def __init__(self, points: np.ndarray, norms: np.ndarray, ks: np.ndarray, lanes: int):
        (self.N, self.n), self.ks = points.shape, ks
        e = int(np.frexp(np.sqrt(np.max(norms)))[1]) + 1
        self.points = np.ldexp(points, -e, out=np.empty(points.shape, np.float32),
                               casting="same_kind")
        self.norms = np.ldexp(norms, -2 * e, out=norms)
        self.largest = float(np.max(self.norms))  # m
        self.underflow = 8 * self.n * int(ks[-1]) * (
            2.0**-126 + 2.0 ** (-1022 - e) + 2.0 ** (-1022 - 2 * e))
        self.screened = ks[:-1] if ks[-1] == self.n else ks
        self.width = int(self.screened[-1]) if self.screened.size else 0
        self.prefix = (np.arange(self.width)[:, None] < self.screened).astype(np.float32)
        rows = min(_SCREEN_FLOATS // max(1, self.width), self.N)
        self.blocks = [(r0, min(r0 + rows, self.N)) for r0 in range(0, self.N, rows)
                       ] if self.width else []
        self.product = np.empty((lanes, rows, self.width), np.float32)  # each lane's scratch
        self.sums = np.empty((lanes, rows, self.screened.size), np.float32)

    def bound(self, gram: np.ndarray) -> tuple[np.ndarray, float | None]:
        """(E_k for each screened k, E_n of the top column or None) for the
        flag whose Gram matrix fl(F^T F) is ``gram``, which it overwrites."""
        u, v, n = 2.0**-24, 2.0**-53, self.n
        trace = np.trace(gram)
        gram.flat[:: len(gram) + 1] -= 1.0
        eps = 2 * (float(np.linalg.norm(gram)) + 2 * _gamma(n, v) * trace)
        kernel = _relative_error(self.ks, int(self.ks[-1]), v, _gamma(n, v), eps)
        screen = _relative_error(self.screened, self.width, u,
                                 (1 + u) ** 2 * (1 + _gamma(n, u)) - 1, eps)

        def slack(relative):
            return (1 + 2.0**-4) * ((relative + 8 * v) * self.largest + self.underflow)

        top = None
        if self.screened.size < self.ks.size:
            top = float(slack(_gamma(n, v) + eps + kernel[-1]))
        return slack(screen + kernel[: self.screened.size]), top


class _Scan:
    """One flag's pass over a _Screen: the running T_k of its screened ks and
    the rows kept so far, with their screened sums."""

    def __init__(self, screen: _Screen, gram: np.ndarray):
        self.screen = screen
        self.slack, top_slack = screen.bound(gram)
        self.peak = np.full(self.slack.size, -np.inf)
        self.kept = []
        # every scaled norm is known at once: T_n = m - E_n
        self.top_rows = (np.flatnonzero(screen.norms >= screen.largest - top_slack - top_slack)
                         if top_slack is not None else np.empty(0, dtype=np.intp))

    def _least(self) -> np.ndarray:
        """T_k - E_k in float32, rounded down."""
        return np.nextafter((self.peak - self.slack).astype(np.float32), np.float32(-np.inf))

    def take(self, r0: int, sums: np.ndarray) -> None:
        """Raise T_k by the screened sums of rows r0.. and keep the rows that pass."""
        sums = np.ascontiguousarray(sums.T)  # k-major: each k's max and test read contiguous rows
        np.maximum(self.peak, np.max(sums, axis=1) - self.slack, out=self.peak)
        rows = np.flatnonzero(np.any(sums >= self._least()[:, None], axis=0))
        self.kept.append((r0 + rows, sums[:, rows]))

    def chunks(self):
        """The rescore chunks, in row order, of the kept rows that pass the final T_k."""
        least, screen = self._least()[:, None], self.screen
        rows = [self.top_rows, *(rows[np.any(sums >= least, axis=0)] for rows, sums in self.kept)]
        end = 0
        for row in np.unique(np.concatenate(rows) // _ROW_TILE) * _ROW_TILE:
            if row >= end:
                r0, end = _rescore_chunk(int(row), screen.N, screen.n, int(screen.ks[-1]))
                yield r0, end


def _sum_segments(sq: np.ndarray, ks, out: np.ndarray) -> None:
    """Square the projections sq in place and write their segment prefix sums
    to out, an array separate from sq, as projected_sq_norms documents; numpy
    only."""
    np.square(sq, out=sq)
    bounds = [0, *ks]
    segments = list(zip(bounds[:-1], bounds[1:]))
    if max(hi - lo for lo, hi in segments) > _PAIRWISE_LINEAR:
        np.add.reduceat(sq, bounds[:-1], axis=-1, out=out)
    else:
        for j, (lo, hi) in enumerate(segments):
            if hi - lo == 1:
                out[..., j] = sq[..., lo]
            else:
                rest = sq[..., lo + 1]  # a view: sq is this call's own temporary
                for c in range(lo + 2, hi):
                    rest += sq[..., c]
                np.add(sq[..., lo], rest, out=out[..., j])
    for j in range(1, len(ks)):
        out[..., j] += out[..., j - 1]


def _max_sq_norms(sq: np.ndarray, ks, out: np.ndarray) -> None:
    """The max kernel's reduction: _sum_segments of sq, then out raised to its
    max over the points (axis -2); numpy only.  Callers start out at zero."""
    # segment-major, so the max runs over contiguous rows
    sums = np.empty(sq.shape[:-2] + (len(ks), sq.shape[-2]))
    _sum_segments(sq, ks, sums.swapaxes(-1, -2))
    np.maximum(out, np.max(sums, axis=-1), out=out)


def radius_profile(
    cloud: PointCloud, M: int, key: StreamKey, ks: np.ndarray | None = None
) -> RadiusProfile:
    """Monte Carlo k-th mean outer radii from M Haar flags, monotone in k pathwise.

    Flag i is the haar_frames frame drawn from key.child(i), as wide as the
    largest requested k; its first k columns are a Haar k-frame, so each
    per-k column averages max_j |P_F X_j| over M Haar subspaces F, as
    _flag_radii computes it in lanes that each draw the flags they project.
    The per-point radii never decrease with k, and
    neither does their max or the flag average.  ``ks`` restricts the grid
    (default: every k = 1..n).  A cloud outside _flag_radii's input contract
    raises ValueError before any flag is drawn.
    """
    N, n = cloud.points.shape
    if ks is None:
        ks = np.arange(1, n + 1)
    # checked as given, before a k too large for a C long reaches np.asarray
    outside = [k for k in ks if not 1 <= k <= n]
    if outside:
        raise ValueError(f"k={outside[0]} outside 1..{n}")
    ks = np.asarray(ks, dtype=int)
    if ks.size == 0 or np.any(np.diff(ks) <= 0):
        raise ValueError(f"k values must be strictly increasing within 1..{n}")
    if M < 2:
        raise ValueError("need at least 2 flags")
    per_flag = _flag_radii(cloud.points, M, key, ks)
    values = np.mean(per_flag, axis=0)
    stderrs = np.std(per_flag, axis=0, ddof=1) / np.sqrt(M)
    return RadiusProfile(ks, values, stderrs)


def _flag_radii(points: np.ndarray, M: int, key: StreamKey, ks: np.ndarray) -> np.ndarray:
    """(M, len(ks)) radii max_j |P_F X_j| of flag i = key.child(i), the max kernel.

    Row i has the bits of np.sqrt(np.max(projected_sq_norms(points, frame_i,
    ks), axis=0)) at any chunk size, lane count and BLAS thread count.  The
    flags are one _project_stack stack, whose lanes draw each chunk's flags
    with haar_frames before they project it.  Its input contract, which the
    float32 screen's bound needs: n < 2^20, and squared norms finite and
    below 2^1000; any other cloud raises ValueError.  A flag that _chunk_rule
    cuts into rows is a chunk of its own: the lane that drew it screens it
    in float32 and projects in float64, in row order, only the rescore
    chunks of the rows that can hold its max for some k.  Each projected
    chunk sums its segments into its own array and raises the flag's
    running max per k, whose zero start changes no max of squared norms;
    the max is exact, so the chunks keep the bits, and the state is
    M * len(ks) floats.
    """
    n, kmax = points.shape[1], int(ks[-1])
    norms = np.einsum("ij,ij->i", points, points)
    if not (n < 1 << 20 and np.max(norms) < 2.0**1000):
        raise ValueError("points need fewer than 2^20 coordinates and squared norms "
                         "that are finite and below 2^1000")
    peaks = np.zeros((M, ks.size))  # squared, over the points projected so far

    def flags(lo: int, hi: int) -> np.ndarray:
        return haar_frames(n, kmax, [key.child(i) for i in range(lo, hi)])

    _project_stack(points, flags, M, kmax,
                   lambda sq, lo, hi: _max_sq_norms(sq, ks, peaks[lo:hi]), ks, norms)
    return np.sqrt(peaks)
