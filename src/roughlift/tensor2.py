"""Step-2 truncated tensor algebra over R^d.

A step-2 lift stores a path increment together with its second iterated
integral.  Adjacent intervals compose with the Chen product

    (a, A) * (b, B) = (a + b, A + B + a (x) b),

which makes the set of lifts a group (identity (0, 0)).  Lifts of whole
paths are stored as running signatures S_{0,i} from the first grid point;
the lift over any subinterval is recovered by group inversion, so the Chen
relation holds by construction.

The area counter-term enters through ``translate``: adding (t-s)*v, with v
anti-symmetric, to the second level of every interval lift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Algebraic identities are exact in exact arithmetic; 1e-12 relative leaves
# headroom for accumulation over <= 1e4 segments in double precision.
IDENTITY_TOL = 1e-12

# Full O(N^2) pair sweep in the Hoelder distances up to this many grid
# intervals, dyadic pairs (i, i + 2^k) beyond.
FULL_PAIRS_LIMIT = 2048

# Grid pairs per block of the Hoelder sweep, over all lifts of a stack: one
# float64 plane of this many pairs is 128 KiB and stays in L2.  At n = 256,
# d = 2, blocks of 2^12 and 2^16 pairs made the sweep about 1.4x and 2x
# slower.
PAIR_BLOCK = 1 << 14

# Grid rows per block of the fine-grid kernels (lift_piecewise_linear and
# gauss.sample_physical), so their working memory beyond the arrays they
# return is O(ROW_BLOCK) whatever the grid size: about 2 MiB for a d = 2
# lift.  At 1.86M steps, blocks of 2^12 to 2^17 rows ran equally fast.
ROW_BLOCK = 1 << 15


def _as_vector(x, name="vector"):
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {a.shape}")
    return a


def _as_square(x, name="matrix"):
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


def is_antisymmetric(v, tol=IDENTITY_TOL):
    v = np.asarray(v, dtype=float)
    scale = max(1.0, float(np.linalg.norm(v)))
    return float(np.linalg.norm(v + v.T)) <= tol * scale


@dataclass(frozen=True)
class StepTwoLift:
    """Group element of one interval: level-1 increment and level-2 d x d matrix."""

    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        l1 = _as_vector(self.level1, "level1")
        l2 = _as_square(self.level2, "level2")
        if l2.shape[0] != l1.shape[0]:
            raise ValueError("level1/level2 dimension mismatch")
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)

    @property
    def dim(self) -> int:
        return self.level1.shape[0]


@dataclass(frozen=True)
class RenormTerm:
    """Anti-symmetric area shift v; translation adds (t-s)*v to every interval."""

    v: np.ndarray

    def __post_init__(self):
        v = _as_square(self.v, "v")
        if not is_antisymmetric(v):
            raise ValueError("area shift must be anti-symmetric")
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.v))


@dataclass(frozen=True)
class LiftedPath:
    """Running signatures S_{0,i} of a path over a strictly increasing grid.

    ``level1[i]``/``level2[i]`` are the two levels of S_{0,i}; S_{0,0} is the
    identity.  Interval lifts S_{i,j} come out of ``interval`` via group
    inversion and therefore satisfy Chen exactly.
    """

    times: np.ndarray
    level1: np.ndarray  # (N+1, d)
    level2: np.ndarray  # (N+1, d, d)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        l1 = np.asarray(self.level1, dtype=float)
        l2 = np.asarray(self.level2, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("times must be strictly increasing")
        if l1.ndim != 2 or l2.ndim != 3:
            raise ValueError("running signature arrays must be (N+1, d) and (N+1, d, d)")
        d = l1.shape[1]
        if l1.shape != (len(t), d) or l2.shape != (len(t), d, d):
            raise ValueError("running signature arrays inconsistent with grid")
        if np.any(l1[0] != 0.0) or np.any(l2[0] != 0.0):
            raise ValueError("running signature must start at the identity")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)

    @property
    def dim(self) -> int:
        return self.level1.shape[1]

    @property
    def n_points(self) -> int:
        return len(self.times)

    def lift_at(self, i: int) -> StepTwoLift:
        """Running lift S_{0,i}."""
        return StepTwoLift(self.level1[i].copy(), self.level2[i].copy())

    def interval(self, i: int, j: int) -> StepTwoLift:
        """Interval lift S_{i,j} = S_{0,i}^{-1} * S_{0,j}."""
        inc = self.level1[j] - self.level1[i]
        l2 = self.level2[j] - self.level2[i] - np.outer(self.level1[i], inc)
        return StepTwoLift(inc, l2)

    def restrict(self, indices) -> "LiftedPath":
        """Sub-grid path, rebased so the first retained point is the identity."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or len(idx) < 1 or np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        t = self.times[idx].copy()
        l1 = self.level1[idx] - self.level1[idx[0]]
        l2 = (self.level2[idx] - self.level2[idx[0]]
              - np.einsum("d,ne->nde", self.level1[idx[0]], l1))
        return LiftedPath(t, np.ascontiguousarray(l1), np.ascontiguousarray(l2))


def identity_lift(dim: int) -> StepTwoLift:
    return StepTwoLift(np.zeros(dim), np.zeros((dim, dim)))


def exp_step2(increment) -> StepTwoLift:
    """Lift of a straight segment: level2 = (1/2) increment (x) increment."""
    inc = _as_vector(increment, "increment")
    if not np.all(np.isfinite(inc)):
        raise ValueError("increment must be finite")
    return StepTwoLift(inc, 0.5 * np.outer(inc, inc))


def chen_mul(a: StepTwoLift, b: StepTwoLift) -> StepTwoLift:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return StepTwoLift(a.level1 + b.level1,
                       a.level2 + b.level2 + np.outer(a.level1, b.level1))


def chen_inv(a: StepTwoLift) -> StepTwoLift:
    return StepTwoLift(-a.level1, np.outer(a.level1, a.level1) - a.level2)


def levy_area(a: StepTwoLift) -> np.ndarray:
    """Anti-symmetric part of the second level."""
    return 0.5 * (a.level2 - a.level2.T)


def sym_part(a: StepTwoLift) -> np.ndarray:
    return 0.5 * (a.level2 + a.level2.T)


def running_sum_block(steps, out, k0: int) -> None:
    """Rows k0 + 1 .. k0 + len(steps) of the running sum out[k] = steps_0 +
    ... + steps_{k-1}, given out[k0]; ``steps`` is overwritten.  The carried
    row is added to the block's first step, so the additions happen in the
    order of one np.cumsum over the whole grid and the result is bitwise
    equal to it."""
    if k0:
        steps[0] += out[k0]
    np.cumsum(steps, axis=0, out=out[k0 + 1:k0 + 1 + len(steps)])


def lift_piecewise_linear(times, values, stride: int = 1) -> LiftedPath:
    """Lift of the piecewise-linear path through ``values`` at ``times``,
    returned at every ``stride``-th grid point (which must divide the
    number of segments n).

    Running second level accumulates (x_r - x_0 + inc_r/2) (x) inc_r per
    segment, which is the Chen product of the segment exponentials.  The
    terms of each cell of ``stride`` segments are summed by one batched
    matmul and the cell sums carried across cells; level 1 is the carried
    sum of the cell increments.  Blocks of about ROW_BLOCK segments (a
    multiple of ``stride``) are done at a time, so the working memory
    beyond the returned (n/stride + 1)(d + d^2) floats is
    O(max(ROW_BLOCK, stride) d): 2 MiB at d = 2, 6 MiB at d = 6 (traced at
    n = 2^20, stride 1).  At stride 1 each cell
    sum is one product and the lift is bitwise that of summing all terms
    with one np.cumsum; at larger strides it agrees with
    ``lift_piecewise_linear(times, values).restrict(range(0, n + 1, stride))``
    to rounding (about 1e-14 of max |level 2| at n = 2^15).
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("need at least 2 grid points")
    if x.shape[0] != len(t):
        raise ValueError("values length must match times")
    n, d = x.shape[0] - 1, x.shape[1]
    if stride < 1 or n % stride:
        raise ValueError(f"stride = {stride} must be a positive divisor of n = {n}")
    l1 = np.zeros((n // stride + 1, d))
    l2 = np.zeros((n // stride + 1, d, d))
    block = max(stride, ROW_BLOCK - ROW_BLOCK % stride)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        c0, c1 = k0 // stride, k1 // stride
        inc = x[k0 + 1:k1 + 1] - x[k0:k1]
        base = x[k0:k1] - x[0]
        base += 0.5 * inc
        cells = l2[c0 + 1:c1 + 1]
        np.matmul(base.reshape(c1 - c0, stride, d).transpose(0, 2, 1),
                  inc.reshape(c1 - c0, stride, d), out=cells)
        running_sum_block(cells, l2, c0)
        cell_inc = inc if stride == 1 else x[k0 + stride:k1 + 1:stride] - x[k0:k1:stride]
        running_sum_block(cell_inc, l1, c0)
    return LiftedPath(np.ascontiguousarray(t[::stride]), l1, l2)


def zero_lift(times, dim: int) -> LiftedPath:
    """Lift of the path constantly at the origin."""
    t = np.asarray(times, dtype=float)
    return LiftedPath(t, np.zeros((len(t), dim)), np.zeros((len(t), dim, dim)))


def translate(path: LiftedPath, v) -> LiftedPath:
    """Shift every interval's second level by (t_j - t_i) * v.

    Implemented on the running signatures: S_{0,i} gains (t_i - t_0) * v,
    which is interval-additive and leaves the Chen cross term untouched
    because level 1 is unchanged.
    """
    term = v if isinstance(v, RenormTerm) else RenormTerm(np.asarray(v, dtype=float))
    if term.dim != path.dim:
        raise ValueError(f"dimension mismatch: {term.dim} vs {path.dim}")
    shift = (path.times - path.times[0])[:, None, None] * term.v
    return LiftedPath(path.times, path.level1.copy(), path.level2 + shift)


def _pair_blocks(n: int, full_pairs_limit: int, batch: int):
    """Blocks (rows, cols, pair) of the grid pairs (i, j) the Hoelder sweep
    visits, about PAIR_BLOCK // batch pairs each.

    ``rows`` and ``cols`` index the grid axis (the last one) of an array:
    ``a[(..., *rows)]`` holds X_i, ``a[(..., *cols)]`` X_j.  Up to
    ``full_pairs_limit`` intervals, rows i0 <= i < i1 come as an (r, 1)
    column against j = i0+1..n as a (1, c) row, and ``pair`` masks out the
    entries with j <= i.  Beyond it, the dyadic pairs (i, i + 2^k) come as
    two 1-d slices, all of them pairs (``pair`` is True).
    """
    if n <= full_pairs_limit:
        rows = max(1, PAIR_BLOCK // (batch * n))
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            yield ((slice(i0, i1), None), (None, slice(i0 + 1, n + 1)),
                   np.arange(i0, i1)[:, None] < np.arange(i0 + 1, n + 1))
        return
    size = max(1, PAIR_BLOCK // batch)
    k = 1
    while k <= n:
        for i0 in range(0, n - k + 1, size):
            i1 = min(i0 + size, n - k + 1)
            yield (slice(i0, i1),), (slice(i0 + k, i1 + k),), True
        k *= 2


def holder_sweep(xs, y: LiftedPath, alpha: float, shifts=None,
                 full_pairs_limit: int = FULL_PAIRS_LIMIT):
    """Inhomogeneous alpha-Hoelder distances of k lifts ``xs`` to one
    target ``y``, all on one grid, from one sweep over the grid pairs.

    Returns ``(raw, shifted)``.  ``raw[m]`` is ``holder_distance(xs[m], y,
    alpha)``, bit for bit.  With ``shifts`` of shape (k, d, d), ``shifted[m]``
    is the distance with (t_j - t_i) shifts[m] added to every level-2
    residual, which is ``holder_distance(translate(xs[m], shifts[m]), y,
    alpha)`` up to rounding (the translation adds the same term to the
    running signatures); without ``shifts`` it is None.

    Each block of grid pairs is a stack of k planes, about PAIR_BLOCK pairs
    in all, and the time-step powers and the target's cross terms are
    computed once per block for every member and both distances.  Planes
    live in six buffers (seven with ``shifts``) reused across blocks, so
    besides O(k n d^2) stacked grid arrays the sweep holds
    O(PAIR_BLOCK + k n) floats whatever the number of pairs.
    """
    xs = list(xs)
    if not (0.0 <= alpha < 0.5):
        raise ValueError("alpha must lie in [0, 1/2)")
    for x in xs:
        if x.dim != y.dim:
            raise ValueError("dimension mismatch")
        if len(x.times) != len(y.times) or np.any(x.times != y.times):
            raise ValueError("grids must be identical")
    k, d, n = len(xs), y.dim, len(y.times) - 1
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        if shifts.shape != (k, d, d):
            raise ValueError(f"shifts must have shape {(k, d, d)}, got {shifts.shape}")
    if n < 1 or k < 1:
        return np.zeros(k), None if shifts is None else np.zeros(k)
    t = y.times
    # grid axis last and contiguous, so block planes are read by slices
    x1 = np.ascontiguousarray(np.stack([x.level1 for x in xs]).transpose(0, 2, 1))
    y1 = np.ascontiguousarray(y.level1.T)
    w = x1 - y1
    dl2 = np.ascontiguousarray(
        (np.stack([x.level2 for x in xs]) - y.level2).transpose(0, 2, 3, 1))
    size = max(PAIR_BLOCK, k * n) if n <= full_pairs_limit else max(PAIR_BLOCK, k)
    buf = np.empty((3 + (shifts is not None), size))  # planes with the batch axis
    ybuf = np.empty((3, size))                        # planes shared by the batch
    sup = np.zeros((3, k))  # level 1, level 2, shifted level 2
    for rows, cols, pair in _pair_blocks(n, full_pairs_limit, k):
        I, J = (Ellipsis, *rows), (Ellipsis, *cols)
        shape = np.broadcast_shapes(t[I].shape, t[J].shape)
        m = int(np.prod(shape))
        a, r, acc, *acc_shifted = (p[:k * m].reshape((k,) + shape) for p in buf)
        dt, power, c = (p[:m].reshape(shape) for p in ybuf)
        np.subtract(t[J], t[I], out=dt)
        np.copyto(dt, 1.0, where=np.logical_not(pair))  # keeps the masked powers finite
        for p in range(d):
            np.subtract(w[:, p][J], w[:, p][I], out=a)
            _accumulate_square(a, acc, p == 0)
        _fold_sup(acc, np.power(dt, alpha, out=power), pair, sup[0])
        for p in range(d):
            for q in range(d):
                np.subtract(x1[:, q][J], x1[:, q][I], out=a)
                np.multiply(x1[:, p][I], a, out=a)
                np.subtract(y1[q][J], y1[q][I], out=c)
                np.multiply(y1[p][I], c, out=c)
                np.subtract(a, c, out=a)  # the Chen cross term of X - Y
                np.subtract(dl2[:, p, q][J], dl2[:, p, q][I], out=r)
                np.subtract(r, a, out=r)  # the level-2 residual
                if shifts is not None:
                    np.multiply(shifts[:, p, q].reshape((k,) + (1,) * len(shape)), dt, out=a)
                    np.add(r, a, out=a)
                    _accumulate_square(a, acc_shifted[0], p == q == 0)
                _accumulate_square(r, acc, p == q == 0)
        np.power(dt, 2.0 * alpha, out=power)
        _fold_sup(acc, power, pair, sup[1])
        if shifts is not None:
            _fold_sup(acc_shifted[0], power, pair, sup[2])
    return sup[0] + sup[1], None if shifts is None else sup[0] + sup[2]


def _fold_sup(sq, power, pair, sup):
    """sup = max(sup, sqrt(sq) / power over the pairs), per stack member;
    ``sq`` is overwritten."""
    np.sqrt(sq, out=sq)
    np.divide(sq, power, out=sq)
    np.maximum(sup, np.max(sq, axis=tuple(range(1, sq.ndim)), where=pair, initial=0.0), out=sup)


def _accumulate_square(r, acc, first: bool):
    """acc += r**2 (acc = r**2 when first); ``r`` is overwritten."""
    if first:
        np.multiply(r, r, out=acc)
    else:
        np.multiply(r, r, out=r)
        acc += r


def holder_distance(x: LiftedPath, y: LiftedPath, alpha: float,
                    full_pairs_limit: int = FULL_PAIRS_LIMIT) -> float:
    """Inhomogeneous alpha-Hoelder distance between two lifts on one grid:
    ``holder_sweep([x], y, alpha)`` for one member.

    Sum of sup |X_{s,t} - Y_{s,t}| / (t-s)^alpha (Euclidean norm) and
    sup |XX_{s,t} - YY_{s,t}| / (t-s)^(2 alpha) (Frobenius norm) over grid
    pairs s < t.  All pairs are swept when the grid has at most
    ``full_pairs_limit`` intervals; beyond that only the dyadic pairs
    (i, i + 2^k) are used, which still touches every scale.

    The sweep runs over blocks of about PAIR_BLOCK pairs, one plane per
    level-1 coordinate and per level-2 entry (p, q) at a time, in buffers
    reused across blocks (about 1.6 MiB traced in all at n = 2048, d = 2).
    Each plane repeats, in the same order, the per-pair arithmetic of a
    row-by-row sweep, and the squared entries are summed in index order.
    The result therefore equals bit for bit that of a row-by-row sweep
    taking its norms with ``np.linalg.norm`` while a norm has at most 7
    terms (lift dimension <= 2); beyond that numpy sums pairwise and the
    last bit of a norm may differ.
    """
    return float(holder_sweep([x], y, alpha, full_pairs_limit=full_pairs_limit)[0][0])
