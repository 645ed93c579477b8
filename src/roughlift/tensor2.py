"""Step-2 truncated tensor algebra over R^d.

A step-2 lift stores a path increment together with its second iterated
integral.  Adjacent intervals compose with the Chen product

    (a, A) * (b, B) = (a + b, A + B + a (x) b),

which makes the set of lifts a group (identity (0, 0)).  Lifts of whole
paths are stored as running signatures S_{0,i} from the first grid point;
the lift over any subinterval is recovered by group inversion, so the Chen
relation holds by construction.

The area counter-term enters through ``translate``: adding (t-s)*v, with v
an anti-symmetric (d, d) array, to the second level of every interval lift.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

# Algebraic identities are exact in exact arithmetic; 1e-12 relative leaves
# headroom for accumulation over <= 1e4 segments in double precision.
IDENTITY_TOL = 1e-12

# Largest grid, in intervals, a run config may ask a Hoelder distance on:
# the sweep visits all n (n + 1) / 2 grid pairs, so its time is O(n^2).  It
# must stay in this module: perfbench/tracing.py reads
# tensor2.FULL_PAIRS_LIMIT to count the pairs of every traced distance.
FULL_PAIRS_LIMIT = 2048

# Grid pairs per block of the Hoelder sweep, over all lifts of a stack: one
# float64 plane of this many pairs is 128 KiB and stays in L2.  At n = 256,
# d = 2, blocks of 2^12 and 2^16 pairs made the sweep about 1.4x and 2x
# slower.
PAIR_BLOCK = 1 << 14

# holder_sweep's seven planes, one set per thread, kept across calls and
# grown on demand.  A set of 2^14-float planes is about 900 KiB, which glibc
# would mmap and page in afresh on every call.
_sweep_planes = threading.local()

# Grid rows per block of the fine-grid kernels (lift_piecewise_linear and
# gauss.sample_physical), so their working memory beyond the arrays they
# return is O(ROW_BLOCK) whatever the grid size: about 3 MiB for a d = 2
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
class LiftedPath:
    """Running signatures S_{0,i} of a path over a strictly increasing grid.

    ``level1[i]``/``level2[i]`` are the two levels of S_{0,i}; S_{0,0} is the
    identity.  Interval lifts S_{i,j} come out of ``intervals`` via group
    inversion and therefore satisfy Chen exactly.  A batch of B paths on
    one grid puts one leading axis of B members on both levels.
    """

    times: np.ndarray
    level1: np.ndarray  # ([B,] N+1, d)
    level2: np.ndarray  # ([B,] N+1, d, d)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        l1 = np.asarray(self.level1, dtype=float)
        l2 = np.asarray(self.level2, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("times must be strictly increasing")
        if l1.ndim not in (2, 3) or l2.ndim != l1.ndim + 1:
            raise ValueError("running signature arrays must be ([B,] N+1, d) and "
                             "([B,] N+1, d, d)")
        if l1.shape[-2] != len(t) or l2.shape != l1.shape + l1.shape[-1:]:
            raise ValueError("running signature arrays inconsistent with grid")
        if np.any(l1[..., 0, :] != 0.0) or np.any(l2[..., 0, :, :] != 0.0):
            raise ValueError("running signature must start at the identity")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)

    @property
    def dim(self) -> int:
        return self.level1.shape[-1]

    @property
    def n_points(self) -> int:
        return len(self.times)

    def intervals(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Both levels of the interval lifts S_{i,j} = S_{0,i}^{-1} * S_{0,j}
        for index arrays ``i`` and ``j`` broadcast against each other:
        X1_j - X1_i of shape (..., d) and X2_j - X2_i - X1_i (x) (X1_j - X1_i)
        of shape (..., d, d), after the batch axis of a batch."""
        i, j = np.broadcast_arrays(i, j)
        x1 = self.level1[..., i, :]
        inc = self.level1[..., j, :] - x1
        return inc, (self.level2[..., j, :, :] - self.level2[..., i, :, :]
                     - x1[..., :, None] * inc[..., None, :])

    def interval(self, i: int, j: int) -> StepTwoLift:
        """Interval lift S_{i,j}."""
        return StepTwoLift(*self.intervals(i, j))

    def restrict(self, indices) -> "LiftedPath":
        """Sub-grid path, rebased so the first retained point is the identity."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or len(idx) < 1 or np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        return LiftedPath(self.times[idx], *self.intervals(idx[0], idx))


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


def running_sum_block(steps, out, k0: int) -> None:
    """Rows k0 + 1 .. k0 + len(steps) of the running sum out[k] = steps_0 +
    ... + steps_{k-1}, given out[k0]; ``steps`` is overwritten.  The carried
    row is added to the block's first step, so the additions happen in the
    order of one np.cumsum over the whole grid and the result is bitwise
    equal to it, except that a sum starts from out[0] = +0.0: a first step
    of -0.0 comes out as +0.0, as in a matmul's 0 + a b."""
    steps[0] += out[k0]
    np.cumsum(steps, axis=0, out=out[k0 + 1:k0 + 1 + len(steps)])


def lift_piecewise_linear(times, values, stride: int = 1, out=None) -> LiftedPath:
    """Lift of the piecewise-linear path through ``values`` at ``times``,
    returned at every ``stride``-th grid point (which must divide the
    number of segments n).  ``values`` of shape (B, n + 1, d) is a batch of
    B paths on one grid, lifted into one batched LiftedPath; each member's
    lift is bitwise the one it gets alone.

    Level 1 is in closed form, x_i - x_0 at the output points, with no
    running sums.  At stride 1 and x_0 = +0.0 it is a read-only view of
    ``values``: the caller must not overwrite ``values`` while that lift is
    in use.  The running second level accumulates (x_r - x_0 + inc_r/2) (x)
    inc_r per segment, which is the Chen product of the segment
    exponentials.  The terms of each cell of ``stride`` segments are summed
    by one batched matmul and the cell sums carried across cells; at stride
    1 a cell is one segment, and each of the d^2 entries of its term is one
    product of contiguous rows, carried per entry.  Blocks of about
    ROW_BLOCK segments (a multiple of ``stride``) are done at a time, so the
    working memory beyond the returned arrays is O(B max(ROW_BLOCK, stride)
    d).

    ``out``, a float64 array of shape ([B,] n/stride + 1, d, d) that does
    not overlap ``values``, receives level 2 in place of a new array.  At
    stride 1 level 2 is bitwise that of summing all terms with one
    np.cumsum from +0.0; at larger strides it agrees with
    ``lift_piecewise_linear(times, values).restrict(range(0, n + 1, stride))``
    to rounding (about 1e-14 of max |level 2| at n = 2^15).
    """
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("need at least 2 grid points")
    if x.ndim > 3 or x.shape[-2] != len(t):
        raise ValueError("values must be ([B,] len(times), d)")
    batch, n, d = x.shape[:-2], x.shape[-2] - 1, x.shape[-1]
    if stride < 1 or n % stride:
        raise ValueError(f"stride = {stride} must be a positive divisor of n = {n}")
    shape = batch + (n // stride + 1, d, d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    elif np.may_share_memory(out, x):
        raise ValueError("out must not overlap values")
    l2 = out
    l2[..., 0, :, :] = 0.0
    x0 = x[..., :1, :].swapaxes(-1, -2)  # (..., d, 1)
    block = max(stride, ROW_BLOCK - ROW_BLOCK % stride)
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        c0, c1 = k0 // stride, k1 // stride
        if stride == 1:
            # contiguous 1-D products and sums: the batched (d, 1) @ (1, d)
            # matmul and strided (rows, d, d) cumsum of the branch below
            # took 1.8x as long at d = 2
            xt = np.ascontiguousarray(x[..., k0:k1 + 1, :].swapaxes(-1, -2))
            inc = xt[..., 1:] - xt[..., :-1]
            base = xt[..., :-1] - x0
            base += 0.5 * inc
            term = np.empty(batch + (k1 - k0,))
            for p in range(d):
                for q in range(d):
                    np.multiply(base[..., p, :], inc[..., q, :], out=term)
                    running_sum_block(term.T, l2[..., p, q].T, c0)  # rows first
        else:
            inc = x[..., k0 + 1:k1 + 1, :] - x[..., k0:k1, :]
            base = np.empty_like(inc)
            # x_0 broadcast in (d, rows) order: in (rows, d) order numpy
            # runs an inner loop of length d per row, 4.7x as long at d = 2.
            # The matmul keeps the (rows, d) operands: with (d, rows) ones
            # BLAS sums in another order and level 2 moves in its last bits.
            np.subtract(x[..., k0:k1, :].swapaxes(-1, -2), x0, out=base.swapaxes(-1, -2),
                        order="C")
            base += 0.5 * inc
            cells = batch + (c1 - c0, stride, d)
            np.matmul(base.reshape(cells).swapaxes(-1, -2), inc.reshape(cells),
                      out=l2[..., c0 + 1:c1 + 1, :, :])
            running_sum_block(l2[..., c0 + 1:c1 + 1, :, :].swapaxes(0, -3), l2.swapaxes(0, -3),
                              c0)  # cells first
    if stride == 1 and not np.any(x0) and not np.any(np.signbit(x0)):
        l1 = x.view()  # x - x_0 is x, bit for bit, when x_0 = +0.0
        l1.flags.writeable = False
    else:
        l1 = x[..., ::stride, :] - x[..., :1, :]
    return LiftedPath(np.ascontiguousarray(t[::stride]), l1, l2)


def zero_lift(times, dim: int) -> LiftedPath:
    """Lift of the path constantly at the origin.  Both levels are read-only
    broadcast zeros, so it holds no grid-sized arrays."""
    t = np.asarray(times, dtype=float)
    return LiftedPath(t, np.broadcast_to(0.0, (len(t), dim)),
                      np.broadcast_to(0.0, (len(t), dim, dim)))


def translate(path: LiftedPath, v) -> LiftedPath:
    """Shift every interval's second level by (t_j - t_i) * v, for v an
    anti-symmetric (d, d) array (ValueError otherwise).

    Implemented on the running signatures: S_{0,i} gains (t_i - t_0) * v,
    which is interval-additive and leaves the Chen cross term untouched
    because level 1 is unchanged.
    """
    v = _as_square(v, "v")
    if not is_antisymmetric(v):
        raise ValueError("area shift must be anti-symmetric")
    if v.shape[0] != path.dim:
        raise ValueError(f"dimension mismatch: {v.shape[0]} vs {path.dim}")
    shift = (path.times - path.times[0])[:, None, None] * v
    return LiftedPath(path.times, path.level1.copy(), path.level2 + shift)


def holder_sweep(xs, y: LiftedPath, alpha: float, shifts=None):
    """Inhomogeneous alpha-Hoelder distances of k lifts to one target ``y``,
    all on one grid, from one sweep over all grid pairs s < t.  ``xs`` is a
    sequence of lifts, each one member or a batch of members; the k members
    are theirs in order.

    Returns ``(raw, shifted)``.  ``raw[m]`` is ``holder_distance(x_m, y,
    alpha)``, bit for bit.  With ``shifts`` of shape (k, d, d), ``shifted[m]``
    is the distance with (t_j - t_i) shifts[m] added to every level-2
    residual, which is ``holder_distance(translate(x_m, shifts[m]), y,
    alpha)`` up to rounding (the translation adds the same term to the
    running signatures); without ``shifts`` it is None.

    The pairs come in blocks of grid rows i0 <= i < i1 against the columns
    j = i0+1..n, with j <= i masked, about PAIR_BLOCK pairs over the whole
    stack.  Each block is a stack of k planes, and the time-step powers and
    the target's cross terms are computed once per block for every member
    and both distances.  Planes that are exactly zero are not built: with
    the target's level 1 all zero its cross terms, and with the members'
    level 1 all zero as well the level-1 planes and the members' cross
    terms.  Skipping them changes at most the sign of a zero residual
    entry, which squaring removes, so the results are bitwise unchanged.
    Planes live in seven buffers that the calling thread keeps across
    blocks and calls, so besides the O(k n d^2) grid arrays (one level-2
    difference per member, and one level-1 difference unless level 1 is
    zero) the sweep holds O(PAIR_BLOCK + k n) floats whatever the number of
    pairs.
    """
    xs = list(xs)
    if not (0.0 <= alpha < 0.5):
        raise ValueError("alpha must lie in [0, 1/2)")
    if y.level1.ndim != 2:
        raise ValueError("the target must be one lift")
    for x in xs:
        if x.dim != y.dim:
            raise ValueError("dimension mismatch")
        if len(x.times) != len(y.times) or np.any(x.times != y.times):
            raise ValueError("grids must be identical")
    sizes = [len(x.level1) if x.level1.ndim == 3 else 1 for x in xs]
    k, d, n = sum(sizes), y.dim, len(y.times) - 1
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        if shifts.shape != (k, d, d):
            raise ValueError(f"shifts must have shape {(k, d, d)}, got {shifts.shape}")
    if n < 1 or k < 1:
        return np.zeros(k), None if shifts is None else np.zeros(k)
    t = y.times
    y_zero = not np.any(y.level1)
    zero1 = y_zero and not any(np.any(x.level1) for x in xs)  # no level-1 planes
    # grid axis last and contiguous, so block planes are read by slices
    x1 = None if zero1 else np.empty((k, d, n + 1))
    dl2 = np.empty((k, d, d, n + 1))
    m1 = 0
    for x, size in zip(xs, sizes):
        m0, m1 = m1, m1 + size
        if not zero1:
            x1[m0:m1] = x.level1.swapaxes(-1, -2)
        np.subtract(x.level2, y.level2, out=np.moveaxis(dl2[m0:m1], -1, -3))
    if not zero1:
        y1 = np.ascontiguousarray(y.level1.T)
        w = x1 - y1
    rows = max(1, PAIR_BLOCK // (k * n))
    planes = _planes(max(PAIR_BLOCK, k * n))
    buf = planes[:3 + (shifts is not None)]  # planes with the batch axis
    ybuf = planes[4:]                        # planes shared by the batch
    sup = np.zeros((3, k))  # level 1, level 2, shifted level 2
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        shape = (i1 - i0, n - i0)
        m = shape[0] * shape[1]
        a, r, acc, *acc_shifted = (p[:k * m].reshape((k,) + shape) for p in buf)
        dt, power, c = (p[:m].reshape(shape) for p in ybuf)
        pair = np.arange(i0, i1)[:, None] < np.arange(i0 + 1, n + 1)
        np.subtract(t[i0 + 1:], t[i0:i1, None], out=dt)
        np.copyto(dt, 1.0, where=np.logical_not(pair))  # keeps the masked powers finite
        if not zero1:
            for p in range(d):
                np.subtract(w[:, p, None, i0 + 1:], w[:, p, i0:i1, None], out=a)
                _accumulate_square(a, acc, p == 0)
            _fold_sup(acc, np.power(dt, alpha, out=power), pair, sup[0])
        for p in range(d):
            for q in range(d):
                np.subtract(dl2[:, p, q, None, i0 + 1:], dl2[:, p, q, i0:i1, None], out=r)
                if not zero1:
                    np.subtract(x1[:, q, None, i0 + 1:], x1[:, q, i0:i1, None], out=a)
                    np.multiply(x1[:, p, i0:i1, None], a, out=a)
                    if not y_zero:
                        np.subtract(y1[q, i0 + 1:], y1[q, i0:i1, None], out=c)
                        np.multiply(y1[p, i0:i1, None], c, out=c)
                        np.subtract(a, c, out=a)  # the Chen cross term of X - Y
                    np.subtract(r, a, out=r)  # the level-2 residual
                if shifts is not None:
                    np.multiply(shifts[:, p, q, None, None], dt, out=a)
                    np.add(r, a, out=a)
                    _accumulate_square(a, acc_shifted[0], p == q == 0)
                _accumulate_square(r, acc, p == q == 0)
        np.power(dt, 2.0 * alpha, out=power)
        _fold_sup(acc, power, pair, sup[1])
        if shifts is not None:
            _fold_sup(acc_shifted[0], power, pair, sup[2])
    return sup[0] + sup[1], None if shifts is None else sup[0] + sup[2]


def _planes(size: int) -> np.ndarray:
    """This thread's seven sweep planes of at least ``size`` floats each."""
    planes = getattr(_sweep_planes, "planes", None)
    if planes is None or planes.shape[1] < size:
        planes = _sweep_planes.planes = np.empty((7, size))
    return planes


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


def holder_distance(x: LiftedPath, y: LiftedPath, alpha: float) -> float:
    """Inhomogeneous alpha-Hoelder distance between two lifts on one grid:
    ``holder_sweep([x], y, alpha)`` for one member.

    Sum of sup |X_{s,t} - Y_{s,t}| / (t-s)^alpha (Euclidean norm) and
    sup |XX_{s,t} - YY_{s,t}| / (t-s)^(2 alpha) (Frobenius norm) over all
    grid pairs s < t.

    The sweep runs over blocks of about PAIR_BLOCK pairs, one plane per
    level-1 coordinate and per level-2 entry (p, q) at a time, in buffers
    the thread keeps across blocks and calls (at n = 2048, d = 2, 1.2 MiB
    traced in all on a thread's first call and 0.33 MiB on later ones).
    Each plane repeats, in the same order, the per-pair arithmetic of a
    row-by-row sweep, and the squared entries are summed in index order.
    The result therefore equals bit for bit that of a row-by-row sweep
    taking its norms with ``np.linalg.norm`` while a norm has at most 7
    terms (lift dimension <= 2); beyond that numpy sums pairwise and the
    last bit of a norm may differ.
    """
    return float(holder_sweep([x], y, alpha)[0][0])
