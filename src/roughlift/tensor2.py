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

import itertools
import math
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

# Grid pairs per block of the Hoelder sweep, over all members of a batch.  A
# block is about 45 numpy calls, and numpy releases the interpreter lock only
# inside each, so longer calls let the sweeps of two pool threads overlap
# more.  The magnetic-coarse benchmark config (n = 256, d = 2, Intel Xeon, 2
# cores, one process, 30 runs each, grid geometry kept) took a median of 214
# ms at --threads 2 in blocks of 2^15 pairs against 256-258 ms at 2^14; at
# --threads 1, where the larger blocks' masked pairs (j <= i) cost more, 270
# ms against 258-261 ms, within the runs' spread.
PAIR_BLOCK = 1 << 15

# sweep_geometry builds the geometry of a sweep's grid (_geometry: the pair
# masks and the time-step powers of every block, and the time steps with
# shifts) once, read-only, for every sweep on that grid, when a plane of it
# has at most GEOMETRY_KEEP * PAIR_BLOCK entries over all blocks: 49,152 at
# n = 256 and k = 1, so the magnetic output grid has one, and none holds
# more than (8 (2 + shifts) + 1) GEOMETRY_KEEP PAIR_BLOCK bytes (1.6 MiB).
# Other sweeps build each block's geometry into the thread's scratch buffer.
GEOMETRY_KEEP = 2

# The scratch arrays of holder_sweep and running_outer_sum, cut from one
# buffer per thread, kept across calls and grown on demand: freed, blocks of
# about 1 MiB (a sweep's planes, 1 MiB at n = 256 against a lift, or a
# batch's lift rows) go back to the system, and glibc would page them in
# afresh on every call.
_scratch_buffer = threading.local()

# Grid rows per block of the fine-grid kernels (running_outer_sum, over a
# whole batch, and gauss.sample_physical), so their working memory beyond
# the arrays they return is O(ROW_BLOCK) whatever the grid size: 1.25 MiB
# for a d = 2 lift.  At 1.86M steps, blocks of 2^12 to 2^17 rows ran equally fast.
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


def any_blockwise(op, a, b) -> bool:
    """np.any(op(a, b)) for two 1-d arrays of one length, compared ROW_BLOCK
    entries at a time, so the boolean temporary is O(ROW_BLOCK) bytes and
    not one a grid point."""
    return any(np.any(op(a[k:k + ROW_BLOCK], b[k:k + ROW_BLOCK]))
               for k in range(0, len(a), ROW_BLOCK))


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
        if any_blockwise(np.less_equal, t[1:], t[:-1]):
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
    in use.  Level 2 is the running sum of (x_r - x_0 + inc_r/2) (x) inc_r,
    the Chen product of the segment exponentials (``running_outer_sum``):
    one np.cumsum of the terms from +0.0 at stride 1, and bitwise its rows
    ``::stride`` at every stride, in O(ROW_BLOCK d) floats of scratch.

    ``out``, a float64 array of shape ([B,] n/stride + 1, d, d) that does
    not overlap ``values``, receives level 2 in place of a new array.
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
    running_outer_sum(x, stride, out)
    x0 = x[..., :1, :]
    if stride == 1 and not np.any(x0) and not np.any(np.signbit(x0)):
        l1 = x.view()  # x - x_0 is x, bit for bit, when x_0 = +0.0
        l1.flags.writeable = False
    else:
        l1 = x[..., ::stride, :] - x0
    return LiftedPath(np.ascontiguousarray(t[::stride]), l1, out)


def running_outer_sum(x, stride: int, out, midpoint: bool = True) -> None:
    """The running sums sum_{r < i} a_r (x) inc_r over the segments of the
    rows x_0, ..., x_n of ``x`` ([B,] n + 1, d), inc_r = x_{r+1} - x_r and
    a_r = (x_r - x_0) + inc_r/2 (``midpoint``: a lift's level 2) or inc_r
    (the quadratic variation), at every ``stride``-th i, into ``out``
    ([B,] n/stride + 1, d, d).

    Blocks of ROW_BLOCK // B segments a member are copied once into
    contiguous (..., d, rows) order, a_r written over the copy.  Each of the
    d^2 entries is one product of rows, summed with its carry straight into
    ``out`` at stride 1 (``running_sum_block``), or else in place, its
    cell-end rows copied out.  The additions are those of one np.cumsum
    over the grid, so at every stride and block size ``out`` is bitwise
    rows ``::stride`` of the stride-1 sums.  The blocks take 2d + 1 floats
    a row (the copy, increments and products) of the thread's scratch
    buffer, (2d + 1) ROW_BLOCK at most, whatever the stride or the memory
    layout of ``x``.
    """
    if not out.size:  # an empty batch
        return
    batch, n, d = x.shape[:-2], x.shape[-2] - 1, x.shape[-1]
    rows = min(n, max(1, ROW_BLOCK // math.prod(batch)))
    xt, inc, term = _scratch(batch + (d, rows + 1), batch + (d, rows), batch + (rows,))
    carry = np.zeros(batch + (d, d))  # each entry's sum up to the block
    x0 = x[..., :1, :].swapaxes(-1, -2)
    out[..., 0, :, :] = 0.0
    for k0 in range(0, n, rows):
        m = min(rows, n - k0)
        xb, ib, steps = xt[..., :m + 1], inc[..., :m], term[..., :m]
        np.copyto(xb, x[..., k0:k0 + m + 1, :].swapaxes(-1, -2))
        np.subtract(xb[..., 1:], xb[..., :-1], out=ib)
        ab = ib
        if midpoint:  # (x_r - x_0) + inc_r/2, written over x_r
            ab = xb[..., :-1]
            ab -= x0
            for p in range(d):
                ab[..., p, :] += np.multiply(ib[..., p, :], 0.5, out=steps)
        c0, c1 = k0 // stride + 1, (k0 + m) // stride + 1  # the block's output rows
        for p in range(d):
            for q in range(d):
                np.multiply(ab[..., p, :], ib[..., q, :], out=steps)
                if stride == 1:
                    running_sum_block(steps.T, out[..., p, q].T, k0)  # rows first
                else:  # summed in place from the carry, as running_sum_block adds it
                    steps[..., 0] += carry[..., p, q]
                    np.cumsum(steps, axis=-1, out=steps)
                    carry[..., p, q] = steps[..., -1]
                    out[..., c0:c1, p, q] = steps[..., c0 * stride - k0 - 1::stride]


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


def holder_sweep(x: LiftedPath, y: LiftedPath, alpha: float, shifts=None, geometry=None):
    """Inhomogeneous alpha-Hoelder distances of the k members of ``x`` (one
    lift, k = 1, or a batch of k) to one target ``y`` on the same grid,
    from one sweep over all grid pairs s < t.

    Returns ``(raw, shifted)``.  ``raw[m]`` is ``holder_distance(x_m, y,
    alpha)``, bit for bit.  With ``shifts`` of shape (k, d, d), ``shifted[m]``
    is the distance with (t_j - t_i) shifts[m] added to every level-2
    residual, which is ``holder_distance(translate(x_m, shifts[m]), y,
    alpha)`` up to rounding (the translation adds the same term to the
    running signatures); without ``shifts`` it is None.

    The pairs come in blocks of grid rows i0 <= i < i1 against the columns
    j = i0+1..n, with j <= i masked, about PAIR_BLOCK pairs over all k
    members.  Each block is a stack of k planes.  The grid's geometry (the
    masks and time-step powers of every block, _geometry) is shared by every
    member and both distances: it is ``geometry``, built once for the sweeps
    of a grid (``sweep_geometry``), or else each block's is built in turn.
    The target's cross terms are computed once per block for every member.
    Planes that are exactly zero are not built: with the target's level 1
    all zero its cross terms, and with the members' level 1 all zero as
    well the level-1 planes, the members' cross terms and (t - s)^alpha;
    and a target whose level 2 is all zero is not subtracted.  Skipping them
    changes at most the sign of a zero residual entry, which squaring
    removes, so the results are bitwise unchanged.  The planes
    (``sweep_blocks``) are sized by the first block, which has the most
    pairs, and cut from the calling thread's scratch buffer, kept across
    blocks and calls.  So besides the O(k n d^2) grid arrays (one level-2
    difference per member, and one level-1 difference unless level 1 is
    zero), the sweep holds at most four planes of max(PAIR_BLOCK, k n)
    floats and four of max(PAIR_BLOCK // k, n) whatever the number of pairs,
    and less on a grid whose pairs all fit in one block.
    """
    if not (0.0 <= alpha < 0.5):
        raise ValueError("alpha must lie in [0, 1/2)")
    if y.level1.ndim != 2:
        raise ValueError("the target must be one lift")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if len(x.times) != len(y.times) or np.any(x.times != y.times):
        raise ValueError("grids must be identical")
    k = len(x.level1) if x.level1.ndim == 3 else 1
    d, n = y.dim, len(y.times) - 1
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        if shifts.shape != (k, d, d):
            raise ValueError(f"shifts must have shape {(k, d, d)}, got {shifts.shape}")
    if n < 1 or k < 1:
        return np.zeros(k), None if shifts is None else np.zeros(k)
    t = y.times
    y_zero = not np.any(y.level1)
    zero1 = y_zero and not np.any(x.level1)  # no level-1 planes
    # grid axis last and contiguous, so block planes are read by slices
    dl2 = np.empty((k, d, d, n + 1))
    if np.any(y.level2):
        np.subtract(x.level2, y.level2, out=np.moveaxis(dl2, -1, -3))
    else:  # a copy, unlike the subtraction, takes no numpy iterator buffer
        np.copyto(np.moveaxis(dl2, -1, -3), x.level2)
    if not zero1:
        x1 = np.ascontiguousarray(x.level1.reshape(k, n + 1, d).swapaxes(1, 2))
        y1 = np.ascontiguousarray(y.level1.T)
        w = x1 - y1
    shifted = shifts is not None
    rows, sizes = sweep_blocks(k, n, shifted, y_zero, zero1, geometry is not None)
    if geometry is not None and geometry.key != (t.tobytes(), alpha, rows, shifted):
        raise ValueError("the geometry is not that of this grid, alpha and sweep")
    planes = _scratch(*[(size,) for size in sizes])
    blocks = (geometry.blocks if geometry is not None
              else _geometry(t, alpha, rows, shifted, not zero1, planes[3 + shifted + (not y_zero):]))
    sup = np.zeros((3, k))  # level 1, level 2, shifted level 2
    for i0, i1, pair, power, power2, dt in blocks:
        shape = (i1 - i0, n - i0)
        m = shape[0] * shape[1]
        a, r, acc, *acc_shifted = (p[:k * m].reshape((k,) + shape) for p in planes[:3 + shifted])
        c = None if y_zero else planes[3 + shifted][:m].reshape(shape)
        if not zero1:
            for p in range(d):
                np.subtract(w[:, p, None, i0 + 1:], w[:, p, i0:i1, None], out=a)
                _accumulate_square(a, acc, p == 0)
            _fold_sup(acc, power, pair, sup[0])
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
                if shifted:
                    np.multiply(shifts[:, p, q, None, None], dt, out=a)
                    np.add(r, a, out=a)
                    _accumulate_square(a, acc_shifted[0], p == q == 0)
                _accumulate_square(r, acc, p == q == 0)
        _fold_sup(acc, power2, pair, sup[1])
        if shifted:
            _fold_sup(acc_shifted[0], power2, pair, sup[2])
    return sup[0] + sup[1], sup[0] + sup[2] if shifted else None


def sweep_blocks(k: int, n: int, shifted: bool, zero_target: bool, zero1: bool = False,
                 geometry: bool = False) -> tuple[int, list[int]]:
    """Grid rows per block of a holder_sweep of k members on n intervals,
    and the sizes in floats of the planes it cuts from the thread's scratch
    buffer.

    The planes: a, r and acc, and acc_shifted when ``shifted``, for every
    member, then the target's cross term c unless ``zero_target``, shared by
    all members, and unless the sweep is given its ``geometry``, the
    geometry planes of one block (_geometry): (t - s)^(2 alpha), t - s when
    ``shifted`` (else the power is written over it), and (t - s)^alpha
    unless the members and the target have no level 1 (``zero1``).  The
    first block has the most pairs, rows n a member, so the planes are
    sized by it.
    """
    rows = min(n, max(1, PAIR_BLOCK // (k * n)))
    pairs = rows * n
    sizes = [k * pairs] * (3 + shifted) + [pairs] * (1 - zero_target)
    if not geometry:
        sizes += [pairs] * (1 + shifted + (not zero1))
    return rows, sizes


@dataclass(frozen=True)
class SweepGeometry:
    """_geometry's blocks in read-only arrays, shared by the sweeps and
    threads given them, for the grid bytes, alpha, block rows and shifting
    of ``key``."""

    key: tuple
    blocks: tuple


def sweep_geometry(times, alpha: float, k: int = 1,
                   shifted: bool = False) -> SweepGeometry | None:
    """The geometry of the sweeps of k members on the grid ``times``, with
    or without shifts, for their ``geometry`` argument: 8 (2 + shifted) + 1
    bytes (the planes and the pair mask) an entry, or None over
    GEOMETRY_KEEP * PAIR_BLOCK entries a plane."""
    t = np.asarray(times, dtype=float)
    n = len(t) - 1
    rows = sweep_blocks(k, n, shifted, True)[0]
    if sum(min(rows, n - i0) * (n - i0) for i0 in range(0, n, rows)) > GEOMETRY_KEEP * PAIR_BLOCK:
        return None
    blocks = tuple(_geometry(t, alpha, rows, shifted))
    for array in (a for block in blocks for a in block[2:] if a is not None):
        array.flags.writeable = False
    return SweepGeometry((t.tobytes(), alpha, rows, shifted), blocks)


def _geometry(t, alpha: float, rows: int, shifted: bool, level1: bool = True, planes=None):
    """The geometry of a sweep on the grid ``t`` in blocks of ``rows`` grid
    rows: per block, its rows i0 <= i < i1, the mask of its pairs j > i
    among the columns j = i0+1..n, (t_j - t_i)^alpha when ``level1`` (else
    None), (t_j - t_i)^(2 alpha) and, when ``shifted``, t_j - t_i (else
    None), with t_j - t_i = 1 at the masked pairs to keep their powers
    finite.  The planes are written into ``planes`` (level1 + 1 + shifted,
    each of at least a block) when given, the next block over the last, else
    into new arrays."""
    n = len(t) - 1
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        shape = (i1 - i0, n - i0)
        if planes is None:
            g = np.empty((level1 + 1 + shifted,) + shape)
        else:
            g = [p[:shape[0] * shape[1]].reshape(shape) for p in planes]
        pair = np.arange(i0, i1)[:, None] < np.arange(i0 + 1, n + 1)
        dt = g[-1]
        np.subtract(t[i0 + 1:], t[i0:i1, None], out=dt)
        np.copyto(dt, 1.0, where=np.logical_not(pair))
        power = np.power(dt, alpha, out=g[0]) if level1 else None
        power2 = np.power(dt, 2.0 * alpha, out=g[int(level1)])  # over dt without shifts
        yield i0, i1, pair, power, power2, dt if shifted else None


def _scratch(*shapes) -> list[np.ndarray]:
    """Arrays of the given shapes, disjoint views of this thread's scratch
    buffer, valid until the thread calls _scratch again."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = getattr(_scratch_buffer, "buf", None)
    if buf is None or len(buf) < sum(sizes):
        _scratch_buffer.buf = buf = None  # the old buffer goes before the new one is made
        buf = _scratch_buffer.buf = np.empty(sum(sizes))
    ends = itertools.accumulate(sizes)
    return [buf[end - size:end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]


def _fold_sup(sq, power, pair, sup):
    """sup = max(sup, sqrt(sq) / power over the pairs), per member;
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


def holder_distance(x: LiftedPath, y: LiftedPath, alpha: float, *, geometry=None) -> float:
    """Inhomogeneous alpha-Hoelder distance between two lifts on one grid:
    ``holder_sweep(x, y, alpha, geometry=geometry)`` for one member
    (ValueError if ``x`` is a batch).

    Sum of sup |X_{s,t} - Y_{s,t}| / (t-s)^alpha (Euclidean norm) and
    sup |XX_{s,t} - YY_{s,t}| / (t-s)^(2 alpha) (Frobenius norm) over all
    grid pairs s < t.

    Each plane of the sweep repeats, in the same order, the per-pair
    arithmetic of a row-by-row sweep, and the squared entries are summed in
    index order.  The result therefore equals bit for bit that of a
    row-by-row sweep taking its norms with ``np.linalg.norm`` while a norm
    has at most 7 terms (lift dimension <= 2); beyond that numpy sums
    pairwise and the last bit of a norm may differ.
    """
    if x.level1.ndim != 2:
        raise ValueError("x must be one lift; use holder_sweep for a batch")
    return float(holder_sweep(x, y, alpha, geometry=geometry)[0][0])
