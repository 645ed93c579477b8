"""Step-2 truncated tensor algebra over R^d.

A step-2 lift stores a path increment together with its second iterated
integral.  Adjacent intervals compose with the Chen product

    (a, A) * (b, B) = (a + b, A + B + a (x) b),

which makes the set of lifts a group (identity (0, 0)).

Every path lift here is geometric (piecewise-linear lifts, their intervals
and their translations by an anti-symmetric counter-term), so the symmetric
part of its level 2 is 1/2 x (x) x (Lyons 1998; Friz & Victoir 2010, ch. 7)
and a ``LiftedPath`` stores level 1 and the Levy area alone: the d(d-1)/2
entries p < q of the anti-symmetric part, in np.triu_indices(d, 1) order,
as running signatures from the first grid point.  The area counter-term
enters through ``translate``.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Algebraic identities are exact in exact arithmetic; 1e-12 relative leaves
# headroom for accumulation over <= 1e4 segments in double precision.
IDENTITY_TOL = 1e-12

# Largest grid, in intervals, a run config may ask a Hoelder distance on:
# the sweep visits all n (n + 1) / 2 grid pairs, so its time is O(n^2).  It
# must stay in this module: perfbench/tracing.py reads
# tensor2.FULL_PAIRS_LIMIT to count the pairs of every traced distance.
FULL_PAIRS_LIMIT = 2048

# Grid pairs per block of the Hoelder sweep, over all members of a batch (a
# block is the fewest lag rows that hold them).  numpy releases the
# interpreter lock only inside a call, so longer calls let two pool
# threads' sweeps overlap more: the magnetic-coarse config (n = 256, d = 2,
# 2-core Xeon, BLAS on one thread, one process, 30 runs each) took a median
# of 124 ms at --threads 2 in blocks of 2^15 pairs, one block of 128 lags,
# against 148 ms at 2^14 and 119 ms at 2^16, and at --threads 1 164 ms
# against 196 and 162 ms.
PAIR_BLOCK = 1 << 15

# Grid rows per block of the fine-grid kernels (running_outer_sum, over a
# whole batch, and gauss.sample_physical), so their working memory beyond
# the arrays they return is O(ROW_BLOCK) whatever the grid size: 1.5 MiB
# for a d = 2 lift.  Every running sum in a block is a 1-d np.cumsum of at
# most ROW_BLOCK entries into separate memory, which runs without the GIL.
# At 1.86M steps, blocks of 2^12 to 2^17 rows ran equally fast.  It must
# stay a multiple of 8: only then does OpenBLAS give each row of
# sample_physical's noise @ L.T the bits of a one-shot draw (at 7 rows a
# block, 3 of 30 (d, N) cases moved a P or W value by one ulp).
ROW_BLOCK = 1 << 15


def _as_vector(x, name="vector"):
    a = np.asarray(x, dtype=float)
    if a.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {a.shape}")
    return a


def any_blockwise(op, a, b) -> bool:
    """np.any(op(a, b)) for two 1-d arrays of one length, compared ROW_BLOCK
    entries at a time, so the boolean temporary is O(ROW_BLOCK) bytes and
    not one a grid point."""
    return any(np.any(op(a[k:k + ROW_BLOCK], b[k:k + ROW_BLOCK]))
               for k in range(0, len(a), ROW_BLOCK))


def _grid_times(times) -> np.ndarray:
    """``times`` as a float array, ValueError unless a non-empty 1-d grid of
    finite, strictly increasing times: any_blockwise flags each step that is
    not t_{i+1} > t_i, which a NaN is not either, so finite ends make every
    time finite."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or len(t) < 1:
        raise ValueError("times must be a non-empty 1-d array")
    if (not (np.isfinite(t[0]) and np.isfinite(t[-1]))
            or any_blockwise(lambda a, b: ~(a > b), t[1:], t[:-1])):
        raise ValueError("times must be finite and strictly increasing")
    return t


def _area_pairs(d: int) -> tuple[list[int], list[int]]:
    """The rows p and the columns q of the area entries p < q of dimension
    d, in np.triu_indices(d, 1) order, as lists: itertools.combinations
    takes about 1 us where np.triu_indices takes 13."""
    pairs = list(itertools.combinations(range(d), 2))
    return [p for p, _ in pairs], [q for _, q in pairs]


def area_entries(v) -> np.ndarray:
    """The area entries p < q of anti-symmetric (..., d, d) arrays
    (ValueError otherwise, at IDENTITY_TOL of each array's norm)."""
    v = np.asarray(v, dtype=float)
    if v.ndim < 2 or v.shape[-1] != v.shape[-2]:
        raise ValueError(f"v must be square, got shape {v.shape}")
    scale = np.maximum(1.0, np.linalg.norm(v, axis=(-2, -1)))
    if np.any(np.linalg.norm(v + np.swapaxes(v, -1, -2), axis=(-2, -1)) > IDENTITY_TOL * scale):
        raise ValueError("area shift must be anti-symmetric")
    return v[(...,) + _area_pairs(v.shape[-1])]


def full_level2(level1, area) -> np.ndarray:
    """Level 2 of geometric lifts, (..., d, d), from their level 1 (..., d)
    and area entries (..., d(d-1)/2): 1/2 x (x) x plus the anti-symmetric
    array of the area."""
    x = np.asarray(level1, dtype=float)
    p, q = _area_pairs(x.shape[-1])
    out = 0.5 * x[..., :, None] * x[..., None, :]
    out[..., p, q] += area
    out[..., q, p] -= area
    return out


@dataclass(frozen=True)
class StepTwoLift:
    """Group element of one interval: level-1 increment and level-2 d x d matrix."""

    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        l1 = _as_vector(self.level1, "level1")
        l2 = np.asarray(self.level2, dtype=float)
        if l2.shape != l1.shape * 2:
            raise ValueError(f"level2 must be square of level1's dimension, got {l2.shape}")
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)

    @property
    def dim(self) -> int:
        return self.level1.shape[0]


@dataclass(frozen=True)
class LiftedPath:
    """Running signatures S_{0,i} of a geometric path over a finite,
    strictly increasing grid: ``level1[i]`` and ``area[i]`` are level 1 and the area
    entries of S_{0,i}, whose level 2 ``level2`` derives; S_{0,0} is the
    identity.  Interval lifts S_{i,j} come out of ``intervals`` via group
    inversion and so satisfy Chen exactly.  A batch of B paths on one grid
    puts one leading axis of B members on both arrays.
    """

    times: np.ndarray
    level1: np.ndarray  # ([B,] N+1, d)
    area: np.ndarray  # ([B,] N+1, d(d-1)/2)

    def __post_init__(self):
        t = _grid_times(self.times)
        l1 = np.asarray(self.level1, dtype=float)
        a = np.asarray(self.area, dtype=float)
        if l1.ndim not in (2, 3) or a.ndim != l1.ndim:
            raise ValueError("running signature arrays must be ([B,] N+1, d) and "
                             "([B,] N+1, d(d-1)/2)")
        d = l1.shape[-1]
        if l1.shape[-2] != len(t) or a.shape != l1.shape[:-1] + (d * (d - 1) // 2,):
            raise ValueError("running signature arrays inconsistent with grid")
        if np.any(l1[..., 0, :] != 0.0) or np.any(a[..., 0, :] != 0.0):
            raise ValueError("running signature must start at the identity")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "area", a)

    @property
    def dim(self) -> int:
        return self.level1.shape[-1]

    @property
    def n_points(self) -> int:
        return len(self.times)

    @property
    def level2(self) -> np.ndarray:
        """Level 2 of the running signatures, ([B,] N+1, d, d), derived
        afresh on every call."""
        return full_level2(self.level1, self.area)

    def intervals(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        """Level 1 and area of the interval lifts S_{i,j} = S_{0,i}^{-1} *
        S_{0,j} for index arrays ``i`` and ``j`` broadcast against each
        other: u = X1_j - X1_i of shape (..., d) and, for p < q,
        A_j - A_i - (x_p u_q - x_q u_p)/2 at x = X1_i, of shape
        (..., d(d-1)/2), after the batch axis of a batch."""
        i, j = np.broadcast_arrays(i, j)
        x1 = self.level1[..., i, :]
        inc = self.level1[..., j, :] - x1
        p, q = _area_pairs(self.dim)
        cross = x1[..., p] * inc[..., q] - x1[..., q] * inc[..., p]
        return inc, self.area[..., j, :] - self.area[..., i, :] - 0.5 * cross

    def interval(self, i: int, j: int) -> StepTwoLift:
        """Interval lift S_{i,j}."""
        inc, area = self.intervals(i, j)
        return StepTwoLift(inc, full_level2(inc, area))

    def restrict(self, indices) -> "LiftedPath":
        """Sub-grid path, rebased so the first retained point is the identity."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or len(idx) < 1 or np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.n_points:
            raise ValueError(f"indices must lie in [0, {self.n_points})")
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
    """Rows k0 + 1 .. k0 + len(steps) of the running sum of the rows of
    ``steps`` (rows, d) into ``out`` (N + 1, d), out[k] = steps_0 +
    ... + steps_{k-1}, given out[k0]; ``steps`` is overwritten.  The carried
    row is added to the block's first step, so the additions happen in the
    order of one np.cumsum over the whole grid and the result is bitwise
    equal to it, except that a sum starts from out[0] = +0.0: a first step
    of -0.0 comes out as +0.0, as in a matmul's 0 + a b.  Each sum is a 1-d
    np.cumsum into ``out``, which releases the GIL (an ``axis=0`` sum over
    the block does not) and adds in the same order.  Where both arrays hold
    a row's floats side by side (C order: W's and the Brownian steps),
    columns 2j and 2j + 1 are one complex np.cumsum, whose real and
    imaginary lanes are the two columns' sums to the bit, as a complex
    addition is two IEEE additions; np.cumsum is latency-bound, so the pair
    costs about what one column does.  A lone last column, and every column
    of F-ordered steps (the fGn's), is a real np.cumsum of its own."""
    steps[0] += out[k0]
    block = out[k0 + 1:k0 + 1 + len(steps)]
    paired = 0
    if steps.strides[1] == block.strides[1] == 8:
        paired = steps.shape[1] // 2 * 2
        for lanes, sums in zip(steps[:, :paired].view(complex).T,
                               block[:, :paired].view(complex).T):
            np.cumsum(lanes, out=sums)
    for c in range(paired, steps.shape[1]):
        np.cumsum(steps[:, c], out=block[:, c])


def lift_piecewise_linear(times, values, stride: int = 1) -> LiftedPath:
    """Lift of the piecewise-linear path through ``values`` at ``times``,
    returned at every ``stride``-th grid point (which must divide the
    number of segments n).  ``values`` of shape (B, n + 1, d) is a batch of
    B paths on one grid, each lifted bitwise as it is alone.

    Level 1 is x_i - x_0 at the output points: at stride 1 and x_0 = +0.0 a
    read-only view of ``values``, which the caller must not overwrite while
    the lift is in use.  The area is ``running_outer_sum``'s, in a new array
    of ([B,] n/stride + 1, d(d-1)/2) floats that the lift alone holds.
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
    area = np.empty(batch + (n // stride + 1, d * (d - 1) // 2))
    running_outer_sum(x, stride, area)
    x0 = x[..., :1, :]
    if stride == 1 and not np.any(x0) and not np.any(np.signbit(x0)):
        l1 = x.view()  # x - x_0 is x, bit for bit, when x_0 = +0.0
        l1.flags.writeable = False
    else:
        l1 = x[..., ::stride, :] - x0
    return LiftedPath(np.ascontiguousarray(t[::stride]), l1, area)


def running_outer_sum(x, stride: int, area, qv=None) -> None:
    """The running Levy areas of the piecewise-linear path through the rows
    x_0, ..., x_n of ``x`` ([B,] n + 1, d), at every ``stride``-th i, into
    ``area`` ([B,] n/stride + 1, d(d-1)/2); given ``qv`` ([B,] n/stride + 1,
    d(d+1)/2), the same pass writes there the running quadratic variation,
    the sums of inc_p inc_q for p <= q in np.triu_indices(d) order, with
    inc_r = x_{r+1} - x_r.

    Area entry p < q is half the difference of the running sums of b_p
    inc_q and b_q inc_p, b_r = (x_r - x_0) + inc_r/2: the (p, q) and (q, p)
    entries of the Chen product of the segment exponentials.  The one sum of
    (a_p inc_q - a_q inc_p)/2, a_r = x_r - x_0, rounds 1.5e-12 of a
    renormalised distance away over the 1,861,120 steps at eps = 2^-7.

    The sums run in complex chains of two real lanes (_chains): an area
    entry's two terms, or two QV entries (a lone last one is a real chain).
    A complex addition is two IEEE additions, so each lane has the bits of
    its own real sum, and np.cumsum is latency-bound, so a chain costs
    about what one real sum does.

    Blocks (``outer_sum_memory``, whatever the stride or layout of ``x``)
    are copied once into (d, B, m + 1) order, each component of the batch
    one contiguous slab; the increments, the b's and the lanes' products
    are ufunc calls on whole slabs (each member's last entry a junk
    difference across members), and those on strided views take one member
    at a time, so numpy takes no iterator buffer.  The b's skip subtracting
    an x_0 of +0.0, which leaves every bit as it is (P, W and Z start
    there).  Each chain is a 1-d np.cumsum of one member's row from its
    carry into one more row, an ``out`` sharing no memory with the input:
    the one form in which np.cumsum releases the GIL, so two pool threads'
    lifts overlap.  The additions are those of one np.cumsum over the grid:
    every output is bitwise rows ``::stride`` of the stride-1 sums."""
    members, n, d = math.prod(x.shape[:-2]), x.shape[-2] - 1, x.shape[-1]
    rows, shapes, _ = outer_sum_memory(members, n, d, qv is not None)
    if not shapes:  # an empty batch, or no entries
        return
    # one member axis, also for a single path: a unit axis, so views
    x = x.reshape((members,) + x.shape[-2:])
    area = area.reshape((members,) + area.shape[-2:])
    qv = None if qv is None else qv.reshape((members,) + qv.shape[-2:])
    chains = _chains(d, qv is not None)
    block, slab, sums, carry = _scratch(*shapes)
    xt, inc = block
    for out in (area, qv):
        if out is not None:
            out[:, 0, :] = 0.0
    carry[...] = 0.0
    for k0 in range(0, n, rows):
        m = min(rows, n - k0)
        cut = members * (m + 1)
        xb = xt[:d * cut].reshape(d, members, m + 1)
        ib = inc[:d * cut].reshape(d, members, m + 1)
        np.copyto(xb, x[:, k0:k0 + m + 1, :].transpose(2, 0, 1))
        np.subtract(xt[1:d * cut], xt[:d * cut - 1], out=inc[:d * cut - 1])
        inc[d * cut - 1] = 0.0  # the last slab row's junk entry, which that skips
        if area.size:  # (x_r - x_0) + inc_r/2, written over x_r
            half = slab[:cut].reshape(members, m + 1)
            for p in range(d):
                for row, start in zip(xb[p], x[:, 0, p]):
                    if start or np.signbit(start):  # x - (+0.0) is x, bit for bit
                        np.subtract(row, start, out=row)
                np.add(xb[p], np.multiply(ib[p], 0.5, out=half), out=xb[p])
        c0, c1 = k0 // stride + 1, (k0 + m) // stride + 1  # the block's output rows
        cells = slice(c0 * stride - k0 - 1, m, stride)  # and their rows in the block
        for c, (is_area, entries, factors) in enumerate(chains):
            k = len(factors)
            terms = slab[:k * cut].reshape(members, m + 1, k)
            for lane, (p, q) in enumerate(factors):
                np.multiply(xb[p] if is_area else ib[p], ib[q], out=terms[..., lane])
            terms, carried = _chain(terms), _chain(carry[:, c, :k])
            terms[:, 0] += carried
            # the last chain sums over the block's x_r and increments, which
            # no product reads after its own
            s = _chain((sums if c < len(chains) - 1 else block.reshape(-1))[:k * m].reshape(m, k))
            lanes = (s.real[cells], s.imag[cells]) if k == 2 else (s[cells],)
            ends = [(area if is_area else qv)[:, c0:c1, e] for e in entries]
            for b, row in enumerate(terms):
                np.cumsum(row[:m], out=s)
                carried[b] = s[m - 1]
                if is_area:
                    np.subtract(*lanes, out=ends[0][b])
                    ends[0][b] *= 0.5
                else:
                    for lane, end in zip(lanes, ends):
                        np.copyto(end[b], lane)


def _chain(a) -> np.ndarray:
    """A chain's sums from ``a`` (..., k) of its k = 1 or 2 lanes: the
    complex view a[..., 0] + i a[..., 1] of two, the lane itself of one."""
    return a.view(complex)[..., 0] if a.shape[-1] == 2 else a[..., 0]


@functools.cache  # read-only tuples, one per (d, qv)
def _chains(d: int, qv: bool) -> tuple[tuple[bool, tuple, tuple], ...]:
    """running_outer_sum's chains at dimension d, area first: (is the chain
    an area entry's, its entries in the output, and the factors (p, q) of
    each lane, b_p inc_q for an area entry and inc_p inc_q for the QV).
    Area entry e = (p, q), p < q, sums b_p inc_q and b_q inc_p; the QV
    entries p <= q, in np.triu_indices(d) order, go two a chain, and an odd
    last one alone."""
    chains = [(True, (e,), ((p, q), (q, p)))
              for e, (p, q) in enumerate(itertools.combinations(range(d), 2))]
    if qv:
        squares = list(itertools.combinations_with_replacement(range(d), 2))
        chains += [(False, tuple(range(e, min(e + 2, len(squares)))), tuple(squares[e:e + 2]))
                   for e in range(0, len(squares), 2)]
    return tuple(chains)


def outer_sum_memory(members: int, n: int, d: int, qv: bool) -> tuple[int, list[tuple], int]:
    """Rows m a member per block of a running_outer_sum of ``members`` paths
    of dimension d on n intervals (with the QV when ``qv``), the shapes of
    the arrays it cuts from the one array it allocates and their bytes, none
    without entries: a block's x_r and increments, d slabs of m + 1 rows a
    member; a chain's products, of m + 1 rows a member; m sums, none for a
    single chain (the last chain sums over the x_r and increments); and the
    carry of every chain (_chains).  The last three hold two lanes a row,
    which it views as complex, unless the one chain is a lone QV entry's
    (d = 1)."""
    area, squares = d * (d - 1) // 2, d * (d + 1) // 2 * qv
    if not members or not area + squares:
        return 0, [], 0
    rows = min(n, max(1, ROW_BLOCK // members))
    size = members * (rows + 1)
    chains, lanes = area + -(-squares // 2), 2 if area or squares > 1 else 1
    shapes = [(2, d * size), (lanes * size,), (lanes * rows * (chains > 1),),
              (members, chains, lanes)]
    return rows, shapes, 8 * sum(map(math.prod, shapes))


def zero_lift(times, dim: int) -> LiftedPath:
    """Lift of the path constantly at the origin.  Level 1 and the area are
    read-only broadcast zeros, so it holds no grid-sized arrays."""
    t = np.asarray(times, dtype=float)
    return LiftedPath(t, np.broadcast_to(0.0, (len(t), dim)),
                      np.broadcast_to(0.0, (len(t), dim * (dim - 1) // 2)))


def translate(path: LiftedPath, v) -> LiftedPath:
    """Shift every interval's area by (t_j - t_i) * v, for v the d(d-1)/2
    area entries of an anti-symmetric (d, d) array (``area_entries``), so
    the translated lift is geometric too.

    Implemented on the running signatures: S_{0,i} gains (t_i - t_0) * v,
    which is interval-additive and leaves the Chen cross term untouched
    because level 1 is unchanged.
    """
    v = _as_vector(v, "v")
    if v.shape != path.area.shape[-1:]:
        raise ValueError(f"dimension mismatch: {len(v)} area entries for dimension {path.dim}")
    shift = (path.times - path.times[0])[:, None] * v
    return LiftedPath(path.times, path.level1.copy(), path.area + shift)


def holder_sweep(x: LiftedPath | np.ndarray, y: LiftedPath | np.ndarray, alpha: float,
                 shifts=None, geometry=None):
    """Inhomogeneous alpha-Hoelder distances of the k members of ``x`` (one
    lift, k = 1, or a batch of k) to one target ``y`` on the same grid,
    from one sweep over all grid pairs s < t.  On the level-1-free route
    ``x`` is instead the (k, n + 1, E) area residuals of k members against
    a target, all of level 1 zero, E entries a point, each weighted as a
    lift's area entry, and ``y`` is the grid's times.

    Returns ``(raw, shifted)``.  ``raw[m]`` is ``holder_distance(x_m, y,
    alpha)``, bit for bit.  With ``shifts`` of shape (k, E), E the area
    entries a point (d(d-1)/2 for lifts of dimension d), ``shifted[m]`` is
    the distance with (t_j - t_i) shifts[m] added to every area residual,
    ``holder_distance(translate(x_m, shifts[m]), y, alpha)`` up to
    rounding; without ``shifts`` it is None.

    The lifts are geometric, so a pair's level-2 residual is the symmetric
    1/4 (delta (x) sigma + sigma (x) delta), delta = dX - dY and sigma = dX
    + dY, plus the anti-symmetric array of its area residuals r: its squared
    norm is (|delta|^2 |sigma|^2 + (delta . sigma)^2) / 8, which does not
    cancel, plus 2 r_pq^2 for each entry p < q.

    The pairs are laid out by lag: plane entry (l, m), l = 1..ceil(n/2) and
    m = 0..n, is the pair of grid points m and (m + l) mod (n + 1), so every
    pair is an entry, once (the middle lag twice for odd n), and no entry
    is wasted.  A plane of differences is one ufunc call, windows of a
    grid-last path extended by its first ceil(n/2) points less the path.
    Where the pair wraps (m + l > n) that is the exact negative of the row
    loop's difference, so squares and products of two keep its bits, the
    Chen cross term takes the pair's earlier point as its base, and the
    shifted residual adds the signed step: every distance is the row loop's
    to the bit.  The planes come in blocks of lag rows, about PAIR_BLOCK
    pairs over all members, among ``sweep_memory``'s working arrays, which
    are its bytes whatever the caller's numpy buffer size: it runs at the least.
    The blocks' geometry (_geometry) is ``geometry``, built once for the
    unshifted one-member sweeps of a grid whose sweep is one block
    (``sweep_geometry``), or else built block by block.  Planes that are
    exactly zero are not built: sigma's (sigma = delta) and the target's
    cross terms against a target with level 1 zero, where the delta planes
    serve as the members' increments.  That changes at most the sign of a
    zero residual entry, which squaring removes.  Area residuals have no
    level-1 planes at all."""
    # 16, numpy's least buffer size: numpy buffers at most 16 floats an
    # operand.  Per thread; np.errstate restores it only on numpy >= 2.0.
    old = np.setbufsize(16)
    try:
        return _holder_sweep(x, y, alpha, shifts, geometry)
    finally:
        np.setbufsize(old)


def _holder_sweep(x, y, alpha, shifts, geometry):
    if not (0.0 <= alpha < 0.5):
        raise ValueError("alpha must lie in [0, 1/2)")
    if isinstance(x, LiftedPath):
        if y.level1.ndim != 2:
            raise ValueError("the target must be one lift")
        if x.dim != y.dim:
            raise ValueError("dimension mismatch")
        if len(x.times) != len(y.times) or np.any(x.times != y.times):
            raise ValueError("grids must be identical")
        t, area, target, d = y.times, x.area, y.area if np.any(y.area) else None, y.dim
        y_zero, zero1 = not np.any(y.level1), False
    else:  # area residuals on the grid y: no level-1 planes
        t, area, target, d = _grid_times(y), np.asarray(x, dtype=float), None, 0
        if area.ndim != 3 or area.shape[1] != len(t):
            raise ValueError("area residuals must be (k, len(times), E)")
        y_zero = zero1 = True
    k = len(area) if area.ndim == 3 else 1
    n, entries = len(t) - 1, area.shape[-1]
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        if shifts.shape != (k, entries):
            raise ValueError(f"shifts must have shape {(k, entries)}, got {shifts.shape}")
    if n < 1 or k < 1:
        return np.zeros(k), None if shifts is None else np.zeros(k)
    shifted = shifts is not None
    ps, qs = _area_pairs(d)
    rows, shapes, _ = sweep_memory(k, n, entries if zero1 else d, shifted, zero1,
                                   geometry is not None)
    if geometry is not None and geometry.key != (t.tobytes(), alpha, rows, shifted):
        raise ValueError("the geometry is not that of this grid, alpha and sweep")
    sup, *scratch = _scratch(*shapes)  # level 1, level 2, shifted level 2
    sup.fill(0.0)
    paths = 1 if zero1 else 5  # the extended area difference, X, X - Y, X + Y and Y
    da = _extend(scratch[0], area, target)
    if not zero1:
        x1 = w = _extend(scratch[1], x.level1)  # delta is dX against a zero target, bar zero signs
        if not y_zero:
            y1 = _extend(scratch[4], y.level1)
            np.subtract(scratch[1], scratch[4], out=scratch[2])
            np.add(scratch[1], scratch[4], out=scratch[3])
            w, s = (sliding_window_view(z, n + 1, axis=-1) for z in scratch[2:4])
    planes = scratch[paths:paths + 3 + shifted + (0 if zero1 else max(d, 2))]  # k members each
    blocks = (geometry.blocks if geometry is not None
              else _geometry(t, alpha, rows, shifted, not zero1, scratch[paths + len(planes):]))
    for l0, l1, late, power, power2, dt in blocks:
        shape = (k, l1 - l0, n + 1)
        a, r, acc2, *rest = (p[:math.prod(shape)].reshape(shape) for p in planes)
        acc2s = rest.pop(0) if shifted else None
        if zero1:
            acc2.fill(0.0)  # no level 1: the residual is all area
        else:  # acc2 = half the symmetric part's squared norm
            if y_zero:  # r, unused until the area residuals, holds |delta|^2,
                acc, dl = r, rest  # and the delta planes are the cross terms' increments
            else:
                acc, dl = rest[0], rest[1:]
            for p in range(d):  # |delta|^2, and |sigma|^2 unless sigma = delta
                if y_zero:
                    np.multiply(_diff(w, p, l0, l1, dl[p]), dl[p], out=a if p else acc)
                    if p:
                        acc += a
                else:
                    _accumulate_square(_diff(w, p, l0, l1, a), acc, p == 0)
                    _accumulate_square(_diff(s, p, l0, l1, a), r, p == 0)
            np.multiply(acc, acc if y_zero else r, out=acc2)
            _fold_sup(acc, power, sup[0])
            if y_zero:  # (delta . sigma)^2 = |delta|^4
                acc2 += acc2
            else:
                for p in range(d):
                    _diff(w, p, l0, l1, a)
                    np.multiply(a, _diff(s, p, l0, l1, acc), out=a if p else r)
                    if p:
                        r += a
                np.multiply(r, r, out=r)
                acc2 += r
            acc2 *= 0.0625
        if shifted:
            np.copyto(acc2s, acc2)
        for e in range(entries):
            if not zero1:  # the Chen cross term of X - Y, halved
                p, q = ps[e], qs[e]
                if y_zero:
                    _cross_term(x1, p, q, l0, l1, late, a, acc, dl[q], dl[p])
                else:
                    _cross_term(x1, p, q, l0, l1, late, a, acc, dl[0])
                    _cross_term(y1, p, q, l0, l1, late, acc, r, dl[0])
                    np.subtract(a, acc, out=a)
                a *= 0.5
            _diff(da, e, l0, l1, r)
            if not zero1:
                np.subtract(r, a, out=r)  # the area residual
            if shifted:  # the signed step, as r is signed
                np.multiply(shifts[:, e, None, None], dt, out=a)
                np.add(r, a, out=a)
                _accumulate_square(a, acc2s, False)
            _accumulate_square(r, acc2, False)
        for sq, out in zip((acc2, acc2s)[:1 + shifted], sup[1:]):
            sq *= 2.0  # both halves of every area entry, the symmetric part halved
            _fold_sup(sq, power2, out)
    return sup[0] + sup[1], sup[0] + sup[2] if shifted else None


def sweep_memory(k: int, n: int, d: int, shifted: bool, zero1: bool = False,
                 geometry: bool = False) -> tuple[int, list[tuple], int]:
    """Lag rows per block of a holder_sweep of k >= 1 members of dimension d,
    or, for area residuals (``zero1``), of d area entries a point, on
    n >= 1 intervals (ValueError otherwise), the fewest that hold
    PAIR_BLOCK pairs over all members, or all ceil(n/2) lags; the shapes of
    the arrays it cuts from the one array it allocates (sups, paths extended
    by ceil(n/2) points, a block's planes, and unless given its ``geometry``
    a block's _geometry planes); and its bytes, with a block's maxima and
    what _geometry allocates (the extended times, and a wrap mask unless
    for area residuals, ``zero1``), whatever the numpy buffer size."""
    if k < 1 or n < 1:
        raise ValueError(f"a sweep needs a member and an interval, got k = {k}, n = {n}")
    lags = (n + 1) // 2
    rows = min(lags, -(-PAIR_BLOCK // (k * (n + 1))))
    pairs = rows * (n + 1)
    extended = n + 1 + lags
    shapes = [(3, k), (k, d if zero1 else d * (d - 1) // 2, extended)]
    if not zero1:
        shapes += [(k, d, extended)] * 3 + [(1, d, extended)]
    shapes += [(k * pairs,)] * (3 + shifted + (0 if zero1 else max(d, 2)))
    shapes += [(pairs,)] * (1 + shifted + (not zero1)) * (not geometry)
    built = 0 if geometry else 8 * extended + (0 if zero1 else pairs)
    return rows, shapes, 8 * (sum(map(math.prod, shapes)) + k) + built


@dataclass(frozen=True)
class SweepGeometry:
    """_geometry's blocks, each its lags, wrap mask and step powers in
    read-only arrays, shared by the sweeps and threads given them, for the
    grid bytes, alpha, block lag rows and shifting of ``key``."""

    key: tuple
    blocks: tuple


def sweep_geometry(times, alpha: float) -> SweepGeometry | None:
    """The geometry that the one-member, unshifted sweeps on the grid
    ``times`` read, for their ``geometry`` argument, when such a sweep is one
    block (n <= 256 at PAIR_BLOCK = 2^15), else None, as on a one-point grid,
    which has no pairs to sweep: that block's wrap mask and two planes, 17
    bytes an entry, cut as the sweep cuts them from sweep_memory's shapes.
    A sweep with other block rows, or shifted, raises when given it."""
    t = np.asarray(times, dtype=float)
    n = len(t) - 1
    if n < 1:
        return None
    rows, shapes, _ = sweep_memory(1, n, 1, False)
    if rows < (n + 1) // 2:
        return None
    block = next(_geometry(t, alpha, rows, False, True, _scratch(*shapes[-2:])))
    for array in block[2:5]:
        array.flags.writeable = False
    return SweepGeometry((t.tobytes(), alpha, rows, False), (block,))


def _geometry(t, alpha: float, rows: int, shifted: bool, level1: bool, planes):
    """Per block of ``rows`` lag rows of a sweep on the grid ``t``: its lags
    l0 <= l < l1, and over its pairs of points m and (m + l) mod (n + 1),
    when ``level1`` the mask of those that wrap (the window's point is the
    earlier) and |t_j - t_i|^alpha, then |t_j - t_i|^(2 alpha), and when
    ``shifted`` the signed step, window less row, which is negative where
    the pair wraps (else None).  Each block goes over the last: the mask in
    one new array, the rest in ``planes`` (level1 + 1 + shifted, each of a
    block or more)."""
    n = len(t) - 1
    lags = (n + 1) // 2
    window = sliding_window_view(np.concatenate([t, t[:lags]]), n + 1)
    late = None
    for l0 in range(1, lags + 1, rows):
        l1 = min(l0 + rows, lags + 1)
        g = [p[:(l1 - l0) * (n + 1)].reshape(l1 - l0, n + 1) for p in planes]
        dt = g[-1]
        np.subtract(window[l0:l1], t, out=dt)
        if level1:
            late = np.less(dt, 0.0, out=None if late is None else late[:len(dt)])
        step = np.abs(dt, out=g[int(level1)])  # over dt without shifts
        power = np.power(step, alpha, out=g[0]) if level1 else None
        power2 = np.power(step, 2.0 * alpha, out=step)
        yield l0, l1, late, power, power2, dt if shifted else None


def _extend(z, path, ref=None) -> np.ndarray:
    """z = ``path`` ([k,] n + 1, c) less ``ref`` (n + 1, c), if given, grid
    last and extended by its first points, for ``z`` of shape (k, c, n + 1
    + ceil(n/2)), one of holder_sweep's working arrays; returns the windows
    z[..., l:l + n + 1], l = 0..ceil(n/2), a (k, c, ceil(n/2) + 1, n + 1)
    view.  Both parts are copied from ``path``: a copy within ``z`` would
    take a temporary, as numpy cannot rule out their overlap."""
    n1 = path.shape[-2]
    path = path.reshape((len(z),) + path.shape[-2:])
    for part in (z[..., :n1], z[..., n1:]):
        np.copyto(np.moveaxis(part, -1, -2), path[:, :part.shape[-1]])
        if ref is not None:
            part -= ref[:part.shape[-1]].T
    return sliding_window_view(z, n1, axis=-1)


def _scratch(*shapes) -> list[np.ndarray]:
    """Arrays of the given shapes, disjoint views of one new array, freed
    with the last of them."""
    sizes = [math.prod(shape) for shape in shapes]
    buf = np.empty(sum(sizes))
    ends = itertools.accumulate(sizes)
    return [buf[end - size:end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]


def _fold_sup(sq, power, sup):
    """sup = max(sup, sqrt(sq) / power over a block's pairs), per member;
    ``sq`` is overwritten."""
    np.sqrt(sq, out=sq)
    np.divide(sq, power, out=sq)
    np.maximum(sup, np.max(sq, axis=(1, 2)), out=sup)


def _diff(z, c, l0, l1, out) -> np.ndarray:
    """out = z_c at the window less z_c at the row over the pairs of a
    block's lags l0 <= l < l1, for the windows z of extended paths."""
    return np.subtract(z[:, c, l0:l1], z[:, c, :1], out=out)


def _cross_term(z, p, q, l0, l1, late, out, tmp, dq, dp=None):
    """out = z_p,i (z_q,j - z_q,i) - z_q,i (z_p,j - z_p,i) over a block's
    pairs i < j, the base z_i at the pair's earlier point (the window where
    ``late``), for the windows z of extended paths: from the difference
    planes ``dq`` and ``dp``, or, without ``dp``, with each difference
    computed into ``dq`` in turn.  ``tmp`` is overwritten."""
    _base(z, p, l0, l1, late, out)
    out *= dq if dp is not None else _diff(z, q, l0, l1, dq)
    _base(z, q, l0, l1, late, tmp)
    tmp *= dp if dp is not None else _diff(z, p, l0, l1, dq)
    np.subtract(out, tmp, out=out)


def _base(z, p, l0, l1, late, out) -> None:
    """out = z_p at the earlier point of each pair of a block's lags."""
    np.copyto(out, z[:, p, :1])
    np.copyto(out, z[:, p, l0:l1], where=late)


def _accumulate_square(r, acc, first: bool):
    """acc += r**2 (acc = r**2 when first); ``r`` is overwritten."""
    if first:
        np.multiply(r, r, out=acc)
    else:
        np.multiply(r, r, out=r)
        acc += r


def holder_distance(x: LiftedPath, y: LiftedPath, alpha: float, *, geometry=None) -> float:
    """Inhomogeneous alpha-Hoelder distance between two lifts on one grid,
    sup |X_{s,t} - Y_{s,t}| / (t-s)^alpha (Euclidean norm) plus sup
    |XX_{s,t} - YY_{s,t}| / (t-s)^(2 alpha) (Frobenius norm) over all grid
    pairs s < t: ``holder_sweep`` for one member (ValueError for a batch).
    Its planes repeat the per-pair arithmetic of a row-by-row sweep in
    order, sums of squares in index order, so the two agree bit for bit.
    """
    if x.level1.ndim != 2:
        raise ValueError("x must be one lift; use holder_sweep for a batch")
    return float(holder_sweep(x, y, alpha, geometry=geometry)[0][0])
