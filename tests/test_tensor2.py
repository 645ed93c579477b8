import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from roughlift import tensor2
from roughlift import (LiftedPath, StepTwoLift, chen_inv, chen_mul, exp_step2, holder_distance,
                       levy_area, lift_piecewise_linear, translate, zero_lift)
from roughlift.tensor2 import area_entries, full_level2, holder_sweep
from roughlift.identities import random_lifted_paths

from oracles import (holder_distance_rowloop, lift_piecewise_linear_full, lift_strided_whole_grid,
                     pl_iterated_integral)

TOL = 1e-12


# ---------------------------------------------------------------- exp_step2

def test_exp_step2_1d():
    a = exp_step2([2.0])
    assert a.level1.tolist() == [2.0]
    assert a.level2.tolist() == [[2.0]]


def test_exp_step2_zero_is_identity():
    a = exp_step2([0.0, 0.0])
    assert np.all(a.level1 == 0.0) and np.all(a.level2 == 0.0)


def test_exp_step2_diagonal_segment():
    # oracle: direct integration of the straight segment 0 -> (1,1)
    expected = pl_iterated_integral([0.0, 1.0], np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert np.allclose(expected, [[0.5, 0.5], [0.5, 0.5]], atol=0)
    a = exp_step2([1.0, 1.0])
    assert np.abs(a.level2 - expected).max() <= TOL


def test_exp_step2_rejects_nonfinite():
    with pytest.raises(ValueError):
        exp_step2([np.inf, 0.0])


# ----------------------------------------------------------------- chen_mul

def test_chen_mul_identity():
    b = exp_step2([0.3, -1.2])
    ab = chen_mul(StepTwoLift(np.zeros(2), np.zeros((2, 2))), b)
    assert np.abs(ab.level1 - b.level1).max() <= TOL
    assert np.abs(ab.level2 - b.level2).max() <= TOL


def test_chen_mul_l_shape():
    # oracle: direct integration of (0,0) -> (1,0) -> (1,1)
    path = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    expected = pl_iterated_integral([0.0, 1.0, 2.0], path)
    assert np.allclose(expected, [[0.5, 1.0], [0.0, 0.5]], atol=0)
    ab = chen_mul(exp_step2([1.0, 0.0]), exp_step2([0.0, 1.0]))
    assert np.abs(ab.level2 - expected).max() <= TOL
    assert abs(levy_area(ab)[0, 1] - 0.5) <= TOL


def test_chen_mul_segment_retraced():
    x = np.array([0.7, -0.4, 2.0])
    r = chen_mul(exp_step2(x), exp_step2(-x))
    assert np.abs(r.level1).max() <= TOL and np.abs(r.level2).max() <= TOL


def test_chen_mul_dim_mismatch():
    with pytest.raises(ValueError):
        chen_mul(exp_step2([1.0]), exp_step2([1.0, 2.0]))


# ----------------------------------------------------------------- chen_inv

def test_chen_inv_identity():
    r = chen_inv(StepTwoLift(np.zeros(3), np.zeros((3, 3))))
    assert np.all(r.level1 == 0.0) and np.all(r.level2 == 0.0)


def test_chen_inv_segment():
    a = chen_inv(exp_step2([2.0]))
    b = exp_step2([-2.0])
    assert np.abs(a.level1 - b.level1).max() <= TOL
    assert np.abs(a.level2 - b.level2).max() <= TOL


def test_chen_inv_general():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.standard_normal(3)
        m = rng.standard_normal((3, 3))
        from roughlift import StepTwoLift
        a = StepTwoLift(u, m)
        inv = chen_inv(a)
        assert np.abs(inv.level1 + u).max() <= TOL
        assert np.abs(inv.level2 - (np.outer(u, u) - m)).max() <= TOL
        r = chen_mul(a, inv)
        scale = max(1.0, np.abs(m).max())
        assert np.abs(r.level1).max() <= TOL * scale
        assert np.abs(r.level2).max() <= TOL * scale


# ------------------------------------------------- lift_piecewise_linear

def test_lift_single_segment():
    lift = lift_piecewise_linear([0.0, 1.0], np.array([[0.0, 0.0], [0.5, -2.0]]))
    seg = exp_step2([0.5, -2.0])
    assert np.abs(lift.level1[-1] - seg.level1).max() <= TOL
    assert np.abs(lift.level2[-1] - seg.level2).max() <= TOL


def test_lift_square_loop():
    loop = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)], dtype=float)
    lift = lift_piecewise_linear(np.arange(5.0), loop)
    top = lift.interval(0, 4)
    assert np.abs(top.level1).max() <= TOL
    area = levy_area(top)
    assert abs(area[0, 1] - 1.0) <= TOL


def test_lift_collinear_midpoint_invariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((5, 2))
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    lift = lift_piecewise_linear(t, x)
    # insert the midpoint of segment 2; interval lifts at original knots unchanged
    xm = np.insert(x, 3, 0.5 * (x[2] + x[3]), axis=0)
    tm = np.insert(t, 3, 2.5)
    lift_m = lift_piecewise_linear(tm, xm).restrict([0, 1, 2, 4, 5])
    assert np.abs(lift.level1 - lift_m.level1).max() <= TOL
    assert np.abs(lift.level2 - lift_m.level2).max() <= TOL


def test_lift_matches_direct_integration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        d = int(rng.integers(1, 4))
        t = np.sort(rng.uniform(0, 1, n + 1))
        t[0], t[-1] = 0.0, 1.0
        if np.any(np.diff(t) <= 0):
            continue
        x = rng.standard_normal((n + 1, d))
        lift = lift_piecewise_linear(t, x)
        expected = pl_iterated_integral(t, x)
        scale = max(1.0, np.abs(expected).max())
        assert np.abs(lift.level2[-1] - expected).max() <= TOL * scale


def test_lift_rejects_bad_grids():
    with pytest.raises(ValueError):
        lift_piecewise_linear([0.0, 0.0], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        lift_piecewise_linear([0.0], np.zeros((1, 1)))
    with pytest.raises(ValueError):
        lift_piecewise_linear([0.0, 1.0, 0.5], np.zeros((3, 1)))


def _close(a, b):
    return np.abs(a - b).max() <= TOL * max(1.0, np.abs(b).max())


def _assert_lift_matches_full(rng, n, d):
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    x = rng.standard_normal((n + 1, d))
    x[0] = rng.standard_normal(d)  # a path that does not start at the origin
    got, want = lift_piecewise_linear(t, x, stride=1), lift_piecewise_linear_full(t, x)
    # bytes, not values: a signed zero counts too.  Level 1 is x - x_0 in
    # closed form; the oracle's running sum of the increments rounds apart
    assert got.area.tobytes() == want.area.tobytes(), (n, d)
    assert got.level1.tobytes() == (x - x[0]).tobytes(), (n, d)
    assert _close(got.level1, want.level1), (n, d)


B = tensor2.ROW_BLOCK


# one segment, one block minus/plus one, and a ragged fourth block
@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 3 * B + 5])
def test_lift_blocks_match_full_lift(n):
    rng = np.random.default_rng(n)
    for d in (1, 2, 3):
        _assert_lift_matches_full(rng, n, d)


def test_lift_ragged_blocks_match_full_lift(monkeypatch):
    # a tiny odd block size puts block edges everywhere
    monkeypatch.setattr(tensor2, "ROW_BLOCK", 7)
    rng = np.random.default_rng(16)
    for n in (1, 6, 7, 8, 13, 14, 15, 100):
        for d in (1, 2, 3):
            _assert_lift_matches_full(rng, n, d)


def test_lift_memory_bounded_by_block():
    # beyond its level 1 and area the lift keeps O(ROW_BLOCK) rows; the full
    # lift's whole-grid temporaries peak at 49 MiB here
    n, d = 2 ** 20, 2
    t = np.arange(n + 1) / n
    x = np.random.default_rng(17).standard_normal((n + 1, d))
    out_bytes = (n + 1) * (d + d * (d - 1) // 2) * 8
    tracemalloc.start()
    try:
        lift_piecewise_linear(t, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out_bytes + 4 * 2 ** 20


def _assert_strided_matches_restrict(rng, n, d, stride):
    # a batch of three strided views x[:, ::4] of finer paths
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    xs = rng.standard_normal((3, 4 * n + 1, d))[:, ::4]
    got = lift_piecewise_linear(t, xs, stride=stride)
    for m, x in enumerate(xs):
        one = lift_piecewise_linear(t, np.ascontiguousarray(x))
        # the area is the stride-1 lift's rows, bit for bit, whatever the stride
        assert got.area[m].tobytes() == one.area[::stride].tobytes(), (n, d, stride, m)
        assert got.level1[m].tobytes() == (x[::stride] - x[0]).tobytes(), (n, d, stride, m)
    whole = lift_strided_whole_grid(t, xs[0], stride)  # the per-cell matmul lift
    want = lift_piecewise_linear_full(t, xs[0]).restrict(np.arange(0, n + 1, stride))
    assert np.array_equal(got.times, want.times)
    for a, b in ((got.level1[0], want.level1), (got.level2[0], want.level2),
                 (got.level2[0], whole.level2)):
        assert _close(a, b), (n, d, stride)


# one cell, three cells, and one cell past the first block; a cell longer
# than a block
@pytest.mark.parametrize("stride", [2, 3, 256, 2 * B + 3])
def test_lift_stride_matches_restricted_full_lift(stride):
    rng = np.random.default_rng(stride)
    for n in (stride, 3 * stride, stride * (B // stride + 1)):
        for d in (1, 2, 3):
            _assert_strided_matches_restrict(rng, n, d, stride)


def test_lift_stride_ragged_blocks(monkeypatch):
    # blocks of 7 rows over a batch of three, 2 a member, so every cell
    # spans blocks and its sums are carried across them
    monkeypatch.setattr(tensor2, "ROW_BLOCK", 7)
    rng = np.random.default_rng(18)
    for stride, n in ((3, 3), (3, 6), (3, 9), (3, 21), (3, 300), (10, 10), (10, 50)):
        for d in (1, 2, 3):
            _assert_strided_matches_restrict(rng, n, d, stride)


def _lift_peak_bytes(t, x, stride):
    tracemalloc.start()
    try:
        one = lift_piecewise_linear(t, x, stride=stride)
        return (tracemalloc.get_traced_memory()[1],
                one.times.nbytes + one.level1.nbytes + one.area.nbytes)
    finally:
        tracemalloc.stop()


def test_lift_long_cells_and_views_memory_bounded_by_block():
    # beyond its outputs a lift holds O(ROW_BLOCK d) floats whatever the
    # stride and however the input is laid out.  At d = 2 (1.25 MiB of
    # scratch): a stride of 2^19, cells 16 blocks long (1.3 MiB traced
    # beyond the outputs; whole-stride blocks held 24 MiB), and the lead-lag
    # n-lift's shape, stride 4 on the n-samples x[::4] of a finer grid, as on
    # a contiguous copy of them (1.5 MiB each)
    n, d = 2 ** 20, 2
    t = np.arange(n + 1) / n
    fine = np.random.default_rng(25).standard_normal((4 * n + 1, d))
    peaks = []
    for x, stride in ((fine[:n + 1], 2 ** 19), (fine[::4], 4),
                      (np.ascontiguousarray(fine[::4]), 4)):
        peak, outputs = _lift_peak_bytes(t, x, stride)
        assert peak < outputs + 2 * 2 ** 20, (stride, x.flags.c_contiguous)
        peaks.append(peak)
    assert peaks[1] <= peaks[2] + 2 ** 17  # the view costs no copies


def test_lift_rejects_stride_not_dividing_n():
    t, x = np.arange(11.0), np.zeros((11, 2))
    for stride in (0, -1, 3, 20):
        with pytest.raises(ValueError, match="stride"):
            lift_piecewise_linear(t, x, stride=stride)


@pytest.mark.parametrize("stride", [1, 3])
def test_lift_area_is_fresh(stride):
    # the lift allocates its area: writeable, and sharing no memory with the
    # values, whose level 1 may be a view of them at stride 1
    n, d = 12, 3
    t = np.arange(n + 1.0)
    for x in (np.random.default_rng(21).standard_normal((n + 1, d)),
              np.zeros((2, n + 1, d))):
        x[..., 0, :] = 0.0
        area = lift_piecewise_linear(t, x, stride=stride).area
        assert area.flags.writeable and area.flags.owndata
        assert not np.shares_memory(area, x)


def test_lift_level1_is_a_view_only_at_stride_1_from_origin():
    n, d = 12, 2
    t = np.arange(n + 1.0)
    x = np.random.default_rng(22).standard_normal((n + 1, d))
    x[0] = 0.0
    shifted, signed = x + 1.0, x.copy()
    signed[0, 1] = -0.0  # x - x_0 then turns the -0.0 below into +0.0: no view
    signed[3, 1] = -0.0
    for values, stride, view in ((x, 1, True), (x, 3, False), (shifted, 1, False),
                                 (signed, 1, False)):
        lift = lift_piecewise_linear(t, values, stride=stride)
        assert np.shares_memory(lift.level1, values) == view, (stride, view)
        assert lift.level1.flags.writeable != view, (stride, view)
        assert lift.level1.tobytes() == (values[::stride] - values[0]).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        lift_piecewise_linear(t, x).level1[1] = 0.0


@pytest.mark.parametrize("row_block", [7, B])
@pytest.mark.parametrize("stride", [1, 3])
def test_batched_lift_members_match_single_lifts(monkeypatch, row_block, stride):
    # a batch is lifted member by member's bits, in one block or in many,
    # and its restrictions and interval lifts are those of its members
    monkeypatch.setattr(tensor2, "ROW_BLOCK", row_block)
    rng = np.random.default_rng(23 + stride)
    n, d = 30, 2
    t = np.arange(n + 1) / n
    x = rng.standard_normal((3, n + 1, d))
    x[1, 0] = 0.0
    batch = lift_piecewise_linear(t, x, stride=stride)
    assert batch.dim == d and batch.level1.shape == (3, n // stride + 1, d)
    idx = [0, 2, 5]
    sub = batch.restrict(idx)
    inc, l2 = batch.intervals(np.array([[0], [1]]), np.array([3, 4]))
    for m in range(3):
        one = lift_piecewise_linear(t, x[m], stride=stride)
        assert batch.level1[m].tobytes() == one.level1.tobytes()
        assert batch.area[m].tobytes() == one.area.tobytes()
        assert sub.level1[m].tobytes() == one.restrict(idx).level1.tobytes()
        assert sub.area[m].tobytes() == one.restrict(idx).area.tobytes()
        one_inc, one_l2 = one.intervals(np.array([[0], [1]]), np.array([3, 4]))
        assert inc[m].tobytes() == one_inc.tobytes() and l2[m].tobytes() == one_l2.tobytes()


@pytest.mark.parametrize("stride", [1, 2])
def test_empty_batch_lifts_to_an_empty_batch(stride):
    # no members: the batched lift of shape (0, n / stride + 1, ...), as
    # holder_sweep returns no distances for no members
    n, d = 8, 2
    t = np.arange(n + 1) / n
    lift = lift_piecewise_linear(t, np.zeros((0, n + 1, d)), stride=stride)
    assert lift.level1.shape == (0, n // stride + 1, d)
    assert lift.area.shape == (0, n // stride + 1, 1)
    assert lift.times.tobytes() == t[::stride].tobytes()
    raw, shifted = holder_sweep(lift, zero_lift(lift.times, d), 0.3, np.zeros((0, 1)))
    assert raw.shape == shifted.shape == (0,)


def test_lifted_path_rejects_bad_batches():
    # the area of a batch of paths in R^2 has one entry a grid point
    t = np.arange(3.0)
    with pytest.raises(ValueError, match="B"):
        LiftedPath(t, np.zeros((2, 2, 3, 2)), np.zeros((2, 2, 3, 1)))
    with pytest.raises(ValueError, match="inconsistent"):
        LiftedPath(t, np.zeros((2, 3, 2)), np.zeros((3, 3, 1)))
    with pytest.raises(ValueError, match="inconsistent"):
        LiftedPath(t, np.zeros((2, 3, 2)), np.zeros((2, 3, 4)))  # a d x d level 2
    with pytest.raises(ValueError, match="identity"):
        LiftedPath(t, np.zeros((2, 3, 2)), np.zeros((2, 3, 1)) + [[[0.0]], [[1.0]]])
    with pytest.raises(ValueError, match="values"):
        lift_piecewise_linear(t, np.zeros((2, 2, 3, 1)))
    batch = LiftedPath(t, np.zeros((2, 3, 2)), np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match="target"):
        holder_sweep(batch, batch, 0.3)


def test_lift_strided_memory_bounded_by_block():
    # 1025 output points; the unstrided lift of this grid is 48 MiB
    n, d, stride = 2 ** 20, 2, 2 ** 10
    t = np.arange(n + 1) / n
    x = np.random.default_rng(19).standard_normal((n + 1, d))
    tracemalloc.start()
    try:
        lift = lift_piecewise_linear(t, x, stride=stride)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lift.n_points == n // stride + 1
    assert peak < 4 * 2 ** 20


# ----------------------------------------------------------------- translate

def test_translate_zero():
    path = lift_piecewise_linear([0., 1., 2.], np.array([[0., 0.], [1., 0.], [1., 1.]]))
    out = translate(path, np.zeros(1))
    assert np.abs(out.level2 - path.level2).max() == 0.0


def test_translate_constant_path():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    path = lift_piecewise_linear([0.0, 1.0], np.zeros((2, 2)))
    out = translate(path, area_entries(J))
    top = out.interval(0, 1)
    assert np.all(top.level1 == 0.0)
    assert np.abs(top.level2 - J).max() <= TOL


def test_translate_roundtrip_and_chen():
    rng = np.random.default_rng(5)
    path = next(random_lifted_paths(rng, 1, max_dim=3, max_segments=20))
    g = rng.standard_normal((path.dim, path.dim))
    v = 0.5 * (g - g.T)
    fwd = translate(path, area_entries(v))
    back = translate(fwd, -area_entries(v))
    assert np.abs(back.level2 - path.level2).max() <= TOL
    # translation preserves geometricity/Chen: interval symmetric parts unchanged
    for (i, j) in [(0, 1), (0, path.n_points - 1), (1, path.n_points - 1)]:
        a, b = path.interval(i, j), fwd.interval(i, j)
        dt = path.times[j] - path.times[i]
        assert np.abs(b.level2 - a.level2 - dt * v).max() <= TOL * max(1, dt * np.linalg.norm(v))
        sym_a, sym_b = a.level2 + a.level2.T, b.level2 + b.level2.T
        assert np.abs(0.5 * (sym_a - sym_b)).max() <= TOL


def test_translate_rejects_non_antisymmetric():
    # a shift is the area entries of a square, anti-symmetric array, so a
    # non-anti-symmetric one has none, and translate takes the path's
    # number of entries only
    path = lift_piecewise_linear([0.0, 1.0], np.zeros((2, 2)))
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="anti-symmetric"):
        area_entries(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="anti-symmetric"):
        area_entries(J + 1e-9 * np.eye(2))
    with pytest.raises(ValueError, match="anti-symmetric"):
        area_entries(np.stack([J, np.eye(2)]))  # one bad array in a stack
    assert area_entries(np.stack([J, -2.0 * J])).tolist() == [[-1.0], [2.0]]
    for v in (np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="square"):
            area_entries(v)
    for v in (np.zeros((2, 2)), np.zeros((1, 1))):
        with pytest.raises(ValueError, match="1-d"):
            translate(path, v)
    for v in (area_entries(np.zeros((3, 3))), area_entries([[0.0]])):
        with pytest.raises(ValueError, match="dimension mismatch"):
            translate(path, v)


# ---------------------------------------------------------------- levy_area

def test_levy_area_segment_is_zero():
    assert np.abs(levy_area(exp_step2([1.0, 2.0, -1.0]))).max() == 0.0


def test_levy_decomposition():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((10, 3))
    lift = lift_piecewise_linear(np.arange(10.0), x)
    a = lift.interval(2, 8)
    recon = levy_area(a) + 0.5 * np.outer(a.level1, a.level1)
    assert np.abs(recon - a.level2).max() <= TOL * max(1.0, np.abs(a.level2).max())


# ----------------------------------------------------------- holder_distance

def _random_pair(rng, n=20, d=2):
    t = np.arange(n + 1) / n
    x = lift_piecewise_linear(t, rng.standard_normal((n + 1, d)))
    y = lift_piecewise_linear(t, rng.standard_normal((n + 1, d)))
    return x, y


def test_holder_zero_on_equal():
    rng = np.random.default_rng(1)
    x, _ = _random_pair(rng)
    assert holder_distance(x, x, 0.3) == 0.0


def test_holder_translate_value():
    # oracle: sup over grid pairs of (t-s)^{1-2a} ||v||_F is attained at t-s = T = 1
    rng = np.random.default_rng(2)
    x, _ = _random_pair(rng, n=16)
    g = rng.standard_normal((2, 2))
    v = 0.5 * (g - g.T)
    vnorm = np.linalg.norm(v)
    for alpha in (0.0, 0.2, 0.45):
        got = holder_distance(translate(x, area_entries(v)), x, alpha)
        assert abs(got - vnorm) <= 1e-12 * max(1.0, vnorm)


def test_holder_alpha_zero_plain_sup():
    rng = np.random.default_rng(4)
    x, y = _random_pair(rng, n=12)
    got = holder_distance(x, y, 0.0)
    sup1 = sup2 = 0.0
    for i in range(13):
        for j in range(i + 1, 13):
            a, b = x.interval(i, j), y.interval(i, j)
            sup1 = max(sup1, np.linalg.norm(a.level1 - b.level1))
            sup2 = max(sup2, np.linalg.norm(a.level2 - b.level2))
    assert abs(got - (sup1 + sup2)) <= 1e-12


def test_holder_pseudometric():
    rng = np.random.default_rng(6)
    for _ in range(20):
        t = np.arange(9.0)
        lifts = [lift_piecewise_linear(t, rng.standard_normal((9, 2))) for _ in range(3)]
        alpha = float(rng.uniform(0.0, 0.49))
        dxy = holder_distance(lifts[0], lifts[1], alpha)
        dyx = holder_distance(lifts[1], lifts[0], alpha)
        assert dxy == dyx
        dxz = holder_distance(lifts[0], lifts[2], alpha)
        dzy = holder_distance(lifts[2], lifts[1], alpha)
        assert dxy <= dxz + dzy + 1e-12


def test_holder_rejects_mismatched_grids():
    rng = np.random.default_rng(8)
    x, _ = _random_pair(rng, n=8)
    y, _ = _random_pair(rng, n=10)
    with pytest.raises(ValueError):
        holder_distance(x, y, 0.3)


def test_holder_large_grid_is_exact():
    # beyond FULL_PAIRS_LIMIT the sup still runs over all pairs: the translate
    # value is attained only at (0, n), which no dyadic pair (i, i + 2^k)
    # reaches at n = 2200; a sup over those would read (2048/2200)^(1-2a) |v|
    n = 2200
    assert n > tensor2.FULL_PAIRS_LIMIT
    t = np.arange(n + 1) / n
    rng = np.random.default_rng(12)
    x = lift_piecewise_linear(t, rng.standard_normal((n + 1, 2)))
    v = np.array([[0.0, 1.5], [-1.5, 0.0]])
    got = holder_distance(translate(x, area_entries(v)), x, 0.1)
    assert abs(got - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


def _random_nonuniform_pair(rng, n, d):
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    return tuple(lift_piecewise_linear(t, rng.standard_normal((n + 1, d))) for _ in range(2))


def _assert_matches_rowloop(x, y, alpha):
    # every sum of squares is taken in index order on both routes, so the
    # distances agree bit for bit at every dimension
    assert holder_distance(x, y, alpha) == holder_distance_rowloop(x, y, alpha)


# one-member grids at the sweep's block edges, from PAIR_BLOCK: the largest
# grid one block sweeps whole, r rows of r pairs; the next power of two, m,
# in blocks of PAIR_BLOCK // m rows (whole blocks for a power-of-two
# PAIR_BLOCK); and the grids either side of each
_ONE_BLOCK = math.isqrt(tensor2.PAIR_BLOCK)
_WHOLE_BLOCKS = 1 << _ONE_BLOCK.bit_length()
EDGE_GRIDS = {n + e for n in (_ONE_BLOCK, _WHOLE_BLOCKS) for e in (-1, 0, 1)}


# the smallest grids, one-block grids, the block edges, and grids either
# side of FULL_PAIRS_LIMIT
@pytest.mark.parametrize("n", sorted({1, 2, 15, 16, 17, 63, 64, 65, *EDGE_GRIDS,
                                      tensor2.FULL_PAIRS_LIMIT, tensor2.FULL_PAIRS_LIMIT + 1}))
def test_holder_block_kernel_matches_rowloop(n):
    rng = np.random.default_rng(n)
    for k, alpha in enumerate((0.0, 0.3, 0.49)):
        d = 1 + (n + k) % 4
        x, y = _random_nonuniform_pair(rng, n, d)
        _assert_matches_rowloop(x, y, alpha)


def test_holder_ragged_blocks_match_rowloop(monkeypatch):
    # a tiny odd block size puts block edges everywhere
    monkeypatch.setattr(tensor2, "PAIR_BLOCK", 7)
    rng = np.random.default_rng(14)
    for n in (3, 6, 40, 100):
        for d in (1, 2, 3):
            x, y = _random_nonuniform_pair(rng, n, d)
            _assert_matches_rowloop(x, y, 0.3)


def test_holder_memory_bounded_by_block():
    # one full n x n float64 plane at n = 2048 would be 32 MiB
    rng = np.random.default_rng(15)
    x, y = _random_nonuniform_pair(rng, 2048, 2)
    tracemalloc.start()
    try:
        holder_distance(x, y, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _stack(lifts):
    """The lifts, all on one grid, as one batch with their members in order."""
    return LiftedPath(lifts[0].times, np.stack([x.level1 for x in lifts]),
                      np.stack([x.area for x in lifts]))


def _random_stack(rng, n, d, k):
    """k random lifts on one random grid, their batch, a target and the
    area entries of k anti-symmetric shifts."""
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    xs = [lift_piecewise_linear(t, rng.standard_normal((n + 1, d))) for _ in range(k)]
    g = rng.standard_normal((k, d, d))
    y = lift_piecewise_linear(t, rng.standard_normal((n + 1, d)))
    return xs, _stack(xs), y, area_entries(g - g.transpose(0, 2, 1))


def _assert_sweep_matches_single_calls(rng, n, d, alpha):
    xs, batch, y, v = _random_stack(rng, n, d, 5)
    raw, shifted = holder_sweep(batch, y, alpha, v)
    for m, x in enumerate(xs):
        assert raw[m] == holder_distance(x, y, alpha), (n, d, m)
        want = holder_distance(translate(x, v[m]), y, alpha)
        assert abs(shifted[m] - want) <= TOL * want, (n, d, m)
    _, zero_shifted = holder_sweep(batch, y, alpha, np.zeros_like(v))
    assert np.array_equal(zero_shifted, raw)
    assert holder_sweep(batch, y, alpha)[1] is None


# one block and several row blocks; test_sweep_ragged_blocks has one row per block
@pytest.mark.parametrize("n", [1, 16, 100, 257])
def test_sweep_members_match_single_distances(n):
    rng = np.random.default_rng(n)
    for d, alpha in ((1, 0.0), (2, 0.3), (3, 0.49)):
        _assert_sweep_matches_single_calls(rng, n, d, alpha)


def test_sweep_ragged_blocks(monkeypatch):
    # 7 pairs per block over a batch of 5: one row per block
    monkeypatch.setattr(tensor2, "PAIR_BLOCK", 7)
    rng = np.random.default_rng(20)
    for n in (3, 40, 100):
        _assert_sweep_matches_single_calls(rng, n, 2, 0.3)


def _zero_level1(rng, t, d, signs):
    """A lift with level 1 zero, -0.0 where ``signs`` is negative."""
    area = rng.standard_normal((len(t), d * (d - 1) // 2))
    area[0] = 0.0
    return LiftedPath(t, np.where(signs < 0, -0.0, 0.0), area)


@pytest.mark.parametrize("d", [1, 2])
def test_sweep_zero_planes_match_rowloop(d):
    # the zero target (and, with it, zero level 1 in every member) skips
    # planes; with -0.0 entries in the inputs and translated lifts among the
    # members of a batch every distance stays equal to the row loop's
    rng = np.random.default_rng(22 + d)
    n = 40
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    signs = rng.standard_normal((n + 1, d))
    g = rng.standard_normal((d, d))
    v = area_entries(g - g.T)
    zero = zero_lift(t, d)
    signed_zero = LiftedPath(t, np.where(signs < 0, -0.0, 0.0), np.zeros((n + 1, len(v))))
    flat = [_zero_level1(rng, t, d, signs) for _ in range(3)]
    flat += [translate(flat[0], v), LiftedPath(t, flat[1].level1, -flat[1].area)]
    moving = [lift_piecewise_linear(t, rng.standard_normal((n + 1, d))) for _ in range(2)]
    moving.append(translate(moving[0], v))
    for y in (zero, signed_zero):
        for xs in (flat, moving, flat + moving):
            raw, _ = holder_sweep(_stack(xs), y, 0.3)
            assert raw.tolist() == [holder_distance_rowloop(x, y, 0.3) for x in xs]


@pytest.mark.parametrize("pair_block", [7, tensor2.PAIR_BLOCK])
def test_shifted_sweep_matches_shifted_rowloop(monkeypatch, pair_block):
    # the shifted distances, which the lead-lag runs write, are the row
    # loop's with (t_j - t_i) v_m added to every area residual, bit for bit:
    # batches of lifts with level 1 zero (-0.0 at places) or moving, against
    # the zero lift, a signed zero and a lift, with shifts holding -0.0
    monkeypatch.setattr(tensor2, "PAIR_BLOCK", pair_block)
    for n in (1, 2, 3, 16, 17, 40, 257):
        rng = np.random.default_rng(40 + n)
        d = 2 + n % 2
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
        signs = rng.standard_normal((n + 1, d))
        flat = [_zero_level1(rng, t, d, signs) for _ in range(2)]
        moving = [lift_piecewise_linear(t, rng.standard_normal((n + 1, d))) for _ in range(2)]
        targets = (zero_lift(t, d), LiftedPath(t, np.where(signs < 0, -0.0, 0.0), flat[0].area),
                   lift_piecewise_linear(t, rng.standard_normal((n + 1, d))))
        for y in targets:
            for xs in (flat, moving, flat + moving):
                g = rng.standard_normal((len(xs), d, d))
                shifts = area_entries(g - g.transpose(0, 2, 1))
                shifts[0, 0] = -0.0
                _, shifted = holder_sweep(_stack(xs), y, 0.3, shifts)
                want = [holder_distance_rowloop(x, y, 0.3, v) for x, v in zip(xs, shifts)]
                assert shifted.tolist() == want, (n, d)


@pytest.mark.parametrize("pair_block", [7, tensor2.PAIR_BLOCK])
def test_lag_blocks_visit_every_pair(monkeypatch, pair_block):
    # on the grid t_i = 2^i a step 2^j - 2^i (exact) names its pair i < j:
    # the blocks of one and of three members visit every lag row once, and
    # entry (l, m) is the pair of m and (m + l) mod (n + 1), the mask
    # marking where the window's point is the earlier and the signed step
    # negative; so each pair is visited once, the middle lag of an odd n twice
    monkeypatch.setattr(tensor2, "PAIR_BLOCK", pair_block)
    for n in range(1, 41):
        t = 2.0 ** np.arange(n + 1)
        i, j = np.triu_indices(n + 1, 1)
        want = sorted(zip(i.tolist(), j.tolist()))
        if n % 2:
            want = sorted(want + [(i, i + (n + 1) // 2) for i in range((n + 1) // 2)])
        for k in (1, 3):
            rows = tensor2.sweep_memory(k, n, 2, True)[0]
            lags, pairs = [], []
            for l0, l1, late, power, power2, dt in tensor2._geometry(t, 0.3, rows, True):
                lag = np.arange(l0, l1)[:, None]
                m = np.arange(n + 1)
                w = (m + lag) % (n + 1)
                assert np.array_equal(late, w < m) and np.array_equal(dt < 0, late)
                assert np.array_equal(np.abs(dt), t[np.maximum(m, w)] - t[np.minimum(m, w)])
                assert np.array_equal(power2, np.abs(dt) ** 0.6)
                step = np.abs(dt).ravel()
                later = np.frexp(step)[1]  # 2^(j-1) <= 2^j - 2^i < 2^j
                pairs += zip((np.frexp(2.0 ** later - step)[1] - 1).tolist(), later.tolist())
                lags += lag.ravel().tolist()
            assert lags == list(range(1, (n + 1) // 2 + 1)), (n, k)
            assert sorted(pairs) == want, (n, k)


def test_sweep_rejects_bad_stacks():
    rng = np.random.default_rng(21)
    _, batch, y, v = _random_stack(rng, 8, 2, 3)
    with pytest.raises(ValueError, match="shifts"):
        holder_sweep(batch, y, 0.3, v[:2])
    _, other, _, _ = _random_stack(rng, 8, 2, 3)  # the same shape on another grid
    with pytest.raises(ValueError, match="grids"):
        holder_sweep(other, y, 0.3)


def test_holder_distance_rejects_a_batch():
    # a batch is measured by holder_sweep; holder_distance must not report
    # its first member's distance as the distance of the whole batch
    rng = np.random.default_rng(24)
    xs, batch, y, _ = _random_stack(rng, 8, 2, 3)
    with pytest.raises(ValueError, match="holder_sweep"):
        holder_distance(batch, y, 0.3)
    for m, x in enumerate(xs):
        assert holder_distance(x, y, 0.3) == holder_sweep(batch, y, 0.3)[0][m]



# ------------------------------------------------- kept sweep geometry

def _geometry_cases(rng, n):
    """(x, y, shifts) sweeps on one uniform, one scaled (k/n T at T = 2.5)
    and one non-uniform grid of n intervals: a batch of 3 lifts against the
    zero lift and against a lift, with and without shifts."""
    grids = [np.arange(n + 1) / n, np.arange(n + 1) / n * 2.5,
             np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])]
    for t in grids:
        xs = [lift_piecewise_linear(t, rng.standard_normal((n + 1, 2))) for _ in range(3)]
        g = rng.standard_normal((3, 2, 2))
        for y in (zero_lift(t, 2), lift_piecewise_linear(t, rng.standard_normal((n + 1, 2)))):
            for shifts in (None, area_entries(g - g.transpose(0, 2, 1))):
                yield _stack(xs), y, shifts
                yield xs[0], y, None if shifts is None else shifts[:1]


def _case_geometry(case, alpha):
    """The kept geometry of an unshifted case whose block rows are a
    one-member sweep's, else None: the sweep builds its own."""
    x, _, shifts = case
    k, n = (len(x.level1) if x.level1.ndim == 3 else 1), len(x.times) - 1
    rows = [tensor2.sweep_memory(m, n, 2, False)[0] for m in (k, 1)]
    if shifts is not None or rows[0] != rows[1]:
        return None
    return tensor2.sweep_geometry(x.times, alpha)


def _sweep_bits(cases, alpha, geometries=None):
    return [tuple(None if r is None else r.tobytes() for r in holder_sweep(x, y, alpha, shifts, g))
            for (x, y, shifts), g in zip(cases, geometries or [None] * len(cases))]


@pytest.mark.parametrize("pair_block", [7, tensor2.PAIR_BLOCK])
@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_kept_geometry_sweeps_are_bitwise_the_block_built_ones(monkeypatch, pair_block, alpha):
    # every sweep given its grid's geometry, at its first and its second use,
    # against blocks built into scratch; grids of n = 3 and 40 have a
    # geometry at PAIR_BLOCK = 7 and the default respectively, n = 100 only
    # at the default
    monkeypatch.setattr(tensor2, "PAIR_BLOCK", pair_block)
    for n in (3, 40, 100):
        cases = list(_geometry_cases(np.random.default_rng(n), n))
        geometries = [_case_geometry(case, alpha) for case in cases]
        assert any(geometries) == (n <= (3 if pair_block == 7 else 100))
        built = _sweep_bits(cases, alpha)
        for _ in range(2):
            assert _sweep_bits(cases, alpha, geometries) == built
    for x, y, shifts in cases:  # and the raw distances are the row loop's
        if x.level1.ndim == 2:
            assert holder_sweep(x, y, alpha)[0][0] == holder_distance_rowloop(x, y, alpha)


def test_kept_geometry_is_read_only_and_keyed_by_grid_bits():
    # its arrays are read-only, and a sweep takes it only on the grid, bit
    # for bit, and the alpha, block rows and shifting it was built for
    t = np.arange(17) / 16
    x, y = _random_pair(np.random.default_rng(30), n=16)
    geometry = tensor2.sweep_geometry(t, 0.3)
    (block,) = geometry.blocks
    assert block[5] is None
    for array in block[2:5]:
        assert not array.flags.writeable
    assert holder_distance(x, y, 0.3, geometry=geometry) == holder_distance(x, y, 0.3)
    moved = t.copy()
    moved[5] = np.nextafter(moved[5], 1.0)
    for other in (tensor2.sweep_geometry(moved, 0.3), tensor2.sweep_geometry(t, 0.2)):
        with pytest.raises(ValueError, match="geometry"):
            holder_distance(x, y, 0.3, geometry=other)
    # the one geometry kept is unshifted and for one member's block rows: a
    # shifted sweep, and a batch of 4096 members on 16 intervals (a row a
    # block, not 16), raise when given it
    with pytest.raises(ValueError, match="geometry"):
        holder_sweep(x, y, 0.3, np.zeros((1, 1)), geometry)
    batch = _stack([x] * 4096)
    assert tensor2.sweep_memory(4096, 16, 1, False)[0] == 1 != geometry.key[2] == 8
    with pytest.raises(ValueError, match="geometry"):
        holder_sweep(batch, y, 0.3, geometry=geometry)


def test_two_threads_sweeping_different_grids_give_the_serial_bits():
    # both threads sweep at once, each on its own grid (with a geometry, with
    # none, and batched), sharing each grid's geometry
    rng = np.random.default_rng(31)
    jobs = [list(_geometry_cases(rng, n))[:6] for n in (16, 40, 300)]
    want = [_sweep_bits(cases, 0.3) for cases in jobs]
    jobs = [(cases, [_case_geometry(case, 0.3) for case in cases]) for cases in jobs]
    for _ in range(3):
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda job: [_sweep_bits(job[0], 0.3, job[1]) for _ in range(4)],
                                jobs + jobs[::-1]))
        assert [runs[0] for runs in got] == want + want[::-1]
        assert all(len(set(map(tuple, runs))) == 1 for runs in got)


def _retained_bytes(x, y, geometry=None):
    # the traced memory a sweep leaves allocated, on its first call or any
    tracemalloc.start()
    try:
        holder_distance(x, y, 0.3, geometry=geometry)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_sweeps_keep_no_more_than_the_geometry_bound():
    # a sweep keeps nothing after it returns; a large grid gets no geometry,
    # and the output grid of the magnetic benchmark one of 17 B an entry,
    # 128 lags of 257 pairs, within the bound
    rng = np.random.default_rng(32)
    x, y = _random_nonuniform_pair(rng, 2048, 2)
    assert tensor2.sweep_geometry(x.times, 0.3) is None
    assert _retained_bytes(x, y) < 2 ** 12
    x, y = _random_nonuniform_pair(rng, 256, 2)
    geometry = tensor2.sweep_geometry(x.times, 0.3)
    held = sum(a.nbytes for block in geometry.blocks for a in block[2:] if a is not None)
    assert held == 128 * 257 * 17 <= 17 * tensor2.GEOMETRY_KEEP * tensor2.PAIR_BLOCK
    assert _retained_bytes(x, y) < 2 ** 12
    assert _retained_bytes(x, y, geometry) < 2 ** 12

def test_one_point_grid_has_no_sweep_blocks():
    # a one-point grid has no pairs: its sweeps give zeros, it has no
    # geometry to keep, and its blocks, like those of a sweep of no members,
    # are a ValueError rather than a division by zero
    t = np.array([0.0])
    x = LiftedPath(t, np.zeros((1, 2)), np.zeros((1, 1)))
    assert tensor2.sweep_geometry(t, 0.3) is None
    raw, shifted = holder_sweep(x, zero_lift(t, 2), 0.3, np.ones((1, 1)))
    assert raw.tolist() == shifted.tolist() == [0.0]
    assert holder_distance(x, x, 0.3, geometry=tensor2.sweep_geometry(t, 0.3)) == 0.0
    for k, n in ((1, 0), (0, 4), (0, 0)):
        with pytest.raises(ValueError, match="a member and an interval"):
            tensor2.sweep_memory(k, n, 2, shifted=False)

# ------------------------------------------------- kernel working memory

def _sweep_form(rng, form):
    """A sweep as the runs call it, and its sweep_memory arguments: a
    lead-lag batch (16 residuals of lead-lag dimension 4, level 1 zero,
    shifted, against the zero lift, 64 blocks of 4 lags), or one magnetic
    member against the zero lift or a lift, with its grid's kept geometry or
    building it (two blocks, the last ragged)."""
    if form == "lead-lag batch":
        k, n, d = 16, 512, 8
        t = np.arange(n + 1) / n
        area = rng.standard_normal((k, n + 1, d * (d - 1) // 2))
        area[:, 0] = 0.0
        x = LiftedPath(t, np.broadcast_to(0.0, (k, n + 1, d)), area)
        y, shifts = zero_lift(t, d), rng.standard_normal((k, d * (d - 1) // 2))
        return (lambda: holder_sweep(x, y, 0.3, shifts)), (k, n, d, True, True)
    n = 300
    t = np.arange(n + 1) / n
    x, y = (lift_piecewise_linear(t, rng.standard_normal((n + 1, 2))) for _ in range(2))
    if form.startswith("zero"):
        y = zero_lift(t, 2)
    geometry = tensor2.sweep_geometry(t, 0.3) if form.endswith("kept") else None
    return ((lambda: holder_distance(x, y, 0.3, geometry=geometry)),
            (1, n, 2, False, False, geometry is not None))


def _outer_sum_form(rng, form):
    """A running_outer_sum as the lifts call it, and its outer_sum_memory
    arguments: a path's area (d = 2), a lead-lag n-lift's area and QV (d = 4)
    or QV alone (d = 1) on strided views of a batch of finer paths, and the
    strided reference lift of a batch (d = 2)."""
    batch, n, d, stride, qv, view = {
        "area": ((), 2 ** 16, 2, 1, False, 1),
        "area and QV": ((8,), 1024, 4, 2, True, 4),
        "QV only": ((8,), 1024, 1, 64, True, 4),
        "strided batch": ((8,), 4096, 2, 256, False, 1)}[form]
    x = rng.standard_normal(batch + (view * n + 1, d))[..., ::view, :]
    area = np.empty(batch + (n // stride + 1, d * (d - 1) // 2))
    squares = np.empty(batch + (n // stride + 1, d * (d + 1) // 2)) if qv else None
    return ((lambda: tensor2.running_outer_sum(x, stride, area, squares)),
            (math.prod(batch), n, d, qv))


@pytest.mark.parametrize("bufsize", [8192, 16])
@pytest.mark.parametrize("kernel, form", [
    *(("sweep", form) for form in ("lead-lag batch", "zero kept", "zero built", "lift kept",
                                   "lift built")),
    *(("outer sum", form) for form in ("area", "area and QV", "QV only", "strided batch"))])
def test_kernel_memory_is_its_sized_bytes(kernel, form, bufsize):
    # each kernel allocates the working arrays its sizing function gives, and
    # numpy takes the iterator buffers it counts, whatever np.getbufsize():
    # the traced peak of a call, inputs and outputs allocated first, is the
    # sized bytes plus the interpreter's objects (views, frames), under 16 KiB
    rng = np.random.default_rng(33)
    old = np.setbufsize(bufsize)
    try:
        if kernel == "sweep":
            call, args = _sweep_form(rng, form)
            sized = tensor2.sweep_memory(*args)[2]
        else:
            call, args = _outer_sum_form(rng, form)
            sized = tensor2.outer_sum_memory(*args)[2]
        call()  # numpy's small caches filled
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        np.setbufsize(old)
    assert sized <= peak <= sized + 2 ** 14, (peak - sized)


def test_outer_sum_with_no_entries_takes_nothing():
    # at d = 1 a lift has no area entries: its running_outer_sum returns
    # before it allocates anything
    assert tensor2.outer_sum_memory(8, 4096, 1, False) == (0, [], 0)
    assert tensor2.outer_sum_memory(0, 4096, 2, True) == (0, [], 0)
    x = np.random.default_rng(34).standard_normal((8, 4097, 1))
    area = np.empty((8, 17, 0))
    tracemalloc.start()
    try:
        tensor2.running_outer_sum(x, 256, area)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 10


# ------------------------------------------------------------ LiftedPath API

def test_interval_lifts_satisfy_chen():
    rng = np.random.default_rng(13)
    path = next(random_lifted_paths(rng, 1, max_dim=3, max_segments=16))
    n = path.n_points
    for (i, j, k) in [(0, 1, 2), (0, n // 2, n - 1), (1, n // 2, n - 2)]:
        if not i < j < k:
            continue
        lhs = path.interval(i, k)
        rhs = chen_mul(path.interval(i, j), path.interval(j, k))
        scale = max(1.0, np.abs(lhs.level2).max())
        assert np.abs(lhs.level1 - rhs.level1).max() <= TOL * scale
        assert np.abs(lhs.level2 - rhs.level2).max() <= TOL * scale


def test_restrict_preserves_interval_lifts():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((17, 2))
    t = np.arange(17.0)
    path = lift_piecewise_linear(t, x)
    sub = path.restrict([2, 5, 9, 16])
    a = path.interval(2, 9)
    b = sub.interval(0, 2)
    assert np.abs(a.level1 - b.level1).max() <= TOL
    assert np.abs(a.level2 - b.level2).max() <= TOL


def test_intervals_match_interval_restrict_and_all_pairs_formula():
    # intervals(i, j) is the one S_{i,j} formula: bit for bit the single
    # interval at every pair, the rows of restrict, and the all-pairs table
    # written out from the running signatures
    rng = np.random.default_rng(15)
    for path in random_lifted_paths(rng, 6, max_dim=3, max_segments=12):
        n, d = path.n_points, path.dim
        grid = np.arange(n)
        inc, area = path.intervals(grid[:, None], grid)
        assert inc.shape == (n, n, d) and area.shape == (n, n, d * (d - 1) // 2)
        for i in range(n):
            for j in range(n):
                single = path.interval(i, j)
                assert inc[i, j].tobytes() == single.level1.tobytes()
                assert full_level2(inc[i, j], area[i, j]).tobytes() == single.level2.tobytes()
        for idx in (grid, grid[1::2], grid[[0, n - 1]]):
            sub = path.restrict(idx)
            assert sub.level1.tobytes() == inc[idx[0], idx].tobytes()
            assert sub.area.tobytes() == area[idx[0], idx].tobytes()
        L1, A = path.level1, path.area
        U = L1[None] - L1[:, None]
        assert inc.tobytes() == U.tobytes()
        p, q = np.triu_indices(d, 1)
        X = np.broadcast_to(L1[:, None], U.shape)
        cross = X[..., p] * U[..., q] - X[..., q] * U[..., p]
        assert area.tobytes() == (A[None] - A[:, None] - 0.5 * cross).tobytes()


def test_level2_is_derived_from_level1_and_area():
    # level 2 is 1/2 x (x) x plus the area's anti-symmetric array, for a
    # batch too: the area added above the diagonal, taken off below it
    rng = np.random.default_rng(16)
    x = rng.standard_normal((2, 9, 3))
    lift = lift_piecewise_linear(np.arange(9.0), x)
    level2 = lift.level2
    assert level2.shape == (2, 9, 3, 3)
    sym = 0.5 * lift.level1[..., :, None] * lift.level1[..., None, :]
    p, q = np.triu_indices(3, 1)
    assert np.array_equal(level2[..., p, q], sym[..., p, q] + lift.area)
    assert np.array_equal(level2[..., q, p], sym[..., q, p] - lift.area)
    diagonal = np.arange(3)
    assert np.array_equal(level2[..., diagonal, diagonal], sym[..., diagonal, diagonal])
