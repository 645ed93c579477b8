import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from roughlift import tensor2
from roughlift import (LiftedPath, StepTwoLift, chen_inv, chen_mul, exp_step2, holder_distance,
                       levy_area, lift_piecewise_linear, translate, zero_lift)
from roughlift.tensor2 import holder_sweep
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
    assert got.level2.tobytes() == want.level2.tobytes(), (n, d)
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
    # beyond its two output levels the lift keeps O(ROW_BLOCK) rows (2.8 MiB
    # measured); the full lift's whole-grid temporaries peak at 49 MiB here
    n, d = 2 ** 20, 2
    t = np.arange(n + 1) / n
    x = np.random.default_rng(17).standard_normal((n + 1, d))
    out_bytes = (n + 1) * (d + d * d) * 8
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
        # level 2 is the stride-1 lift's rows, bit for bit, whatever the stride
        assert got.level2[m].tobytes() == one.level2[::stride].tobytes(), (n, d, stride, m)
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
    # on a fresh thread, which allocates its scratch buffer under tracing
    def lift():
        one = lift_piecewise_linear(t, x, stride=stride)
        return one.times.nbytes + one.level1.nbytes + one.level2.nbytes

    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            outputs = pool.submit(lift).result()
        return tracemalloc.get_traced_memory()[1], outputs
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


@pytest.mark.parametrize("stride", [1, 4])
def test_lift_into_out_equals_fresh_lift(stride):
    rng = np.random.default_rng(20 + stride)
    n, d = 3 * B + 8, 2
    t = np.arange(n + 1) / n
    x = rng.standard_normal((n + 1, d))
    x[0] = 0.0
    fresh = lift_piecewise_linear(t, x, stride=stride)
    out = np.full((n // stride + 1, d, d), np.nan)  # a used buffer: row 0 is reset too
    got = lift_piecewise_linear(t, x, stride=stride, out=out)
    assert got.level2 is out
    assert got.level1.tobytes() == fresh.level1.tobytes()
    assert got.level2.tobytes() == fresh.level2.tobytes()


def test_lift_rejects_bad_out():
    n, d = 8, 2
    t = np.arange(n + 1.0)
    x = np.random.default_rng(21).standard_normal((n + 1, d))
    for out in (np.empty((n, d, d)), np.empty((n + 1, d)), np.empty((n // 2 + 1, d, d)),
                np.empty((n + 1, d, d), dtype=np.float32), np.empty((n + 1, d, d), dtype=int)):
        with pytest.raises(ValueError, match="out"):
            lift_piecewise_linear(t, x, out=out)
    # values and out cut from one buffer, overlapping by one float
    buf = np.zeros((n + 1) * d + (n + 1) * d * d - 1)
    values = buf[:(n + 1) * d].reshape(n + 1, d)
    values[1:] = x[1:]
    with pytest.raises(ValueError, match="overlap"):
        lift_piecewise_linear(t, values, out=buf[-(n + 1) * d * d:].reshape(n + 1, d, d))


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
    out = np.empty((3, n // stride + 1, d, d))
    assert lift_piecewise_linear(t, x, stride=stride, out=out).level2 is out
    assert batch.dim == d and batch.level1.shape == (3, n // stride + 1, d)
    idx = [0, 2, 5]
    sub = batch.restrict(idx)
    inc, l2 = batch.intervals(np.array([[0], [1]]), np.array([3, 4]))
    for m in range(3):
        one = lift_piecewise_linear(t, x[m], stride=stride)
        assert batch.level1[m].tobytes() == one.level1.tobytes()
        assert batch.level2[m].tobytes() == one.level2.tobytes() == out[m].tobytes()
        assert sub.level1[m].tobytes() == one.restrict(idx).level1.tobytes()
        assert sub.level2[m].tobytes() == one.restrict(idx).level2.tobytes()
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
    assert lift.level2.shape == (0, n // stride + 1, d, d)
    assert lift.times.tobytes() == t[::stride].tobytes()
    raw, shifted = holder_sweep(lift, zero_lift(lift.times, d), 0.3, np.zeros((0, d, d)))
    assert raw.shape == shifted.shape == (0,)


def test_lifted_path_rejects_bad_batches():
    t = np.arange(3.0)
    with pytest.raises(ValueError, match="B"):
        LiftedPath(t, np.zeros((2, 2, 3, 1)), np.zeros((2, 2, 3, 1, 1)))
    with pytest.raises(ValueError, match="inconsistent"):
        LiftedPath(t, np.zeros((2, 3, 1)), np.zeros((3, 3, 1, 1)))
    with pytest.raises(ValueError, match="identity"):
        LiftedPath(t, np.zeros((2, 3, 1)) + [[[0.0]], [[1.0]]], np.zeros((2, 3, 1, 1)))
    with pytest.raises(ValueError, match="values"):
        lift_piecewise_linear(t, np.zeros((2, 2, 3, 1)))
    batch = LiftedPath(t, np.zeros((2, 3, 1)), np.zeros((2, 3, 1, 1)))
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
    out = translate(path, np.zeros((2, 2)))
    assert np.abs(out.level2 - path.level2).max() == 0.0


def test_translate_constant_path():
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    path = lift_piecewise_linear([0.0, 1.0], np.zeros((2, 2)))
    out = translate(path, J)
    top = out.interval(0, 1)
    assert np.all(top.level1 == 0.0)
    assert np.abs(top.level2 - J).max() <= TOL


def test_translate_roundtrip_and_chen():
    rng = np.random.default_rng(5)
    path = next(random_lifted_paths(rng, 1, max_dim=3, max_segments=20))
    g = rng.standard_normal((path.dim, path.dim))
    v = 0.5 * (g - g.T)
    fwd = translate(path, v)
    back = translate(fwd, -v)
    assert np.abs(back.level2 - path.level2).max() <= TOL
    # translation preserves geometricity/Chen: interval symmetric parts unchanged
    for (i, j) in [(0, 1), (0, path.n_points - 1), (1, path.n_points - 1)]:
        a, b = path.interval(i, j), fwd.interval(i, j)
        dt = path.times[j] - path.times[i]
        assert np.abs(b.level2 - a.level2 - dt * v).max() <= TOL * max(1, dt * np.linalg.norm(v))
        sym_a, sym_b = a.level2 + a.level2.T, b.level2 + b.level2.T
        assert np.abs(0.5 * (sym_a - sym_b)).max() <= TOL


def test_translate_rejects_non_antisymmetric():
    # v must be a square, anti-symmetric array of the path's dimension
    path = lift_piecewise_linear([0.0, 1.0], np.zeros((2, 2)))
    J = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="anti-symmetric"):
        translate(path, np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="anti-symmetric"):
        translate(path, J + 1e-9 * np.eye(2))
    for v in (np.zeros((2, 3)), np.zeros(2), np.zeros((1, 2, 2))):
        with pytest.raises(ValueError, match="square"):
            translate(path, v)
    with pytest.raises(ValueError, match="dimension mismatch"):
        translate(path, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        translate(path, [[0.0]])


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
        got = holder_distance(translate(x, v), x, alpha)
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
    got = holder_distance(translate(x, v), x, 0.1)
    assert abs(got - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)


def _random_nonuniform_pair(rng, n, d):
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    return tuple(lift_piecewise_linear(t, rng.standard_normal((n + 1, d))) for _ in range(2))


def _assert_matches_rowloop(x, y, alpha):
    got = holder_distance(x, y, alpha)
    want = holder_distance_rowloop(x, y, alpha)
    if x.dim <= 2:  # norms of <= 4 terms are summed in the same order
        assert got == want
    else:
        assert abs(got - want) <= 1e-12 * want


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
                      np.stack([x.level2 for x in lifts]))


def _random_stack(rng, n, d, k):
    """k random lifts on one random grid, their batch, a target and k
    anti-symmetric shifts."""
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    xs = [lift_piecewise_linear(t, rng.standard_normal((n + 1, d))) for _ in range(k)]
    g = rng.standard_normal((k, d, d))
    y = lift_piecewise_linear(t, rng.standard_normal((n + 1, d)))
    return xs, _stack(xs), y, g - g.transpose(0, 2, 1)


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
    level2 = rng.standard_normal((len(t), d, d))
    level2[0] = 0.0
    return LiftedPath(t, np.where(signs < 0, -0.0, 0.0), level2)


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
    v = g - g.T
    zero = zero_lift(t, d)
    signed_zero = LiftedPath(t, np.where(signs < 0, -0.0, 0.0), np.zeros((n + 1, d, d)))
    flat = [_zero_level1(rng, t, d, signs) for _ in range(3)]
    flat += [translate(flat[0], v), LiftedPath(t, flat[1].level1, -flat[1].level2)]
    moving = [lift_piecewise_linear(t, rng.standard_normal((n + 1, d))) for _ in range(2)]
    moving.append(translate(moving[0], v))
    for y in (zero, signed_zero):
        for xs in (flat, moving, flat + moving):
            raw, _ = holder_sweep(_stack(xs), y, 0.3)
            assert raw.tolist() == [holder_distance_rowloop(x, y, 0.3) for x in xs]


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
            for shifts in (None, g - g.transpose(0, 2, 1)):
                yield _stack(xs), y, shifts
                yield xs[0], y, None if shifts is None else shifts[:1]


def _case_geometry(case, alpha):
    x, _, shifts = case
    return tensor2.sweep_geometry(x.times, alpha, len(x.level1) if x.level1.ndim == 3 else 1,
                                  shifts is not None)


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
    for other in (tensor2.sweep_geometry(moved, 0.3), tensor2.sweep_geometry(t, 0.2),
                  tensor2.sweep_geometry(t, 0.3, k=4096), tensor2.sweep_geometry(t, 0.3, 1, True)):
        with pytest.raises(ValueError, match="geometry"):
            holder_distance(x, y, 0.3, geometry=other)


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
    # the traced memory a sweep leaves allocated, after a first sweep has
    # sized the thread's scratch buffer
    holder_distance(x, y, 0.3, geometry=geometry)
    tracemalloc.start()
    try:
        holder_distance(x, y, 0.3, geometry=geometry)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_sweeps_keep_no_more_than_the_geometry_bound():
    # a sweep keeps nothing after it returns; a large grid gets no geometry,
    # and the output grid of the magnetic benchmark one of 17 B an entry,
    # within the bound
    rng = np.random.default_rng(32)
    x, y = _random_nonuniform_pair(rng, 2048, 2)
    assert tensor2.sweep_geometry(x.times, 0.3) is None
    assert _retained_bytes(x, y) < 2 ** 12
    x, y = _random_nonuniform_pair(rng, 256, 2)
    geometry = tensor2.sweep_geometry(x.times, 0.3)
    held = sum(a.nbytes for block in geometry.blocks for a in block[2:] if a is not None)
    assert held == 49152 * 17 <= 17 * tensor2.GEOMETRY_KEEP * tensor2.PAIR_BLOCK
    assert _retained_bytes(x, y) < 2 ** 12
    assert _retained_bytes(x, y, geometry) < 2 ** 12

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
        inc, l2 = path.intervals(grid[:, None], grid)
        assert inc.shape == (n, n, d) and l2.shape == (n, n, d, d)
        for i in range(n):
            for j in range(n):
                single = path.interval(i, j)
                assert inc[i, j].tobytes() == single.level1.tobytes()
                assert l2[i, j].tobytes() == single.level2.tobytes()
        for idx in (grid, grid[1::2], grid[[0, n - 1]]):
            sub = path.restrict(idx)
            assert sub.level1.tobytes() == inc[idx[0], idx].tobytes()
            assert sub.level2.tobytes() == l2[idx[0], idx].tobytes()
        L1, L2 = path.level1, path.level2
        U = L1[None] - L1[:, None]
        assert inc.tobytes() == U.tobytes()
        assert l2.tobytes() == (L2[None] - L2[:, None]
                                - np.einsum("id,ije->ijde", L1, U)).tobytes()
