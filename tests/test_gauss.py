import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import (finite_cov_quadrature, ou_recursion_eig, ou_recursion_loop, ou_scan_chunks,
                     physical_whole_draw, sample_bm_single, sample_fbm_cast_root,
                     sample_fbm_cholesky, sample_fbm_complex_fft, sample_fbm_single)
from roughlift import (StableDrift, derive_seed, derive_Z, fgn_autocov, lyapunov_C,
                       ou_joint_transition, required_steps, sample_bm, sample_fbm,
                       sample_physical)
from roughlift import gauss
from roughlift.gauss import SCAN_WIDTH, GridPath, _scan_levels, float_index
from roughlift.identities import random_stable_drifts
from roughlift.tensor2 import ROW_BLOCK, running_sum_block

J = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------- seed split

def test_derive_seed_deterministic_and_distinct():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)
    assert derive_seed(42, float_index(0.5), 3) != derive_seed(42, float_index(0.25), 3)


def test_derive_seed_accepts_both_ends_of_u64():
    # the values the masking route gave, so in-range seeds did not move
    top = 2 ** 64 - 1
    assert derive_seed(0, 0) == 12035550249420947055
    assert derive_seed(top, top) == 7136257342804621622
    assert derive_seed(0, top) == 6755974106381971767
    assert derive_seed(top, 0) == 3303439293501059696
    assert derive_seed(42, 7, 3) == 8871903242033848482


@pytest.mark.parametrize("value", [-1, 2 ** 64])
def test_derive_seed_rejects_outside_u64(value):
    # not wrapped mod 2^64: -1 would give the substream of 2^64 - 1, and
    # 2^64 that of 0
    for args in ((value, 3), (0, value), (5, 1, value)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            derive_seed(*args)


# ------------------------------------------------------------------ sample_bm

def test_bm_shape_and_start():
    paths = sample_bm(2.0, 8, 3, [1, 2])
    assert paths.shape == (2, 9, 3)
    assert np.all(paths[:, 0] == 0.0)
    assert gauss.uniform_times(8, 2.0)[[0, -1]].tolist() == [0.0, 2.0]


def test_bm_single_step_variance():
    draws = sample_bm(3.0, 1, 1, [derive_seed(9, i) for i in range(4000)])[:, 1, 0]
    se = draws.std(ddof=1) ** 2 * np.sqrt(2.0 / (len(draws) - 1))
    assert abs(np.var(draws, ddof=1) - 3.0) <= 3.0 * se


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 + 3])
def test_seed_outside_u64_is_rejected(seed):
    # a seed is not wrapped mod 2^64: -1 would draw the stream of 2^64 - 1,
    # and 2^64 that of 0
    drift = StableDrift(np.eye(2), J)
    for draw in (lambda: sample_bm(1.0, 4, 1, [seed]),
                 lambda: sample_fbm([seed], H=0.4, n=4),
                 lambda: sample_fbm([0, seed], H=0.4, n=4),
                 lambda: sample_physical(drift, 1.0, 1.0, 64, seed)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            draw()


def test_seed_range_ends_are_distinct_streams():
    ends = sample_bm(1.0, 4, 1, [0, 2 ** 64 - 1])
    assert np.any(ends[0] != ends[1])


def test_bm_determinism():
    a = sample_bm(1.0, 16, 2, [123])
    b = sample_bm(1.0, 16, 2, [123])
    assert np.all(a == b)
    c = sample_bm(1.0, 16, 2, [124])
    assert np.any(c != a)


@pytest.mark.parametrize("N", [1, 2, 3, 16, 17, 255, 4096])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_bm_batch_members_are_single_draws(N, d):
    # every member of a batch has the bits of its seed's draw alone
    for B in (1, 3, 8):
        for T in (1.0, 2.5):
            seeds = [derive_seed(63, N, d, B, b) for b in range(B)]
            got = sample_bm(T, N, d, seeds)
            assert got.shape == (B, N + 1, d)
            for member, seed in zip(got, seeds):
                assert member.tobytes() == sample_bm_single(T, N, d, seed).values.tobytes()


# ----------------------------------------------------------------- sample_fbm

def test_fbm_spec_validation():
    for H in (1.2, 1.0, 0.0, -0.3):
        with pytest.raises(ValueError, match=r"H must lie in \(0, 1\)"):
            sample_fbm([0], H=H, n=4)
    for n, d in ((0, 1), (-1, 1), (4, 0)):
        with pytest.raises(ValueError, match="n and d must be >= 1"):
            sample_fbm([0], H=0.4, n=n, d=d)
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match="T must be positive"):
            sample_fbm([0], H=0.4, n=4, T=T)
    with pytest.raises(ValueError, match="at least one seed"):
        sample_fbm([], H=0.4, n=4)


def test_fbm_h_half_methods_agree_pathwise():
    # both methods consume the same normals; at H = 1/2 the covariance is
    # diagonal and they reduce to the same map
    for seed in (0, 1, 2):
        spec = dict(H=0.5, n=64, d=2)
        a, b = sample_fbm([seed], **spec)[0], sample_fbm_cholesky(seed, **spec)
        assert np.abs(a - b.values).max() <= 1e-10


def test_fbm_determinism():
    spec = dict(seeds=[77], H=0.3, n=32, d=2)
    assert np.all(sample_fbm(**spec) == sample_fbm(**spec))


@pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 255, 4096])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fbm_batch_members_are_single_draws(n, d):
    # every member of a batch has the bits of its seed's draw alone, with
    # the root given or built
    for H, T in ((0.26, 1.0), (0.4, 2.5), (0.5, 0.5)):
        root = gauss.embedding_root(n, H)
        for B in (1, 3, 8):
            seeds = [derive_seed(64, n, d, B, b) for b in range(B)]
            got = sample_fbm(seeds, H, n, d, T, root=root)
            assert got.shape == (B, n + 1, d)
            for member, seed in zip(got, seeds):
                want = sample_fbm_single(seed, H, n, d, T, root=root).values
                assert member.tobytes() == want.tobytes(), (H, T, B)
            if B == 3:
                assert sample_fbm(seeds, H, n, d, T).tobytes() == got.tobytes()


def test_fbm_increment_autocov_lag1():
    # gamma(1) = (1/2) n^{-2H} (2^{2H} - 2) at H = 0.25, n = 64
    H, n = 0.25, 64
    expected = 0.5 * n ** (-0.5) * (2.0 ** 0.5 - 2.0)
    assert abs(fgn_autocov(1, H, 1.0 / n) - expected) <= 1e-15
    inc = np.diff(sample_fbm([derive_seed(3, i) for i in range(20000)], H, n)[:, :, 0])
    prods = np.mean(inc[:, :-1] * inc[:, 1:], axis=1)
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    assert abs(prods.mean() - expected) <= 3.0 * se


def test_fbm_terminal_variance_unit():
    # R(1,1) = 1 for every H
    draws = sample_fbm([derive_seed(5, i) for i in range(20000)], 0.4, 8)[:, -1, 0]
    sq = draws ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) <= 3.0 * se


def test_fbm_increment_stationarity():
    # sample autocovariance at fixed lag must not depend on position
    H, n, trials = 0.35, 16, 30000
    inc = np.diff(sample_fbm([derive_seed(8, i) for i in range(trials)], H, n)[:, :, 0])
    acc = inc[:, [1, 6, 12]] * inc[:, [3, 8, 14]]
    means = acc.mean(axis=0)
    ses = acc.std(axis=0, ddof=1) / np.sqrt(trials)
    expected = fgn_autocov(2, H, 1.0 / n)
    assert np.all(np.abs(means - expected) <= 3.0 * ses)


def test_fbm_negative_embedding_raises(monkeypatch):
    # lags 0 and +-1 only: circulant eigenvalues 1 + 2 cos(pi j / n), down to -1
    monkeypatch.setattr(gauss, "fgn_autocov", lambda k, H: (np.abs(k) <= 1).astype(float))
    with pytest.raises(ValueError, match="negative embedding eigenvalue"):
        sample_fbm([5], H=0.4, n=16)


@pytest.mark.parametrize("H", [0.26, 0.3, 0.35, 0.4, 0.45, 0.5])
def test_fgn_embedding_eigenvalues_nonnegative(H):
    # the minimal circulant embedding sample_fbm uses, at every n = 2^k <= 2^16:
    # its real half-spectrum has no negative eigenvalue, so nothing is clipped
    # and the roots are the exact square roots
    for k in range(17):
        n = 2 ** k
        g = gauss._embedding_eigenvalues(n, H)
        assert g.shape == (n + 1,) and g.min() >= 0.0, (H, n)
        assert np.array_equal(gauss.embedding_root(n, H), np.sqrt(g)), (H, n)


@pytest.mark.parametrize("H", [0.26, 0.3, 0.4, 0.45, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 2 ** 12, 2 ** 16])
@pytest.mark.parametrize("d", [1, 3])
def test_fbm_matches_complex_fft_oracle(H, n, d):
    seed, spec = derive_seed(61, n, d), dict(H=H, n=n, d=d)
    (path,), want = sample_fbm([seed], **spec), sample_fbm_complex_fft(seed, **spec)
    assert np.all(path[0] == 0.0)
    assert np.abs(path - want.values).max() <= 1e-12 * np.abs(want.values).max()


def test_embedding_root_is_read_only():
    root = gauss.embedding_root(8, 0.4)
    with pytest.raises(ValueError, match="read-only"):
        root[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        root *= 2.0


def test_fbm_given_root_draws_the_same_bits():
    # a root built once and passed in gives each (n, H) the draw that builds
    # its own root, bit for bit; a root of another n is rejected
    for n, H in [(16, 0.4), (17, 0.4), (16, 0.3), (16, 0.4 + 2 ** -40)]:
        spec = dict(H=H, n=n, d=2)
        (got,) = sample_fbm([7], **spec, root=gauss.embedding_root(n, H))
        assert got.tobytes() == sample_fbm([7], **spec)[0].tobytes()
        want = sample_fbm_complex_fft(7, **spec).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="root must have shape"):
        sample_fbm([7], H=0.4, n=16, root=gauss.embedding_root(17, 0.4))


def test_fbm_threads_sharing_a_root_agree():
    # more threads than cores draw through one root, with frequent switches
    spec = dict(seeds=[19], H=0.35, n=2 ** 14, d=2)
    root = gauss.embedding_root(spec["n"], spec["H"])
    workers = 4
    barrier = threading.Barrier(workers, timeout=30)
    out = [None] * workers

    def draw(i):
        barrier.wait()
        out[i] = sample_fbm(**spec, root=root).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert out[0] is not None and all(o == out[0] for o in out)
    assert out[0] == sample_fbm(**spec).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fbm_draws_the_bits_of_the_cast_root_route(d):
    # scaling the spectrum's real and imaginary parts by the real root, and
    # the increments a row at a time, gives the bits of the complex product
    # and the one scale of the (d, n) view
    for n in (1, 2, 3, 16, 17, 255, 1000, 4096):
        for H in (0.26, 0.3, 0.4, 0.45, 0.5):
            root = gauss.embedding_root(n, H)
            for seed, T in ((derive_seed(62, n, d), 1.0), (3, 2.5), (2 ** 64 - 1, 0.5)):
                spec = dict(H=H, n=n, d=d, T=T)
                (got,) = sample_fbm([seed], **spec, root=root)
                assert got.tobytes() == sample_fbm_cast_root(seed, **spec).values.tobytes(), spec


@pytest.mark.parametrize("bufsize", [8192, 16])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fbm_draw_holds_only_its_arrays(d, bufsize):
    # a draw's peak is its normals and their half-spectra, 4d floats a step,
    # whatever np.getbufsize(): no complex copy of the root and no iterator
    # buffer, only the interpreter's objects (about 2.2 KB)
    old = np.setbufsize(bufsize)
    try:
        for n in (256, 512, 1024, 2048, 4096):
            root = gauss.embedding_root(n, 0.4)
            sample_fbm([1], 0.4, n, d, root=root)  # numpy's small caches filled
            tracemalloc.start()
            try:
                sample_fbm([1], 0.4, n, d, root=root)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 4 * d * n + 2 ** 12, (n, peak - 8 * 4 * d * n)
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("d", [1, 4])
def test_fbm_batch_holds_its_array_and_one_transform(d):
    # the batch's array is allocated after the first member's transform, and
    # each member's steps are freed before the next member's are drawn: a
    # batch of B peaks at its array beside one transform, (B + 4) d floats
    # a step, and no more than the interpreter's objects beyond them
    n = 4096
    root = gauss.embedding_root(n, 0.4)
    for B in (2, 3, 8):
        sample_fbm(range(B), 0.4, n, d, root=root)  # numpy's small caches filled
        tracemalloc.start()
        try:
            sample_fbm(range(B), 0.4, n, d, root=root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = 8 * (B + 4) * d * (n + 1)
        assert arrays - 2 ** 12 <= peak <= arrays + 2 ** 12, (B, peak - arrays)


def test_fbm_general_horizon_scaling():
    # Var(X_T) = T^{2H} via self-similar increment scaling
    H, T = 0.35, 2.0
    draws = sample_fbm([derive_seed(37, i) for i in range(20000)], H, 1, T=T)[:, -1, 0]
    sq = draws ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - T ** (2 * H)) <= 3.0 * se


def test_fbm_cholesky_same_law_moments():
    H, n, trials = 0.3, 16, 20000
    seeds = [derive_seed(13, i) for i in range(trials)]
    term = np.empty((trials, 2))
    term[:, 0] = sample_fbm(seeds, H, n)[:, -1, 0]
    for i, s in enumerate(seeds):
        term[i, 1] = sample_fbm_cholesky(s, H, n).values[-1, 0]
    sq = term ** 2
    ses = sq.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(sq.mean(axis=0) - 1.0) <= 3.0 * ses)


# ------------------------------------------------------------- sample_physical

def test_physical_step_rule_rejection():
    drift = StableDrift(np.eye(2), 10.0 * J)
    n_req = required_steps(drift, 0.1, 1.0)
    with pytest.raises(ValueError) as err:
        sample_physical(drift, 0.1, 1.0, n_req - 1, seed=0)
    assert str(n_req) in str(err.value)
    sample_physical(drift, 0.1, 1.0, n_req, seed=0)  # boundary accepted


def test_physical_determinism():
    drift = StableDrift(np.eye(2), 2.0 * J)
    a = sample_physical(drift, 0.5, 1.0, 256, seed=31)
    b = sample_physical(drift, 0.5, 1.0, 256, seed=31)
    assert np.all(a[0].values == b[0].values) and np.all(a[1].values == b[1].values)


def test_physical_zero_start_and_mean():
    drift = StableDrift(np.eye(1), np.zeros((1, 1)))
    terminal = []
    for i in range(3000):
        P, W = sample_physical(drift, 0.4, 1.0, 64, seed=derive_seed(17, i))
        assert P.values[0, 0] == 0.0 and W.values[0, 0] == 0.0
        terminal.append(P.values[-1, 0])
    terminal = np.asarray(terminal)
    se = terminal.std(ddof=1) / np.sqrt(len(terminal))
    assert abs(terminal.mean()) <= 3.0 * se


def test_physical_stationary_variance():
    # Var(P_T) -> eps^2 C_ii for T >> eps^2
    eps = 0.3
    drift = StableDrift(np.eye(2), 4.0 * J)
    C = lyapunov_C(drift)
    vals = np.empty((4000, 2))
    for i in range(4000):
        P, _ = sample_physical(drift, eps, 1.0, 512, seed=derive_seed(23, i))
        vals[i] = P.values[-1]
    sq = vals ** 2
    ses = sq.std(axis=0, ddof=1) / np.sqrt(len(sq))
    assert np.all(np.abs(sq.mean(axis=0) - eps ** 2 * np.diag(C)) <= 3.0 * ses)


def test_physical_cross_covariance_scalar():
    # d=1, M=1: Cov(P_h, W_h) = eps^2 (1 - e^{-h/eps^2})
    eps, T, N = 1.0, 0.5, 64
    drift = StableDrift(np.eye(1), np.zeros((1, 1)))
    prods = []
    for i in range(8000):
        P, W = sample_physical(drift, eps, T, N, seed=derive_seed(29, i))
        prods.append(P.values[-1, 0] * W.values[-1, 0])
    prods = np.asarray(prods)
    expected = eps ** 2 * (1.0 - np.exp(-T / eps ** 2))
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    assert abs(prods.mean() - expected) <= 3.0 * se


def test_physical_halving_h_consistency():
    # transitions are exact in law, so on the grids of h and h/2 alike the
    # terminal variances are the closed form: eps^2 C_{T/eps^2} for P and T
    # for W (the exact two-half-steps identity is in test_linstable)
    eps, T = 0.5, 1.0
    drift = StableDrift(np.eye(2), 1.0 * J)
    exact = np.concatenate([eps ** 2 * np.diag(finite_cov_quadrature(drift.M, T / eps ** 2)),
                            [T, T]])
    trials = 4000
    for N in (128, 256):
        vals = np.empty((trials, 4))
        for i in range(trials):
            P, W = sample_physical(drift, eps, T, N, seed=derive_seed(200 + N, i))
            vals[i] = np.concatenate([P.values[-1], W.values[-1]])
        se = (vals ** 2).std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(vals.var(axis=0, ddof=1) - exact) <= 3.0 * se), N


# magnetic fields B0 for d = 1, 2 and 3
B0_BY_DIM = {1: np.zeros((1, 1)), 2: J,
             3: np.array([[0.0, -1.0, 0.5], [1.0, 0.0, -0.25], [-0.5, 0.25, 0.0]])}


# N = one block minus/plus one and a ragged third block, at d = 2 (ids
# without a d) and at d = 1 and 3
@pytest.mark.parametrize("N, d", [
    pytest.param(N, d, id=str(N) if d == 2 else f"{N}-d{d}") for d in (2, 1, 3)
    for N in (1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5)])
def test_physical_blocks_match_whole_draw(N, d):
    # W is summed one column at a time, block by block from the carried
    # row, with the bits of one axis=0 cumsum over the whole grid
    drift = StableDrift(np.eye(d), 2.0 * B0_BY_DIM[d])
    P, W = sample_physical(drift, 8.0, 1.0, N, seed=N)
    times, P_want, W_want = physical_whole_draw(drift, 8.0, 1.0, N, seed=N)
    assert np.array_equal(P.times, times) and np.array_equal(W.times, times)
    assert P.values.tobytes() == P_want.tobytes() and W.values.tobytes() == W_want.tobytes()
    # a first step of -0.0: the blocks start from W[0] = +0.0, so W[1] is
    # +0.0 where the whole-grid cumsum keeps -0.0, and every later row,
    # -0.0 + s = 0.0 + s, has the same bits
    noise = np.random.default_rng(N).standard_normal((N, 2 * d))
    noise[0, d:] = -0.0
    want = np.zeros((N + 1, d))
    np.cumsum(noise[:, d:], axis=0, out=want[1:])
    got = np.zeros((N + 1, d))
    for k0 in range(0, N, ROW_BLOCK):
        running_sum_block(noise[k0:k0 + ROW_BLOCK, d:], got, k0)
    assert np.all(np.signbit(want[1])) and not np.any(np.signbit(got[1]))
    assert got[2:].tobytes() == want[2:].tobytes()


def test_physical_memory_bounded_by_block():
    # beyond P, W and the times the sampler keeps O(ROW_BLOCK) rows (1 MiB
    # measured); a whole-grid draw keeps 40 MiB more here
    N, d = 2 ** 20, 2
    drift = StableDrift(np.eye(d), J)
    out_bytes = (N + 1) * (2 * d + 1) * 8
    tracemalloc.start()
    try:
        sample_physical(drift, 0.5, 1.0, N, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out_bytes + 4 * 2 ** 20


# ---------------------------------------------------------------- OU recursion

def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def ou_lengths(d):
    """N = 1, 2, 3 and 97; one scan block s at s - 1, s, s + 1 and s^2 (two
    levels); a chunk at ROW_BLOCK - 1, ROW_BLOCK and ROW_BLOCK + 1 (the
    first carry); and a ragged third chunk."""
    s = max(2, SCAN_WIDTH // d)
    return (1, 2, 3, 97, s - 1, s, s + 1, s * s,
            ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5)


def ou_maps():
    """Mean maps E = exp(-M r) of random stable drifts (d <= 5) at step
    ratios r from 1e-3 to 3, a Jordan block, and E = 0 (fully relaxed)."""
    rng = np.random.default_rng(41)
    for k, drift in enumerate(random_stable_drifts(rng, n_drifts=20, max_dim=5)):
        r = 10.0 ** rng.uniform(-3.0, 0.5)
        yield f"drift{k}-d{drift.dim}", ou_joint_transition(drift, 1.0, r).meanMap
    yield "jordan", np.array([[0.9, 1.0], [0.0, 0.9]])
    yield "relaxed", ou_joint_transition(StableDrift(np.eye(2), J), 1e-3, 1.0).meanMap


def test_ou_recursion_matches_oracles():
    # from a zero start on short grids and a nonzero carried P_0 on all; the
    # eigendecomposition falls back to the loop for the Jordan block, so a
    # non-normal E meets the loop at every length
    rng = np.random.default_rng(43)
    for name, E in ou_maps():
        assert name != "relaxed" or not np.any(E)
        d = E.shape[0]
        for N in ou_lengths(d):
            xi = rng.standard_normal((N, d))
            p0 = np.zeros(d) if N <= 3 else rng.standard_normal(d)
            P = ou_scan_chunks(E, xi, p0)
            assert P.shape == (N + 1, d) and np.array_equal(P[0], p0)
            assert rel_err(P, ou_recursion_eig(E, xi, p0)) <= 1e-12, (name, N)
            if N < ROW_BLOCK - 1:  # at chunk lengths the loop takes seconds
                assert rel_err(P, ou_recursion_loop(E, xi, p0)) <= 1e-12, (name, N)


def test_ou_scan_at_largest_dimension():
    # d = 74, the largest a config accepts, scans in blocks of s = 2: 15
    # levels on a whole chunk, and a carry into a second chunk
    from scipy.linalg import expm

    d = 74
    rng = np.random.default_rng(47)
    B = rng.standard_normal((d, d))
    E = expm(-0.05 * (np.eye(d) + B - B.T))
    assert len(_scan_levels(E, ROW_BLOCK)) == 15
    xi = rng.standard_normal((ROW_BLOCK + 3, d))
    p0 = rng.standard_normal(d)
    assert rel_err(ou_scan_chunks(E, xi, p0), ou_recursion_loop(E, xi, p0)) <= 1e-12


# -------------------------------------------------------------------- derive_Z

def test_derive_Z_identities():
    drift = StableDrift(np.eye(2), 2.0 * J)
    P, W = sample_physical(drift, 0.5, 1.0, 128, seed=3)
    Z = derive_Z(P, W)
    # identity Z + P = W up to one rounding of the subtraction
    scale = np.abs(W.values).max()
    assert np.abs(Z.values + P.values - W.values).max() <= 4 * np.finfo(float).eps * scale
    assert np.all(Z.values[0] == 0.0)
    zeroP = GridPath(W.times, np.zeros_like(W.values))
    assert np.all(derive_Z(zeroP, W).values == W.values)
    with pytest.raises(ValueError):
        derive_Z(P, GridPath(W.times[:64], W.values[:64] - W.values[0]))


def test_derive_Z_compares_grids_unless_one_array(monkeypatch):
    # sample_physical gives P and W one times array, which is not compared;
    # distinct arrays are compared blockwise: equal ones pass, and a grid
    # that differs in one point raises
    drift = StableDrift(np.eye(2), 2.0 * J)
    P, W = sample_physical(drift, 0.5, 1.0, 128, seed=5)
    assert P.times is W.times
    Z = derive_Z(P, W)
    assert derive_Z(P, GridPath(W.times.copy(), W.values)).values.tobytes() == Z.values.tobytes()
    moved = W.times.copy()
    moved[77] = np.nextafter(moved[77], 1.0)
    with pytest.raises(ValueError, match="grids"):
        derive_Z(P, GridPath(moved, W.values))
    monkeypatch.setattr(gauss, "any_blockwise", lambda *args: pytest.fail("grids compared"))
    assert derive_Z(P, W).values.tobytes() == Z.values.tobytes()


def test_derive_Z_into_out():
    drift = StableDrift(np.eye(2), 2.0 * J)
    P, W = sample_physical(drift, 0.5, 1.0, 128, seed=4)
    fresh = derive_Z(P, W)
    out = np.full_like(P.values, np.nan)
    assert derive_Z(P, W, out=out).values is out
    assert out.tobytes() == fresh.values.tobytes()
    for bad in (np.empty((128, 2)), np.empty((129, 3)), np.empty((129, 2), dtype=np.float32)):
        with pytest.raises(ValueError, match="out"):
            derive_Z(P, W, out=bad)
    # over P itself, as the magnetic trial writes it
    Z = derive_Z(P, W, out=P.values)
    assert Z.values is P.values
    assert Z.values.tobytes() == fresh.values.tobytes()
