"""Every running sum a trial makes is a 1-d np.cumsum into an ``out`` that
shares no memory with its input: the one form in which numpy's np.cumsum
releases the GIL, so that two pool threads' trials overlap (README,
"Threads and the GIL").  The check reads each call's arguments, so it
needs no timing."""
import sys

import numpy as np
import pytest

from roughlift import leadlag
from roughlift.gauss import sample_bm, sample_fbm
from roughlift.leadlag import LeadLagConfig, run_leadlag_trial
from roughlift.magnetic import MagneticConfig, fine_grid_n, plan_run, run_magnetic_trial
from roughlift.tensor2 import ROW_BLOCK


@pytest.fixture
def cumsum_calls(monkeypatch):
    """(caller module, input ndim, positional args beyond the input, keyword
    names, out given and sharing no memory with the input) of each np.cumsum
    call made from roughlift."""
    calls = []
    cumsum = np.cumsum

    def recorded(a, *args, **kwargs):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller.split(".")[0] == "roughlift":
            out = kwargs.get("out")
            calls.append((caller, np.ndim(a), args, sorted(kwargs),
                          out is not None and not np.shares_memory(a, out)))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", recorded)
    return calls


def assert_released(calls, callers):
    assert {call[0] for call in calls} == callers
    for caller, ndim, args, keywords, separate in calls:
        assert (ndim, args, keywords, separate) == (1, (), ["out"], True), caller


def test_magnetic_trial_sums_release_the_gil(cumsum_calls):
    # a fine grid of 58,880 steps: two blocks of W's sum (running_sum_block)
    # and of each lift
    cfg = MagneticConfig(A=np.eye(2), B0=np.array([[0.0, -1.0], [1.0, 0.0]]), beta=0.5,
                         eps_schedule=(2.0 ** -5,), grid_n=256, mc_trials=1)
    assert fine_grid_n(cfg, 2.0 ** -5) > ROW_BLOCK
    (plan,) = plan_run(cfg)
    run_magnetic_trial(cfg, plan, 0)
    assert_released(cumsum_calls, {"roughlift.tensor2"})


@pytest.mark.parametrize("d", [1, 2])
def test_leadlag_batch_sums_release_the_gil(cumsum_calls, d):
    # a batch of 8 trials: each member's sums are their own calls
    cfg = LeadLagConfig(H=0.4, n_schedule=(16, 32), n_ref=256, d=d, mc_trials=8)
    assert cfg.batch == 8
    run_leadlag_trial(cfg, range(cfg.batch), leadlag.plan_run(cfg))
    assert_released(cumsum_calls, {"roughlift.tensor2"})


@pytest.mark.parametrize("d", [1, 3])
def test_sampler_sums_release_the_gil(cumsum_calls, d):
    # a batch of 3 from each sampler: each member's column sums are their
    # own calls
    sample_fbm([1, 2, 3], H=0.4, n=64, d=d)
    sample_bm(1.0, 64, d, [1, 2, 3])
    assert_released(cumsum_calls, {"roughlift.tensor2"})
    assert len(cumsum_calls) == 2 * 3 * d
