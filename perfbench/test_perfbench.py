"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""
import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer  # noqa: E402


def _span(sid, parent, start, end, name="x", trial=None):
    return {"id": sid, "name": name, "parent": parent, "trial": trial, "thread": 0,
            "start": start, "end": end, "cpu": end - start, "counts": {}}


def test_wrappers_restore_originals():
    import roughlift.cli  # noqa: F401  (loads every module the targets name)
    from roughlift import leadlag, tensor2
    targets = [(tracing._resolve(owner), attr) for owner, attr, *_ in tracing.TARGETS]
    before = [getattr(owner, attr) for owner, attr in targets]
    tracer = Tracer()
    assert tracer.install(tracing.TARGETS) == len(tracing.TARGETS)
    try:
        assert all(getattr(o, a) is not f for (o, a), f in zip(targets, before))
        leadlag.hoff_path([0.0, 1.0, 0.5])
        tensor2.lift_piecewise_linear([0.0, 1.0], [0.0, 1.0]).restrict([0, 1])
    finally:
        tracer.uninstall()
    assert all(getattr(o, a) is f for (o, a), f in zip(targets, before))
    # only calls made through a wrapped name are traced
    assert [s["name"] for s in tracer.spans] == ["leadlag.hoff_path", "tensor2.restrict"]


def test_missing_targets_are_skipped():
    tracer = Tracer()
    assert tracer.install([("roughlift.tensor2", "no_such_function", "x", None, None),
                           ("no_such_module", "f", "y", None, None)]) == 0


def test_spans_from_many_threads_are_all_kept():
    tracer = Tracer()
    n_threads, n_spans = 8, 300

    def work():
        for _ in range(n_spans):
            with tracer.span("magnetic.trial", "trial"):
                with tracer.span("tensor2.lift"):
                    pass

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.span("cli.experiment", "root"):
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 2 * n_threads * n_spans + 1
    assert len({s["id"] for s in tracer.spans}) == len(tracer.spans)
    by_id = {s["id"]: s for s in tracer.spans}
    for s in tracer.spans:
        if s["name"] == "magnetic.trial":
            assert by_id[s["parent"]]["name"] == "cli.experiment"
        if s["name"] == "tensor2.lift":
            parent = by_id[s["parent"]]
            assert parent["name"] == "magnetic.trial" and parent["thread"] == s["thread"]
            assert s["trial"] == parent["id"]


def test_self_time_is_span_minus_child_coverage():
    spans = [_span(1, None, 0.0, 10.0),
             _span(2, 1, 1.0, 3.0), _span(3, 1, 2.0, 4.0),   # overlapping children
             _span(4, 1, 6.0, 7.0), _span(5, 4, 6.2, 6.5),   # nested grandchild
             _span(6, 1, 9.5, 11.0)]                          # child running past its parent
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert selfs[4] == pytest.approx(1.0 - 0.3)
    assert selfs[2] == pytest.approx(2.0)


def test_self_times_account_for_trial_wall_time():
    spans = [_span(1, None, 0.0, 10.0, "cli.experiment"),
             _span(2, 1, 0.0, 4.0, "magnetic.trial", trial=2),
             _span(3, 2, 0.5, 3.0, "tensor2.lift", trial=2),
             _span(4, 1, 1.0, 9.0, "magnetic.trial", trial=4),
             _span(5, 4, 2.0, 8.0, "tensor2.holder_distance", trial=4)]
    m = tracing.layer_metrics(spans)
    assert m["trace.accounted_frac"] == pytest.approx(1.0)
    assert m["magnetic.trial.self_s"] == pytest.approx(1.5 + 2.0)
    assert m["tensor2.holder_distance.self_s"] == pytest.approx(6.0)


@pytest.mark.parametrize("n, pct, beyond", [(20, 50.0, 10), (100, 90.0, 10), (109, 90.0, 10),
                                             (1000, 99.0, 10), (10000, 99.9, 10)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct, beyond):
    samples = [float(i) for i in range(1, n + 1)]
    got_pct, value, count = tracing.tail(samples)
    assert (got_pct, count) == (pct, n)
    assert sum(1 for x in samples if x > value) >= beyond
    assert value == pytest.approx(tracing.percentile(samples, pct))


def test_tail_falls_back_to_median_below_twenty_samples():
    pct, value, count = tracing.tail([5.0, 1.0, 3.0])
    assert (pct, value, count) == (50.0, 3.0, 3)


def test_holder_pairs():
    assert tracing.holder_pairs(16, 2048) == 136
    assert tracing.holder_pairs(2048, 2048) == 2048 * 2049 // 2
    # dyadic branch: (n - k + 1) pairs at each k = 1, 2, 4, ..., 4096
    assert tracing.holder_pairs(4096, 2048) == sum(4097 - 2 ** j for j in range(13))


def _leadlag_csv(renorm=0.5, dev_shift=0.0):
    cfg = run.WORKLOADS["leadlag"].config
    lines = [run.LEADLAG_HEADER]
    for n in cfg["n_schedule"]:
        dev = n ** (1.0 - 2.0 * cfg["H"]) / 2.0 + dev_shift
        lines.append(f"{n},1.0,{renorm},0.01,1.0,0.01,{dev},0.01")
    return "\n".join(lines) + "\n"


def test_output_check():
    wl = run.WORKLOADS["leadlag"]
    manifest = json.dumps({"experiment": "leadlag", "rows": [{}] * 7})
    assert run.check_outputs(wl, _leadlag_csv(), manifest) == []
    assert run.check_outputs(wl, _leadlag_csv().replace("n,", "N,", 1), manifest)
    assert run.check_outputs(wl, _leadlag_csv(renorm=1.0), manifest)
    assert run.check_outputs(wl, _leadlag_csv(dev_shift=0.05), manifest)
    assert run.check_outputs(wl, _leadlag_csv().replace("0.5", "nan", 1), manifest)
    assert run.check_outputs(wl, _leadlag_csv(), "{}")


def test_traced_cli_run_counts_and_accounting(tmp_path):
    from roughlift import cli
    cfg = {**run.MAGNETIC, "eps_schedule": [0.5, 0.25], "grid_n": 16, "mc_trials": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    tracer = Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert cli.main(["magnetic", "--config", str(path), "--out", str(tmp_path / "o"),
                         "--threads", "2"]) == 0
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans)
    counts = tracing.exact_counts(tracer.spans)
    assert m["trace.accounted_frac"] == pytest.approx(1.0)
    assert counts["magnetic.trial.calls"] == 6
    assert m["tensor2.holder_distance.calls"] == 24
    assert m["tensor2.holder_distance.pairs"] == 24 * 136
    assert m["tensor2.lift.points"] == 3 * m["gauss.fine_steps"] + 18
    assert m["linstable.renorm_v.useful_ratio"] == pytest.approx(2 / 6)
    assert {s["trial"] for s in tracer.spans if s["name"] == "tensor2.lift"} == \
        {s["id"] for s in tracer.spans if s["name"] == "magnetic.trial"}
