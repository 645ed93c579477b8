import time
from dataclasses import dataclass

import numpy as np
import pytest

from roughlift import cli, report
from roughlift.report import (ConfigError, build_manifest, check_run, emit, fit_loglog,
                              rows_to_csv, run_trials, summary_rows)


def test_fit_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    slope, intercept, stderr = fit_loglog(zip(x, x ** 2))
    assert abs(slope - 2.0) <= 1e-13
    assert abs(intercept) <= 1e-13
    assert stderr <= 1e-13


def test_fit_constant():
    slope, intercept, stderr = fit_loglog([(1.0, 3.0), (2.0, 3.0), (7.0, 3.0)])
    assert abs(slope) <= 1e-15
    assert abs(intercept - np.log(3.0)) <= 1e-14


def test_fit_noisy_power_law():
    rng = np.random.default_rng(0)
    x = np.array([2.0 ** k for k in range(8)])
    y = x ** -0.2 * (1.0 + 0.01 * rng.uniform(-1, 1, len(x)))
    slope, _, _ = fit_loglog(zip(x, y))
    assert -0.25 <= slope <= -0.15


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        fit_loglog([(1.0, 1.0), (2.0, -2.0), (3.0, 1.0)])
    with pytest.raises(ValueError):
        fit_loglog([(2.0, 1.0), (2.0, 2.0), (2.0, 3.0)])


def test_csv_shortest_roundtrip_floats():
    rows = [{"a": 0.1, "b": 1.0 / 3.0}, {"a": 2.0 ** -40, "b": 1e300}]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b"
    for line, row in zip(lines[1:], rows):
        a, b = line.split(",")
        assert float(a) == row["a"] and float(b) == row["b"]


def _rows():
    return [{"n": 4, "vnorm": 1.0, "x_mean": 0.5, "x_se": 0.01},
            {"n": 8, "vnorm": 2.0, "x_mean": 0.25, "x_se": 0.02},
            {"n": 16, "vnorm": 4.0, "x_mean": 0.125, "x_se": 0.01}]


def test_emit_deterministic(tmp_path):
    rows = _rows()
    manifest = build_manifest({"experiment": "leadlag", "base_seed": 7, "dummy": 1}, rows,
                              {"note": "x"})
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit(rows, manifest, str(d1))
    emit(rows, manifest, str(d2))
    for name in ("results.csv", "manifest.json", "vnorm.svg", "x_mean.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_emit_rejects_empty_before_writing(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        emit([], {}, str(out))
    assert not out.exists()


def test_tables_follow_row_key_order(tmp_path):
    # the rows are the table's only description: columns in key order, the
    # first key the schedule, experiment and seed from the echoed config
    rows = [{"n": 4, "x_se": 0.01, "vnorm": 1.0, "x_mean": 0.5},
            {"n": 8, "x_se": 0.02, "vnorm": 2.0, "x_mean": 0.25}]
    text = rows_to_csv(rows)
    assert text.splitlines() == ["n,x_se,vnorm,x_mean", "4,0.01,1.0,0.5", "8,0.02,2.0,0.25"]
    manifest = build_manifest({"experiment": "leadlag", "base_seed": 3}, rows, {})
    assert (manifest["experiment"], manifest["base_seed"]) == ("leadlag", 3)
    assert manifest["schedule"] == [4, 8]
    out = tmp_path / "out"
    emit(rows, manifest, str(out))
    assert (out / "results.csv").read_text() == text
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "results.csv", "vnorm.svg", "x_mean.svg"]
    assert "n (log-log)" in (out / "x_mean.svg").read_text()


@pytest.mark.parametrize("rows", [
    [],
    [{"n": 4, "x": 1.0}, {"n": 8}],
    [{"n": 4, "x": 1.0}, {"n": 8, "x": 1.0, "y": 2.0}],
    [{"n": 4, "x": 1.0}, {"x": 1.0, "n": 8}],
], ids=["empty", "missing-key", "extra-key", "reordered"])
def test_tables_reject_empty_or_ragged_rows(tmp_path, rows):
    out = tmp_path / "out"
    config = {"experiment": "leadlag", "base_seed": 0}
    with pytest.raises(ValueError, match="result rows"):
        rows_to_csv(rows)
    with pytest.raises(ValueError, match="result rows"):
        build_manifest(config, rows, {})
    with pytest.raises(ValueError, match="result rows"):
        emit(rows, {}, str(out))
    assert not out.exists()


def test_manifest_slopes():
    rows = _rows()
    manifest = build_manifest({"experiment": "leadlag", "base_seed": 0}, rows, {})
    fit = manifest["loglog_slopes"]["x_mean"]
    assert abs(fit["slope"] + 1.0) <= 1e-12
    assert manifest["schedule"] == [4, 8, 16]
    assert manifest["tool_version"]


@pytest.mark.parametrize("quantity, name", [
    ("trials", "MAX_TRIALS"), ("grid_steps", "MAX_GRID_STEPS"),
    ("hoelder_n", "FULL_PAIRS_LIMIT"), ("trial_bytes", "TRIAL_BYTES")])
def test_check_run_bounds(quantity, name):
    # each bound is itself allowed; one past it is rejected by name
    bound = getattr(report, name)
    check_run(**{quantity: bound})
    with pytest.raises(ConfigError, match=f": {bound + 1} > {name} = {bound}$"):
        check_run(**{quantity: bound + 1})


def test_check_run_seed_range():
    check_run(seed=0)
    check_run(seed=2 ** 64 - 1)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ConfigError, match="base_seed"):
            check_run(seed=seed)
    # library callers catch it as a ValueError; the CLI's name is the same class
    assert issubclass(ConfigError, ValueError) and cli.ConfigError is ConfigError


@dataclass(frozen=True)
class _Record:
    x: float
    a: float
    b: float
    vNorm: float


def test_summary_rows_read_the_record_fields():
    # the first field is the schedule key, vNorm of the first trial is
    # vnorm, every other field in declaration order a mean and an SE
    batches = [[_Record(0.5, 1.0, 4.0, 9.0), _Record(0.5, 3.0, 4.0, 7.0)],
               [_Record(0.25, 2.0, -1.0, 8.0)]]
    rows = summary_rows(batches)
    assert [list(row) for row in rows] == [["x", "vnorm", "a_mean", "a_se", "b_mean", "b_se"]] * 2
    assert list(rows[0].values()) == [0.5, 9.0, 2.0, 1.0, 4.0, 0.0]
    assert list(rows[1].values()) == [0.25, 8.0, 2.0, 0.0, -1.0, 0.0]


def test_run_trials_rows_do_not_depend_on_completion_order():
    # later trials finish first on 3 threads; the rows must equal the
    # serial ones, whose vnorm is that of trial 0, whatever the batch size
    def trial(k):
        time.sleep(0.02 * (5 - k))
        return [_Record(x, float(k * k + x), float(k) - x, k + x) for x in (1.0, 2.0)]

    def run_batch(ks):
        return [trial(k) for k in ks]

    serial = run_trials(run_batch, 6, 1)
    assert run_trials(run_batch, 6, 3) == serial
    assert run_trials(run_batch, 6, 2, batch=4) == serial  # a full and a ragged batch
    assert [(row["x"], row["vnorm"]) for row in serial] == [(1.0, 1.0), (2.0, 2.0)]
    assert serial[0]["a_mean"] == np.mean([k * k + 1.0 for k in range(6)])


def test_run_trials_batches_are_fixed_ranges():
    # consecutive indices, batch at a time, the last batch ragged, whatever
    # the thread count
    for threads in (1, 2):
        seen = []

        def run_batch(ks):
            seen.append(ks)
            return [[_Record(1.0, float(k), 0.0, 0.0)] for k in ks]

        run_trials(run_batch, 7, threads, batch=3)
        assert sorted(seen, key=lambda ks: ks.start) == [range(0, 3), range(3, 6), range(6, 7)]
