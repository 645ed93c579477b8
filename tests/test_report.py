import numpy as np
import pytest

from roughlift import cli, report
from roughlift.report import ConfigError, build_manifest, check_run, emit, fit_loglog, rows_to_csv


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
    text = rows_to_csv(rows, ["a", "b"])
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
    manifest = build_manifest("leadlag", {"dummy": 1}, rows, "n", 7, {"note": "x"})
    d1, d2 = tmp_path / "a", tmp_path / "b"
    emit(rows, manifest, str(d1), ["n", "vnorm", "x_mean", "x_se"], "n")
    emit(rows, manifest, str(d2), ["n", "vnorm", "x_mean", "x_se"], "n")
    for name in ("results.csv", "manifest.json", "vnorm.svg", "x_mean.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_emit_rejects_empty_before_writing(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        emit([], {}, str(out), ["n"], "n")
    assert not out.exists()


def test_manifest_slopes():
    rows = _rows()
    manifest = build_manifest("leadlag", {}, rows, "n", 0, {})
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
