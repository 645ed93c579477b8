import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import roughlift
from roughlift import leadlag, magnetic
from roughlift.cli import (MAX_THREADS, ConfigError, LEADLAG_COLUMNS, MAGNETIC_COLUMNS,
                           _config_echo, main, parse_config)
from roughlift.leadlag import LeadLagConfig
from roughlift.magnetic import MagneticConfig
from roughlift.report import MAX_GRID_STEPS, MAX_TRIALS
from roughlift.tensor2 import ROW_BLOCK

MAGNETIC_HEADER = ("eps,vnorm,distP_renorm_mean,distP_renorm_se,distP_raw_mean,"
                   "distP_raw_se,distZ_renorm_mean,distZ_renorm_se,distZ_raw_mean,"
                   "distZ_raw_se,areaDev1_mean,areaDev1_se")


# Config files that are not JSON documents: not UTF-8, nested deeper than
# the parser's recursion limit, and an integer past Python's digit limit.
NOT_UTF8 = b'\xff\xfe{"paths": 5}'
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000
TOO_MANY_DIGITS = b'{"n": ' + b"1" * 5000 + b"}"
RAW_FILES = (NOT_UTF8, TOO_DEEP, TOO_MANY_DIGITS)


def write_config(path, doc):
    """Write doc as JSON, or bytes as they are."""
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


def magnetic_doc(**kw):
    doc = {"experiment": "magnetic", "A": [[1.0, 0.0], [0.0, 1.0]],
           "B0": [[0.0, -1.0], [1.0, 0.0]], "beta": 0.5,
           "eps_schedule": [0.5, 0.25], "T": 1.0, "alpha": 0.3,
           "grid_n": 16, "mc_trials": 2, "base_seed": 3}
    doc.update(kw)
    return doc


def leadlag_doc(**kw):
    doc = {"experiment": "leadlag", "H": 0.4, "alpha": 0.3,
           "n_schedule": [8, 16, 32], "n_ref": 256, "d": 1,
           "mc_trials": 2, "base_seed": 5}
    doc.update(kw)
    return doc


DOCS = {"magnetic": magnetic_doc, "leadlag": leadlag_doc}


@pytest.fixture
def no_sampling(monkeypatch):
    """Make any sampling fail loudly, so a test sees it start."""
    def sampled(*args, **kwargs):
        raise AssertionError("sampling started")

    monkeypatch.setattr(magnetic, "sample_physical", sampled)
    monkeypatch.setattr(leadlag, "sample_fbm", sampled)


# -------------------------------------------------------------- parse_config

def test_parse_minimal_magnetic(tmp_path):
    doc = {"experiment": "magnetic", "A": [[1, 0], [0, 1]],
           "B0": [[0, -1], [1, 0]], "beta": 0.0, "eps_schedule": [0.5]}
    cfg = parse_config(write_config(tmp_path / "c.json", doc))
    assert isinstance(cfg, MagneticConfig)
    assert cfg.grid_n == 256 and cfg.mc_trials == 64


def test_parse_rejects_alpha_beta_window(tmp_path):
    path = write_config(tmp_path / "c.json", magnetic_doc(alpha=0.45, beta=0.5))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "alpha" in str(err.value)


def test_parse_rejects_H_outside_window(tmp_path):
    path = write_config(tmp_path / "c.json", leadlag_doc(H=0.2))
    with pytest.raises(ConfigError) as err:
        parse_config(path)
    assert "1/4 < H <= 1/2" in str(err.value)


def test_parse_leadlag(tmp_path):
    cfg = parse_config(write_config(tmp_path / "c.json", leadlag_doc()))
    assert isinstance(cfg, LeadLagConfig)
    assert cfg.n_schedule == (8, 16, 32)


def test_parse_rejects_unknown_kind(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path / "c.json", {"experiment": "other"}))


# ----------------------------------------------------------------------- CLI

def test_cli_magnetic_run_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "c.json", magnetic_doc())
    outs = []
    for name, threads in (("o1", "1"), ("o2", "2")):
        out = tmp_path / name
        rc = main(["magnetic", "--config", cfg, "--out", str(out),
                   "--threads", threads])
        assert rc == 0
        outs.append(out)
    csv1 = (outs[0] / "results.csv").read_bytes()
    csv2 = (outs[1] / "results.csv").read_bytes()
    assert csv1 == csv2
    assert (outs[0] / "manifest.json").read_bytes() == (outs[1] / "manifest.json").read_bytes()
    assert csv1.decode().splitlines()[0] == MAGNETIC_HEADER
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["experiment"] == "magnetic"
    assert "fine_grid_N" in manifest["method_notes"]
    for col in MAGNETIC_COLUMNS:
        if col != "eps" and not col.endswith("_se"):
            assert (outs[0] / f"{col}.svg").exists()


def test_cli_magnetic_threads_identical_across_chunk_carry(tmp_path):
    # eps = 2^-5 at grid_n 16 samples 58,832 fine steps, two ROW_BLOCK
    # chunks, so each trial's OU scan and W carry a row from its first chunk
    # into its second; every .csv and .json byte must still match
    path = write_config(tmp_path / "c.json",
                        magnetic_doc(eps_schedule=[2.0 ** -5], mc_trials=3, base_seed=11))
    steps = magnetic.fine_grid_n(parse_config(path), 2.0 ** -5)
    assert ROW_BLOCK < steps == 58832 < 2 * ROW_BLOCK
    blobs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        assert main(["magnetic", "--config", path, "--out", str(out),
                     "--threads", threads]) == 0
        blobs.append({p.name: p.read_bytes() for p in out.iterdir()
                      if p.suffix in (".csv", ".json")})
    assert set(blobs[0]) == {"results.csv", "manifest.json"}
    assert blobs[0] == blobs[1]


def test_cli_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path / "c.json", magnetic_doc())
    out1, out2, out3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
    assert main(["magnetic", "--config", cfg, "--out", str(out1), "--seed", "11"]) == 0
    assert main(["magnetic", "--config", cfg, "--out", str(out2), "--seed", "11"]) == 0
    assert main(["magnetic", "--config", cfg, "--out", str(out3), "--seed", "12"]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "results.csv").read_bytes() != (out3 / "results.csv").read_bytes()


def test_cli_leadlag_run(tmp_path):
    cfg = write_config(tmp_path / "c.json", leadlag_doc())
    out = tmp_path / "out"
    assert main(["leadlag", "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == ",".join(LEADLAG_COLUMNS)
    assert len(lines) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["method_notes"]["fbm_method"] == "circulant"


def test_cli_config_rejection_exit_code(tmp_path):
    cfg = write_config(tmp_path / "c.json", magnetic_doc(alpha=0.49))
    assert main(["magnetic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert main(["magnetic", "--out", str(tmp_path / "o")]) == 2  # missing config
    missing = str(tmp_path / "nope.json")
    assert main(["magnetic", "--config", missing, "--out", str(tmp_path / "o")]) == 2
    # outside the lead-lag theorem window: rejected at parse time, not mid-run;
    # a leftover "theorem_mode" key does not open the window
    low_h = write_config(tmp_path / "h.json",
                         leadlag_doc(H=0.2, alpha=0.1, theorem_mode=False))
    assert main(["leadlag", "--config", low_h, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, change", [
    ("magnetic", {"T": math.inf}),
    ("leadlag", {"fbm_method": "circ"}),
    ("magnetic", {"grid_n": 16.7}),
    ("leadlag", {"mc_trials": True}),
    ("leadlag", {"n_schedule": [8.5, 16, 32]}),
    ("magnetic", {"mc_trails": 2}),
    ("magnetic", {"A": [[1.0, 0.0], [0.0, -0.1]]}),  # A - B0 stable, A not definite
    ("magnetic", {"A": [[1e308, -1e308], [-1e308, 1e308]]}),  # norm overflows
    ("magnetic", {"mc_trials": 10 ** 30}),
    ("magnetic", {"grid_n": 10 ** 30}),
    ("magnetic", {"eps_schedule": [1e-300]}),  # eps^2 underflows in the step rule
    ("leadlag", {"n_ref": 2 ** 60}),
    ("leadlag", {"d": 10 ** 30}),
    ("leadlag", {"n_ref": 2 ** 23, "d": 3}),  # 1.0 GB trial at d = 3
    ("magnetic", {"A": [[float(i == j) for j in range(10)] for i in range(10)],
                  "B0": [[0.0] * 10 for _ in range(10)],
                  "eps_schedule": [1.1e-3]}),  # 8.3M steps at d = 10: 8.7 GB
    ("magnetic", {"grid_n": 2049}),  # Hoelder grids above FULL_PAIRS_LIMIT
    ("leadlag", {"n_schedule": [4096, 8192], "n_ref": 32768}),
    ("magnetic", {"A": [[float(i == j) for j in range(128)] for i in range(128)],
                  "B0": [[0.0] * 128 for _ in range(128)],
                  "eps_schedule": [10.0], "grid_n": 2}),  # 2 steps, 6.4 GB Lyapunov solve
    ("magnetic", {"base_seed": -1}),
    ("leadlag", {"base_seed": -1}),
    ("magnetic", {"base_seed": 2 ** 64}),
    ("leadlag", {"base_seed": 2 ** 64}),
    ("magnetic", NOT_UTF8),
    ("leadlag", NOT_UTF8),
    ("magnetic", TOO_DEEP),
    ("leadlag", TOO_DEEP),
    ("leadlag", TOO_MANY_DIGITS),
], ids=["T-infinite", "fbm_method", "grid_n-float", "mc_trials-bool",
        "n_schedule-float", "unknown-key", "A-indefinite", "A-overflow",
        "mc_trials-huge", "grid_n-huge", "eps-underflow", "n_ref-huge", "d-huge",
        "leadlag-trial-over-budget", "fine-grid-over-budget",
        "grid_n-over-pairs-limit", "n_min-over-pairs-limit", "d-over-lyapunov-budget",
        "magnetic-seed-negative", "leadlag-seed-negative", "magnetic-seed-2^64",
        "leadlag-seed-2^64", "magnetic-not-utf8", "leadlag-not-utf8", "magnetic-too-deep",
        "leadlag-too-deep", "too-many-digits"])
def test_cli_rejects_malformed_config(tmp_path, capsys, no_sampling, kind, change):
    doc = change if isinstance(change, bytes) else DOCS[kind](**change)
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", sorted(DOCS) + ["identities"])
@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_cli_rejects_seed_override_outside_u64(tmp_path, capsys, no_work, kind, seed):
    # derive_seed masks to 64 bits, so these would run the streams of
    # 2^64 - 1 and 0 while the manifest echoed the value given
    doc = DOCS[kind]() if kind in DOCS else {"paths": 5, "drifts": 5}
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    assert main([kind, "--config", cfg, "--out", str(out), "--seed", seed]) == 2
    assert "base_seed" in capsys.readouterr().err
    assert not out.exists()


def test_parse_accepts_grids_at_pairs_limit(tmp_path, no_sampling):
    # FULL_PAIRS_LIMIT = 2048 itself is a runnable Hoelder grid for both kinds
    cfg = parse_config(write_config(tmp_path / "m.json", magnetic_doc(grid_n=2048)))
    assert cfg.grid_n == 2048
    doc = leadlag_doc(n_schedule=[2048, 4096], n_ref=16384)
    assert parse_config(write_config(tmp_path / "l.json", doc)).n_schedule[0] == 2048


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)
KEYS = sorted(set(magnetic_doc()) | set(leadlag_doc()))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(DOCS)), key=st.sampled_from(KEYS) | st.text(max_size=8),
       value=JSON_VALUES)
@example(kind="magnetic", key="T", value=10 ** 400)
@example(kind="leadlag", key="n_schedule", value=[8, 2 ** 64])
@example(kind="magnetic", key="A", value=[[1e308, -1e308], [-1e308, 1e308]])
def test_parse_config_accepts_or_rejects_any_edit(tmp_path, no_sampling, kind, key, value):
    # one key of a valid doc set to any JSON value (a key of the other kind
    # or a random one is an added key): parse_config returns a config or
    # raises ConfigError, nothing else
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(DOCS[kind](**{key: value})))
    try:
        parse_config(str(path))
    except ConfigError:
        pass


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = write_config(tmp_path / "c.json", leadlag_doc())
    out = tmp_path / "out"
    assert main(["leadlag", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["identities", "psi", "leadlag", "magnetic"])
def test_cli_rejects_threads_above_bound(tmp_path, capsys, monkeypatch, no_sampling, kind):
    # only the bound + 1 is tried, with every work function failing, so no
    # pool and no thread is started
    for name in ("magnetic_experiment", "leadlag_experiment", "psi_closed"):
        monkeypatch.setattr(roughlift.cli, name, _no_work)
    monkeypatch.setattr(roughlift.identities, "run_all", _no_work)
    args = [kind, "--out", str(tmp_path / "out"), "--threads", str(MAX_THREADS + 1)]
    if kind in DOCS:
        args += ["--config", write_config(tmp_path / "c.json", DOCS[kind]())]
    assert main(args) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_star_import_resolves_all():
    # a fresh namespace gets every name __all__ lists, and each only once
    namespace = {}
    exec("from roughlift import *", namespace)
    assert set(roughlift.__all__) <= set(namespace)
    assert len(set(roughlift.__all__)) == len(roughlift.__all__)


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second of every CLI start and nothing in
    # roughlift needs it; a fresh interpreter sees what the import pulls in
    src = os.path.dirname(os.path.dirname(roughlift.__file__))
    code = "import sys, roughlift.cli; print('scipy.signal' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert run.stdout.strip() == "False"


def _fresh_python(code):
    src = os.path.dirname(os.path.dirname(roughlift.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=120)


@pytest.mark.parametrize("module", ["roughlift", "roughlift.cli"])
def test_import_loads_no_scipy(module):
    # numpy is the only runtime dependency
    run = _fresh_python(f"import sys, {module}; "
                        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", sorted(DOCS))
def test_cli_runs_with_scipy_unimportable(tmp_path, kind):
    cfg = write_config(tmp_path / "c.json", DOCS[kind]())
    out = tmp_path / "out"
    run = _fresh_python("import sys; sys.modules['scipy'] = None; from roughlift.cli import main; "
                        f"sys.exit(main([{kind!r}, '--config', {cfg!r}, '--out', {str(out)!r}]))")
    assert run.returncode == 0, run.stderr
    assert (out / "results.csv").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("work started")


@pytest.fixture
def no_work(monkeypatch, no_sampling):
    """Make the work of every subcommand fail loudly, so a test sees it start."""
    for name in ("magnetic_experiment", "leadlag_experiment", "psi_closed"):
        monkeypatch.setattr(roughlift.cli, name, _no_work)
    monkeypatch.setattr(roughlift.identities, "run_all", _no_work)


@pytest.mark.parametrize("kind", ["identities", "psi", "leadlag", "magnetic"])
@pytest.mark.parametrize("out", ["taken", "taken/sub", "dangling/sub", ""],
                         ids=["file", "under-file", "under-dangling-link", "empty"])
def test_cli_rejects_out_not_under_a_directory(tmp_path, capsys, no_work, kind, out):
    # an existing file, a path below one or below a link to nothing, or no
    # path cannot hold the outputs: rejected before any work, not after it
    (tmp_path / "taken").write_bytes(b"kept")
    (tmp_path / "dangling").symlink_to(tmp_path / "missing")
    args = [kind, "--out", str(tmp_path / out) if out else out]
    if kind in DOCS:
        args += ["--config", write_config(tmp_path / "c.json", DOCS[kind]())]
    before = sorted(tmp_path.rglob("*"))
    assert main(args) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "taken").read_bytes() == b"kept"


def test_cli_identities(tmp_path, capsys, monkeypatch):
    out = tmp_path / "ids"
    rc = main(["identities", "--out", str(out), "--config",
               write_config(tmp_path / "i.json", {"paths": 20, "drifts": 10})])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    doc = json.loads((out / "identities.json").read_text())
    assert all(entry["passed"] for entry in doc.values())
    monkeypatch.setattr(roughlift.identities, "run_all", _no_work)
    for bad in ({"paths": "x"}, {"drifts": 1.5}, {"path": 20}, {"base_seed": -1},
                {"base_seed": 2 ** 64},
                {"paths": 0, "drifts": 0}, {"paths": 0}, {"drifts": 0}, {"paths": -1},
                {"paths": MAX_TRIALS + 1}, {"drifts": MAX_TRIALS + 1}, *RAW_FILES):
        bad_out = tmp_path / "bad"
        rc = main(["identities", "--out", str(bad_out), "--config",
                   write_config(tmp_path / "bad.json", bad)])
        assert rc == 2, bad
        assert not bad_out.exists()


def test_manifest_config_reproduces_csv(tmp_path):
    # the manifest's config echo plus its seed fully determine the CSV, and
    # echo -> parse -> echo is a fixed point
    for kind, make_doc in DOCS.items():
        cfg = write_config(tmp_path / f"{kind}.json", make_doc())
        out1 = tmp_path / f"{kind}-first"
        assert main([kind, "--config", cfg, "--out", str(out1), "--seed", "21"]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        echoed = dict(manifest["config"])
        assert echoed["base_seed"] == manifest["base_seed"] == 21
        cfg2 = write_config(tmp_path / f"{kind}-echo.json", echoed)
        assert _config_echo(parse_config(cfg2)) == echoed
        out2 = tmp_path / f"{kind}-second"
        assert main([kind, "--config", cfg2, "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_cli_psi(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    cfg = write_config(tmp_path / "p.json", {"n": 256, "H_list": [0.3, 0.5]})
    assert main(["psi", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["psi", "--config", cfg, "--out", str(out2)]) == 0
    b1 = (out1 / "psi.csv").read_bytes()
    assert b1 == (out2 / "psi.csv").read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == "H,n,K,psi,bound,ratio"
    ratios = [float(line.split(",")[-1]) for line in b1.decode().splitlines()[1:]]
    assert max(ratios) <= 1.0
    monkeypatch.setattr(roughlift.cli, "psi_closed", _no_work)
    for bad in ({"n": "abc"}, {"K_lst": [2]}, {"H_list": 0.3}, {"K_list": [2, True]},
                {"n": 0}, {"H_list": []}, {"n": 2 ** 62, "K_list": [2 ** 62]},
                {"n": 10 ** 400}, {"n": MAX_GRID_STEPS + 1}, *RAW_FILES):
        bad_out = tmp_path / "bad"
        rc = main(["psi", "--config", write_config(tmp_path / "bad.json", bad),
                   "--out", str(bad_out)])
        assert rc == 2, bad
        assert not bad_out.exists()
