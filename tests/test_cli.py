import json

import pytest

from roughlift.cli import (ConfigError, LEADLAG_COLUMNS, MAGNETIC_COLUMNS, main,
                           parse_config)
from roughlift.leadlag import LeadLagConfig
from roughlift.magnetic import MagneticConfig

MAGNETIC_HEADER = ("eps,vnorm,distP_renorm_mean,distP_renorm_se,distP_raw_mean,"
                   "distP_raw_se,distZ_renorm_mean,distZ_renorm_se,distZ_raw_mean,"
                   "distZ_raw_se,areaDev1_mean,areaDev1_se")


def write_config(path, doc):
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


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = write_config(tmp_path / "c.json", leadlag_doc())
    out = tmp_path / "out"
    assert main(["leadlag", "--config", cfg, "--out", str(out), "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_cli_identities(tmp_path, capsys):
    out = tmp_path / "ids"
    rc = main(["identities", "--out", str(out), "--config",
               write_config(tmp_path / "i.json", {"paths": 20, "drifts": 10})])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    doc = json.loads((out / "identities.json").read_text())
    assert all(entry["passed"] for entry in doc.values())


def test_manifest_config_reproduces_csv(tmp_path):
    # the manifest's config echo plus its seed fully determine the CSV
    cfg = write_config(tmp_path / "c.json", leadlag_doc())
    out1 = tmp_path / "first"
    assert main(["leadlag", "--config", cfg, "--out", str(out1), "--seed", "21"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    echoed = dict(manifest["config"])
    echoed["base_seed"] = manifest["base_seed"]
    cfg2 = write_config(tmp_path / "echo.json", echoed)
    out2 = tmp_path / "second"
    assert main(["leadlag", "--config", cfg2, "--out", str(out2)]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_cli_psi(tmp_path):
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
