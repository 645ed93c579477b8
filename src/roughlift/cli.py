"""Command-line front end.

    roughlift <subcommand> --config <path> --out <dir> [--seed <u64>] [--threads <k>]

Subcommands: ``identities`` (exact-identity and oracle suites, pass/fail
per check), ``magnetic`` and ``leadlag`` (Monte Carlo convergence runs
emitting results.csv / manifest.json / per-metric SVGs), and ``psi``
(tabulates the quadratic-variation second moment against its 2 K n^{-4H}
bound).  Exit codes: 0 success, 2 config rejection, 1 runtime failure.
Configuration comes from a single JSON document (flags only, no
environment variables); ``--seed`` overrides the config's base seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import identities, report
from .leadlag import LEADLAG_FIELDS, LeadLagConfig, leadlag_experiment, psi_closed
from .magnetic import MAGNETIC_FIELDS, MagneticConfig, fine_grid_n, magnetic_experiment

MAGNETIC_COLUMNS = ["eps", "vnorm"] + [f"{f}_{s}" for f in MAGNETIC_FIELDS
                                       for s in ("mean", "se")]
LEADLAG_COLUMNS = ["n", "vnorm"] + [f"{f}_{s}" for f in LEADLAG_FIELDS
                                    for s in ("mean", "se")]


class ConfigError(ValueError):
    """Rejected run configuration (exit code 2)."""


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    _require(isinstance(doc, dict), "config must be a JSON object")
    return doc


def parse_config(path: str):
    """Validated experiment config from a JSON file.

    The document's ``experiment`` field selects the kind; matrices are
    row-major nested arrays.  Every module invariant is enforced here so a
    bad run is rejected before any sampling starts.
    """
    doc = _load_json(path)
    kind = doc.get("experiment")
    _require(kind in ("magnetic", "leadlag"),
             "config field 'experiment' must be 'magnetic' or 'leadlag'")
    try:
        if kind == "magnetic":
            _require("A" in doc and "B0" in doc, "magnetic config needs matrices A and B0")
            cfg = MagneticConfig(
                A=np.asarray(doc["A"], dtype=float),
                B0=np.asarray(doc["B0"], dtype=float),
                beta=float(doc.get("beta", 0.0)),
                eps_schedule=tuple(doc.get("eps_schedule", ())),
                T=float(doc.get("T", 1.0)),
                alpha=float(doc.get("alpha", 0.3)),
                grid_n=int(doc.get("grid_n", 256)),
                mc_trials=int(doc.get("mc_trials", 64)),
                base_seed=int(doc.get("base_seed", 0)),
            )
        else:
            cfg = LeadLagConfig(
                H=float(doc.get("H", 0.4)),
                n_schedule=tuple(doc.get("n_schedule", ())),
                n_ref=int(doc.get("n_ref", 4096)),
                d=int(doc.get("d", 1)),
                alpha=float(doc.get("alpha", 0.3)),
                mc_trials=int(doc.get("mc_trials", 64)),
                base_seed=int(doc.get("base_seed", 0)),
                fbm_method=str(doc.get("fbm_method", "circulant")),
            )
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e
    return cfg


def _config_echo(cfg) -> dict:
    if isinstance(cfg, MagneticConfig):
        return {"experiment": "magnetic", "A": cfg.A.tolist(), "B0": cfg.B0.tolist(),
                "beta": cfg.beta, "eps_schedule": list(cfg.eps_schedule), "T": cfg.T,
                "alpha": cfg.alpha, "grid_n": cfg.grid_n, "mc_trials": cfg.mc_trials,
                "base_seed": cfg.base_seed}
    return {"experiment": "leadlag", "H": cfg.H, "n_schedule": list(cfg.n_schedule),
            "n_ref": cfg.n_ref, "d": cfg.d, "alpha": cfg.alpha,
            "mc_trials": cfg.mc_trials, "base_seed": cfg.base_seed,
            "fbm_method": cfg.fbm_method}


def _cmd_magnetic(args) -> int:
    cfg = parse_config(args.config)
    _require(isinstance(cfg, MagneticConfig), "subcommand 'magnetic' needs a magnetic config")
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    _require(args.out is not None, "--out is required for experiment runs")
    rows = magnetic_experiment(cfg, threads=args.threads)
    notes = {"fine_grid_N": {repr(eps): fine_grid_n(cfg, eps) for eps in cfg.eps_schedule},
             "output_grid_n": cfg.grid_n}
    manifest = report.build_manifest("magnetic", _config_echo(cfg), rows, "eps",
                                     cfg.base_seed, notes)
    written = report.emit(rows, manifest, args.out, MAGNETIC_COLUMNS, "eps")
    print("\n".join(written))
    return 0


def _cmd_leadlag(args) -> int:
    cfg = parse_config(args.config)
    _require(isinstance(cfg, LeadLagConfig), "subcommand 'leadlag' needs a leadlag config")
    if args.seed is not None:
        cfg = replace(cfg, base_seed=args.seed)
    _require(args.out is not None, "--out is required for experiment runs")
    rows = leadlag_experiment(cfg, threads=args.threads)
    notes = {"fbm_method": cfg.fbm_method, "n_ref": cfg.n_ref,
             "common_grid_n": cfg.n_schedule[0]}
    manifest = report.build_manifest("leadlag", _config_echo(cfg), rows, "n",
                                     cfg.base_seed, notes)
    written = report.emit(rows, manifest, args.out, LEADLAG_COLUMNS, "n")
    print("\n".join(written))
    return 0


def _cmd_identities(args) -> int:
    opts = _load_json(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else int(opts.get("base_seed", 0))
    checks = identities.run_all(seed=seed,
                                n_paths=int(opts.get("paths", 200)),
                                n_drifts=int(opts.get("drifts", 100)))
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} (max_err={c.max_err:.3e}, tol={c.tol:.0e})")
    if args.out is not None:
        doc = {c.name: {"max_err": float(c.max_err), "tol": float(c.tol),
                        "passed": bool(c.passed)} for c in checks}
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "identities.json"), "w", newline="") as f:
            f.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    if not all(c.passed for c in checks):
        raise RuntimeError("identity suite failed")
    return 0


def _cmd_psi(args) -> int:
    opts = _load_json(args.config) if args.config else {}
    h_list = [float(h) for h in opts.get("H_list", (0.30, 0.35, 0.40, 0.45, 0.50))]
    n = int(opts.get("n", 4096))
    k_list = [int(k) for k in opts.get("K_list", [2 ** j for j in range(13) if 2 ** j <= n])]
    _require(all(0.0 < h < 1.0 for h in h_list), "every H must lie in (0, 1)")
    _require(all(1 <= k <= n for k in k_list), "every K must satisfy 1 <= K <= n")
    rows = []
    for h in h_list:
        for k in k_list:
            psi = psi_closed(n, k, h)
            bound = 2.0 * k * float(n) ** (-4.0 * h)
            rows.append({"H": h, "n": n, "K": k, "psi": psi, "bound": bound,
                         "ratio": psi / bound})
    table = report.rows_to_csv(rows, ["H", "n", "K", "psi", "bound", "ratio"])
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "psi.csv"), "w", newline="") as f:
            f.write(table)
        print(os.path.join(args.out, "psi.csv"))
    else:
        print(table, end="")
    worst = max(r["ratio"] for r in rows)
    print(f"worst psi / (2 K n^-4H) ratio: {worst:.6g}")
    return 0


_COMMANDS = {"identities": _cmd_identities, "magnetic": _cmd_magnetic,
             "leadlag": _cmd_leadlag, "psi": _cmd_psi}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughlift",
        description="step-2 rough-path lifts with area counter-terms: "
                    "identity suites and convergence experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
            ("identities", "run the exact-identity/oracle suites"),
            ("magnetic", "small-mass magnetic convergence experiment"),
            ("leadlag", "lead-lag convergence experiment"),
            ("psi", "tabulate the quadratic-variation second moment vs its bound")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override the config base seed")
        p.add_argument("--threads", type=int, default=1, help="parallel trial workers")
    args = parser.parse_args(argv)
    if args.command in ("magnetic", "leadlag") and args.config is None:
        print("config error: --config is required", file=sys.stderr)
        return 2
    if args.threads < 1:
        print(f"config error: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 1


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
