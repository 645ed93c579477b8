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
import typing
from dataclasses import fields, replace

import numpy as np

from . import identities, report
from .leadlag import LEADLAG_FIELDS, LeadLagConfig, leadlag_experiment, psi_closed
from .magnetic import MAGNETIC_FIELDS, MagneticConfig, fine_grid_n, magnetic_experiment
from .report import ConfigError

MAGNETIC_COLUMNS = ["eps", "vnorm"] + [f"{f}_{s}" for f in MAGNETIC_FIELDS
                                       for s in ("mean", "se")]
LEADLAG_COLUMNS = ["n", "vnorm"] + [f"{f}_{s}" for f in LEADLAG_FIELDS
                                    for s in ("mean", "se")]

# Config schemas.  An experiment config class's fields are its keys, their
# type hints the JSON types and their defaults the defaults; the identities
# and psi options map key -> type here and take defaults in their commands.
EXPERIMENTS = {"magnetic": MagneticConfig, "leadlag": LeadLagConfig}
IDENTITIES_OPTIONS = {"paths": int, "drifts": int, "base_seed": int}
PSI_OPTIONS = {"H_list": tuple[float, ...], "n": int, "K_list": tuple[int, ...]}

# Trial workers (OS threads), each holding up to report.TRIAL_BYTES
MAX_THREADS = 64


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:  # RFC 8259: JSON is UTF-8
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except (ValueError, RecursionError) as e:  # JSONDecodeError, UnicodeDecodeError, nesting
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    _require(isinstance(doc, dict), "config must be a JSON object")
    return doc


def _coerce(key: str, hint, value):
    """JSON ``value`` of config key ``key`` as the type ``hint``: int,
    float, tuple[T, ...] (a list of T) or np.ndarray (a list of rows of
    numbers)."""
    if typing.get_origin(hint) is tuple:
        _require(isinstance(value, list), f"config key {key!r} must be a list")
        return tuple(_coerce(key, typing.get_args(hint)[0], v) for v in value)
    if hint is np.ndarray:
        _require(isinstance(value, list) and all(isinstance(row, list) for row in value),
                 f"config key {key!r} must be a matrix given as a list of rows")
        return np.array([[_coerce(key, float, v) for v in row] for row in value])
    if hint is int:
        _require(type(value) is int, f"config key {key!r} must be an integer, got {value!r}")
        return value
    # false for booleans, infinities, NaN and integers beyond the float range
    _require(type(value) in (int, float) and abs(value) <= sys.float_info.max,
             f"config key {key!r} must be a finite number, got {value!r}")
    return float(value)


def _coerce_keys(doc: dict, hints: dict) -> dict:
    unknown = sorted(set(doc) - set(hints))
    _require(not unknown, f"unknown config keys: {', '.join(unknown)}")
    return {key: _coerce(key, hints[key], value) for key, value in doc.items()}


def parse_config(path: str):
    """Validated experiment config from a JSON file.

    The document's ``experiment`` field selects the config class; every
    other key must be one of its fields, of the field's type.  Every module
    invariant is enforced here so a bad run is rejected before any sampling
    starts.
    """
    doc = _load_json(path)
    kind = doc.pop("experiment", None)
    cls = EXPERIMENTS.get(kind) if isinstance(kind, str) else None
    _require(cls is not None, "config field 'experiment' must be 'magnetic' or 'leadlag'")
    try:
        return cls(**_coerce_keys(doc, typing.get_type_hints(cls)))
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from e


def _config_echo(cfg) -> dict:
    echo = {"experiment": next(k for k, cls in EXPERIMENTS.items() if isinstance(cfg, cls))}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        echo[f.name] = (value.tolist() if isinstance(value, np.ndarray)
                        else list(value) if isinstance(value, tuple) else value)
    return echo


def _cmd_experiment(args) -> int:
    cfg = parse_config(args.config)
    _require(isinstance(cfg, EXPERIMENTS[args.command]),
             f"subcommand {args.command!r} needs a {args.command} config")
    if args.seed is not None:
        try:
            cfg = replace(cfg, base_seed=args.seed)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if isinstance(cfg, MagneticConfig):
        rows = magnetic_experiment(cfg, threads=args.threads)
        key, columns = "eps", MAGNETIC_COLUMNS
        notes = {"fine_grid_N": {repr(eps): fine_grid_n(cfg, eps) for eps in cfg.eps_schedule},
                 "output_grid_n": cfg.grid_n}
    else:
        rows = leadlag_experiment(cfg, threads=args.threads)
        key, columns = "n", LEADLAG_COLUMNS
        notes = {"fbm_method": "circulant", "n_ref": cfg.n_ref,
                 "common_grid_n": cfg.n_schedule[0]}
    manifest = report.build_manifest(args.command, _config_echo(cfg), rows, key,
                                     cfg.base_seed, notes)
    print("\n".join(report.emit(rows, manifest, args.out, columns, key)))
    return 0


def _options(args, hints: dict) -> dict:
    return _coerce_keys(_load_json(args.config), hints) if args.config else {}


def _cmd_identities(args) -> int:
    opts = _options(args, IDENTITIES_OPTIONS)
    seed = args.seed if args.seed is not None else opts.get("base_seed", 0)
    n_paths, n_drifts = opts.get("paths", 200), opts.get("drifts", 100)
    _require(min(n_paths, n_drifts) >= 1, f"paths and drifts must be >= 1, "
             f"got {n_paths} and {n_drifts}")
    report.check_run(seed=seed, trials=max(n_paths, n_drifts))
    checks = identities.run_all(seed=seed, n_paths=n_paths, n_drifts=n_drifts)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name} (max_err={c.max_err:.3e}, tol={c.tol:.0e})")
    if args.out is not None:
        doc = {c.name: {"max_err": float(c.max_err), "tol": float(c.tol),
                        "passed": bool(c.passed)} for c in checks}
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        report.write_files(args.out, {"identities.json": text})
    if not all(c.passed for c in checks):
        raise RuntimeError("identity suite failed")
    return 0


def _cmd_psi(args) -> int:
    opts = _options(args, PSI_OPTIONS)
    h_list = opts.get("H_list", (0.30, 0.35, 0.40, 0.45, 0.50))
    n = opts.get("n", 4096)
    k_list = opts.get("K_list", [2 ** j for j in range(13) if 2 ** j <= n])
    _require(n >= 1 and h_list and k_list, "psi needs n >= 1 and non-empty H_list and K_list")
    report.check_run(grid_steps=n)
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
        print(*report.write_files(args.out, {"psi.csv": table}))
    else:
        print(table, end="")
    worst = max(r["ratio"] for r in rows)
    print(f"worst psi / (2 K n^-4H) ratio: {worst:.6g}")
    return 0


_COMMANDS = {"identities": _cmd_identities, "magnetic": _cmd_experiment,
             "leadlag": _cmd_experiment, "psi": _cmd_psi}


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
    try:
        _require(args.command not in EXPERIMENTS or None not in (args.config, args.out),
                 "--config and --out are required for experiment runs")
        _require(1 <= args.threads <= MAX_THREADS,
                 f"--threads must lie in [1, MAX_THREADS = {MAX_THREADS}], got {args.threads}")
        parent = os.path.abspath(args.out or ".")  # the nearest existing ancestor of --out
        while not os.path.lexists(parent):  # a dangling link is no directory
            parent = os.path.dirname(parent)
        _require(args.out != "" and os.path.isdir(parent),
                 f"--out {args.out!r} names no path under a directory (nearest: {parent})")
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
