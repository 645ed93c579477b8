"""The trial runner both experiments share, run-size bounds, rate fitting
and deterministic result emission.

Outputs are byte-reproducible: floats are written with repr (the shortest
decimal that round-trips exactly), JSON keys are sorted, and the SVG plots
are assembled from the data alone, so identical inputs give identical
files regardless of thread count or platform dict order.
"""
from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np

from . import __version__
from .tensor2 import FULL_PAIRS_LIMIT

# Run-size bounds, checked by check_run when an experiment config is built
# and before any work of the identities and psi commands.  TRIAL_BYTES,
# about 0.75 GB per worker, covers MAX_GRID_STEPS at d = 2 and bounds each
# model of a trial's bytes (magnetic.fine_step_bytes, linstable.lyapunov_bytes
# and leadlag.leadlag_trial_bytes).  Every trial result (a few hundred
# bytes) stays in memory until summary_rows reduces them: MAX_TRIALS of
# them stay under 1 GB.
MAX_GRID_STEPS = 2 ** 23
TRIAL_BYTES = 90 * MAX_GRID_STEPS
MAX_TRIALS = 2 ** 20


class ConfigError(ValueError):
    """Rejected run configuration (exit code 2)."""


def check_run(seed: int = 0, trials: int = 0, grid_steps: int = 0, hoelder_n: int = 0,
              trial_bytes: int = 0):
    """Reject a run whose seed is outside [0, 2^64) or whose size is above
    MAX_TRIALS, MAX_GRID_STEPS, FULL_PAIRS_LIMIT or TRIAL_BYTES, naming which."""
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"base_seed must lie in [0, 2^64), got {seed}")
    for quantity, value, name, bound in [
            ("trials", trials, "MAX_TRIALS", MAX_TRIALS),
            ("steps on the largest sampled grid", grid_steps, "MAX_GRID_STEPS", MAX_GRID_STEPS),
            ("intervals of the Hoelder grid", hoelder_n, "FULL_PAIRS_LIMIT", FULL_PAIRS_LIMIT),
            ("bytes a trial holds", trial_bytes, "TRIAL_BYTES", TRIAL_BYTES)]:
        if value > bound:
            raise ConfigError(f"{quantity}: {value} > {name} = {bound}")


def fit_loglog(points):
    """Least squares of log y on log x.

    Returns (slope, intercept, slope standard error); the standard error is
    zero for an exact fit.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    if any(x <= 0.0 or y <= 0.0 for x, y in pts):
        raise ValueError("points must be strictly positive")
    lx = np.log([x for x, _ in pts])
    ly = np.log([y for _, y in pts])
    mx, my = lx.mean(), ly.mean()
    sxx = float(np.sum((lx - mx) ** 2))
    if sxx == 0.0:
        raise ValueError("x values are degenerate")
    slope = float(np.sum((lx - mx) * (ly - my)) / sxx)
    intercept = float(my - slope * mx)
    resid = ly - (intercept + slope * lx)
    dof = len(pts) - 2
    ssr = float(np.sum(resid ** 2))
    stderr = float(np.sqrt(ssr / dof / sxx))
    return slope, intercept, stderr


def summary_rows(batches) -> list[dict]:
    """One row per schedule point from its batch of trial records (one
    dataclass type): the record's first field, the schedule point, then
    vnorm, the vNorm of its first trial, then the mean and standard error
    of every other field over the batch, in declaration order."""
    rows = []
    for batch in batches:
        key, *stats = [f.name for f in fields(batch[0]) if f.name != "vNorm"]
        row = {key: getattr(batch[0], key), "vnorm": batch[0].vNorm}
        for name in stats:
            a = np.asarray([getattr(t, name) for t in batch], dtype=float)
            row[f"{name}_mean"] = float(np.mean(a))
            row[f"{name}_se"] = float(np.std(a, ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0
        rows.append(row)
    return rows


def run_trials(run_batch, trials: int, threads: int, batch: int = 1) -> list[dict]:
    """Summary rows of trials 0, ..., trials - 1, run on ``threads`` workers
    in batches of ``batch`` consecutive indices: run_batch(range) returns
    one list of records (one per schedule point) per index.  A trial
    derives its seeds from its index, the batches depend only on
    ``trials`` and ``batch``, and the pool keeps index order, so the rows
    do not depend on the thread count."""
    batches = [range(k, min(k + batch, trials)) for k in range(0, trials, batch)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = [records for done in pool.map(run_batch, batches) for records in done]
    return summary_rows(zip(*results))


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _columns(rows: list[dict]) -> list[str]:
    """A results table's columns: the key order its rows share, schedule
    key first."""
    if not rows or any(list(row) != list(rows[0]) for row in rows):
        raise ValueError("result rows must be non-empty and share one key order")
    return list(rows[0])


def rows_to_csv(rows: list[dict]) -> str:
    lines = [_columns(rows)] + [[_fmt(v) for v in row.values()] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def build_manifest(config: dict, rows: list[dict], method_notes: dict) -> dict:
    """Run record sufficient to reproduce the CSV byte-for-byte, from the
    echoed ``config`` (which names the experiment and base seed)."""
    schedule_key, *metrics = _columns(rows)
    schedule = [row[schedule_key] for row in rows]
    slopes = {}
    for col in metrics:
        if not (col.endswith("_mean") or col == "vnorm"):
            continue
        ys = [row[col] for row in rows]
        if len(rows) >= 3 and all(y > 0 for y in ys) and all(x > 0 for x in schedule):
            slope, intercept, stderr = fit_loglog(zip(schedule, ys))
            slopes[col] = {"slope": slope, "intercept": intercept,
                           "stderr": stderr, "ci_halfwidth": 1.96 * stderr}
        else:
            slopes[col] = None
    return {
        "tool_version": __version__,
        "experiment": config["experiment"],
        "config": config,
        "base_seed": int(config["base_seed"]),
        "schedule": schedule,
        "rows": rows,
        "loglog_slopes": slopes,
        "method_notes": method_notes,
    }


def _svg_loglog(xs, ys, title: str, xlabel: str) -> str:
    """Minimal deterministic log-log line plot; non-positive points are
    dropped (they cannot be placed on log axes)."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="15">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{width - ml - mr}" '
        f'height="{height - mt - mb}" fill="none" stroke="black"/>',
    ]
    if pts:
        lx = np.log10([p[0] for p in pts])
        ly = np.log10([p[1] for p in pts])
        lo_x, hi_x = float(lx.min()), float(lx.max())
        lo_y, hi_y = float(ly.min()), float(ly.max())
        span_x = (hi_x - lo_x) or 1.0
        span_y = (hi_y - lo_y) or 1.0

        def px(v):
            return ml + (v - lo_x) / span_x * (width - ml - mr)

        def py(v):
            return height - mb - (v - lo_y) / span_y * (height - mt - mb)

        coords = [(px(a), py(b)) for a, b in zip(lx, ly)]
        poly = " ".join(f"{a:.2f},{b:.2f}" for a, b in coords)
        parts.append(f'<polyline points="{poly}" fill="none" stroke="steelblue" '
                     'stroke-width="1.5"/>')
        for (a, b), (x, y) in zip(coords, pts):
            parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="steelblue">'
                         f'<title>({_fmt(x)}, {_fmt(y)})</title></circle>')
        for (a, _), x in zip(coords, (p[0] for p in pts)):
            parts.append(f'<text x="{a:.2f}" y="{height - mb + 18}" text-anchor="middle" '
                         f'font-family="monospace" font-size="10">{x:.4g}</text>')
        for frac in (0.0, 0.5, 1.0):
            v = lo_y + frac * span_y
            parts.append(f'<text x="{ml - 6}" y="{py(v):.2f}" text-anchor="end" '
                         f'font-family="monospace" font-size="10">{10 ** v:.3g}</text>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
                 f'font-family="monospace" font-size="12">{xlabel} (log-log)</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(rows: list[dict], manifest: dict, out_dir: str) -> list[str]:
    """Write results.csv, manifest.json and one SVG per metric column.

    Validates before touching the filesystem; identical inputs produce
    identical bytes.
    """
    schedule_key, *metrics = _columns(rows)
    xs = [row[schedule_key] for row in rows]
    svgs = {f"{col}.svg": _svg_loglog(xs, [row[col] for row in rows], col, schedule_key)
            for col in metrics if not col.endswith("_se")}
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    return write_files(out_dir, {"results.csv": rows_to_csv(rows),
                                 "manifest.json": manifest_text, **dict(sorted(svgs.items()))})


def write_files(out_dir: str, files: dict[str, str]) -> list[str]:
    """Write each text to out_dir/name, making out_dir; the paths, in order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", newline="") as f:
            f.write(text)
        written.append(path)
    return written
