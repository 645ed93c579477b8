"""Rate fitting and deterministic result emission.

Outputs are byte-reproducible: floats are written with repr (the shortest
decimal that round-trips exactly), JSON keys are sorted, and the SVG plots
are assembled from the data alone, so identical inputs give identical
files regardless of thread count or platform dict order.
"""
from __future__ import annotations

import json
import os

import numpy as np

from . import __version__
from .tensor2 import FULL_PAIRS_LIMIT, ROW_BLOCK

# Run-size bounds, all checked by check_run, which each experiment config
# calls when it is built and the identities and psi commands call before
# any work, so a run too large to finish is rejected first.  At its peak a
# magnetic trial holds fine_step_bytes(d) per step of its fine grid: P (then
# Z, written over it), W, the times and the one level-2 buffer its three
# lifts share, (d + 1)^2 floats; level 1 of each full lift is a view of its
# path.  Its sampling phase stays below that lift phase: P, W and the times
# (2d + 1 floats per step), with the OU scan run per chunk in
# O(ROW_BLOCK d).  That is the measured slope of the tracemalloc peak of one
# trial between 260,352 and 516,608 steps: 72.0 B per step at d = 2 and
# 200.0 at d = 4 (392.0 at d = 6); every other array is
# O(tensor2.ROW_BLOCK), about 2.4 MB at d = 2.  TRIAL_BYTES, about 0.75 GB
# per worker, covers MAX_GRID_STEPS at d = 2 and also bounds the magnetic
# fine grid at any d and a lead-lag trial (leadlag_trial_bytes).  The job
# list and every trial result (a few hundred bytes each) stay in memory
# until summary_rows reduces them, so MAX_TRIALS results stay under 1 GB.
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


def fine_step_bytes(d: int) -> int:
    """Peak bytes a magnetic trial holds per fine-grid step at dimension d."""
    return 8 * (d + 1) ** 2


def lyapunov_bytes(d: int) -> int:
    """Traced peak of a Lyapunov solve at dimension d: 3 d^2 x d^2 floats."""
    return 24 * d ** 4


def leadlag_trial_bytes(n_ref: int, d: int, k: int, n_min: int) -> int:
    """Bound on the peak bytes of one lead-lag trial: reference grid n_ref,
    dimension d, k schedule points, coarsest n_min.

    Per reference step, 8 (4d + 1) B: the fBm draw holds the cached
    embedding root, d rows of 2n normals and their half-spectra (4d + 1
    floats); the later stages hold less (the path and times, the cached
    root, the doubled path: 3d + 2 floats).  This is the measured slope of
    a trial's tracemalloc peak between 2^19 and 2^20 steps: 40.0 B at
    d = 1, 72.0 at d = 2, 136.0 at d = 4.  The strided lift of the doubled
    path works on blocks of max(ROW_BLOCK, n_ref / n_min) rows of 6 x 2d
    floats.  Per member and point of the coarsest grid, the sweep holds
    the k lifts, its stacked level-1 and level-2 differences and its
    planes: 8 d^2 + 6 d + 7 floats.
    Every other array is O(ROW_BLOCK + PAIR_BLOCK), a few MiB.
    """
    return (8 * (4 * d + 1) * (n_ref + 1) + 48 * d * max(ROW_BLOCK, n_ref // n_min)
            + 8 * (8 * d * d + 6 * d + 7) * k * (n_min + 1))


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


def mean_se(samples) -> tuple[float, float]:
    a = np.asarray(samples, dtype=float)
    m = float(np.mean(a))
    se = float(np.std(a, ddof=1) / np.sqrt(len(a))) if len(a) > 1 else 0.0
    return m, se


def summary_rows(schedule_key: str, schedule, batches, fields) -> list[dict]:
    """One row per schedule point: the point, the counter-term norm of its
    first trial, and the mean and standard error of each field over its
    batch of trial results."""
    rows = []
    for x, batch in zip(schedule, batches):
        row = {schedule_key: x, "vnorm": batch[0].vNorm}
        for name in fields:
            row[f"{name}_mean"], row[f"{name}_se"] = mean_se([getattr(t, name) for t in batch])
        rows.append(row)
    return rows


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
