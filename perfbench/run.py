"""Benchmark harness for roughlift: three experiment workloads through the
public CLI path, end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the checkout root is the parent of this directory and
roughlift is imported from its ``src/``.  Each measured CLI run is a fresh
process (``child.py``), started one at a time, with the experiment's
thread pool at POOL_THREADS and BLAS pinned to BLAS_THREADS threads.  The
workload seed becomes the CLI's ``--seed``, so every run in one invocation
must write the same bytes.

--trace 0 repeats untraced CLI runs for about ``--seconds`` and reports the
medians of wall_s (experiment plus emit, after set-up), peak_rss_mb and
setup_s (process start to a parsed, validated config).  --trace 1 repeats
batches of (untraced, traced at POOL_THREADS, traced at 1 thread) and
reports the per-layer metrics.  Every run's outputs are checked; the last
line of standard output is one JSON object with keys correct, attempted,
failed and metrics.  Runs that exit non-zero or fail the output check
count in ``failed`` (failed_frac = failed / attempted) and make ``correct``
false; the metrics still come from every run that exited 0.  Without a
complete batch of such runs there is no result and the exit code is 1.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

POOL_THREADS = 2
BLAS_THREADS = 1
BLAS_ENV = {"OPENBLAS_NUM_THREADS": str(BLAS_THREADS), "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS)}

# Kinds of CLI run, as (threads, traced).
PLAIN = (POOL_THREADS, False)
TRACED = (POOL_THREADS, True)
SERIAL = (1, True)

MIN_RUNS = 3
# A run must end within 180 s: start no CLI run after DEADLINE_S and give
# each at most CLI_TIMEOUT_S past it.
DEADLINE_S = 120.0
CLI_TIMEOUT_S = 40.0

J = [[0.0, -1.0], [1.0, 0.0]]
MAGNETIC = {"experiment": "magnetic", "A": [[1.0, 0.0], [0.0, 1.0]], "B0": J,
            "beta": 0.5, "T": 1.0, "alpha": 0.3, "grid_n": 256}

MAGNETIC_HEADER = ("eps,vnorm,distP_renorm_mean,distP_renorm_se,distP_raw_mean,distP_raw_se,"
                   "distZ_renorm_mean,distZ_renorm_se,distZ_raw_mean,distZ_raw_se,"
                   "areaDev1_mean,areaDev1_se")
LEADLAG_HEADER = ("n,vnorm,dist_renorm_mean,dist_renorm_se,dist_raw_mean,dist_raw_se,"
                  "areaDev1_mean,areaDev1_se")
# The check must pass on every seed: at 3 SE the lead-lag area deviation
# fails on seed 112 (z = +3.12) of seeds 0-299; 4 SE is 2% of the mean.
AREA_SE_BAND = 4.0


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict

    @property
    def kind(self) -> str:
        return self.config["experiment"]


# Why each workload exists, and why its mc_trials, is in NOTES.md.
WORKLOADS = {w.name: w for w in [
    Workload("magnetic-fine", {**MAGNETIC, "eps_schedule": [2.0 ** -7], "mc_trials": 4}),
    Workload("magnetic-coarse", {**MAGNETIC, "eps_schedule": [2.0 ** -2, 2.0 ** -3, 2.0 ** -4],
                                 "mc_trials": 8}),
    Workload("leadlag", {"experiment": "leadlag", "H": 0.4, "alpha": 0.3,
                         "n_schedule": [16, 32, 64, 128, 256, 512, 1024],
                         "n_ref": 4096, "d": 1, "mc_trials": 64}),
]}


# --- output check -------------------------------------------------------------

def check_outputs(workload: Workload, csv_text: str, manifest_text: str) -> list[str]:
    """Problems with one run's results.csv / manifest.json; empty if none.

    Checks only what holds on every seed: the fixed header, one finite row
    per schedule point, renormalised below raw distance on every row, and
    the raw area deviation against its closed form where the Monte Carlo
    error allows (magnetic: T |v| within 15% at the smallest eps; lead-lag:
    n^{1-2H}/2 within AREA_SE_BAND SE at the largest n).  No digest of the
    bytes, since a faster kernel may move outputs at 1e-12 relative.
    """
    cfg = workload.config
    lines = csv_text.splitlines()
    header = MAGNETIC_HEADER if workload.kind == "magnetic" else LEADLAG_HEADER
    if not lines or lines[0] != header:
        return [f"results.csv header is {lines[:1]!r}"]
    cols = header.split(",")
    try:
        rows = [dict(zip(cols, map(float, line.split(",")), strict=True)) for line in lines[1:]]
    except ValueError as e:
        return [f"results.csv row does not parse: {e}"]
    schedule = cfg["eps_schedule"] if workload.kind == "magnetic" else cfg["n_schedule"]
    key = cols[0]
    if [r[key] for r in rows] != [float(x) for x in schedule]:
        return [f"results.csv {key} column is not the schedule {schedule}"]
    problems = [f"non-finite {c} at {key} = {r[key]:g}"
                for r in rows for c in cols if not math.isfinite(r[c])]
    pairs = ([("distP_renorm_mean", "distP_raw_mean"), ("distZ_renorm_mean", "distZ_raw_mean")]
             if workload.kind == "magnetic" else [("dist_renorm_mean", "dist_raw_mean")])
    problems += [f"{ren} >= {raw} at {key} = {r[key]:g}"
                 for r in rows for ren, raw in pairs if not r[ren] < r[raw]]
    last = rows[-1]
    if workload.kind == "magnetic":
        target = cfg["T"] * last["vnorm"]
        if not abs(last["areaDev1_mean"] - target) <= 0.15 * target:
            problems.append(f"areaDev1 {last['areaDev1_mean']:g} not within 15% of "
                            f"T|v| = {target:g} at eps = {last['eps']:g}")
    else:
        target = last["n"] ** (1.0 - 2.0 * cfg["H"]) / 2.0
        if not abs(last["areaDev1_mean"] - target) <= AREA_SE_BAND * last["areaDev1_se"]:
            problems.append(f"areaDev1 {last['areaDev1_mean']:g} not within {AREA_SE_BAND:g} SE "
                            f"({last['areaDev1_se']:g}) of n^(1-2H)/2 = {target:g}")
    try:
        manifest = json.loads(manifest_text)
    except ValueError as e:
        return problems + [f"manifest.json does not parse: {e}"]
    if manifest.get("experiment") != workload.kind or len(manifest.get("rows", ())) != len(rows):
        problems.append("manifest.json does not describe these results")
    return problems


# --- one CLI run in a fresh process ---------------------------------------

@dataclass
class CliRun:
    threads: int
    traced: bool
    batch: int
    problems: list
    wall_s: float = math.nan
    setup_s: float = math.nan
    import_s: float = math.nan
    parse_config_s: float = math.nan
    peak_rss_mb: float = math.nan
    outputs: tuple = ()
    spans: list | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def measured(self) -> bool:
        """Exited 0 and reported its timings, whatever the output check said."""
        return not math.isnan(self.wall_s)

    @property
    def kind(self) -> tuple:
        return self.threads, self.traced


class Harness:
    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.runs: list[CliRun] = []
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config))
        self.env = {**os.environ, **BLAS_ENV,
                    "PYTHONPATH": os.pathsep.join(
                        [str(ROOT / "src")]
                        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}

    def launch(self, threads: int, traced: bool, batch: int) -> CliRun:
        out = self.work / f"out{len(self.runs)}"
        argv = [sys.executable, str(HERE / "child.py"), "1" if traced else "0",
                self.workload.kind, "--config", str(self.config_path), "--out", str(out),
                "--seed", str(self.seed), "--threads", str(threads)]
        run = CliRun(threads, traced, batch, [])
        self.runs.append(run)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=self.deadline + CLI_TIMEOUT_S - spawned)
        except subprocess.TimeoutExpired:
            run.problems.append("CLI run timed out")
            return run
        try:
            rec = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            rec = None
        if proc.returncode != 0 or rec is None or rec["exit"] != 0:
            run.problems.append(f"CLI run failed (exit {rec['exit'] if rec else proc.returncode}): "
                                f"{proc.stderr.strip()[-400:]}")
            return run
        run.setup_s = rec["parsed"] - spawned
        run.wall_s = rec["end"] - rec["parsed"]
        run.import_s = rec["imported"] - rec["import_start"]
        run.parse_config_s = rec["parsed"] - rec["parse_start"]
        run.peak_rss_mb = rec["maxrss_kb"] / 1024.0
        run.spans = rec["spans"]
        run.outputs = ((out / "results.csv").read_bytes(), (out / "manifest.json").read_bytes())
        run.problems += check_outputs(self.workload, run.outputs[0].decode(),
                                      run.outputs[1].decode())
        shutil.rmtree(out)
        return run

    def repeat(self, seconds: float, batch):
        """Run ``batch`` (a list of (threads, traced)) at least once, and
        again while another batch fits in ``seconds``."""
        start = time.monotonic()
        for index in itertools.count():
            t0 = time.monotonic()
            for threads, traced in batch:
                self.launch(threads, traced, index)
            now = time.monotonic()
            enough = len(self.runs) >= MIN_RUNS
            if now >= self.deadline or (enough and now - start + (now - t0) > seconds):
                return

    def consistency_problems(self) -> list[str]:
        """Every run of one seed must write the same bytes, whatever its
        thread count or tracing; traced runs must repeat their exact counts."""
        problems = []
        ok = [r for r in self.runs if r.ok]
        if any(r.outputs != ok[0].outputs for r in ok[1:]):
            problems.append("results.csv/manifest.json bytes differ between runs "
                            "(thread count or tracing changed the output)")
        counts = [tracing.exact_counts(r.spans) for r in ok if r.spans is not None]
        if any(c != counts[0] for c in counts[1:]):
            problems.append("exact counts differ between traced runs")
        for r in ok:
            if r.spans is not None:
                frac = tracing.layer_metrics(r.spans)["trace.accounted_frac"]
                if abs(frac - 1.0) > 1e-6:
                    problems.append(f"span self times cover {frac:.6f} of trial wall time")
        return problems


# --- metrics ---------------------------------------------------------------------

def end_to_end(runs: list[CliRun]) -> dict:
    return {"wall_s": {"value": median(r.wall_s for r in runs), "unit": "s"},
            "peak_rss_mb": {"value": median(r.peak_rss_mb for r in runs), "unit": "MB"},
            "setup_s": {"value": median(r.setup_s for r in runs), "unit": "s"}}


def by_batch(runs: list[CliRun]) -> list[dict]:
    """Runs grouped by batch, each batch as {kind: run}."""
    batches: dict[int, dict] = {}
    for r in runs:
        batches.setdefault(r.batch, {})[r.kind] = r
    return list(batches.values())


def paired_ratio(runs: list[CliRun], num: tuple, den: tuple) -> float:
    """Median over batches of the wall-time ratio of two runs of one batch;
    runs made back to back share the host's speed, so the ratio is steadier
    than a ratio of medians."""
    return median(b[num].wall_s / b[den].wall_s for b in by_batch(runs)
                  if num in b and den in b)


def per_layer(runs: list[CliRun], units: dict) -> dict:
    traced = [r for r in runs if r.kind == TRACED]
    per_run = [tracing.layer_metrics(r.spans) for r in traced]
    values = {name: median(m[name] for m in per_run) for name in per_run[0]}
    for kind in ("magnetic", "leadlag"):
        durations = [d for r in traced for d in tracing.trial_durations(r.spans, kind)]
        pct, tail_s, n = tracing.tail(durations)
        values[f"{kind}.trial.p50_ms"] = 1e3 * median(durations) if durations else 0.0
        values[f"{kind}.trial.tail_ms"] = 1e3 * tail_s
        values[f"{kind}.trial.tail_pct"] = pct
        values[f"{kind}.trial.samples"] = n
    values["pool.thread_speedup"] = paired_ratio(runs, SERIAL, TRACED)
    values["trace.overhead_frac"] = paired_ratio(runs, TRACED, PLAIN) - 1.0
    values["cli.import_s"] = median(r.import_s for r in runs)
    values["cli.parse_config_s"] = median(r.parse_config_s for r in runs)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def machine_record() -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(index / "size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_model": cpu, **caches,
            "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2 ** 30, 2),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": BLAS_THREADS, "pool_threads": POOL_THREADS,
            "pool_x_blas_within_nproc": POOL_THREADS * BLAS_THREADS <= (os.cpu_count() or 1)}


def declared_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roughlift" / "cli.py").is_file():
        print(f"no roughlift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    kinds = [PLAIN, TRACED, SERIAL] if args.trace else [PLAIN]
    os.environ.update(BLAS_ENV)
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        harness = Harness(WORKLOADS[args.workload], args.seed, work, started + DEADLINE_S)
        harness.repeat(args.seconds, kinds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = harness.runs
    failed = [r for r in runs if not r.ok]
    for r in failed:
        print(f"failed run (threads {r.threads}, traced {r.traced}): {'; '.join(r.problems)}",
              file=sys.stderr)
    measured = [r for r in runs if r.measured]
    if not any(set(b) >= set(kinds) for b in by_batch(measured)):
        print("no complete batch of runs to measure", file=sys.stderr)
        return 1
    problems = harness.consistency_problems()
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(measured, declared_units("per_layer"))
    else:
        metrics = end_to_end(measured)

    print("machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} CLI runs, "
          f"failed_frac = {len(failed)}/{len(runs)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed and not problems, "attempted": len(runs),
                      "failed": len(failed), "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
