"""Benchmark of the ``alpha-games`` subcommands.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload (see ``workloads.py``) for about S seconds.
Each round runs one subcommand through ``alphagames.app.run`` in a
fresh single-threaded process (``child.py``) and checks its outputs.
With ``--trace 0`` the last stdout line reports the end-to-end
metrics, each the median over the rounds; with ``--trace 1`` rounds
alternate untraced and traced, and it reports the per-layer metrics
of the traced rounds plus the tracing overhead.  Run from the root of
a source checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# a round still running this long after the run started is killed and
# counts as failed, so that a run ends within 180 s
DEADLINE_S = 150.0

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # the hash seed sets dict and set layouts, which move the peak RSS of
    # a round by about 3 MiB between processes
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(name, subcommand, config, check, traced, deadline):
    """One subcommand run in a fresh process.  Returns (timings, errors,
    layer metrics); timings is None when the round failed to produce a
    result."""
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config = dict(config, out=str(out / "result"))
    config_path = out / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    spans_path = out / "spans.json"
    cmd = [sys.executable, str(BENCH / "child.py"), subcommand,
           str(config_path), repr(time.monotonic())]
    if traced:
        cmd.append(str(spans_path))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"[{name}] round timed out", file=sys.stderr)
        return None, [], None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"[{name}] round failed with exit code {proc.returncode}:\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None, [], None
    timings = json.loads(lines[-1])
    try:
        errors = check(out / "result", proc.returncode)
    except (OSError, KeyError, ValueError) as e:
        errors = [f"unreadable output: {e!r}"]
    layers = None
    if traced:
        layers = layer_metrics(json.loads(spans_path.read_text()))
        layers["app.cpu_s"] = timings["cpu_s"]
    return timings, errors, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "alphagames" / "__init__.py").is_file():
        print(f"no alphagames sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    subcommand, make_config, check = WORKLOADS[args.workload]
    config = make_config(args.seed)

    start = time.monotonic()
    deadline = start + DEADLINE_S
    plain, traced, errors = [], [], []
    attempted = failed = 0
    while True:
        for is_traced in ((False, True) if args.trace else (False,)):
            attempted += 1
            timings, errs, layers = run_round(
                args.workload, subcommand, config, check, is_traced,
                deadline)
            if timings is None:
                failed += 1
                continue
            errors.extend(errs)
            (traced if is_traced else plain).append((timings, layers))
            print(f"[{args.workload}] round {attempted}"
                  f"{' traced' if is_traced else ''}: "
                  f"run_s {timings['run_s']:.3f}, "
                  f"setup_s {timings['setup_s']:.3f}, "
                  f"peak_rss_mib {timings['peak_rss_mib']:.1f}",
                  file=sys.stderr)
        if time.monotonic() - start >= args.seconds or failed:
            break

    for e in errors:
        print(f"[{args.workload}] check failed: {e}", file=sys.stderr)
    metrics = {}
    if args.trace and plain and traced:
        for key in traced[0][1]:
            metrics[key] = statistics.median(l[key] for _, l in traced)
        metrics["trace.overhead_s"] = (
            statistics.median(t["run_s"] for t, _ in traced)
            - statistics.median(t["run_s"] for t, _ in plain))
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in metrics.items()}
    elif not args.trace and plain:
        metrics = {k: {"value": statistics.median(t[k] for t, _ in plain),
                       "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
    for k, m in metrics.items():
        print(f"{args.workload}  {k:36s} {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
