"""The msalg benchmark.

    python3 perfbench/run.py --workload battery|relations|transport \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (perfbench/worker.py) with msalg's sources from src/ on
PYTHONPATH and the BLAS/OpenMP pools pinned to one thread; passes follow
one another, one client in a closed loop, until --seconds are used up.

--trace 0 prints the end-to-end metrics: pass_s (median time of one
pass), setup_s (median time for a fresh interpreter to import msalg and
load the workload's algebras), both in reference seconds (calib.py), and
peak_rss_mb.  --trace 1 spends half the
time on untraced passes and half on traced ones, and prints the per-layer
metrics, the tracing overhead and the share of wall time no layer span
covers.  Either way the last line of standard output is one JSON object.
Span files of traced passes are written under .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
from spans import LAYERS, OUTPUTS, TIMED, TIMED_LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
DEADLINE_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, work: str):
        self.workload, self.seed, self.work = workload, seed, work
        self.started = time.monotonic()
        self.env = dict(os.environ, **PINNED)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")

    def child(self, role: str, *extra: str) -> float:
        """Run one worker to completion; return its wall time."""
        left = DEADLINE_S - (time.monotonic() - self.started)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), role,
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        began = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise WorkerError("%s worker passed the %.0f s deadline" % (role, DEADLINE_S))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        took = time.perf_counter() - began
        if proc.returncode != 0:
            raise WorkerError("%s worker exited %d:\n%s%s" % (role, proc.returncode, out, err))
        return took

    def setups(self, repeats: int) -> tuple[list[float], float]:
        """Wall seconds of each set-up, and the factor to reference seconds.

        One set-up is too short to sample speed during it, so the loop is
        timed around every set-up and one factor is taken over all of them.
        """
        walls, samples = [], []
        for _ in range(repeats):
            samples += [calib.loop_time() for _ in range(3)]
            walls.append(self.child("setup"))
        samples += [calib.loop_time() for _ in range(3)]
        return walls, calib.scale(samples)

    def passes(self, trace: int, budget: float, spans_dir: str | None) -> list[dict]:
        """Closed loop of passes until the next one would overrun budget."""
        results = []
        began = time.monotonic()
        while True:
            out = os.path.join(self.work, "pass-%d-%d.json" % (trace, len(results)))
            extra = ["--trace", str(trace), "--out", out]
            if spans_dir:
                extra += ["--spans", os.path.join(spans_dir, "%s-seed%d-pass%d.json" % (
                    self.workload, self.seed, len(results)))]
            self.child("pass", *extra)
            with open(out, encoding="utf-8") as fh:
                results.append(json.load(fh))
            elapsed = time.monotonic() - began
            if elapsed + elapsed / len(results) > budget:
                return results


def _median(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(setup_walls, setup_scale, results):
    return {
        "pass_s": (_median(results, "pass_s"), "s"),
        "setup_s": (statistics.median(setup_walls) * setup_scale, "s"),
        "peak_rss_mb": (_median(results, "peak_rss_mb"), "MB"),
    }


def per_layer(plain, traced):
    """Per-layer metrics from the traced passes, medians over passes."""
    def med(fn):
        return statistics.median(fn(r) for r in traced)

    def count(fn):  # counts repeat from pass to pass; keep them whole numbers
        return statistics.median_low(fn(r) for r in traced)

    def span(r, name, field):
        return r["trace"]["spans"].get(name, {}).get(field, 0)

    out = {}
    for name in TIMED:
        out[name + "_s"] = (med(lambda r: span(r, name, "total_s")), "s")
    for layer in TIMED_LAYERS:
        out[layer + ".self_s"] = (med(lambda r: sum(
            span(r, "%s.%s" % (layer, f), "self_s") for f in LAYERS[layer])), "s")
    for layer, names in LAYERS.items():
        for fname in names:
            name = "%s.%s" % (layer, fname)
            out[name + "_calls"] = (count(lambda r: span(r, name, "calls")), "count")
    for metric, _size in OUTPUTS.values():
        out[metric] = (count(lambda r: r["outputs"].get(metric, 0)), "count")
    out["clone.cache_hits"] = (count(lambda r: r["cache_hits"]), "count")
    out["clone.cache_misses"] = (count(lambda r: r["cache_misses"]), "count")
    out["trace.overhead_s"] = (_median(traced, "pass_s") - _median(plain, "pass_s"), "s")
    out["trace.uncovered_share"] = (
        med(lambda r: 100.0 * (1.0 - r["trace"]["covered_s"] / r["pass_wall_s"])), "%")
    return out


def _print_ops(results):
    """Median over passes of the time each op label took in a pass."""
    totals = {}
    for r in results:
        per_pass = {}
        for label, took in r["ops"]:
            per_pass[label] = per_pass.get(label, 0.0) + took
        for label, took in per_pass.items():
            totals.setdefault(label, []).append(took)
    for label, values in totals.items():
        print("op %s_s: %.4f s wall" % (label, statistics.median(values)))


def _print_spans(traced):
    rows = traced[0]["trace"]["spans"]
    print("spans of traced pass 0 (name, calls, total_s, self_s):")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print("  %-36s %8d %10.4f %10.4f" % (name, row["calls"], row["total_s"], row["self_s"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="msalg benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A terminated run still removes its scratch files and stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "msalg", "__init__.py")):
        print("perfbench: no msalg sources at %s" % os.path.join(ROOT, "src", "msalg"),
              file=sys.stderr)
        return 2
    state = os.path.join(ROOT, ".perfbench")
    work = os.path.join(state, "run-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    spans_dir = os.path.join(state, "traces") if args.trace else None
    os.makedirs(work)
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
    runner = Runner(args.workload, args.seed, work)
    try:
        runner.child("prepare")  # also fills the bytecode cache before set-up is timed
        setup_walls, setup_scale = runner.setups(SETUP_REPEATS)
        if args.trace:
            plain = runner.passes(0, args.seconds / 2, None)
            traced = runner.passes(1, args.seconds / 2, spans_dir)
        else:
            plain, traced = runner.passes(0, args.seconds, None), []
    except WorkerError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = plain + traced
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    digests = sorted({r["digest"] for r in runs})
    print("workload %s seed %d: %d untraced + %d traced passes" % (
        args.workload, args.seed, len(plain), len(traced)))
    print("pass wall s: %s; reference s: %s" % (
        " ".join("%.3f" % r["pass_wall_s"] for r in runs),
        " ".join("%.3f" % r["pass_s"] for r in runs)))
    print("setup wall s: %s; to reference s: x%.3f" % (
        " ".join("%.3f" % w for w in setup_walls), setup_scale))
    print("report digest: %s" % " ".join(digests))
    print("failed_share: %d/%d = %.4f" % (failed, attempted, failed / max(attempted, 1)))
    for r in runs:
        for line in r["failures"][:5]:
            print("FAILED %s" % line)
    _print_ops(plain)
    if args.trace:
        _print_spans(traced)
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(setup_walls, setup_scale, plain)
    for name, (value, unit) in metrics.items():
        print("%s: %r %s" % (name, value, unit))
    correct = failed == 0 and len(digests) == 1 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
