"""One fresh interpreter of the benchmark: prepares inputs, sets up, or runs one pass.

    worker.py prepare --workload W --seed N
    worker.py setup   --workload W
    worker.py pass    --workload W --trace 0|1 --out RESULT.json [--spans SPANS.json]

run.py starts it with msalg's sources on PYTHONPATH and the working
directory set to the run's input directory, so reports name the input
files by basename only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time

import calib
import gen
from workloads import BATTERY, MUST_PASS, SEEDED


def _inputs():
    return sorted(n for n in os.listdir(".") if n.endswith(".alg"))


def _load(msalg, workload):
    """What set-up loads: the corpus for battery, the generated files otherwise."""
    if workload == "battery":
        return [msalg.corpus_algebra(n) for n in msalg.corpus_names()]
    return [msalg.load_algebra(n) for n in _inputs()]


def _battery_pass(tracer, result):
    from msalg import suite
    fns = {index: (name, fn) for index, name, fn in suite.CRITERIA}
    digest = hashlib.sha256()
    for index, want_ok, want_detail in BATTERY:
        name, fn = fns[index]
        label = "suite.c%d" % index
        began = time.perf_counter()
        try:
            with tracer.span(label) if tracer else contextlib.nullcontext():
                ok, detail = fn()
        except Exception as exc:  # a raising criterion is a failed op
            ok, detail = None, "raised %s: %s" % (type(exc).__name__, exc)
        result["ops"].append([label, time.perf_counter() - began])
        result["attempted"] += 1
        line = "criterion %d %s: %s (%s)\n" % (index, name, "pass" if ok else "FAIL", detail)
        digest.update(line.encode())
        if (ok, detail) != (want_ok, want_detail):
            result["failed"] += 1
            result["failures"].append("c%d: got %r %r" % (index, ok, detail))
    return digest.hexdigest()


def _seeded_pass(workload, tracer, result):
    from msalg import cli
    commands, _count = SEEDED[workload]
    digest = hashlib.sha256()
    for alg in _inputs():
        for command in commands:
            argv = [a.format(alg=alg) for a in command] + ["--deterministic-timing"]
            out, err = io.StringIO(), io.StringIO()
            began = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        (tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()):
                    try:
                        rc = cli.main(argv)
                    except SystemExit as exc:  # argparse rejects a command line
                        rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:
                rc, err = None, io.StringIO("raised %s: %s" % (type(exc).__name__, exc))
            result["ops"].append(["cli." + argv[0], time.perf_counter() - began])
            result["attempted"] += 1
            digest.update(("%s\nexit %s\n%s" % (" ".join(argv), rc, out.getvalue())).encode())
            allowed = (0,) if argv[0] in MUST_PASS else (0, 1)
            if rc not in allowed:
                result["failed"] += 1
                result["failures"].append("%s: exit %s %s" % (
                    " ".join(argv), rc, err.getvalue().strip()[-200:]))
    return digest.hexdigest()


def _run_pass(args):
    import msalg
    import msalg.cli
    import msalg.suite  # bound before install() so their imports get wrapped too
    _load(msalg, args.workload)
    tracer = None
    if args.trace:
        from spans import Tracer, summarize
        tracer = Tracer()
        tracer.install()
    from msalg import clone
    cache_before = clone._closure_full.cache_info()
    result = {"attempted": 0, "failed": 0, "failures": [], "ops": []}
    started = time.perf_counter()
    with calib.Sampler() as sampler:
        if args.workload == "battery":
            result["digest"] = _battery_pass(tracer, result)
        else:
            result["digest"] = _seeded_pass(args.workload, tracer, result)
    result["pass_wall_s"] = time.perf_counter() - started
    result["pass_s"] = (result["pass_wall_s"] - sampler.spent_s) * calib.scale(sampler.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = clone._closure_full.cache_info()
    result["cache_hits"] = cache.hits - cache_before.hits
    result["cache_misses"] = cache.misses - cache_before.misses
    if tracer:
        result["trace"] = summarize(tracer.spans)
        result["outputs"] = tracer.outputs
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([[n, s - started, e - started, p, op]
                           for n, s, e, p, op in tracer.spans], fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("role", choices=("prepare", "setup", "pass"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--spans")
    args = p.parse_args()
    if args.role == "prepare":
        import msalg
        if args.workload in SEEDED:
            gen.write_algebras(msalg, args.seed, SEEDED[args.workload][1], ".")
    elif args.role == "setup":
        import msalg
        _load(msalg, args.workload)
    else:
        _run_pass(args)


if __name__ == "__main__":
    main()
