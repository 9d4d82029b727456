"""phaseinfo benchmark: time to solution on three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mc_bounds --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --smoke

A run imports phaseinfo from ``src/`` of the checkout it sits in, times
whole passes over the workload's fixed op list until the next pass would
overrun ``--seconds`` (at least one pass), checks every op's result, and
prints two JSON lines on stdout: the details of the run (environment,
quartiles, sample counts, error rate, failure messages), then the result
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` the run spends half its time untraced and half traced, and
the metrics are the per-layer ones.  Spans and the details are also written
under ``.perfbench/`` in the checkout.

An op fails when it raises or when a check rejects its result.  A result is
``correct`` when no check rejected a returned result and no op raised
anything but a refusal its workload declares in ``expected_failures``.  The
exit code is 0 for a correct run, 1 otherwise, and 2 when the package
cannot be imported from the checkout.

``--smoke`` runs every workload at a tiny size, traced and untraced, and
checks that every metric of BENCHMARK.json is printed with its unit; that
in each traced pass no self time and no unattributed remainder is negative,
and that together they add up to the pass's wall time; that the counts of
the layers a workload exercises are positive and those of the layers it
bypasses are zero; and that the counts repeat between two traced passes.
"""

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Interpreter start-ups per run that `setup_s` takes the median of.
SETUP_REPEATS = 15


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def import_package():
    """Import phaseinfo from this checkout's src/; exit 2 if it is not there."""
    package = SRC / "phaseinfo"
    if not (package / "__init__.py").is_file():
        print("error: %s not found; run from a phaseinfo checkout" % package, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import phaseinfo

    if Path(phaseinfo.__file__).resolve().parent != package.resolve():
        print("error: phaseinfo imported from %s" % phaseinfo.__file__, file=sys.stderr)
        sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("mc_bounds", "optimize_sweep", "posterior_stream"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-test of every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (args.smoke or args.workload):
        parser.error("--workload is required")
    return args


# --- environment -----------------------------------------------------------


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "phaseinfo").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ
        },
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


# --- measuring -------------------------------------------------------------


def time_setup(name, seed):
    """Wall time of a fresh interpreter that imports phaseinfo and builds
    the workload's inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", name]
    cmd += ["--seed", str(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def setup_only(name, seed):
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workloads.build(name, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class Measurement:
    """Wall times, op latencies and failures of the passes run so far."""

    def __init__(self):
        self.walls = []
        self.latencies = []
        self.layers = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.failures = Counter()
        # Read after the first pass, before any check has run.
        self.peak_rss_mb = None


def expected_failure(workload, name, exc):
    kind, text = workload.expected_failures.get(name, (None, None))
    return kind is not None and isinstance(exc, kind) and text in str(exc)


def run_passes(workload, api, budget, into, tags, tracer=None, min_passes=1):
    """Run whole passes until the next one would overrun ``budget`` seconds."""
    start = time.perf_counter()
    longest = 0.0
    done = 0
    while True:
        tag = next(tags)
        ops = workload.ops(tag)
        results = [None] * len(ops)
        raised = {}
        latencies = []
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.active = True
        t0 = time.perf_counter()
        for i, (name, call) in enumerate(ops):
            if tracer:
                tracer.op = (tag, i)
            a = time.perf_counter()
            try:
                results[i] = call(api)
            except Exception as exc:
                raised[i] = exc
            latencies.append(time.perf_counter() - a)
        wall = time.perf_counter() - t0
        if tracer:
            tracer.active = False
            into.layers.append(tracer.pass_metrics(first_span, wall))
        if into.peak_rss_mb is None:
            into.peak_rss_mb = peak_rss_mb()
        verdicts = workload.check(tag, results)
        for i, (name, _) in enumerate(ops):
            if i in raised:
                exc = raised.pop(i)
                into.incorrect += not expected_failure(workload, name, exc)
                message = "%s: %s: %s" % (name, type(exc).__name__, exc)
            elif verdicts[i] is not None:
                into.incorrect += 1
                message = "%s: %s" % (name, verdicts[i])
            else:
                continue
            into.failed += 1
            into.failures[message] += 1
        into.attempted += len(ops)
        into.walls.append(wall)
        into.latencies.append(latencies)
        done += 1
        longest = max(longest, wall)
        if done >= min_passes and time.perf_counter() - start + longest > budget:
            return


def quartiles(values):
    """Quartiles of the pass walls; None for a single pass, which has none."""
    if len(values) < 2:
        return None
    return statistics.quantiles(values, n=4, method="inclusive")


def op_percentiles(latencies):
    """Median over passes of each pass's p50 and p90 op latency, in ms."""
    p50 = [statistics.median(lat) for lat in latencies]
    p90 = [statistics.quantiles(lat, n=10, method="inclusive")[8] for lat in latencies]
    return 1e3 * statistics.median(p50), 1e3 * statistics.median(p90)


def run(name, seed, seconds, trace, smoke=False):
    """One benchmark run; returns (details, result)."""
    import workloads

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup = [time_setup(name, seed) for _ in range(1 if smoke else SETUP_REPEATS)]
        workload = workloads.build(name, seed, workdir, smoke)
        tags = itertools.count()
        plain = Measurement()
        if not trace:
            run_passes(workload, workloads.plain_api(), seconds, plain, tags)
            measured = plain
        else:
            import tracing

            run_passes(workload, workloads.plain_api(), seconds / 2, plain, tags)
            tracer = tracing.Tracer()
            traced = Measurement()
            api = tracer.install(workloads.PUBLIC)
            try:
                run_passes(
                    workload, api, seconds / 2, traced, tags, tracer, min_passes=2 if smoke else 1
                )
            finally:
                tracer.uninstall()
            measured = traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = plain.attempted + (traced.attempted if trace else 0)
    failed = plain.failed + (traced.failed if trace else 0)
    incorrect = plain.incorrect + (traced.incorrect if trace else 0)
    failures = plain.failures + (traced.failures if trace else Counter())
    solve = statistics.median(measured.walls)
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "solve_s": {
            "value": solve,
            "unit": "s",
            "quartiles": quartiles(measured.walls),
            "passes": len(measured.walls),
        },
        "setup_s": {"value": statistics.median(setup), "unit": "s", "runs": setup},
        "error_rate": {"value": failed / attempted, "unit": "failed/attempted"},
        "failures": dict(failures),
    }
    if not trace:
        p50, p90 = op_percentiles(measured.latencies)
        samples = sum(len(lat) for lat in measured.latencies)
        details["op_p50_ms"] = {"value": p50, "unit": "ms", "samples": samples}
        details["op_p90_ms"] = {"value": p90, "unit": "ms", "samples": samples}
        details["peak_rss_mb"] = {"value": plain.peak_rss_mb, "unit": "MB"}
        values = {
            k: details[k]["value"]
            for k in ("solve_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb")
        }
        wanted = spec["end_to_end"]
    else:
        layers = measured.layers
        values = dict(layers[0])
        for key in values:
            if key.endswith("_s"):
                values[key] = statistics.median(p[key] for p in layers)
        values["trace.overhead"] = solve / statistics.median(plain.walls) - 1.0
        details["untraced_solve_s"] = {
            "value": statistics.median(plain.walls),
            "unit": "s",
            "passes": len(plain.walls),
        }
        details["layers_per_pass"] = layers
        details["counts_repeat"] = all(
            p[k] == layers[0][k] for p in layers for k in layers[0] if not k.endswith("_s")
        )
        wanted = spec["per_layer"]
        spans_path = OUT / ("spans-%s-seed%d.jsonl" % (name, seed))
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / ("result-%s-seed%d-trace%d.json" % (name, seed, trace)), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1)
    return details, result


# --- smoke -----------------------------------------------------------------


def smoke():
    """Tiny run of every workload; returns the list of problems found."""
    import workloads

    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for name in workloads.NAMES:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            details, result = run(name, 0, 0.5, trace, smoke=True)
            where = "%s --trace %d" % (name, trace)
            if not result["correct"]:
                problems.append("%s: incorrect: %s" % (where, details["failures"]))
            for m in spec[kind]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    problems.append("%s: metric %s missing or without unit %s" % (where, m["name"], m["unit"]))
            if set(result["metrics"]) != {m["name"] for m in spec[kind]}:
                problems.append("%s: metrics other than those of BENCHMARK.json" % where)
            if trace:
                for layers in details["layers_per_pass"]:
                    parts = [k for k in layers if k.endswith("self_s")] + ["unattributed_s"]
                    negative = [k for k in parts if layers[k] < -1e-9]
                    if negative:
                        problems.append("%s: negative %s" % (where, ", ".join(negative)))
                    wall = sum(layers[k] for k in parts)
                    if abs(wall - layers["wall_s"]) > 1e-6 * layers["wall_s"] + 1e-9:
                        problems.append("%s: self times do not add up to the wall time" % where)
                    kind = workloads.KINDS[name]
                    for k in kind.exercised_counts:
                        if not layers[k] > 0:
                            problems.append("%s: %s is %r, expected positive" % (where, k, layers[k]))
                    for k in kind.bypassed_counts:
                        if layers[k] != 0:
                            problems.append("%s: %s is %r, expected 0" % (where, k, layers[k]))
                if not details["counts_repeat"]:
                    problems.append("%s: counts differ between traced passes" % where)
            print("smoke %s: %d ops, %d failed" % (where, result["attempted"], result["failed"]))
    return problems


def main(argv=None):
    args = parse_args(argv)
    import_package()
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    if args.smoke:
        problems = smoke()
        for p in problems:
            print("smoke: " + p, file=sys.stderr)
        print("smoke: %s" % ("FAILED" if problems else "ok"))
        return 1 if problems else 0
    details, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
