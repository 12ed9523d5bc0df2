"""roprec benchmark runner.

    python3 bench/run.py --workload {equality,noisy} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --workload all      # every workload, both modes

Drives the roprec CLI in this process through ``roprec.cli.main(argv)``,
imported from ``src/`` next to this directory.  The workloads are defined
in workloads.py and documented, with every metric, in README.md.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of the traced ones plus the tracing overhead.  Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record
(environment, per-cycle times, output digests) is written under
``bench/out/``.

The runner sets no BLAS or OpenMP thread variable: the library's default
threading is part of what is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
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

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

import tracing  # noqa: E402  (stdlib only at import time)
import workloads  # noqa: E402

SETUP_PROBES = {"full": 5, "tiny": 2}
# Raised by roprec for a solve or size it cannot handle: the invocation is
# counted as failed.  Any other exception, or a nonzero exit, also makes
# the run incorrect, since the inputs are valid.
KNOWN_FAILURES = ("SolverError", "ResourceError", "SvdError", "ConditionViolated")
UNITS = {
    "trials_per_s": "trials/s", "cpu_s": "s/trial", "setup_s": "s",
    "peak_rss_mb": "MiB", "success_rate": "ratio", "completed_ratio": "ratio",
}


def load_roprec():
    """Import roprec from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, SRC)
    try:
        import roprec.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import roprec from {SRC}: {exc}")
    if not os.path.abspath(roprec.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported roprec from {roprec.cli.__file__}, not {SRC}")
    return roprec.cli


# ---------------------------------------------------------------------------
# Environment.


def _openblas_libraries() -> list:
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if os.path.isfile(p))


def blas_info() -> list:
    """Thread count and build string of each OpenBLAS that numpy/scipy loaded."""
    import ctypes

    found = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode(),
                             symbol=threads.__name__)
                break
            if "threads" in entry:
                break
        found.append(entry)
    return found


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Set-up time: import plus input generation, each in a fresh interpreter.


def setup_probe(args) -> None:
    start = time.perf_counter()
    load_roprec()
    workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
    try:
        workloads.WORKLOADS[args.workload](workdir, args.seed, args.size)
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> list:
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES[args.size]):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# Cycles.


def _cpu() -> float:
    """User plus system seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_cycle(cli, steps, workdir, tracer=None) -> dict:
    """Run every step once through cli.main; then check and digest outputs."""
    for step in steps:
        for path in step.outputs:
            if os.path.exists(path):
                os.remove(path)
    records = []
    for i, step in enumerate(steps):
        if tracer is not None:
            tracer.request = i
        error = None
        stderr = io.StringIO()
        c0, t0 = _cpu(), time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                rc = cli.main(list(step.argv))
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # noqa: BLE001 -- counted, the run goes on
            rc, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"wall": time.perf_counter() - t0, "cpu": _cpu() - c0,
                        "rc": rc, "error": error or stderr.getvalue().strip() or None})

    cycle = {"wall": sum(r["wall"] for r in records),
             "cpu": sum(r["cpu"] for r in records),
             "solves": sum(s.solves for s in steps), "invocations": len(steps),
             "failed": 0, "successes": 0, "judged": 0, "problems": [],
             "digests": {}, "steps": []}
    for step, rec in zip(steps, records):
        entry = {"label": step.label, "wall": rec["wall"], "cpu": rec["cpu"],
                 "rc": rec["rc"], "error": rec["error"]}
        if rec["rc"] != 0:
            cycle["failed"] += 1
            known = rec["error"] and rec["error"].split(":")[0] in KNOWN_FAILURES
            if not known:
                cycle["problems"].append(f"{step.label}: rc={rec['rc']} {rec['error']}")
        else:
            try:
                successes, judged, detail = step.check(step)
                cycle["successes"] += successes
                cycle["judged"] += judged
                entry["detail"] = detail
            except (workloads.CheckError, ValueError, KeyError, TypeError) as exc:
                cycle["problems"].append(f"{step.label}: {exc}")
            for path in step.outputs:
                if os.path.exists(path):
                    cycle["digests"][os.path.relpath(path, workdir)] = _sha256(path)
                else:
                    cycle["problems"].append(f"{step.label}: {path} not written")
        cycle["steps"].append(entry)
    return cycle


def typical_cycle(steps, cycles, field: str) -> float:
    """Sum over a cycle's steps of the median of their kind's samples.

    Every sample of a kind, over all instances and cycles, enters one
    median, so neither a slow second of the machine nor one costly instance
    moves the figure much.
    """
    samples = {}
    for cycle in cycles:
        for step, entry in zip(steps, cycle["steps"]):
            samples.setdefault(step.kind, []).append(entry[field])
    median = {kind: statistics.median(values) for kind, values in samples.items()}
    return sum(median[step.kind] for step in steps)


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for base in (os.path.join(SRC, "roprec"), BENCH_DIR):
        for name in sorted(os.listdir(base)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(base, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def check_stored_digests(key: str, digests: dict) -> list:
    """Compare with the digests an earlier run of the same code and seed wrote."""
    path = os.path.join(OUT_DIR, "digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    if key in store:
        if store[key] != digests:
            changed = sorted(k for k in set(store[key]) | set(digests)
                             if store[key].get(k) != digests.get(k))
            return [f"output digests differ from an earlier run of the same code "
                    f"and seed: {changed}"]
        return []
    store[key] = digests
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return []


# ---------------------------------------------------------------------------
# One workload.


def run_workload(args) -> dict:
    setup_times = measure_setup(args)
    cli = load_roprec()
    env = environment(args)
    build = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        steps = build(workdir, args.seed, args.size)
        warm_dir = os.path.join(workdir, "warmup")
        os.mkdir(warm_dir)
        run_cycle(cli, build(warm_dir, args.seed, "tiny"), warm_dir)

        plain, traced, layer_cycles = [], [], []
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        # Stop when one more cycle would overrun --seconds by more than half a
        # cycle, so a run lasts about --seconds however long its cycles are.
        while not plain or (time.perf_counter() - start) * (1 + 0.5 / len(plain)) \
                < args.seconds:
            plain.append(run_cycle(cli, steps, workdir))
            if tracer is not None:
                tracer.reset()
                with tracer:
                    traced.append(run_cycle(cli, steps, workdir, tracer))
                layer_cycles.append(tracing.layer_metrics(tracer.summary()))
        spans = tracer.spans if tracer is not None else []
        probe = None
        if args.trace and args.workload in workloads.PROBES:
            probe_dir = os.path.join(workdir, "probe")
            os.mkdir(probe_dir)
            probe = run_cycle(cli, workloads.PROBES[args.workload](
                probe_dir, args.seed, args.size), probe_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    cycles = plain + traced
    problems = sorted({p for c in cycles for p in c["problems"]})
    first = cycles[0]
    for c in cycles[1:]:
        if c["digests"] != first["digests"]:
            problems.append("output digests differ between cycles of one run")
            break
    key = ":".join([code_fingerprint(), args.workload, args.size, str(args.seed),
                    json.dumps(env["blas"], sort_keys=True)])
    problems += check_stored_digests(key, first["digests"])
    if probe is not None:
        problems += probe["problems"]
        problems += check_stored_digests(key + ":probe", probe["digests"])

    if args.trace:
        metrics = {name: statistics.fmean(c[name] for c in layer_cycles)
                   for name in layer_cycles[0]}
        metrics["trace.wall_s"] = statistics.median(c["wall"] for c in traced)
        metrics["trace.overhead_s"] = statistics.median(
            t["wall"] - p["wall"] for p, t in zip(plain, traced))
        # Solves of the known-defect probe that raised; it runs outside the
        # cycles, so its failures are reported here and not in `failed`.
        metrics["known_defect.solver_errors"] = probe["failed"] if probe else 0
    else:
        solves = first["solves"]
        metrics = {
            "trials_per_s": solves / typical_cycle(steps, plain, "wall"),
            "cpu_s": typical_cycle(steps, plain, "cpu") / solves,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": first["successes"] / first["judged"] if first["judged"] else 0.0,
            "completed_ratio": 1.0 - sum(c["failed"] for c in cycles)
                               / sum(c["invocations"] for c in cycles),
        }
    result = {
        "correct": not problems,
        "attempted": sum(c["invocations"] for c in cycles),
        "failed": sum(c["failed"] for c in cycles),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    record = {"environment": env, "result": result, "problems": problems,
              "setup_s": setup_times, "digests": first["digests"],
              "cycles": [{k: c[k] for k in ("wall", "cpu", "solves", "failed", "steps")}
                         for c in plain],
              "traced_cycles": [{k: c[k] for k in ("wall", "cpu", "steps")} for c in traced],
              "layer_cycles": layer_cycles,
              "probe": probe and {k: probe[k] for k in ("failed", "steps", "digests")}}
    write_record(args, record, spans)
    return result


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    last = name.rsplit(".", 1)[-1]
    if last == "s_per_iter":
        return "s/iter"
    if last in ("s", "self_s", "wall_s", "overhead_s"):
        return "s"
    if last.endswith("ratio"):
        return "ratio"
    if last.startswith("bytes"):
        return "bytes"
    return "count"


def write_record(args, record: dict, spans: list) -> None:
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                 f"-{stamp}-{os.getpid()}")
    with open(base + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if spans:
        # The last traced cycle: name, start, end, parent index, request.
        with open(base + ".spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def print_result(workload: str, result: dict) -> None:
    status = "ok" if result["correct"] else "INCORRECT"
    print(f"# {workload}: {status}, {result['failed']} of {result['attempted']} "
          f"invocations failed")
    for name, m in result["metrics"].items():
        print(f"{workload:<9} {name:<42} {m['value']:>14.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in a fresh interpreter, untraced then traced."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--size", args.size]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(f"error: {name} trace={trace} failed: {done.stderr.strip()}")
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "roprec")):
        raise SystemExit(f"error: no roprec sources under {SRC}")
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
