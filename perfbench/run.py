#!/usr/bin/env python3
"""Benchmark of qwb, run from the root of a source checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): solve, detect, resources, verify.

--trace 0 runs one operation of the workload as a warm-up, then times its
calls into qwb back to back for --seconds and reports the end-to-end
metrics: set-up time, op_ref and the process's peak RSS.  op_ref is the
length of one operation in units of a fixed reference computation sampled
during each call (reference.py), which cancels most of the drift in the
speed of a shared host: each call's seconds, less the sampling's own time,
are divided by the mean seconds per reference unit sampled during it, and
the medians per part of an operation are summed.  The same sum of raw
seconds is printed beside it.  Set-up is repeated SETUPS times, spread
through the run, each timed between two blocks of reference units, and
reported as the median in seconds on a CPU where one unit takes REF_UNIT_S;
the raw median is printed beside it.

--trace 1 runs operation 0 as a warm-up, once untraced and once with qwb's
layer boundaries wrapped (spans.py), replays its simulator calls gate by
gate, and reports the per-layer metrics plus the tracing overhead.  Spans
are written to .perfbench_out/.

Each call's output is checked by the benchmark's own code; a failed check
counts as a failed call and the run goes on.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

import os

# Before numpy is imported: one BLAS/OpenMP thread, so a run's time and
# memory belong to this single process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is repeated this many times per timed run, spread through it, and
# reported as the median.
SETUPS = 10
# Set-up is timed between two reference blocks of this many seconds, and
# reported as seconds on a CPU where one reference unit takes REF_UNIT_S.
SETUP_REF_S = 0.1
REF_UNIT_S = 0.001


def cold_import_s() -> float:
    """Seconds for a fresh interpreter to import qwb's CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qwb.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def describe(numpy_version: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = None, None
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "dirty": dirty}


def attempt(wl, qwb, i: int, during_run=contextlib.nullcontext()):
    """Run and check call i; returns (seconds, output, errors).
    ``during_run`` is entered around the run only, not the check."""
    t0 = time.perf_counter()
    try:
        with during_run:
            output = wl.run(qwb, i)
    except Exception:
        return time.perf_counter() - t0, None, [traceback.format_exc()]
    seconds = time.perf_counter() - t0
    try:
        return seconds, output, wl.check(i, output)
    except Exception:
        return seconds, output, [traceback.format_exc()]


def report_errors(i: int, errors) -> None:
    for e in errors:
        print(f"call {i} FAILED: {e}", file=sys.stderr)


def operation(wl, qwb, op: int, during_run=contextlib.nullcontext()):
    """Every part of operation ``op``; returns (seconds, outputs, failed)."""
    seconds, outputs, failed = 0.0, [], 0
    for i in range(op * wl.parts, (op + 1) * wl.parts):
        dt, output, errors = attempt(wl, qwb, i, during_run)
        report_errors(i, errors)
        seconds += dt
        outputs.append(output)
        failed += bool(errors)
    return seconds, outputs, failed


def measure(wl, qwb, seconds: float, sampler, setup):
    """Operation 0 as a warm-up, then calls back to back until the next
    would end after ``seconds``, at least one whole timed operation, with
    ``setup()`` repeated between calls SETUPS times in all.  Returns per
    part the call seconds and reference units, the set-up seconds, and the
    attempted and failed counts."""
    start = time.perf_counter()
    setup_times = [setup()]
    _, _, failed = operation(wl, qwb, 0)
    times = [[] for _ in range(wl.parts)]
    units = [[] for _ in range(wl.parts)]
    i = wl.parts
    while True:
        dt, _, errors = attempt(wl, qwb, i, sampler)
        report_errors(i, errors)
        failed += bool(errors)
        dt -= sampler.spent
        times[i % wl.parts].append(dt)
        units[i % wl.parts].append(dt / sampler.unit_s())
        i += 1
        if time.perf_counter() - start > len(setup_times) * seconds / SETUPS:
            setup_times.append(setup())
        step = max(max(t) for t in times if t)
        if i >= 2 * wl.parts and time.perf_counter() - start + step > seconds:
            while len(setup_times) < SETUPS:
                setup_times.append(setup())
            return times, units, setup_times, i, failed


def traced(wl, qwb, workload: str, seed: int, seconds: float):
    """Operation 0 as a warm-up, then untraced, then traced, then the
    gate-by-gate replay."""
    import spans

    start = time.perf_counter()
    _, _, failed = operation(wl, qwb, 0)
    untraced_s, _, untraced_failed = operation(wl, qwb, 0)
    failed += untraced_failed

    tracer = spans.Tracer()
    originals = spans.install(tracer, qwb)
    try:
        traced_s, outputs, traced_failed = operation(wl, qwb, 0, tracer)
    finally:
        tracer.restore()
    failed += traced_failed

    metrics = spans.span_metrics(tracer.spans)
    if all(o is not None for o in outputs):
        metrics.update(wl.layer_counts(outputs))
    replayed, ok = spans.replay(tracer.apply_calls.values(), originals["apply"],
                                qwb.circuit.Circuit, start + seconds)
    metrics.update(replayed)
    if not ok:
        print("replay FAILED: gate-by-gate state differs from the unsplit apply",
              file=sys.stderr)
    metrics["walk.build_peak_mb"] = spans.build_peak_mb(
        tracer.builds, originals["estimate_phase"])
    metrics["trace.op_s"] = traced_s
    metrics["trace.untraced_op_s"] = untraced_s
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    # Three operations and the replay, which is checked like one call.
    return metrics, 3 * wl.parts + 1, failed + (not ok)


def emit(spec_metrics, values: dict) -> dict:
    """The metrics BENCHMARK.json lists, in its order, with their units."""
    listed = {m["name"] for m in spec_metrics}
    unlisted = sorted(set(values) - listed)
    if unlisted:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unlisted}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve", "detect", "resources", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qwb" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no qwb sources under {SRC} (run from a qwb checkout)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    sys.path.insert(0, str(SRC))
    import numpy
    import qwb.circuit
    import qwb.cli
    import qwb.sim
    import qwb.sudoku
    import qwb.walk
    from reference import Sampler
    from workloads import WORKLOADS

    print(f"qwb benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("machine: " + json.dumps(describe(numpy.__version__)))

    cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and the set-up's child interpreter, so the
    # reference blocks around a set-up time the CPU it ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sampler = Sampler()
    raw_setups = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        def setup():
            before = sampler.block(SETUP_REF_S)
            t0 = time.perf_counter()
            cold_import_s()
            cls(qwb, args.seed, Path(tmp))
            dt = time.perf_counter() - t0
            raw_setups.append(dt)
            return dt / ((before + sampler.block(SETUP_REF_S)) / 2) * REF_UNIT_S

        wl = cls(qwb, args.seed, Path(tmp))
        if args.trace:
            values, attempted, failed = traced(
                wl, qwb, args.workload, args.seed, args.seconds)
            metrics = emit(spec["per_layer"], values)
            for name, m in metrics.items():
                print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        else:
            times, units, setup_times, attempted, failed = measure(
                wl, qwb, args.seconds, sampler, setup)
            values = {"setup_s": statistics.median(setup_times),
                      "op_ref": sum(statistics.median(u) for u in units),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024}
            metrics = emit(spec["end_to_end"], values)
            op_s = sum(statistics.median(t) for t in times)
            print(f"  setup_s      {values['setup_s']:.4f} s    median of "
                  f"{len(setup_times)} set-ups at {REF_UNIT_S * 1e3:g} ms per "
                  f"reference unit; raw {statistics.median(raw_setups):.4f} s")
            print(f"  op_ref       {values['op_ref']:.1f} ref  "
                  f"{cls.label} {cls.per}, in reference units")
            print(f"  op_s         {op_s:.4f} s    {cls.label} {cls.per}, raw")
            for p, (t, u) in enumerate(zip(times, units)):
                print(f"    part {p}: median of {len(t)}: "
                      f"{statistics.median(u):.1f} ref, {statistics.median(t):.4f} s; "
                      "s: " + " ".join(f"{x:.3f}" for x in t))
            print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
        print(f"  failed_share {failed / attempted:g} ({failed}/{attempted} calls)")
        if args.workload == "resources":
            print_rows(wl)

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_rows(wl) -> None:
    """The last row seen for each k, with the totals over the nine."""
    rows = wl.last_row
    print("  " + "  ".join(f"{name} {sum(r[j] for r in rows.values())} count"
                           for j, name in enumerate(wl.TOTALS)))
    paper = wl.paper_k1
    for k, row in sorted(rows.items()):
        note = ""
        if k == 1:
            note = "  paper: " + "/".join(str(paper[f]) for f in wl.FIELDS)
        if k in wl.changed_rows:
            note += "  CHANGED from recorded " + "/".join(map(str, wl.changed_rows[k][1]))
        print(f"  row k={k}: " + "/".join(map(str, row)) + note)


if __name__ == "__main__":
    sys.exit(main())
