"""Certified-decision benchmark for cencay.

Run from the repository root; the library is imported from ``src/``:

    python3 bench/run.py                      # every workload, seed 0
    python3 bench/run.py --workload aut-normal --seed 3 --seconds 38 --trace 0

A decision is one ``automorphisms(gamma)`` call, or one ``iso_test(a, b)``
call together with its file I/O (``load_graph`` twice, then ``emit_report``),
the way ``cencay iso A B -o r.json`` runs.  Decisions run in a closed loop
with one single-threaded caller: the next starts when the previous returns.
Each verdict and |Aut| is checked against answers that do not come from the
pipeline: ``expected.json``, made by ``make_expected.py`` with the
brute-force oracle (every input has n <= 200).  Each
representative is checked against arc colours the benchmark computes itself.

Workloads (the seed draws the colourings, spread over the |Aut| classes of
the normal-type pools, and the automorphisms alpha in Aut(G); see
workloads.py for the sizes):

* ``aut-symmetric``: automorphisms of symmetric-type graphs: the complete
  graphs of A5, S5 and PSL(2,7) and the even/odd coset graph of S5.
  Closure and H0 dominate; C0 is trivial; |Aut| has up to 303 digits.
  Nothing is drawn: Aut(G) fixes every one of these graphs.
* ``aut-normal``: automorphisms of the "full" colourings of A5, S5 and
  PSL(2,7) plus colourings drawn from the normal-type pool of S5.
  The C0 search (regular subgroups, group isomorphisms) is a large share.
* ``iso-pairs``: pairs over A5 and S5: positives b = alpha(a), negatives
  whose part sizes differ, and the equal-size swap pair of S5.  Negatives re-run
  the self-test; only this workload exercises the ``files`` layer.

A run sets its inputs up nine times (``setup_s`` is the median), then makes
at least two passes over the input set, each on freshly built inputs,
and more while the next pass is predicted to end within ``--seconds``.
Each decision's time is its median over the passes; ``wall_s`` is their
sum, ``decide_s_p50`` their median and ``decide_s_max`` their maximum.

The host's speed drifts by up to a third over minutes, more than any
median inside one run can remove.  So before each decision the run also
times ``calibrate``, a fixed piece of work that does not use the library,
and every reported time is scaled to the reference host: measured seconds
times (REFERENCE_CALIBRATION_S / the run's median calibration time) to the
power SPEED_EXPONENT.  The measured seconds and the scale factor are
printed above the result line.
``--trace 1`` makes one untraced pass, then traced passes, and reports
per-layer metrics instead (see tracing.py); spans go to ``bench/_work/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is non-zero when any decision
raised or disagreed with its expected answer.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads: one thread, steady timings
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402
from tracing import PRINT_ONLY, Tracer, layer_metrics  # noqa: E402

SRC = wl.SRC
WORK = wl.BENCH_DIR / "_work"
SETUP_REPS = 9
MIN_PASSES = 2

# calibrate() samples taken before each decision, and their median on the
# reference host (2-core KVM guest, Xeon at 2.0 GHz, Python 3.11, numpy 2.4)
CALIBRATION_REPS = 3
REFERENCE_CALIBRATION_S = 0.030
CALIBRATION_N = 120
# Decisions follow the host's speed only in part: over ten runs of each
# workload, the slope of log decision time against log calibration time was
# 0.5 (iso-pairs), 0.75 (aut-normal) and 1.0 (aut-symmetric).
SPEED_EXPONENT = 0.7


def environment(seed: int) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "src_lines": src_lines,
    }


def calibrate() -> float:
    """Seconds for one colour-refinement round written here, without the
    library: per row, sort an n x n matrix of colour pairs, then key a dict
    by the sorted columns' bytes.  The library's closure does the same kind
    of work, so a busier host slows both in a similar way (see BASELINE.md)."""
    t0 = time.perf_counter()
    n = CALIBRATION_N
    colours = (np.arange(n)[:, None] * 7 + np.arange(n)[None, :] * 3) % 11
    table: dict = {}
    for a in range(n):
        pairs = colours[a][:, None] * 11 + colours
        pairs.sort(axis=0)
        cols = np.ascontiguousarray(pairs.T)
        for b in range(n):
            table.setdefault((int(colours[a, b]), cols[b].tobytes()), len(table))
    return time.perf_counter() - t0


# -- one pass -------------------------------------------------------------------------


def build_inputs(plan, groups, api, workdir: Path) -> list[tuple[wl.Side, wl.Side | None]]:
    """Library groups and graphs for every decision; files for pairs."""
    built = []
    for i, d in enumerate(plan):
        a = wl.build_side(d["a"], groups, api)
        b = None
        if d["op"] == "iso":
            b = wl.build_side(d["b"], groups, api)
            for side, tag in ((a, "a"), (b, "b")):
                side.path = workdir / f"{i:02d}-{tag}.json"
                api.files.save_graph(side.graph, side.path)
        built.append((a, b))
    return built


def decide(d, a, b, api, report_path):
    if d["op"] == "aut":
        return api.iso.automorphisms(a.graph), None
    ga = api.files.load_graph(a.path)
    gb = api.files.load_graph(b.path)
    t0 = time.perf_counter()
    result = api.iso.iso_test(ga, gb)
    elapsed = time.perf_counter() - t0
    return result, api.files.emit_report(result, report_path, n=ga.group.order, elapsed=elapsed)


def mismatch(d, a, b, result, payload) -> str | None:
    if result.verdict != d["verdict"]:
        return f"verdict {result.verdict}, expected {d['verdict']}"
    if result.aut_order != int(d["aut_order"]):
        return f"|Aut| {result.aut_order}, expected {d['aut_order']}"
    if result.isomorphic and not wl.arc_check(
        result.representative, a.arc_colors, (b or a).arc_colors
    ):
        return "representative fails the arc-colour check"
    if payload is not None and (payload["verdict"], payload["aut_order"]) != (
        d["verdict"], d["aut_order"]
    ):
        return "emitted report disagrees with the result"
    return None


def run_pass(plan, built, api, workdir: Path, tracer: Tracer | None = None,
             calibration: list[float] | None = None):
    """(seconds, problem or None) per decision; calibrate() times, when
    asked for, go to ``calibration``."""
    out = []
    for i, (d, (a, b)) in enumerate(zip(plan, built)):
        if calibration is not None:
            calibration += [calibrate() for _ in range(CALIBRATION_REPS)]
        scope = tracer.decision(i) if tracer is not None else nullcontext()
        t0 = time.perf_counter()
        try:
            with scope:
                result, payload = decide(d, a, b, api, workdir / f"{i:02d}-report.json")
            seconds = time.perf_counter() - t0
            problem = mismatch(d, a, b, result, payload)
        except Exception as exc:  # a raising decision is counted as failed
            seconds = time.perf_counter() - t0
            problem = f"{type(exc).__name__}: {exc}"
        out.append((seconds, problem))
    return out


# -- one workload ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    api = wl.import_library()
    expected = wl.load_expected()
    groups = wl.build_groups()
    missing = wl.uncovered(expected, groups)
    if missing:
        sys.exit("bench: expected.json is incomplete: " + "; ".join(missing))
    plan = wl.make_plan(workload, seed, groups, expected)
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times: list[float] = []

    def fresh_inputs():
        t0 = time.perf_counter()
        built = build_inputs(plan, groups, api, workdir)
        setup_times.append(time.perf_counter() - t0)
        return built

    min_passes = 1 if trace else MIN_PASSES
    calibration = None if trace else []
    try:
        for _ in range(SETUP_REPS - min_passes):
            fresh_inputs()
        start = time.perf_counter()
        untraced = run_pass(plan, fresh_inputs(), api, workdir) if trace else None
        tracer = Tracer() if trace else None
        passes = []
        pass_s = 0.0
        while len(passes) < min_passes or time.perf_counter() - start + pass_s <= seconds:
            built = fresh_inputs()
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                passes.append(run_pass(plan, built, api, workdir, tracer, calibration))
            finally:
                pass_s = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = passes + ([untraced] if trace else [])
    failed = 0
    for outcome in timed:
        for d, (_, problem) in zip(plan, outcome):
            if problem is not None:
                failed += 1
                print(f"FAIL {workload} {d['id']}: {problem}")
    attempted = len(plan) * len(timed)
    per_pass = f"{len(passes)} {'traced ' if trace else ''}pass(es) of {len(plan)} decisions"
    env = environment(seed)
    print(f"workload {workload}, seed {seed}: {per_pass}, {len(setup_times)} set-ups")
    print(f"fail_frac      {failed / attempted:.4f}  ({failed} of {attempted} decisions)")

    if trace:
        graphs = sum(2 if d["op"] == "iso" else 1 for d in plan)
        metrics = layer_metrics(tracer.spans, len(passes), graphs, len(plan))
        untraced_wall = sum(s for s, _ in untraced)
        traced_wall = statistics.median(sum(s for s, _ in p) for p in passes)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        tracer.write(WORK / f"spans-{workload}-{seed}.json",
                     {"workload": workload, "plan": [d["id"] for d in plan], "env": env})
        notes = {"trace.overhead_s": f"traced wall_s minus one untraced pass ({untraced_wall:.3f} s)"}
    else:
        # each decision's median over the passes, so that a slow or fast
        # spell of the machine during one pass does not move the result
        decide = [statistics.median(p[i][0] for p in passes) for i in range(len(plan))]
        for d, t in zip(plan, decide):
            print(f"  {t:9.4f} s measured  {d['id']}")
        raw = {
            "wall_s": sum(decide),
            "decide_s_p50": statistics.median(decide),
            "decide_s_max": max(decide),
            "setup_s": statistics.median(setup_times),
        }
        scale = (REFERENCE_CALIBRATION_S / statistics.median(calibration)) ** SPEED_EXPONENT
        print(f"host speed: scale {scale:.4f}, from the median of {len(calibration)} "
              f"calibrate() times; measured " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        metrics = {name: (value * scale, "s") for name, value in raw.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        notes = {
            "wall_s": f"sum of {len(plan)} per-decision medians of {len(passes)} passes",
            "decide_s_p50": f"median of {len(plan)} per-decision medians",
            "decide_s_max": f"max of {len(plan)} per-decision medians",
            "setup_s": f"median of {len(setup_times)} set-ups",
            "peak_rss_mb": "whole process",
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:12.6f} {unit:<6} {notes.get(name, '')}".rstrip())
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in PRINT_ONLY},
    }))
    return 0 if failed == 0 else 1


def measure_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process so peak memory stays its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"bench: {workload} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return measure_all(args.seed, args.seconds, bool(args.trace))
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
