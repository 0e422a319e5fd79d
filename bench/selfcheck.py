"""The benchmark's own checks, independent of any timing:

    python3 bench/selfcheck.py

* expected.json answers every input any seed can draw;
* the same seed gives byte-identical inputs, also across processes with
  different hash seeds;
* different seeds give different inputs and draws on the workloads that
  draw colourings; aut-symmetric draws nothing.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl

SEEDS = (0, 1, 2)
DRAWING = ("aut-normal", "iso-pairs")


def digest(workload: str, seed: int) -> str:
    api = wl.import_library()
    groups = wl.build_groups()
    plan = wl.make_plan(workload, seed, groups, wl.load_expected())
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        return wl.inputs_digest(run.build_inputs(plan, groups, api, Path(tmp)))


def digest_in_subprocess(workload: str, seed: int, hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, __file__, "--digest", workload, str(seed)],
        env=env, stdout=subprocess.PIPE, text=True, check=True,
    )
    return proc.stdout.strip()


def main() -> int:
    groups = wl.build_groups()
    expected = wl.load_expected()
    missing = wl.uncovered(expected, groups)
    if missing:
        print("FAIL expected.json coverage: " + "; ".join(missing))
        return 1
    print("ok   expected.json covers every drawable input")
    for workload in wl.WORKLOADS:
        digests = []
        for seed in SEEDS:
            first = digest_in_subprocess(workload, seed, 1)
            second = digest_in_subprocess(workload, seed, 2)
            if first != second:
                print(f"FAIL {workload} seed {seed}: inputs differ between processes")
                return 1
            digests.append(first)
        if workload not in DRAWING:
            # symmetric-type graphs are fixed by every alpha in Aut(G): nothing to draw
            print(f"ok   {workload}: byte-identical inputs, the same for every seed")
            continue
        draws = {tuple(d["id"] for d in wl.make_plan(workload, s, groups, expected))
                 for s in SEEDS}
        if len(set(digests)) != len(digests) or len(draws) != len(SEEDS):
            print(f"FAIL {workload}: two seeds gave the same draw")
            return 1
        print(f"ok   {workload}: same seed byte-identical, seeds {SEEDS} all draw differently")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--digest":
        print(digest(sys.argv[2], int(sys.argv[3])))
        sys.exit(0)
    sys.exit(main())
