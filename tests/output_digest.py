"""Digest of the pipeline's outputs, for checking that a change keeps them.

Run from the repository root (the library is imported from ``src/``):

    python -m tests.output_digest

Each result is hashed as [verdict, |Aut|, deciding step, representative,
Aut generators, ``report_to_dict`` payload without ``timing_seconds``], so
timing never enters.  Two parts are printed, each the sha256 over the
newline-joined digests of its results, then one line over both:

* ``plans``: the benchmark plans of all three workloads for seeds 0-5
  (``bench/workloads.py`` builds them; pairs go through ``save_graph`` and
  ``load_graph`` like the benchmark's decisions), plus the PGL(2,7) pair
  that reaches the C0 fallback, both ways;
* ``census``: ``automorphisms`` of every central colouring of A5, PSL(2,7),
  S5 and A6 and of 120 drawn colourings of PGL(2,7); each against the same
  colouring on a relabelled table (identity fixed); the ordered pairs
  within A5, PSL(2,7) and S5 whose part sizes agree as multisets; and the
  PGL(2,7) pair both ways (1,460 results).

Two versions of the code have the same outputs on these inputs iff they
print the same lines.  The census takes about half a minute on a 2-core
host.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads as wl  # noqa: E402  (bench/workloads.py; also puts src/ first on the path)

API = wl.import_library()

from cencay.cayley import build_central_cayley, partition_from_class_merge  # noqa: E402
from cencay.fixtures import builtin_group  # noqa: E402
from cencay.group import ClassPartition, FiniteGroup, conjugacy_classes  # noqa: E402

from .fixture_groups import set_partitions  # noqa: E402

PGL27_PAIR = ([[0], [1, 6], [2, 5], [3, 4, 8], [7]], [[0], [1, 6], [2, 3], [4, 5, 8], [7]])
PLAN_SEEDS = range(6)
PGL27_DRAWS = 120


def result_digest(result, n: int) -> str:
    payload = API.files.report_to_dict(result, n=n)
    payload.pop("timing_seconds")
    rep = None if result.representative is None else result.representative.tolist()
    fields = [result.verdict, str(result.aut_order), result.decided_at_step, rep,
              [g.tolist() for g in result.aut_generators], payload]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def pgl27_pair() -> list:
    G = builtin_group("pgl27")
    a, b = (build_central_cayley(G, partition_from_class_merge(G, m)) for m in PGL27_PAIR)
    return [(API.iso.iso_test(a, b), G.order), (API.iso.iso_test(b, a), G.order)]


def plan_results(workdir: Path) -> list:
    groups, expected = wl.build_groups(), wl.load_expected()
    out = []
    for workload in wl.WORKLOADS:
        for seed in PLAN_SEEDS:
            for d in wl.make_plan(workload, seed, groups, expected):
                a = wl.build_side(d["a"], groups, API)
                if d["op"] == "aut":
                    out.append((API.iso.automorphisms(a.graph), a.graph.group.order))
                    continue
                b = wl.build_side(d["b"], groups, API)
                paths = [workdir / "a.json", workdir / "b.json"]
                for side, path in zip((a, b), paths):
                    API.files.save_graph(side.graph, path)
                out.append((API.iso.iso_test(*map(API.files.load_graph, paths)),
                            a.graph.group.order))
    return out + pgl27_pair()


def relabelled(gam, seed: int):
    """The same colouring on a relabelled copy of the table, identity fixed."""
    G, rng = gam.group, np.random.default_rng(seed)
    pi = np.concatenate([[0], 1 + rng.permutation(G.order - 1)]).astype(np.int32)
    table = np.empty_like(G.table)
    table[pi[:, None], pi[None, :]] = pi[G.table]
    classes = tuple(tuple(sorted(pi[list(c)].tolist())) for c in gam.partition.classes)
    return build_central_cayley(FiniteGroup(table), ClassPartition(classes))


def census_results() -> list:
    graphs, pairs = [], []
    for name in ("alt5", "psl27", "sym5", "alt6", "pgl27"):
        G = builtin_group(name)
        merges = list(set_partitions(list(range(1, conjugacy_classes(G).k))))
        if name == "pgl27":
            pick = np.random.default_rng(0).choice(len(merges), PGL27_DRAWS, replace=False)
            merges = [merges[i] for i in sorted(pick.tolist())]
        own = [build_central_cayley(G, partition_from_class_merge(G, [[0]] + m)) for m in merges]
        graphs += own
        if name in ("alt5", "psl27", "sym5"):
            sizes = [sorted(gam.partition.size_multiset()) for gam in own]
            pairs += [(a, b) for i, a in enumerate(own) for j, b in enumerate(own)
                      if i != j and sizes[i] == sizes[j]]
    out = [(API.iso.automorphisms(gam), gam.group.order) for gam in graphs]
    out += [(API.iso.iso_test(gam, relabelled(gam, i)), gam.group.order)
            for i, gam in enumerate(graphs)]
    out += [(API.iso.iso_test(a, b), a.group.order) for a, b in pairs]
    return out + pgl27_pair()


def main() -> int:
    parts = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, make in (("plans", lambda: plan_results(Path(tmp))), ("census", census_results)):
            t0 = time.perf_counter()
            digests = [result_digest(r, n) for r, n in make()]
            total = hashlib.sha256("\n".join(digests).encode()).hexdigest()
            parts.append(total)
            print(f"{name:<8} {len(digests):5d} results  {total}  ({time.perf_counter() - t0:.1f} s)")
    print(f"{'all':<8} {'':19} {hashlib.sha256(chr(10).join(parts).encode()).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
