"""Spans around the calls into each cencay module, recorded from outside.

Public functions are imported by name, so each is wrapped in the module
where it is *called* (``cencay.iso.c0_search``, ``cencay.cayley.wl_closure``,
...).  ``cencay.iso.iso_test`` is wrapped too, so the self-test that every
negative verdict re-runs gets a span of its own.  Spans stay in memory and
are written out once, at the end; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module the call is made from, attribute, span name = defining module.function)
WRAPS = (
    ("cencay.iso", "iso_test", "iso.iso_test"),
    ("cencay.iso", "cayley_wl", "cayley.cayley_wl"),
    ("cencay.iso", "principal_section", "cayley.principal_section"),
    ("cencay.iso", "extend_algebraic_iso", "coherent.extend_algebraic_iso"),
    ("cencay.iso", "restriction", "coherent.restriction"),
    ("cencay.iso", "majorant", "iso.majorant"),
    ("cencay.iso", "c0_search", "iso.c0_search"),
    ("cencay.iso", "quotient_isos", "iso.quotient_isos"),
    ("cencay.iso", "lift_and_intersect", "iso.lift_and_intersect"),
    ("cencay.iso", "regular_subgroups", "perm.regular_subgroups"),
    ("cencay.iso", "wreath_group_on_blocks", "perm.wreath_group_on_blocks"),
    ("cencay.iso", "block_action_with_kernel", "perm.block_action_with_kernel"),
    ("cencay.iso", "group_isomorphisms", "group.group_isomorphisms"),
    ("cencay.iso", "automorphism_group", "group.automorphism_group"),
    ("cencay.iso", "is_almost_simple", "group.is_almost_simple"),
    ("cencay.cayley", "wl_closure", "coherent.wl_closure"),
    ("cencay.cayley", "compute_H0", "cayley.compute_H0"),
    ("cencay.cayley", "compute_H1", "cayley.compute_H1"),
    ("cencay.cayley", "subgroups_over_socle", "group.subgroups_over_socle"),
    ("cencay.cayley", "is_almost_simple", "group.is_almost_simple"),
    ("cencay.files", "load_graph", "files.load_graph"),
    ("cencay.files", "emit_report", "files.emit_report"),
)

# counts read off a wrapped call's return value
COUNTERS = {
    "coherent.wl_closure": lambda out: {"rank": out.rank},
    "perm.regular_subgroups": lambda out: {"found": len(out)},
    "iso.c0_search": lambda out: {"hit": int(not out[0].empty)},
}

MODULES = ("coherent", "cayley", "iso", "perm", "group", "files")
DECISION = "decision"

# Functions that some workload never calls: there their self time reads
# exactly 0 on every run, and a time that never changes does not count as
# measured in the result line.  So their times are printed but left out of
# it; their call counts stay, and iso.c0_search.subtree_s covers the three
# C0 helpers.
PRINT_ONLY = frozenset(
    [f"{name}.s" for name in ("cayley.compute_H1", "files.emit_report", "files.load_graph",
                              "group.automorphism_group", "group.group_isomorphisms",
                              "perm.regular_subgroups")] + ["share.files"]
)


class Tracer:
    """Records spans as [name, start, end, parent, decision, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._decision: int | None = None
        self._saved: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self._decision, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(out)
                return out
            finally:
                self._close(span)

        return wrapper

    @contextmanager
    def decision(self, decision_id: int):
        self._decision = decision_id
        span = self._open(DECISION)
        try:
            yield
        finally:
            self._close(span)
            self._decision = None

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "decision", "counts")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def layer_metrics(spans: list[list], passes: int, graphs_per_pass: int,
                  decisions_per_pass: int) -> dict[str, tuple[float, str]]:
    """Per-layer self time, counts and ratios, per pass, from recorded spans."""
    child_time = defaultdict(float)
    for s in spans:
        if s[3] is not None:
            child_time[s[3]] += s[2] - s[1]
    self_s = defaultdict(float)
    subtree_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for i, s in enumerate(spans):
        duration = s[2] - s[1]
        self_s[s[0]] += duration - child_time[i]
        subtree_s[s[0]] += duration
        calls[s[0]] += 1
        for key, value in s[5].items():
            counts[f"{s[0]}.{key}"] += value
    parent_name = {i: spans[s[3]][0] for i, s in enumerate(spans) if s[3] is not None}
    h0_closures = sum(1 for i, s in enumerate(spans)
                      if s[0] == "coherent.wl_closure" and parent_name.get(i) == "cayley.compute_H0")
    c0_tried = sum(1 for i, s in enumerate(spans)
                   if s[0] == "group.group_isomorphisms" and parent_name.get(i) == "iso.c0_search")
    c0_hits = counts["iso.c0_search.hit"]
    decide = subtree_s[DECISION]

    out: dict[str, tuple[float, str]] = {}

    def per_pass(name: str, value: float, unit: str) -> None:
        out[name] = (value / passes, unit)

    for name in sorted(set(span_name for _, _, span_name in WRAPS)):
        per_pass(f"{name}.s", self_s[name], "s")
        per_pass(f"{name}.calls", calls[name], "count")
    per_pass("coherent.wl_closure.rank_sum", counts["coherent.wl_closure.rank"], "count")
    per_pass("cayley.compute_H0.subgroups_tested", h0_closures, "count")
    per_pass("perm.regular_subgroups.found", counts["perm.regular_subgroups.found"], "count")
    per_pass("iso.c0_search.tried", c0_tried, "count")
    per_pass("iso.c0_search.hits", c0_hits, "count")
    out["iso.c0_search.tried_per_hit"] = (c0_tried / c0_hits if c0_hits else 0.0, "ratio")
    per_pass("iso.c0_search.subtree_s", subtree_s["iso.c0_search"], "s")
    out["iso.c0_search.subtree_share"] = (
        100.0 * subtree_s["iso.c0_search"] / decide if decide else 0.0, "%")
    out["cayley.principal_section.per_graph"] = (
        calls["cayley.principal_section"] / (passes * graphs_per_pass), "ratio")
    out["iso.iso_test.per_decision"] = (
        calls["iso.iso_test"] / (passes * decisions_per_pass), "ratio")
    by_module = defaultdict(float)
    for name, value in self_s.items():
        by_module[name.split(".")[0] if name != DECISION else "other"] += value
    for module in MODULES + ("other",):
        out[f"share.{module}"] = (100.0 * by_module[module] / decide if decide else 0.0, "%")
    per_pass("trace.decide_s", decide, "s")
    return out
