"""The call sites that ``bench/tracing.py`` wraps must stay bound, and the
counts it reads off their return values must stay readable.

``python3 bench/run.py --trace 1`` replaces each ``(module, attribute)`` in
its ``WRAPS`` table with a timing wrapper; a refactor that drops or renames
one of them breaks the traced run.  The table is read from the file's
source, without importing or running the benchmark.  Its ``COUNTERS`` read
a field off the wrapped function's return value (``out.rank``,
``len(out)``, ``out[0].empty``); the file is loaded by path, like
``tests/output_digest.py`` loads ``bench/workloads.py``, and each counter is
applied to a real return value of the function it wraps.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from cencay.cayley import build_central_cayley, partition_from_class_merge
from cencay.iso import schemes_with_phi

from .fixture_groups import alt5

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def wrapped_call_sites():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPS table in bench/tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_call_site_resolves():
    sites = wrapped_call_sites()
    assert sites
    for module_name, attr, _span in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_every_counter_reads_a_real_return_value():
    tracing = load_tracing()
    wrapped = {span: getattr(importlib.import_module(module_name), attr)
               for module_name, attr, span in tracing.WRAPS}
    assert set(tracing.COUNTERS) <= set(wrapped)

    # the full colouring of A5: normal type, so D_U is a D(2,U) subgroup
    A5 = alt5()
    gam = build_central_cayley(A5, partition_from_class_merge(A5, [[0], [1], [2], [3], [4]]))
    swp = schemes_with_phi(gam, gam)
    rank = int(swp.src.u_row.max()) + 1
    # the identity colour map has a C0; one that moves the diagonal colour has none
    calls = {
        "coherent.wl_closure": [((gam.arc_colors,), A5.order)],
        "perm.regular_subgroups": [(swp.dst.d_u, swp.src.U)],
        "iso.c0_search": [(swp.src, swp.dst, np.arange(rank, dtype=np.int32)),
                          (swp.src, swp.dst, np.roll(np.arange(rank, dtype=np.int32), 1))],
    }
    assert set(calls) == set(tracing.COUNTERS)
    seen = {}
    for span, arg_lists in calls.items():
        for args in arg_lists:
            out = wrapped[span](*args)
            counts = tracing.COUNTERS[span](out)
            assert counts and all(type(v) is int for v in counts.values()), span
            seen.setdefault(span, []).append(counts)
    assert seen["coherent.wl_closure"][0]["rank"] > 1
    assert seen["perm.regular_subgroups"][0]["found"] > 0
    assert seen["iso.c0_search"] == [{"hit": 1}, {"hit": 0}]
