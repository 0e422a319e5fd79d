"""The call sites that ``bench/tracing.py`` wraps must stay bound.

``python3 bench/run.py --trace 1`` replaces each ``(module, attribute)`` in
its ``WRAPS`` table with a timing wrapper; a refactor that drops or renames
one of them breaks the traced run.  The table is read from the file's
source, without importing or running the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def wrapped_call_sites():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no WRAPS table in bench/tracing.py")


def test_every_wrapped_call_site_resolves():
    sites = wrapped_call_sites()
    assert sites
    for module_name, attr, _span in sites:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
