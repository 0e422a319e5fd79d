"""JSON file formats: groups, graphs, and result reports.

Permutations are 0-based image arrays; group orders are decimal strings so
that exact big integers survive the round trip.  Loading accepts only JSON
integers (no bools, no floats) in lists of the right shape, checks a table
as one numpy array, and re-validates every invariant (table laws,
centrality, almost simplicity).  Writing gives the compact sorted-key text
of ``json.dumps``, from the C encoder, one table row at a time.

A loaded group is shared while it lives: after the checks above,
``group_from_dict`` returns a group it loaded earlier with an equal table
and names (found by a digest, confirmed in full, held weakly) instead of
validating another.  The reuse is exact, since a ``FiniteGroup`` and all it
memoizes derive from its table and names; the two files of a pair validate
once, and decisions that do not overlap in time share nothing.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import weakref
from pathlib import Path
from typing import Iterator, Optional, Union

import numpy as np

from .cayley import ColorCayleyGraph, build_central_cayley
from .errors import InternalError, InvalidInputError
from .group import ClassPartition, FiniteGroup
from .iso import IsoResult
from .perm import PermutationGroup

PathLike = Union[str, Path]
CHAIN_RECOUNT_LIMIT = 10**8


def _read_json(path: PathLike) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read JSON from {path}: {exc}") from exc


_ENCODE = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def _json_chunks(value) -> Iterator[str]:
    """``value`` as compact sorted-key JSON text, exactly as ``json.dumps``
    writes it, in pieces from the C encoder: one per row of a list of lists,
    so no piece holds a whole table.  Dict keys are strings."""
    if isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + _ENCODE(key) + ":"
            yield from _json_chunks(value[key])
        yield "}"
    elif isinstance(value, list) and value and all(isinstance(row, list) for row in value):
        for i, row in enumerate(value):
            yield ("," if i else "[") + _ENCODE(row)
        yield "]"
    else:
        yield _ENCODE(value)


def _write_json(path: PathLike, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks(payload))
        fh.write("\n")


def _int_array(value, what: str, bound: int, width: Optional[int] = None) -> np.ndarray:
    """``value``, lists of JSON integers in 0..bound-1, as one int64 array:
    the ``width`` x ``width`` matrix when a width is given, else the lists
    end to end.  Anything else is invalid input.  One ``np.array`` pass
    converts them; a bool among ints reads as 0 or 1 there, so only those
    entries are type-checked.  Any other result lists the types."""
    if not isinstance(value, list) or not all(
        isinstance(r, list) and width in (None, len(r)) for r in value
    ):
        shape = "a list of lists" if width is None else f"{width} lists of {width}"
        raise InvalidInputError(f"{what} must be {shape}")
    rows = value if width is not None else [list(itertools.chain.from_iterable(value))]
    try:
        arr = np.array(rows)
    except ValueError:  # a list among the entries
        arr = np.array([[None]])
    if not arr.size:
        return np.zeros((width, width) if width is not None else 0, dtype=np.int64)
    ints = arr.dtype == np.int64 and arr.ndim == 2  # else beyond int64 if all are ints
    if any(type(rows[i][j]) is not int for i, j in zip(*np.nonzero(arr <= 1))) if ints else (
            set(map(type, itertools.chain.from_iterable(rows))) - {int}):
        raise InvalidInputError(f"{what} may hold JSON integers only")
    if not ints or arr.min() < 0 or arr.max() >= bound:
        raise InvalidInputError(f"{what} has an entry outside 0..{bound - 1}")
    return arr if width is not None else arr[0]


# -- groups -----------------------------------------------------------------


def group_to_dict(G: FiniteGroup) -> dict:
    out = {"order": G.order, "table": G.table.tolist()}
    if G.names is not None:
        out["names"] = list(G.names)
    return out


# the groups loaded and still referenced elsewhere, by a digest of table and names
_LIVE_GROUPS: "weakref.WeakValueDictionary[bytes, FiniteGroup]" = weakref.WeakValueDictionary()


def group_from_dict(data: dict) -> FiniteGroup:
    if not isinstance(data, dict) or "table" not in data:
        raise InvalidInputError("group file needs a 'table' field")
    table = data["table"]
    n = len(table) if isinstance(table, list) else 0
    table = _int_array(table, "the table", n, width=n)
    if "order" in data and (type(data["order"]) is not int or data["order"] != n):
        raise InvalidInputError("declared order does not match the table")
    names = data.get("names")
    if not (names is None or isinstance(names, list) and all(isinstance(x, str) for x in names)):
        raise InvalidInputError("names must be a list of strings")
    table = table.astype(np.int32)
    key = hashlib.sha256(table.tobytes() + json.dumps(names).encode()).digest()
    G = _LIVE_GROUPS.get(key)
    if G is None or G.names != names or not np.array_equal(G.table, table):
        G = _LIVE_GROUPS[key] = FiniteGroup(table, names=names, check=True)
    return G


def save_group(G: FiniteGroup, path: PathLike) -> None:
    _write_json(path, group_to_dict(G))


def load_group(path: PathLike) -> FiniteGroup:
    return group_from_dict(_read_json(path))


# -- graphs -----------------------------------------------------------------


def graph_to_dict(gamma: ColorCayleyGraph) -> dict:
    return {
        "group": group_to_dict(gamma.group),
        "colors": [list(c) for c in gamma.partition.classes],
    }


def graph_from_dict(data: dict, base_dir: Optional[Path] = None) -> ColorCayleyGraph:
    if not isinstance(data, dict) or "colors" not in data or "group" not in data:
        raise InvalidInputError("graph file needs 'group' and 'colors' fields")
    grp = data["group"]
    if isinstance(grp, str):
        path = Path(grp)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        G = load_group(path)
    else:
        G = group_from_dict(grp)
    colors = data["colors"]
    _int_array(colors, "the colors", G.order)
    if not colors or colors[0] != [0]:
        raise InvalidInputError("color class 0 must be exactly [0]")
    partition = ClassPartition(tuple(tuple(c) for c in colors))
    return build_central_cayley(G, partition)


def save_graph(gamma: ColorCayleyGraph, path: PathLike) -> None:
    _write_json(path, graph_to_dict(gamma))


def load_graph(path: PathLike) -> ColorCayleyGraph:
    return graph_from_dict(_read_json(path), base_dir=Path(path).parent)


# -- results ------------------------------------------------------------------


def result_to_dict(result: IsoResult) -> dict:
    return {
        "verdict": result.verdict,
        "representative": (
            result.representative.tolist() if result.representative is not None else None
        ),
        "aut_generators": [g.tolist() for g in result.aut_generators],
        "aut_order": str(result.aut_order),
        "decided_at_step": result.decided_at_step,
    }


def result_from_dict(data: dict) -> IsoResult:
    rep = data.get("representative")
    return IsoResult(
        data["verdict"],
        np.asarray(rep, dtype=np.int32) if rep is not None else None,
        [np.asarray(g, dtype=np.int32) for g in data.get("aut_generators", [])],
        int(data["aut_order"]),
        int(data.get("decided_at_step", 5)),
    )


def verify_emitted_order(result: IsoResult, degree: int) -> str:
    """Check the emitted order of the emitted generators before writing a report.

    A pipeline result carries its certificate (``IsoResult.certify``), which
    proves the order of the generators as emitted from both sides, at every
    order, in O(k n) for the list its decision proved.  Without one (an oracle result, or one loaded from a file or built
    by hand) there is no upper bound, so up to ``CHAIN_RECOUNT_LIMIT`` a
    deterministic chain recounts the order from scratch.  Beyond it the chain
    is built with the claimed order as its stopping target: reaching it proves
    the generators reach at least the claimed order (the transversal product
    never exceeds the generated group's order), which is the direction a
    fabricated order would break.
    """
    gens = result.aut_generators
    if result.certify is not None:
        if any(np.shape(g) != (degree,) for g in gens) or result.certify(gens) != result.aut_order:
            raise InternalError(f"uncertified order {result.aut_order} on degree {degree}")
        return "certificate"
    if result.aut_order <= 1 or not gens:
        if result.aut_order > 1:
            raise InternalError("nontrivial order with no generators")
        return "chain"
    if result.aut_order <= CHAIN_RECOUNT_LIMIT:
        got = PermutationGroup(gens, degree).order
        if got != result.aut_order:
            raise InternalError(
                f"emitted aut_order {result.aut_order} but chain recount gives {got}"
            )
        return "chain"
    got = PermutationGroup(gens, degree, known_order=result.aut_order).order
    if got != result.aut_order:
        raise InternalError("known-order chain failed to certify the emitted order")
    return "chain-lower-bound"


def report_to_dict(
    result: IsoResult,
    *,
    n: int,
    m: Optional[int] = None,
    section_kind: Optional[str] = None,
    fixture: Optional[dict] = None,
    elapsed: Optional[float] = None,
) -> dict:
    verification = verify_emitted_order(result, n)
    out = result_to_dict(result)
    out.update(
        {
            "n": n,
            "m": m,
            "type": section_kind,
            "timing_seconds": round(elapsed, 6) if elapsed is not None else None,
            "order_verification": verification,
            "fixture": fixture or {},
        }
    )
    return out


def emit_report(result: IsoResult, path: PathLike, **meta) -> dict:
    payload = report_to_dict(result, **meta)
    _write_json(path, payload)
    return payload
