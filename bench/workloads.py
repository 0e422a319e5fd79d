"""Inputs of the benchmark: groups, colourings, seeded draws and answer checks.

The benchmark builds its own group tables from permutation generators, so the
element labelling and the class ids that ``expected.json`` refers to are
fixed here and never by the library.  The library only sees the generated
tables and colourings.

A colouring is a tuple of parts, each a sorted tuple of class ids (class 0,
the identity, is implicit and always comes first).  Colours are labelled:
``iso_test`` maps colour i to colour i, so part order matters for pairs.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
SRC = BENCH_DIR.parent / "src"

GENERATORS: dict[str, list[tuple[int, ...]]] = {
    "alt5": [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
    "sym5": [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
    # PSL(2,7) on the projective line over F_7, point 7 is infinity:
    # x -> x+1 and x -> -1/x
    "psl27": [(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)],
}

# Sizes are set so that a run of 38 s on a 2-core machine makes at least two
# passes over a workload, and a round of 70 runs stays under an hour.  In
# aut-normal the cheaper decisions (A5 full, the S5 draw outside the largest
# |Aut| class) are balanced by PSL(2,7) full, so that the median decision is
# S5 full or an S5 draw of the largest class: these cost about the same.
SYMMETRIC_COMPLETE = ("alt5", "sym5", "psl27")

# aut-normal: the "full" colouring of each of these groups, plus this many
# colourings drawn from the group's pool (see draw_colourings)
NORMAL_FULL = ("alt5", "sym5", "psl27")
NORMAL_DRAWS = {"sym5": 4}

# iso-pairs: (group, positives, negatives) drawn per seed, plus the swap pair.
PAIR_DRAWS = (("alt5", 1, 1), ("sym5", 2, 1))

WORKLOADS = ("aut-symmetric", "aut-normal", "iso-pairs")


def import_library() -> types.SimpleNamespace:
    """cencay from this checkout's src/, never from anywhere else."""
    if not (SRC / "cencay" / "__init__.py").is_file():
        sys.exit(f"bench: no cencay sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cencay.cayley
    import cencay.files
    import cencay.group
    import cencay.iso

    if Path(cencay.__file__).resolve().parent != SRC / "cencay":
        sys.exit(f"bench: imported cencay from {cencay.__file__}, not {SRC}")
    return types.SimpleNamespace(
        FiniteGroup=cencay.group.FiniteGroup,
        ClassPartition=cencay.group.ClassPartition,
        build_central_cayley=cencay.cayley.build_central_cayley,
        iso=cencay.iso,
        files=cencay.files,
    )


# -- groups -------------------------------------------------------------------


class PermGroup:
    """A permutation group with its multiplication table in BFS element order.

    ``table[a, b]`` is the index of "apply a, then b"; index 0 is the identity.
    """

    def __init__(self, name: str):
        self.name = name
        gens = [np.asarray(g, dtype=np.int64) for g in GENERATORS[name]]
        d = len(gens[0])
        elems = [tuple(range(d))]
        index = {elems[0]: 0}
        head = 0
        while head < len(elems):
            e = np.asarray(elems[head], dtype=np.int64)
            head += 1
            for g in gens:
                w = tuple(g[e].tolist())
                if w not in index:
                    index[w] = len(elems)
                    elems.append(w)
        self.perms = P = np.asarray(elems, dtype=np.int64)
        self.order = n = len(P)
        self._weights = d ** np.arange(d, dtype=np.int64)
        keys = P @ self._weights
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]
        # (a then b)[x] = b[a[x]]
        prod = P[np.arange(n)[None, :, None], P[:, None, :]]
        self.table = self.index_of(prod).astype(np.int32)
        self.inverse = np.argmax(self.table == 0, axis=1).astype(np.int32)
        self.classes = self._conjugacy_classes()
        self.class_of = np.empty(n, dtype=np.int64)
        for i, cls in enumerate(self.classes):
            self.class_of[cls] = i
        self.even = np.array([_is_even(p) for p in P])

    def index_of(self, perms: np.ndarray) -> np.ndarray:
        keys = perms @ self._weights
        pos = np.searchsorted(self._sorted_keys, keys)
        pos = np.minimum(pos, self.order - 1)
        if not np.array_equal(self._sorted_keys[pos], keys):
            raise ValueError(f"permutation outside {self.name}")
        return self._key_order[pos]

    def _conjugacy_classes(self) -> list[np.ndarray]:
        T, inv = self.table, self.inverse
        seen = np.zeros(self.order, dtype=bool)
        out = []
        for x in range(self.order):
            if not seen[x]:
                orbit = np.unique(T[T[inv, x], np.arange(self.order)])
                seen[orbit] = True
                out.append(orbit)
        out.sort(key=lambda c: (len(c), int(c[0])))
        return out

    def signature(self) -> list[list[int]]:
        """(size, element order, even) per class id: what the ids in
        expected.json mean."""
        out = []
        for cls in self.classes:
            p = self.perms[cls[0]]
            out.append([len(cls), _perm_order(p), bool(self.even[cls[0]])])
        return out

    def class_perm_of_conjugation(self, h: np.ndarray) -> np.ndarray:
        """The permutation of class ids induced by x -> h^-1 x h."""
        h_inv = np.argsort(h)
        reps = self.perms[[int(c[0]) for c in self.classes]]
        images = h[reps[:, h_inv]]  # apply h^-1, then x, then h
        return self.class_of[self.index_of(images)]


def _is_even(p: np.ndarray) -> bool:
    seen = np.zeros(len(p), dtype=bool)
    transpositions = 0
    for i in range(len(p)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = int(p[j])
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 0


def _perm_order(p: np.ndarray) -> int:
    seen = np.zeros(len(p), dtype=bool)
    order = 1
    for i in range(len(p)):
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = int(p[j])
            length += 1
        if length:
            order = order * length // math.gcd(order, length)
    return order


def build_groups() -> dict[str, PermGroup]:
    return {name: PermGroup(name) for name in GENERATORS}


# -- colourings -----------------------------------------------------------------


def colouring_key(colouring) -> str:
    """Canonical text key: parts sorted by smallest class id."""
    parts = sorted(tuple(sorted(p)) for p in colouring)
    return "/".join(",".join(str(c) for c in p) for p in parts)


def parse_key(key: str) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(c) for c in part.split(",")) for part in key.split("/"))


def set_partitions(items: list[int]):
    """Every set partition, parts in order of their smallest item."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        for i in range(len(p)):
            yield sorted(p[:i] + [[first] + p[i]] + p[i + 1:])
        yield sorted([[first]] + p)


def full_colouring(G: PermGroup):
    return tuple((i,) for i in range(1, len(G.classes)))


def complete_colouring(G: PermGroup):
    return (tuple(range(1, len(G.classes))),)


def coset_colouring(G: PermGroup):
    """Even and odd elements: the socle A5 of S5 and its coset."""
    even = tuple(i for i in range(1, len(G.classes)) if G.even[G.classes[i][0]])
    odd = tuple(i for i in range(1, len(G.classes)) if not G.even[G.classes[i][0]])
    return (even, odd)


def swap_colourings(S5: PermGroup):
    """Criterion 3's pair: the 3-cycles and the 6-elements of S5 swap colours."""
    sig = S5.signature()
    c3 = next(i for i, s in enumerate(sig) if s[:2] == [20, 3])
    c6 = next(i for i, s in enumerate(sig) if s[:2] == [20, 6])
    rest = tuple(i for i in range(1, len(sig)) if i not in (c3, c6))
    return ((c3,), (c6,), rest), ((c6,), (c3,), rest)


def fixed_inputs(groups: dict[str, PermGroup]) -> list:
    """(group, colouring) of every input that no seed changes."""
    S5 = groups["sym5"]
    out = [(groups[name], complete_colouring(groups[name])) for name in SYMMETRIC_COMPLETE]
    out += [(groups[name], full_colouring(groups[name])) for name in NORMAL_FULL]
    return out + [(S5, coset_colouring(S5)), (S5, swap_colourings(S5)[0])]


def part_sizes(G: PermGroup, colouring) -> list[int]:
    return [sum(len(G.classes[c]) for c in part) for part in colouring]


# -- expected answers ---------------------------------------------------------------


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def uncovered(expected: dict, groups: dict[str, PermGroup]) -> list[str]:
    """What expected.json lacks for some seed's inputs (empty: all covered)."""
    missing = [f"{name}: class ids differ" for name, G in groups.items()
               if expected["signatures"].get(name) != G.signature()]
    drawable = fixed_inputs(groups)
    wanted = dict(NORMAL_DRAWS)
    for name, positives, negatives in PAIR_DRAWS:
        wanted[name] = max(wanted.get(name, 0), positives)
        pool = [parse_key(k) for k in expected["normal_pool"][name]]
        sizes = [(len(c), part_sizes(groups[name], c)) for c in pool]
        if negatives and not any(x[0] == y[0] and x[1] != y[1] for x in sizes for y in sizes):
            missing.append(f"{name}: no two pool colourings fit a negative pair")
    for name, draws in wanted.items():
        G, pool = groups[name], expected["normal_pool"][name]
        try:
            largest = max((len(keys) for keys in aut_classes(expected, name)), default=0)
        except KeyError:  # a pool colouring without |Aut|: reported below
            largest = draws
        if largest < draws:
            missing.append(f"{name}: largest |Aut| class of the pool smaller than {draws}")
        drawable += [(G, parse_key(key)) for key in pool]
    for G, colouring in drawable:
        try:
            _order(expected, G, colouring)
        except KeyError:
            missing.append(f"{G.name}: no |Aut| for {colouring_key(colouring)}")
    return missing


# -- plans: the seeded inputs, as plain data -------------------------------------------


def aut_classes(expected: dict, name: str) -> list[list[str]]:
    """The group's normal-type pool split by |Aut|, largest class first."""
    classes: dict[str, list[str]] = {}
    for key in expected["normal_pool"][name]:
        classes.setdefault(expected["aut_order"][name][key], []).append(key)
    return sorted(classes.values(), key=lambda keys: (-len(keys), keys[0]))


def draw_colourings(expected: dict, name: str, count: int, rng) -> list[str]:
    """``count`` pool colourings, spread over the |Aut| classes of the pool:
    one from each smaller class, larger classes first, as long as the
    largest class keeps at least one draw; the rest from the largest class.
    Every kind of colouring appears, and the mix is the same for every seed."""
    classes = aut_classes(expected, name)
    shares = [1 if 0 < i < count else 0 for i in range(len(classes))]
    if classes:
        shares[0] = count - sum(shares)
    out = []
    for keys, share in zip(classes, shares):
        out += [keys[i] for i in sorted(rng.choice(len(keys), size=share, replace=False).tolist())]
    return out


def _side(G: PermGroup, colouring) -> dict:
    return {"group": G.name, "colouring": [list(p) for p in colouring]}


def _automorphic_image(G: PermGroup, colouring, rng, ambient: PermGroup):
    """alpha(colouring) for a random alpha in Aut(G), part order kept."""
    h = ambient.perms[int(rng.integers(ambient.order))]
    cperm = G.class_perm_of_conjugation(h)
    return tuple(tuple(sorted(int(cperm[c]) for c in part)) for part in colouring)


def _aut_decision(name: str, G: PermGroup, colouring, order: int) -> dict:
    return {
        "id": name,
        "op": "aut",
        "a": _side(G, colouring),
        "verdict": "isomorphic",
        "aut_order": str(order),
    }


def make_plan(workload: str, seed: int, groups: dict[str, PermGroup], expected: dict) -> list[dict]:
    """The decisions of one workload for one seed, as JSON-able data."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    plan = []
    if workload == "aut-symmetric":
        for name in SYMMETRIC_COMPLETE:
            G = groups[name]
            col = complete_colouring(G)
            plan.append(_aut_decision(f"{name}/complete", G, col, _order(expected, G, col)))
        G = groups["sym5"]
        col = coset_colouring(G)
        plan.append(_aut_decision("sym5/coset", G, col, _order(expected, G, col)))
    elif workload == "aut-normal":
        for name in NORMAL_FULL:
            G = groups[name]
            col = full_colouring(G)
            plan.append(_aut_decision(f"{name}/full", G, col, _order(expected, G, col)))
            for key in draw_colourings(expected, name, NORMAL_DRAWS.get(name, 0), rng):
                col = parse_key(key)
                plan.append(_aut_decision(f"{name}/{key}", G, col, _order(expected, G, col)))
    elif workload == "iso-pairs":
        for name, positives, negatives in PAIR_DRAWS:
            # every automorphism of A5 and of S5 is conjugation by an element of S5
            G, amb = groups[name], groups["sym5"]
            pool = expected["normal_pool"][name]
            for key in draw_colourings(expected, name, positives, rng):
                a = parse_key(key)
                b = _automorphic_image(G, a, rng, amb)
                plan.append(_pair(f"{name}/pos/{key}", G, a, b, "isomorphic", expected))
            for _ in range(negatives):
                a, b = _size_mismatch(G, pool, rng)
                b = _automorphic_image(G, b, rng, amb)
                plan.append(_pair(
                    f"{name}/neg/{colouring_key(a)}~{colouring_key(b)}", G, a, b,
                    "non_isomorphic", expected,
                ))
        S5 = groups["sym5"]
        a, b = swap_colourings(S5)
        plan.append(_pair("sym5/swap", S5, a, b, expected["swap_verdict"], expected))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def _order(expected: dict, G: PermGroup, colouring) -> int:
    """|Aut| from the brute-force oracle's answers."""
    return int(expected["aut_order"][G.name][colouring_key(colouring)])


def _pair(name, G, a, b, verdict, expected) -> dict:
    return {
        "id": name,
        "op": "iso",
        "a": _side(G, a),
        "b": _side(G, b),
        "verdict": verdict,
        "aut_order": str(_order(expected, G, a)),
    }


def _size_mismatch(G: PermGroup, pool: list[str], rng):
    """Two pool colourings with as many parts but different part sizes, so
    no colour-preserving bijection exists."""
    while True:
        i, j = rng.choice(len(pool), size=2, replace=False).tolist()
        a, b = parse_key(pool[i]), parse_key(pool[j])
        if len(a) == len(b) and part_sizes(G, a) != part_sizes(G, b):
            return a, b


# -- building library inputs from a plan --------------------------------------------------


@dataclass
class Side:
    """One graph as the library sees it, plus the benchmark's own arc colours."""

    graph: object
    arc_colors: np.ndarray
    path: Optional[Path] = None


def build_side(side: dict, groups: dict[str, PermGroup], api) -> Side:
    G = groups[side["group"]]
    group = api.FiniteGroup(G.table.copy())
    parts = [(0,)]
    for part in side["colouring"]:
        parts.append(tuple(sorted(np.concatenate([G.classes[c] for c in part]).tolist())))
    graph = api.build_central_cayley(group, api.ClassPartition(tuple(parts)))
    # arc (g, h) carries the colour of h * g^-1, computed without the library
    class_of = np.empty(G.order, dtype=np.int64)
    for i, part in enumerate(parts):
        class_of[list(part)] = i
    arcs = class_of[G.table[np.arange(G.order)[None, :], G.inverse[:, None]]]
    return Side(graph, arcs)


def inputs_digest(built) -> str:
    """What the library receives: tables, colourings and file bytes."""
    h = hashlib.sha256()
    for sides in built:
        for side in sides:
            if side is None:
                continue
            h.update(side.graph.group.table.tobytes())
            h.update(repr(side.graph.partition.classes).encode())
            if side.path is not None:
                h.update(side.path.read_bytes())
    return h.hexdigest()


def arc_check(rep, src: np.ndarray, dst: np.ndarray) -> bool:
    """rep maps src onto dst colour for colour: dst[rep(g), rep(h)] = src[g, h]."""
    if rep is None:
        return False
    r = np.asarray(rep, dtype=np.int64)
    n = src.shape[0]
    if r.shape != (n,) or not np.array_equal(np.sort(r), np.arange(n)):
        return False
    return bool(np.array_equal(dst[r[:, None], r[None, :]], src))
