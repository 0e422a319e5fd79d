"""Coherent configurations and the Weisfeiler-Leman coherent closure.

A configuration is stored as an n x n color matrix.  Refinement recolors each
pair (a, b) by its own color, the color of (b, a), and the sorted multiset of
color pairs (c(a, g), c(g, b)) over all g; the closure is the fixed point,
colors canonicalized by first occurrence in row-major order.  Every round is
exact (whole multisets are compared, nothing is hashed), so the fixed point
doubles as the exhaustive check of the intersection-number axiom: a partition
is coherent exactly when the exact refinement round fixes it.

The two-sided ("lockstep") variant refines two matrices with one shared color
table and decides whether a prescribed relation pairing extends to an
algebraic isomorphism of the closures.

The pipeline uses nothing in this module: every scheme it meets is a
central Cayley scheme, held as its identity row by ``cencay.cayley``, which
refines it, tests the section criteria on it and checks algebraic
isomorphisms on its round keys.  Everything here is the exact n x n code
that the row engine is tested against: ``wl_closure``,
``extend_algebraic_iso``, ``restriction`` and ``AlgebraicIso``, on
``CoherentConfiguration``.  The package does not re-export them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InternalError, InvalidInputError

# -- canonical color maps -----------------------------------------------------


def _canonicalize_first_occurrence(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber arbitrary codes to 0..r-1 by first occurrence in flat order."""
    (out,), rank = _canonicalize_shared([codes])
    return out, rank


def _canonicalize_shared(codes: list[np.ndarray]) -> Optional[tuple[list[np.ndarray], int]]:
    """First-occurrence numbering of side 0's codes, applied to every side.

    Returns None when another side carries a code that side 0 lacks.
    """
    flat0 = codes[0].ravel()
    uniq, inverse = np.unique(flat0, return_inverse=True)
    first = np.full(len(uniq), len(flat0), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(flat0), dtype=np.int64))
    rank_of_sorted = np.empty(len(uniq), dtype=np.int32)
    rank_of_sorted[np.argsort(first, kind="stable")] = np.arange(len(uniq))
    out = [rank_of_sorted[inverse].reshape(codes[0].shape)]
    for side in codes[1:]:
        flat = side.ravel()
        pos = np.minimum(np.searchsorted(uniq, flat), len(uniq) - 1)
        if not np.array_equal(uniq[pos], flat):
            return None
        out.append(rank_of_sorted[pos].reshape(side.shape))
    return out, len(uniq)


def _pair_codes_exact(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Exactly injective uint64 combination of two small nonnegative matrices."""
    a = primary.astype(np.uint64)
    b = secondary.astype(np.uint64)
    if int(a.max(initial=0)) >= (1 << 31) or int(b.max(initial=0)) >= (1 << 31):
        raise InternalError("code values exceed the exact pairing range")
    return (a << np.uint64(31)) | b


# -- refinement engine ---------------------------------------------------------


def _exact_keys_round(C: np.ndarray, rank: int):
    """Exact fingerprints: own color, transpose color, sorted multiset bytes."""
    n = C.shape[0]
    R = np.int64(rank)
    C64 = C.astype(np.int64)
    for a in range(n):
        M = C64[a][:, None] * R + C64
        M.sort(axis=0, kind="stable")
        cols = np.ascontiguousarray(M.T)
        row = C[a]
        col = C[:, a]
        yield a, [(int(row[b]), int(col[b]), cols[b].tobytes()) for b in range(n)]


def _exact_round_apply(
    mats: list[np.ndarray], rank: int
) -> Optional[tuple[list[np.ndarray], int]]:
    """One exact refinement round across all sides with a shared color table."""
    n = mats[0].shape[0]
    table: dict[tuple[int, bytes], int] = {}
    outs = []
    new0 = np.empty((n, n), dtype=np.int32)
    for a, keys in _exact_keys_round(mats[0], rank):
        row = new0[a]
        for b, key in enumerate(keys):
            c = table.get(key)
            if c is None:
                c = len(table)
                table[key] = c
            row[b] = c
    outs.append(new0)
    for side in mats[1:]:
        new = np.empty((n, n), dtype=np.int32)
        for a, keys in _exact_keys_round(side, rank):
            row = new[a]
            for b, key in enumerate(keys):
                c = table.get(key)
                if c is None:
                    return None
                row[b] = c
        outs.append(new)
    new_rank = len(table)
    if len(outs) > 1:
        base = np.bincount(outs[0].ravel(), minlength=new_rank)
        for other in outs[1:]:
            if not np.array_equal(base, np.bincount(other.ravel(), minlength=new_rank)):
                return None
    return outs, new_rank


def _refine_lockstep(mats: list[np.ndarray], rank: int) -> Optional[tuple[list[np.ndarray], int]]:
    """Refine one or two color matrices to the coherent fixed point.

    Returns None (sides diverged) only in the two-sided case.
    """
    while True:
        res = _exact_round_apply(mats, rank)
        if res is None:
            return None
        new_mats, new_rank = res
        if new_rank == rank:
            return mats, rank
        if new_rank < rank:
            raise InternalError("refinement coarsened the partition")
        mats, rank = new_mats, new_rank


# -- seed handling --------------------------------------------------------------


def _relation_to_matrix(rel, n: int) -> np.ndarray:
    """Normalize a relation to an integer matrix (bool sets, color matrices or pairs)."""
    if isinstance(rel, np.ndarray):
        if rel.shape != (n, n):
            raise InvalidInputError(f"relation matrix must be {n}x{n}")
        out = rel.astype(np.int64)
        if out.min(initial=0) < 0:
            raise InvalidInputError("relation values must be nonnegative")
        return out
    # iterable of (i, j) pairs
    M = np.zeros((n, n), dtype=np.int64)
    for i, j in rel:
        M[int(i), int(j)] = 1
    return M


def _initial_colors_lockstep(
    seed_sides: list[list], n: int
) -> Optional[tuple[list[np.ndarray], int]]:
    """Initial coloring from seed relation lists, positionally paired.

    The diagonal is always separated so the closure can satisfy the
    reflexivity axiom; uncovered pairs share one background color.
    """
    if n <= 0:
        raise InvalidInputError("domain must be nonempty")
    sides = len(seed_sides)
    diag0, rank = _canonicalize_first_occurrence(np.eye(n, dtype=np.int64))
    mats = [diag0.copy() for _ in range(sides)]
    counts = {len(s) for s in seed_sides}
    if len(counts) != 1:
        return None
    for idx in range(len(seed_sides[0])):
        codes = [
            _pair_codes_exact(mats[s], _relation_to_matrix(seed_sides[s][idx], n))
            for s in range(sides)
        ]
        res = _canonicalize_shared(codes)
        if res is None:
            return None
        mats, rank = res
    if sides > 1:
        base = np.bincount(mats[0].ravel(), minlength=rank)
        for other in mats[1:]:
            if not np.array_equal(base, np.bincount(other.ravel(), minlength=rank)):
                return None
    return mats, rank


# -- the configuration type ------------------------------------------------------


class CoherentConfiguration:
    """A coherent configuration as a canonical color matrix."""

    def __init__(self, colors: np.ndarray):
        C = np.ascontiguousarray(colors, dtype=np.int32)
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] == 0:
            raise InvalidInputError("color matrix must be square and nonempty")
        self.n = int(C.shape[0])
        self.colors = C
        self.rank = int(C.max()) + 1
        self.colors.setflags(write=False)
        self._pairing: Optional[np.ndarray] = None
        self._reps: Optional[np.ndarray] = None
        self._inums: dict[int, dict[tuple[int, int], int]] = {}

    def verify_light(self) -> None:
        """(C1) and (C2) only; for closures whose fixed point certified (C3)."""
        d = np.diagonal(self.colors)
        if self.n > 1:
            off = np.unique(self.colors[~np.eye(self.n, dtype=bool)])
            if np.intersect1d(np.unique(d), off).size:
                raise InvalidInputError("(C1) fails: diagonal mixes with off-diagonal")
        _ = self.pairing  # raises if (C2) fails

    # representatives and sizes

    def color_sizes(self) -> np.ndarray:
        return np.bincount(self.colors.ravel(), minlength=self.rank)

    def rep_pairs(self) -> np.ndarray:
        """First pair (row-major) of each color, as an array of (a, b)."""
        if self._reps is None:
            flat = self.colors.ravel()
            first = np.full(self.rank, self.n * self.n, dtype=np.int64)
            np.minimum.at(first, flat, np.arange(len(flat), dtype=np.int64))
            self._reps = np.stack([first // self.n, first % self.n], axis=1)
        return self._reps

    @property
    def diagonal_colors(self) -> np.ndarray:
        return np.unique(np.diagonal(self.colors))

    @property
    def homogeneous(self) -> bool:
        return len(self.diagonal_colors) == 1

    @property
    def pairing(self) -> np.ndarray:
        """The transpose pairing s -> s*."""
        if self._pairing is None:
            reps = self.rep_pairs()
            out = self.colors[reps[:, 1], reps[:, 0]]
            if not np.array_equal(out[self.colors], self.colors.T):
                raise InvalidInputError("transpose of a color is not a color")
            self._pairing = out
        return self._pairing

    def intersection_numbers(self, t: int) -> dict[tuple[int, int], int]:
        """Sparse c_{rs}^t for one target color, from its representative pair."""
        if t not in self._inums:
            a, b = self.rep_pairs()[t]
            codes = self.colors[a].astype(np.int64) * self.rank + self.colors[:, b]
            counts = np.bincount(codes, minlength=self.rank * self.rank)
            nz = np.nonzero(counts)[0]
            self._inums[t] = {
                (int(c // self.rank), int(c % self.rank)): int(counts[c]) for c in nz
            }
        return self._inums[t]

    def verify_axioms(self):
        """Check (C1) reflexivity, (C2) transposition, (C3) intersection numbers.

        (C3) runs one exact refinement round and demands a fixed point, so it
        is exhaustive.
        """
        self.verify_light()
        res = _exact_round_apply([self.colors], self.rank)
        if res is None or res[1] != self.rank:
            raise InvalidInputError("(C3) fails: refinement splits a color")

    def __eq__(self, other):
        return isinstance(other, CoherentConfiguration) and np.array_equal(
            self.colors, other.colors
        )

    def __repr__(self):
        return f"CoherentConfiguration(n={self.n}, rank={self.rank})"


# -- public operations ------------------------------------------------------------


def wl_closure(seeds: Iterable, n: int) -> CoherentConfiguration:
    """Coherent closure of a list of relations on n points, by exact n x n rounds.

    Seeds may be boolean matrices, integer color matrices or pair iterables;
    uncovered pairs share a background color and the diagonal is split off
    before refinement starts.  The pipeline uses
    ``cencay.cayley.closure_rows`` instead; this is its test oracle.
    """
    init = _initial_colors_lockstep([list(seeds)], n)
    if init is None:
        raise InternalError("single-sided initial coloring cannot diverge")
    mats, rank = init
    res = _refine_lockstep(mats, rank)
    if res is None:
        raise InternalError("single-sided refinement cannot diverge")
    out = CoherentConfiguration(res[0][0])
    out.verify_light()  # the exact fixed-point round already certified (C3)
    return out


@dataclass
class AlgebraicIso:
    """A color bijection preserving all intersection numbers."""

    source: CoherentConfiguration
    target: CoherentConfiguration
    color_map: np.ndarray

    def __post_init__(self):
        self.color_map = np.asarray(self.color_map, dtype=np.int32)

    def verify(self) -> None:
        X, Y, phi = self.source, self.target, self.color_map
        if X.rank != Y.rank or len(phi) != X.rank:
            raise InvalidInputError("color map is not a bijection of the ranks")
        if len(np.unique(phi)) != X.rank:
            raise InvalidInputError("color map is not injective")
        if not np.array_equal(X.color_sizes(), Y.color_sizes()[phi]):
            raise InvalidInputError("color sizes differ under the map")
        for t in range(X.rank):
            src = X.intersection_numbers(t)
            dst = Y.intersection_numbers(int(phi[t]))
            mapped = {(int(phi[r]), int(phi[s])): v for (r, s), v in src.items()}
            if mapped != dst:
                raise InvalidInputError("intersection numbers differ under the map")


def extend_algebraic_iso(
    seeds_src: Sequence, seeds_dst: Sequence, n: int
) -> Optional[tuple[CoherentConfiguration, CoherentConfiguration, AlgebraicIso]]:
    """Extend the positional seed pairing to an algebraic isomorphism of closures.

    Both sides are refined in lockstep with one shared color table, seeded by
    the pairing seeds_src[i] -> seeds_dst[i].  If the exact refinement keys
    ever diverge there is no extension and None is returned; otherwise the
    closures share canonical color indices and the identity map is returned,
    verified against the intersection numbers of every triple.  The pipeline
    refines identity rows instead (``cencay.cayley.closure_rows``); this is
    their n x n test oracle.
    """
    init = _initial_colors_lockstep([list(seeds_src), list(seeds_dst)], n)
    if init is None:
        return None
    res = _refine_lockstep(*init)
    if res is None:
        return None
    mats, rank = res
    X = CoherentConfiguration(mats[0])
    Y = CoherentConfiguration(mats[1])
    X.verify_light()
    Y.verify_light()
    phi = AlgebraicIso(X, Y, np.arange(rank, dtype=np.int32))
    phi.verify()
    return X, Y, phi


def restriction(
    X: CoherentConfiguration, points: Sequence[int]
) -> tuple[CoherentConfiguration, np.ndarray]:
    """Restriction to a point set that is a class of an equivalence or a fiber union.

    Returns the restricted configuration and the array sending each new color
    index to its parent color.
    """
    idx = np.asarray(sorted(int(p) for p in points), dtype=np.int32)
    if len(idx) == 0:
        raise InvalidInputError("restriction to the empty set")
    mask = np.zeros(X.n, dtype=bool)
    mask[idx] = True
    inside = np.unique(X.colors[np.ix_(idx, idx)])
    comp = np.nonzero(~mask)[0]
    if len(comp):
        cross = np.union1d(
            np.unique(X.colors[np.ix_(idx, comp)]), np.unique(X.colors[np.ix_(comp, idx)])
        )
        if np.intersect1d(inside, cross).size:
            raise InvalidInputError(
                "point set is not a class of a closure equivalence or fiber union"
            )
    sub = X.colors[np.ix_(idx, idx)]
    new, rank = _canonicalize_first_occurrence(sub)
    parent_of = np.empty(rank, dtype=np.int32)
    parent_of[new.ravel()] = sub.ravel()
    out = CoherentConfiguration(new)
    out.verify_light()
    return out, parent_of
