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

The pipeline never refines n x n matrices: every seed it refines is a
central Cayley coloring, whose closure ``cencay.cayley`` computes on the
identity row alone.  ``wl_closure``, ``extend_algebraic_iso`` and
``is_boxplus_trivial`` remain here as the exact n x n oracles that the row
engine is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import InternalError, InvalidInputError

Relation = Union[np.ndarray, "RelationLike"]
RelationLike = Sequence


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
    """Normalize a relation to an integer matrix (bool sets or color matrices)."""
    if isinstance(rel, np.ndarray):
        if rel.shape != (n, n):
            raise InvalidInputError(f"relation matrix must be {n}x{n}")
        out = rel.astype(np.int64)
        if out.min(initial=0) < 0:
            raise InvalidInputError("relation values must be nonnegative")
        return out
    if hasattr(rel, "color_matrix"):
        return rel.color_matrix().astype(np.int64)
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

    def __init__(self, colors: np.ndarray, check: bool = True):
        C = np.ascontiguousarray(colors, dtype=np.int32)
        if C.ndim != 2 or C.shape[0] != C.shape[1] or C.shape[0] == 0:
            raise InvalidInputError("color matrix must be square and nonempty")
        self.n = int(C.shape[0])
        self.colors = C
        self.rank = int(C.max()) + 1
        self.colors.setflags(write=False)
        self._pairing: Optional[np.ndarray] = None
        self._fibers: Optional[list[np.ndarray]] = None
        self._reps: Optional[np.ndarray] = None
        self._inums: dict[int, dict[tuple[int, int], int]] = {}
        if check:
            self.verify_axioms(exhaustive=self.n <= 200)

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
    def fibers(self) -> list[np.ndarray]:
        if self._fibers is None:
            d = np.diagonal(self.colors)
            self._fibers = [np.nonzero(d == c)[0] for c in self.diagonal_colors]
        return self._fibers

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

    def verify_axioms(self, exhaustive: bool = True, samples: int = 100_000, rng_seed: int = 7):
        """Check (C1) reflexivity, (C2) transposition, (C3) intersection numbers.

        Exhaustive (C3) runs one exact refinement round and demands a fixed
        point; sampled mode compares intersection-number dictionaries from
        random pairs against the representative pair.
        """
        d = np.diagonal(self.colors)
        off_mask = ~np.eye(self.n, dtype=bool)
        off = np.unique(self.colors[off_mask]) if self.n > 1 else np.array([], dtype=np.int32)
        if np.intersect1d(np.unique(d), off).size:
            raise InvalidInputError("(C1) fails: diagonal mixes with off-diagonal colors")
        _ = self.pairing  # raises if (C2) fails
        if exhaustive:
            res = _exact_round_apply([self.colors], self.rank)
            if res is None or res[1] != self.rank:
                raise InvalidInputError("(C3) fails: refinement splits a color")
        else:
            rng = np.random.default_rng(rng_seed)
            per = max(1, samples // max(self.rank, 1))
            flat = self.colors.ravel()
            for t in range(self.rank):
                base = self.intersection_numbers(t)
                locs = np.nonzero(flat == t)[0]
                picks = rng.choice(locs, size=min(per, len(locs)), replace=False)
                for loc in picks:
                    a, b = divmod(int(loc), self.n)
                    codes = (
                        self.colors[a].astype(np.int64) * self.rank + self.colors[:, b]
                    )
                    counts = np.bincount(codes, minlength=self.rank * self.rank)
                    nz = np.nonzero(counts)[0]
                    d2 = {
                        (int(c // self.rank), int(c % self.rank)): int(counts[c])
                        for c in nz
                    }
                    if d2 != base:
                        raise InvalidInputError("(C3) fails on a sampled pair")

    def __eq__(self, other):
        return isinstance(other, CoherentConfiguration) and np.array_equal(
            self.colors, other.colors
        )

    def __repr__(self):
        return f"CoherentConfiguration(n={self.n}, rank={self.rank})"


# -- public operations ------------------------------------------------------------


def wl_closure(seeds: Iterable, n: int, check: bool = True) -> CoherentConfiguration:
    """Coherent closure of a list of relations on n points, by exact n x n rounds.

    Seeds may be boolean matrices, pair iterables, integer color matrices, or
    RelationPartition objects; uncovered pairs share a background color and
    the diagonal is split off before refinement starts.  The pipeline uses
    ``cencay.cayley.closure_rows`` instead; this is its test oracle.
    """
    init = _initial_colors_lockstep([list(seeds)], n)
    if init is None:
        raise InternalError("single-sided initial coloring cannot diverge")
    mats, rank = init
    res = _refine_lockstep(mats, rank)
    if res is None:
        raise InternalError("single-sided refinement cannot diverge")
    out = CoherentConfiguration(res[0][0], check=False)
    if check:
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

    def map_union(self, color_set: frozenset[int]) -> frozenset[int]:
        return frozenset(int(self.color_map[c]) for c in color_set)


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
    X = CoherentConfiguration(mats[0], check=False)
    Y = CoherentConfiguration(mats[1], check=False)
    X.verify_light()
    Y.verify_light()
    phi = AlgebraicIso(X, Y, np.arange(rank, dtype=np.int32))
    phi.verify()
    return X, Y, phi


@dataclass
class EquivalenceInClosure:
    """An equivalence relation that is a union of colors of a configuration."""

    config: CoherentConfiguration
    class_of: np.ndarray
    classes: list[np.ndarray] = field(default_factory=list)
    color_set: frozenset = frozenset()

    @staticmethod
    def from_class_array(X: CoherentConfiguration, class_of: Sequence[int]) -> "EquivalenceInClosure":
        cls = np.asarray(class_of, dtype=np.int32)
        if len(cls) != X.n:
            raise InvalidInputError("class array length mismatch")
        same = cls[:, None] == cls[None, :]
        inside = np.unique(X.colors[same])
        outside = np.unique(X.colors[~same]) if X.n > 1 else np.array([], dtype=np.int32)
        if np.intersect1d(inside, outside).size:
            raise InvalidInputError("equivalence is not a union of colors")
        ids = np.unique(cls)
        classes = [np.nonzero(cls == i)[0] for i in ids]
        remap = {int(v): i for i, v in enumerate(ids)}
        cls = np.array([remap[int(v)] for v in cls], dtype=np.int32)
        return EquivalenceInClosure(X, cls, classes, frozenset(int(c) for c in inside))

    @staticmethod
    def from_color_set(X: CoherentConfiguration, colors: Iterable[int]) -> "EquivalenceInClosure":
        colorset = frozenset(int(c) for c in colors)
        mask = np.isin(X.colors, list(colorset))
        if not np.array_equal(mask, mask.T):
            raise InvalidInputError("color union is not symmetric")
        if not np.all(np.diagonal(mask)):
            raise InvalidInputError("color union is not reflexive")
        # connected components; then verify transitivity as block-completeness
        cls = _components(mask)
        m = int(cls.max()) + 1
        sizes = np.bincount(cls, minlength=m)
        if int((sizes.astype(np.int64) ** 2).sum()) != int(mask.sum()):
            raise InvalidInputError("color union is not transitive")
        return EquivalenceInClosure.from_class_array(X, cls)

    @property
    def m(self) -> int:
        return len(self.classes)


def _components(adj: np.ndarray) -> np.ndarray:
    n = adj.shape[0]
    cls = np.full(n, -1, dtype=np.int32)
    nxt = 0
    for s in range(n):
        if cls[s] >= 0:
            continue
        stack = [s]
        cls[s] = nxt
        while stack:
            v = stack.pop()
            for w in np.nonzero(adj[v])[0]:
                if cls[w] < 0:
                    cls[int(w)] = nxt
                    stack.append(int(w))
        nxt += 1
    return cls


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
    out = CoherentConfiguration(new, check=False)
    out.verify_light()
    return out, parent_of


def quotient_cc(
    X: CoherentConfiguration, e: EquivalenceInClosure
) -> tuple[CoherentConfiguration, np.ndarray]:
    """Quotient modulo an equivalence; colors with one incidence pattern merge.

    Returns the quotient configuration and the map from parent colors to
    quotient colors.
    """
    cls = e.class_of.astype(np.int64)
    m = e.m
    cell = cls[:, None] * m + cls[None, :]
    combined = X.colors.astype(np.int64) * (m * m) + cell
    pairs = np.unique(combined)
    inc_color = (pairs // (m * m)).astype(np.int32)
    inc_cell = (pairs % (m * m)).astype(np.int64)
    patterns: dict[int, frozenset] = {}
    for c in range(X.rank):
        cells = inc_cell[inc_color == c]
        patterns[c] = frozenset(int(v) for v in cells)
    # merge colors with identical class-incidence patterns
    pat_ids: dict[frozenset, int] = {}
    q_of_color = np.empty(X.rank, dtype=np.int32)
    for c in range(X.rank):
        pid = pat_ids.setdefault(patterns[c], len(pat_ids))
        q_of_color[c] = pid
    Q = np.full((m, m), -1, dtype=np.int32)
    for pat, pid in pat_ids.items():
        for cellv in pat:
            i, j = divmod(cellv, m)
            if Q[i, j] >= 0 and Q[i, j] != pid:
                raise InvalidInputError("incidence patterns overlap; not a quotient")
            Q[i, j] = pid
    if np.any(Q < 0):
        raise InternalError("quotient cells left uncolored")
    canon, rank = _canonicalize_first_occurrence(Q)
    relabel = np.empty(rank, dtype=np.int32)
    relabel[canon.ravel()] = Q.ravel()
    inv_relabel = np.empty(rank, dtype=np.int32)
    inv_relabel[relabel] = np.arange(rank)
    out = CoherentConfiguration(canon, check=False)
    out.verify_axioms(exhaustive=m <= 200)
    return out, inv_relabel[q_of_color]


def is_boxplus_trivial(X: CoherentConfiguration, parts: Sequence[Sequence[int]]) -> bool:
    """Whether X is the direct sum of trivial configurations on the parts.

    Inside each part only the diagonal and its complement may appear, and
    every color crossing two parts must cover their full product.  The
    pipeline decides this on the closure row (``cencay.cayley.compute_H0``);
    this is its n x n test oracle.
    """
    n = X.n
    part_of = np.full(n, -1, dtype=np.int64)
    sizes = []
    for i, p in enumerate(parts):
        arr = np.asarray(list(p), dtype=np.int64)
        part_of[arr] = i
        sizes.append(len(arr))
    if np.any(part_of < 0):
        raise InvalidInputError("parts do not cover the domain")
    if len(set(sizes)) != 1:
        raise InvalidInputError("parts must have equal size")
    k = len(parts)
    cell = part_of[:, None] * k + part_of[None, :]
    combined = X.colors.astype(np.int64) * (k * k) + cell
    counts = np.bincount(combined.ravel(), minlength=X.rank * k * k)
    b = sizes[0]
    diag_colors = set(int(c) for c in X.diagonal_colors)
    for c in range(X.rank):
        for cellv in range(k * k):
            cnt = int(counts[c * k * k + cellv])
            if cnt == 0:
                continue
            i, j = divmod(cellv, k)
            if i != j:
                if cnt != b * b:
                    return False
            else:
                if c in diag_colors:
                    if cnt != b:
                        return False
                elif cnt != b * b - b:
                    return False
    return True


def is_wreath_wrt(X: CoherentConfiguration, e: EquivalenceInClosure) -> bool:
    """Whether X is the wreath product with respect to e.

    Every color outside e must be a union of full products of e-classes.
    """
    if not X.homogeneous:
        raise InvalidInputError("wreath test requires a homogeneous configuration")
    cls = e.class_of.astype(np.int64)
    m = e.m
    sizes = np.bincount(cls, minlength=m).astype(np.int64)
    cell = cls[:, None] * m + cls[None, :]
    combined = X.colors.astype(np.int64) * (m * m) + cell
    counts = np.bincount(combined.ravel(), minlength=X.rank * (m * m))
    for c in range(X.rank):
        if c in e.color_set:
            continue
        for cellv in range(m * m):
            cnt = int(counts[c * m * m + cellv])
            if cnt == 0:
                continue
            i, j = divmod(cellv, m)
            if cnt != int(sizes[i] * sizes[j]):
                return False
    return True


@dataclass
class InducedIsos:
    """Class pairing plus the induced restriction and quotient isomorphisms."""

    class_pairs: list[tuple[int, int]]
    restriction_isos: list[AlgebraicIso]
    quotient_iso: AlgebraicIso


def induced_iso_on_restriction_and_quotient(
    phi: AlgebraicIso,
    e: EquivalenceInClosure,
    class_pairing: Optional[list[tuple[int, int]]] = None,
) -> InducedIsos:
    """Induce phi on the restrictions to e-classes and on the quotient.

    phi(e) is the equivalence with the mapped color set; it has the same
    number of classes (asserted).  Classes are paired canonically (by
    smallest point) unless an explicit pairing is given, which suits Cayley
    schemes where translations identify all classes of one equivalence.
    """
    X, Y = phi.source, phi.target
    e2 = EquivalenceInClosure.from_color_set(Y, phi.map_union(e.color_set))
    if e2.m != e.m:
        raise InternalError("mapped equivalence has a different class count")
    if class_pairing is None:
        class_pairing = list(zip(range(e.m), range(e2.m)))
    rest_isos = []
    for i, j in class_pairing:
        XA, pa = restriction(X, e.classes[i])
        YB, pb = restriction(Y, e2.classes[j])
        if XA.rank != YB.rank:
            raise InvalidInputError("restrictions have different ranks; bad class pairing")
        lookup = {int(p): idx for idx, p in enumerate(pb)}
        cmap = np.empty(XA.rank, dtype=np.int32)
        for idx, p in enumerate(pa):
            tgt = lookup.get(int(phi.color_map[int(p)]))
            if tgt is None:
                raise InvalidInputError("restricted color missing on the target side")
            cmap[idx] = tgt
        iso = AlgebraicIso(XA, YB, cmap)
        iso.verify()
        rest_isos.append(iso)
    QX, qa = quotient_cc(X, e)
    QY, qb = quotient_cc(Y, e2)
    if QX.rank != QY.rank:
        raise InvalidInputError("quotients have different ranks")
    qmap = np.full(QX.rank, -1, dtype=np.int32)
    for c in range(X.rank):
        src_q = int(qa[c])
        dst_q = int(qb[int(phi.color_map[c])])
        if qmap[src_q] >= 0 and qmap[src_q] != dst_q:
            raise InvalidInputError("quotient color map is inconsistent")
        qmap[src_q] = dst_q
    qiso = AlgebraicIso(QX, QY, qmap)
    qiso.verify()
    return InducedIsos(class_pairing, rest_isos, qiso)
