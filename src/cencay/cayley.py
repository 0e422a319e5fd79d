"""Central colored Cayley graphs, Cayley schemes, and the principal section.

A colored Cayley graph is a partition of the group with class 0 = {identity};
the arc (g, h) carries the color of h*g^-1.  Centrality (classes closed under
conjugation) makes both right and left translations color automorphisms.

Every seed the pipeline refines (the arc colors, and the equivalences of the
normal subgroups U and L) is invariant under right translation and constant
on conjugacy classes, so its coherent closure is a Cayley scheme, fixed by
its identity row (the Schur-ring view: Wielandt, Finite Permutation Groups,
ch. IV).  ``closure_rows`` refines that row one conjugacy class at a time;
n x n matrices are gathered from the row only where a later step indexes
them.

The principal section of the scheme's automorphism group is computed without
the group itself: a direct-sum criterion on the closure row decides the
symmetric case and yields L = U as the largest subgroup meeting it;
otherwise L is the socle and U is the smallest normal subgroup over the
socle whose one-sided partial translations preserve every basis relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coherent import CoherentConfiguration
from .coherent import wl_closure  # noqa: F401  (bound here only for bench/tracing.py WRAPS)
from .errors import InternalError, InvalidInputError
from .group import (
    ClassPartition,
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    greedy_generators,
    is_almost_simple,
    socle,
    subgroups_over_socle,
)


@dataclass
class ColorCayleyGraph:
    """A Cayley partition of a group plus its arc coloring."""

    group: FiniteGroup
    partition: ClassPartition

    def __post_init__(self):
        G, part = self.group, self.partition
        if part.classes[0] != (0,):
            raise InvalidInputError("class 0 must be exactly the identity")
        if part.k < 2:
            raise InvalidInputError("a Cayley partition needs at least 2 classes")
        self.class_of = part.class_of_array(G.order)
        for cls in part.classes:
            mem = set(cls)
            for x in cls:
                for g in range(G.order):
                    if G.conj(x, g) not in mem:
                        raise InvalidInputError("not central: a class is not normal")

    @property
    def k(self) -> int:
        return self.partition.k

    @cached_property
    def arc_colors(self) -> np.ndarray:
        """Color matrix: entry (g, h) is the class index of h * g^-1."""
        return cayley_matrix(self.group, self.class_of)

    def color_relation(self, i: int) -> np.ndarray:
        return (self.arc_colors == i).astype(np.int8)

    def relabelled(self, f: Sequence[int]) -> "ColorCayleyGraph":
        """Transport the arc coloring along a bijection and re-read the classes.

        Valid when the result is again a Cayley coloring (e.g. f normalizes
        the translations, as any element of D(2,G) does).
        """
        f = np.asarray(f, dtype=np.int32)
        M = self.arc_colors
        Mf = np.empty_like(M)
        Mf[f[:, None], f[None, :]] = M
        classes: list[list[int]] = [[] for _ in range(self.k)]
        for h in range(self.group.order):
            classes[int(Mf[0, h])].append(h)
        return ColorCayleyGraph(self.group, ClassPartition(tuple(tuple(c) for c in classes)))


def cayley_matrix(G: FiniteGroup, row: np.ndarray) -> np.ndarray:
    """The n x n color matrix of an identity row: entry (g, h) is row[h * g^-1]."""
    n = G.order
    gather = G.table[np.arange(n)[None, :], G.inverse[:, None]]
    return np.ascontiguousarray(np.asarray(row)[gather])


def build_central_cayley(G: FiniteGroup, partition: ClassPartition) -> ColorCayleyGraph:
    """Validated central colored Cayley graph over an almost simple group."""
    if not is_almost_simple(G):
        raise InvalidInputError("base group is not almost simple")
    return ColorCayleyGraph(G, partition)


def partition_from_class_merge(G: FiniteGroup, merge: Sequence[Sequence[int]]) -> ClassPartition:
    """Merge conjugacy classes (by their deterministic ids) into Cayley classes."""
    cc = conjugacy_classes(G)
    used = sorted(i for grp in merge for i in grp)
    if used != list(range(cc.k)):
        raise InvalidInputError("merge must cover every class id exactly once")
    if list(merge[0]) != [0]:
        raise InvalidInputError("the first merge group must be exactly class 0")
    classes = []
    for grp in merge:
        members: list[int] = []
        for i in grp:
            members.extend(cc.classes[i])
        classes.append(tuple(sorted(members)))
    return ClassPartition(tuple(classes))


class CayleyScheme:
    """A Cayley scheme on a group, stored as its identity row.

    The color of (g, h) is row[h * g^-1], so right translations preserve
    every color by construction, and left translations do exactly when the
    row is constant on conjugacy classes (``central``).  ``verify`` checks
    (C1) and (C2) on the row; (C3) is certified by the fixed point of the
    refinement that produced it (``closure_rows``).
    """

    def __init__(self, group: FiniteGroup, row: np.ndarray, verify: bool = True):
        row = np.ascontiguousarray(row, dtype=np.int32)
        if row.shape != (group.order,):
            raise InvalidInputError("the identity row needs one color per group element")
        self.group = group
        self.row = row
        self.rank = int(row.max()) + 1
        self.row.setflags(write=False)
        if verify:
            self._verify_row()

    def _verify_row(self):
        G, row = self.group, self.row
        if np.count_nonzero(row == row[0]) != 1:
            raise InvalidInputError("(C1) fails: the identity shares its color")
        inverted = row[G.inverse]
        pairing = np.empty(self.rank, dtype=np.int32)
        pairing[row] = inverted
        if not np.array_equal(pairing[row], inverted):
            raise InvalidInputError("(C2) fails: the inverses of a color are not a color")

    @cached_property
    def central(self) -> bool:
        """Whether the row is constant on conjugacy classes."""
        G, row = self.group, self.row
        x = np.arange(G.order)
        return all(
            np.array_equal(row[G.table[G.table[G.inverse[g], x], g]], row)
            for g in greedy_generators(G)
        )

    @cached_property
    def base(self) -> CoherentConfiguration:
        """The n x n color matrix, gathered from the row."""
        X = CoherentConfiguration(cayley_matrix(self.group, self.row), check=False)
        X.verify_light()
        return X

    @cached_property
    def point_classes(self) -> list[tuple[int, ...]]:
        """Neighborhoods of the identity per basis relation."""
        return [tuple(int(x) for x in np.nonzero(self.row == s)[0]) for s in range(self.rank)]

    def __repr__(self):
        return f"CayleyScheme(n={self.group.order}, rank={self.rank})"


def _classes_by_first_member(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Conjugacy class representatives (smallest members, ascending) and each element's class."""
    classes = sorted(conjugacy_classes(G).classes)
    reps = np.array([c[0] for c in classes], dtype=np.int64)
    class_of = np.empty(G.order, dtype=np.int64)
    for j, c in enumerate(classes):
        class_of[list(c)] = j
    return reps, class_of


def _number_shared(
    keys: list[list[bytes]], class_ofs: list[np.ndarray]
) -> Optional[tuple[list[np.ndarray], int]]:
    """Color rows from per-class keys, numbered on side 0, shared by all sides.

    Side 0's classes come in order of their smallest member, so the numbering
    is by first occurrence over element index.  None when another side has a
    key side 0 lacks or the color sizes differ.
    """
    table: dict[bytes, int] = {}
    rows = []
    for side, (side_keys, class_of) in enumerate(zip(keys, class_ofs)):
        ids = np.empty(len(side_keys), dtype=np.int32)
        for j, key in enumerate(side_keys):
            c = table.get(key)
            if c is None:
                if side:
                    return None
                c = table[key] = len(table)
            ids[j] = c
        rows.append(ids[class_of])
    rank = len(table)
    sizes = np.bincount(rows[0], minlength=rank)
    for other in rows[1:]:
        if not np.array_equal(sizes, np.bincount(other, minlength=rank)):
            return None
    return rows, rank


def _round_keys(G: FiniteGroup, reps: np.ndarray, row: np.ndarray, rank: int) -> list[bytes]:
    """Exact round keys at the class representatives x:
    (c(x), c(x^-1), sorted (c(y), c(x * y^-1)) over y)."""
    quotients = G.table[reps[:, None], G.inverse[None, :]]
    pairs = row.astype(np.int64)[None, :] * rank + row[quotients]
    pairs.sort(axis=1)
    keys = np.column_stack([row[reps], row[G.inverse[reps]], pairs])
    return [k.tobytes() for k in keys]


def closure_rows(
    sides: Sequence[tuple[FiniteGroup, Sequence[np.ndarray]]]
) -> Optional[tuple[list[np.ndarray], int]]:
    """Identity rows of the coherent closures of central Cayley seeds.

    Each side is a group with seed rows, positionally paired across sides;
    the seed row s stands for the relation coloring (g, h) by s[h * g^-1].
    The identity is split off first.  One round keys each element x by

        (c(x), c(x^-1), sorted multiset of (c(y), c(x * y^-1)) over y in G),

    which is the key the exact n x n round gives the pair (1, x).  On a
    translation-invariant matrix the pair (g, h) has the key of
    (1, h * g^-1), so this round *is* the exact n x n round, and its fixed
    point certifies (C3) just as ``wl_closure``'s does.  Central seeds keep
    every round constant on conjugacy classes (y -> g^-1 y g carries the
    multiset of x onto that of g^-1 x g), so keys are computed at one
    representative per class and copied to the class: O(#classes * n log n)
    per round instead of O(n^3 log n).

    Colors are numbered by first occurrence over element index on side 0.
    Row 0 of a Cayley matrix holds every color, so this is the row-major
    first-occurrence numbering of the n x n closure, and
    ``cayley_matrix(G, row)`` equals ``wl_closure``'s matrix entry for
    entry.  All sides share one key table: when they diverge, no algebraic
    isomorphism extends the seed pairing, and None is returned.
    """
    structs = [_classes_by_first_member(G) for G, _ in sides]
    keys = []
    for (G, seeds), (reps, class_of) in zip(sides, structs):
        init = np.column_stack(
            [np.arange(G.order) == 0] + [np.asarray(s) for s in seeds]
        ).astype(np.int64)
        if not np.array_equal(init, init[reps[class_of]]):
            raise InvalidInputError("a seed row is not constant on conjugacy classes")
        keys.append([k.tobytes() for k in init[reps]])
    class_ofs = [class_of for _, class_of in structs]
    res = _number_shared(keys, class_ofs)
    while res is not None:
        rows, rank = res
        keys = [
            _round_keys(G, reps, row, rank)
            for (G, _), (reps, _), row in zip(sides, structs, rows)
        ]
        res = _number_shared(keys, class_ofs)
        if res is not None and res[1] == rank:
            return rows, rank
    return None


def coset_class_array(G: FiniteGroup, cosets: Sequence[Sequence[int]]) -> np.ndarray:
    out = np.full(G.order, -1, dtype=np.int32)
    for i, coset in enumerate(cosets):
        out[list(coset)] = i
    if np.any(out < 0):
        raise InternalError("cosets do not cover the group")
    return out


def cayley_wl(gamma: ColorCayleyGraph) -> CayleyScheme:
    """Coherent closure of the graph, as a central Cayley scheme (see closure_rows)."""
    res = closure_rows([(gamma.group, [gamma.class_of])])
    if res is None:
        raise InternalError("single-sided refinement cannot diverge")
    scheme = CayleyScheme(gamma.group, res[0][0], verify=True)
    if not scheme.central:
        raise InvalidInputError("closure of a central graph lost left-invariance")
    return scheme


def _row_is_direct_sum(G: FiniteGroup, row: np.ndarray, H: Subgroup) -> bool:
    """Whether row is constant on H minus 1 and on each double coset HxH, x not in H."""
    h = np.asarray(H.elements, dtype=np.int64)
    if np.unique(row[h[1:]]).size > 1:
        return False
    seen = np.zeros(G.order, dtype=bool)
    seen[h] = True
    for x in range(G.order):
        if not seen[x]:
            double = G.table[G.table[h, x][:, None], h[None, :]]
            seen[double] = True
            if np.unique(row[double]).size > 1:
                return False
    return True


def compute_H0(scheme: CayleyScheme) -> list[Subgroup]:
    """Subgroups H over the socle whose coset-indicator closure is a direct
    sum of trivial configurations on the right cosets of H.

    Decided on the closure row c: H qualifies iff c is constant on H minus 1
    and on every double coset HxH with x not in H.  Proof sketch: let T be
    the direct sum of trivial configurations on the cosets (per coset a
    diagonal and an off-diagonal color, per ordered pair of distinct cosets
    their product).  T is coherent and refines every coset indicator.  If T
    refines the scheme X, the closure W of X and the indicators is a
    coarsening of T (the closure is the coarsest coherent refinement of its
    seeds), and a coherent coarsening of T that splits the cosets is a
    direct sum of trivial configurations.  Conversely such a W coarsens T
    and refines X.  So H qualifies iff T refines X.  With X(a, b) =
    c(b a^-1): the pairs inside a coset Hg have quotients covering H minus
    1, and the pairs from Hg to Hg' != Hg have quotients covering the double
    coset H(g'g^-1)H, every x outside H arising as some g'g^-1.  The n x n
    test, one coset-indicator closure per subgroup, stays in the tests as
    the oracle.
    """
    G = scheme.group
    return [
        H
        for H in subgroups_over_socle(G, require_normal=False)
        if _row_is_direct_sum(G, scheme.row, H)
    ]


def _partial_translation(G: FiniteGroup, H: Subgroup, h: int, side: str) -> np.ndarray:
    """x -> x*h (or h*x) on H, identity elsewhere."""
    p = np.arange(G.order, dtype=np.int32)
    idx = np.asarray(H.elements, dtype=np.int32)
    if side == "right":
        p[idx] = G.table[idx, h]
    else:
        p[idx] = G.table[h, idx]
    return p


def compute_H1(scheme: CayleyScheme) -> list[Subgroup]:
    """Normal subgroups H over the socle with H* x id outside H inside Aut.

    Tested on subgroup generators only: the one-sided partial translations
    generate the whole partial H*, so generator preservation suffices.
    """
    G = scheme.group
    C = scheme.base.colors
    out = []
    for H in subgroups_over_socle(G, require_normal=True):
        ok = True
        for h in H.generators():
            for side in ("right", "left"):
                p = _partial_translation(G, H, h, side)
                if not np.array_equal(C[p[:, None], p[None, :]], C):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(H)
    return out


@dataclass
class PrincipalSection:
    """The section U/L with its coset partitions and the type tag."""

    kind: str  # "symmetric" | "normal"
    L: Subgroup
    U: Subgroup
    l_cosets: list[tuple[int, ...]]
    u_cosets: list[tuple[int, ...]]
    l_class_of: np.ndarray
    u_class_of: np.ndarray

    @property
    def m(self) -> int:
        """Number of L-cosets (vertices of the quotient graph)."""
        return len(self.l_cosets)

    def __post_init__(self):
        G = self.L.parent
        soc_elems = set(socle(G).elements)
        lset, uset = set(self.L.elements), set(self.U.elements)
        if not (soc_elems <= lset <= uset):
            raise InternalError("section must satisfy soc <= L <= U")
        if not (self.L.is_normal and self.U.is_normal):
            raise InternalError("section subgroups must be normal")
        if self.kind == "symmetric" and self.L.elements != self.U.elements:
            raise InternalError("symmetric type forces L = U")
        if self.kind == "normal" and lset != soc_elems:
            raise InternalError("normal type forces L = soc(G)")


def principal_section(scheme: CayleyScheme) -> PrincipalSection:
    """Type and principal section of the scheme's automorphism group.

    Symmetric type iff the socle passes the direct-sum test; then L = U is
    the largest subgroup passing it.  Otherwise L is the socle and U is the
    smallest subgroup passing the one-sided translation test (which cannot
    be empty: the full group always passes by centrality).
    """
    G = scheme.group
    if not scheme.central:
        raise InvalidInputError("principal section needs a central scheme")
    soc = socle(G)
    h0 = compute_H0(scheme)
    soc_in_h0 = any(H.elements == soc.elements for H in h0)
    if soc_in_h0:
        largest = max(h0, key=lambda H: H.order)
        for H in h0:
            if not set(H.elements) <= set(largest.elements):
                raise InternalError("largest direct-sum subgroup is not unique")
        L = U = largest
        kind = "symmetric"
    else:
        h1 = compute_H1(scheme)
        if not h1:
            raise InternalError("H1 empty")
        smallest = min(h1, key=lambda H: H.order)
        for H in h1:
            if not set(smallest.elements) <= set(H.elements):
                raise InternalError("smallest translation subgroup is not unique")
        L, U = soc, smallest
        kind = "normal"
    l_cosets = L.right_cosets()
    u_cosets = U.right_cosets()
    return PrincipalSection(
        kind,
        L,
        U,
        l_cosets,
        u_cosets,
        coset_class_array(G, l_cosets),
        coset_class_array(G, u_cosets),
    )
