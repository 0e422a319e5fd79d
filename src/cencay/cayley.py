"""Central colored Cayley graphs, Cayley schemes, and the principal section.

A colored Cayley graph is a partition of the group with class 0 = {identity};
the arc (g, h) carries the color of h*g^-1.  Centrality (classes closed under
conjugation) makes both right and left translations color automorphisms.

The arc colors are invariant under right translation and constant on
conjugacy classes, so their coherent closure is a Cayley scheme, fixed by
its identity row (the Schur-ring view: Wielandt, Finite Permutation Groups,
ch. IV).  ``closure_rows`` refines that row one conjugacy class at a time,
and the row is the only form in which the pipeline holds a scheme: the one
n x n matrix it builds is the graph's own arc coloring (``arc_colors``),
for the certificates; ``cayley_matrix`` gathers it from a row.

The principal section of the scheme's automorphism group is computed without
the group itself: a direct-sum criterion on the closure row decides the
symmetric case and yields L = U as the largest subgroup meeting it;
otherwise L is the socle and U is the smallest normal subgroup over the
socle whose one-sided partial translations preserve every basis relation,
that is, on whose cosets outside itself the row is constant.  U and L are
then checked to be unions of colors of the row (S-subgroups), so the
closure seeded with their indicators as well is the same row: that row is
coherent and refines every such seed, and the seeded closure refines it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .coherent import wl_closure  # noqa: F401  (bound here only for bench/tracing.py WRAPS)
from .errors import InternalError, InvalidInputError
from .group import (
    ClassPartition,
    FiniteGroup,
    Subgroup,
    class_index,
    conjugacy_classes,
    is_almost_simple,
    is_central,
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
        if not is_central(G, self.class_of):
            raise InvalidInputError("not central: a class is not normal")

    @property
    def k(self) -> int:
        return self.partition.k

    @cached_property
    def arc_colors(self) -> np.ndarray:
        """Color matrix: entry (g, h) is the class index of h * g^-1."""
        return cayley_matrix(self.group, self.class_of)

    def relabelled(self, f: Sequence[int]) -> "ColorCayleyGraph":
        """Transport the arc coloring along a bijection and re-read the classes
        from the arcs at the identity, (f^-1(1), f^-1(h)) before the move.

        Valid when the result is again a Cayley coloring (e.g. f normalizes
        the translations, as any element of D(2,G) does).
        """
        G, f_inv = self.group, np.argsort(np.asarray(f))
        row = self.class_of[G.table[f_inv, G.inverse[f_inv[0]]]]
        classes = (tuple(np.flatnonzero(row == c).tolist()) for c in range(self.k))
        return ColorCayleyGraph(G, ClassPartition(tuple(classes)))


def cayley_matrix(G: FiniteGroup, row: np.ndarray) -> np.ndarray:
    """The n x n color matrix of an identity row: entry (g, h) is row[h * g^-1],
    that is row[inverse][g * h^-1], from one gather of the table's columns."""
    return np.asarray(row)[G.inverse].take(G.table.take(G.inverse, axis=1))


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
        return is_central(self.group, self.row)

    def __repr__(self):
        return f"CayleyScheme(n={self.group.order}, rank={self.rank})"


def _classes_by_first_member(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Conjugacy class representatives (smallest members, ascending) and each element's class."""
    classes = sorted(conjugacy_classes(G).classes)
    return np.array([c[0] for c in classes], dtype=np.int64), class_index(classes, G.order)


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


def color_keys(G: FiniteGroup, row: np.ndarray) -> list[bytes]:
    """The round key at the first element x of each color t: c(x^-1) and the
    intersection numbers p^t_rs, counted as the pairs (c(y), c(x * y^-1)).
    Two schemes in one color numbering have equal keys iff the identity
    color map is an algebraic isomorphism."""
    _, firsts = np.unique(row, return_index=True)
    return _round_keys(G, firsts, row, len(firsts))


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


def cayley_wl(gamma: ColorCayleyGraph) -> CayleyScheme:
    """Coherent closure of the graph, as a central Cayley scheme (see closure_rows)."""
    res = closure_rows([(gamma.group, [gamma.class_of])])
    if res is None:
        raise InternalError("single-sided refinement cannot diverge")
    scheme = CayleyScheme(gamma.group, res[0][0], verify=True)
    if not scheme.central:
        raise InvalidInputError("closure of a central graph lost left-invariance")
    return scheme


def _row_is_constant_off(G: FiniteGroup, row: np.ndarray, H: Subgroup) -> bool:
    """Whether row is constant on each double coset HxH with x not in H."""
    h = np.asarray(H.elements, dtype=np.int64)
    seen = np.zeros(G.order, dtype=bool)
    seen[h] = True
    for x in range(G.order):
        if not seen[x]:
            double = G.table[G.table[h, x][:, None], h[None, :]]
            seen[double] = True
            if (row[double] != row[x]).any():
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
        if np.unique(scheme.row[list(H.elements[1:])]).size <= 1
        and _row_is_constant_off(G, scheme.row, H)
    ]


def compute_H1(scheme: CayleyScheme) -> list[Subgroup]:
    """Normal subgroups H over the socle with H* x id outside H inside Aut.

    Decided on the closure row c: H qualifies iff c is constant on every
    coset yH = HyH with y not in H.  A one-sided partial translation by h
    (x -> xh or x -> hx on H, the identity elsewhere) keeps the quotient of
    every pair inside H or inside its complement, and turns the quotient y
    of a pair across H into y times a conjugate of h or h^-1, an element of
    H (H is normal).  The left ones turn every y outside H into y h^-1, so
    they all preserve the colors iff c is constant on the cosets outside H,
    and then so do the right ones.  The generator test on the n x n matrix
    stays in the tests as the oracle.
    """
    G = scheme.group
    return [
        H
        for H in subgroups_over_socle(G, require_normal=True)
        if _row_is_constant_off(G, scheme.row, H)
    ]


@dataclass
class PrincipalSection:
    """The section U/L, the type tag, and each coset partition as its label
    array (``Subgroup.coset_labels``: by smallest member, the subgroup 0)."""

    kind: str  # "symmetric" | "normal"
    L: Subgroup
    U: Subgroup
    l_class_of: np.ndarray
    u_class_of: np.ndarray

    @property
    def m(self) -> int:
        """Number of L-cosets (vertices of the quotient graph)."""
        return int(self.l_class_of.max()) + 1

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
    be empty: the full group always passes by centrality).  Raises
    InternalError unless U and L are unions of colors of the row.
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
    l_class_of, u_class_of = L.coset_labels(), U.coset_labels()
    for inside in (u_class_of == 0, l_class_of == 0):
        if np.isin(scheme.row[~inside], scheme.row[inside]).any():
            raise InternalError("U or L is not a union of colors of the closure")
    return PrincipalSection(kind, L, U, l_class_of, u_class_of)
