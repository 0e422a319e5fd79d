"""Shared test groups, built once per session, n x n views of the
closure rows that the pipeline keeps, the per-element group primitives,
the socle and almost simplicity by element closures, the right cosets as
tuples and their label array, the almost-simplicity test on a copy of the
socle and dict-based stabilizer chain that the array-native ones
replaced, and the constructors only the tests use: the regular
representations, D(2,G) as a chain and in parametric form, orbitals, the
direct-sum test and the enumeration of a chain's elements; the
product scan over uniform-cycle-type elements that enumerated regular
subgroups before the socle-anchored search; and the one-permutation
membership of the structural groups and the subgroup generators searched
on a standalone copy, which the batched ``contains_rows`` and the search on
the parent's table replaced."""

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from cencay.cayley import cayley_matrix
from cencay.coherent import AlgebraicIso, CoherentConfiguration
from cencay.group import (
    ClassPartition,
    FiniteGroup,
    _class_fingerprints,
    _extend_partial_map,
    automorphism_group,
    conjugacy_classes,
    element_orders,
    greedy_generators,
    closure,
    group_from_generators,
    socle,
)
from cencay.errors import CapExceededError, InternalError, InvalidInputError
from cencay.perm import (
    D2Subgroup,
    Perm,
    PermutationGroup,
    SymmetricGroup,
    WreathProduct,
    _invert_rows,
    _member_candidate,
    as_perm,
    compose,
    identity_perm,
    inverse_perm,
    is_identity,
    reduce_generators,
)


@lru_cache(maxsize=None)
def alt5() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])


@lru_cache(maxsize=None)
def sym5() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


@lru_cache(maxsize=None)
def alt6() -> FiniteGroup:
    return group_from_generators([(0, 2, 3, 4, 5, 1), (1, 2, 0, 3, 4, 5)])


@lru_cache(maxsize=None)
def sym6() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)])


@lru_cache(maxsize=None)
def psl27() -> FiniteGroup:
    return group_from_generators([(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0)])


@lru_cache(maxsize=None)
def pgl27() -> FiniteGroup:
    return group_from_generators(
        [(1, 2, 3, 4, 5, 6, 0, 7), (7, 6, 3, 2, 5, 4, 1, 0), (0, 3, 6, 2, 5, 1, 4, 7)]
    )


@lru_cache(maxsize=None)
def cyclic(n: int) -> FiniteGroup:
    return group_from_generators([tuple((i + 1) % n for i in range(n))])


@lru_cache(maxsize=None)
def c2_x_alt5() -> FiniteGroup:
    gens = [
        (1, 0, 2, 3, 4, 5, 6),
        (0, 1, 3, 4, 5, 6, 2),
        (0, 1, 3, 4, 2, 5, 6),
    ]
    return group_from_generators(gens)


def set_partitions(items):
    """Every partition of a list into nonempty blocks, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]


# -- regular representations, D(2,G), orbitals ----------------------------------


@dataclass
class RegularReps:
    """Left/right regular actions of a finite group on itself."""

    group: FiniteGroup
    right_gens: list[Perm]
    left_gens: list[Perm]
    sigma: Perm

    @property
    def star_gens(self) -> list[Perm]:
        return self.right_gens + self.left_gens


def regular_representations(G: FiniteGroup) -> RegularReps:
    """Right/left translation generators and the inversion permutation."""
    gens = greedy_generators(G)
    right = [np.ascontiguousarray(G.table[:, g]) for g in gens]
    left = [np.ascontiguousarray(G.table[g, :]) for g in gens]
    sigma = np.ascontiguousarray(G.inverse)
    return RegularReps(G, right, left, sigma)


def d2_group(G: FiniteGroup) -> PermutationGroup:
    """D(2,G): the holomorph of G extended by inversion, acting on G.

    Generators are right translations, the automorphisms (as permutations
    fixing 0), and inversion; the generator list is reduced before chain
    construction.
    """
    reps = regular_representations(G)
    auts = [as_perm(a, G.order) for a in automorphism_group(G)]
    gens = reduce_generators(reps.right_gens + auts + [reps.sigma], G.order)
    return PermutationGroup(gens, G.order)


def full_d2_subgroup(G: FiniteGroup) -> D2Subgroup:
    """D(2,G) itself in parametric form (all automorphisms on both parts)."""
    auts = automorphism_group(G)
    return D2Subgroup(G, auts, auts)


@dataclass
class RelationPartition:
    """A partition of Omega x Omega into colored relations."""

    degree: int
    colors: np.ndarray
    n_colors: int


def orbitals(K: PermutationGroup) -> RelationPartition:
    """Orbits of the componentwise action on pairs, by flood fill."""
    n = K.degree
    gens = [g.tolist() for g in K.generators]
    colors = np.full((n, n), -1, dtype=np.int32)
    col_flat = colors.ravel()
    color = 0
    for start in range(n * n):
        if col_flat[start] >= 0:
            continue
        col_flat[start] = color
        stack = [start]
        while stack:
            pr = stack.pop()
            a, b = divmod(pr, n)
            for g in gens:
                q = g[a] * n + g[b]
                if col_flat[q] < 0:
                    col_flat[q] = color
                    stack.append(q)
        color += 1
    return RelationPartition(n, colors, color)


def d2_chain(K):
    """A parametric D(2,G) subgroup as a stabilizer chain on its generators:
    the oracle for its structural order and membership."""
    return PermutationGroup(K.generators, K.degree, known_order=K.order)


def chain_d2_generators(K) -> list[Perm]:
    """The generators of a parametric D(2,G) subgroup with its plain part
    reduced by a stabilizer chain (``reduce_generators``): the oracle for
    the chain-free closure of ``D2Subgroup.generators``."""
    G = K.group
    gens = [np.ascontiguousarray(G.table[:, g]) for g in K.translations.generators()]
    gens += reduce_generators(K.auts_plain, K.degree)
    if len(K.auts_inv):
        gens.append(np.ascontiguousarray(G.inverse[K.auts_inv[0]]))
    return gens


def contains_one(group, p) -> bool:
    """Membership of one permutation in a ``SymmetricGroup``,
    ``WreathProduct`` or ``D2Subgroup``, one block component and one part
    at a time, with alpha found by a scan of the part's rows instead of its
    code: the oracle for ``contains_rows``."""
    f = _member_candidate(p, group.degree)
    if f is None:
        return False
    if isinstance(group, SymmetricGroup):
        return True
    if isinstance(group, WreathProduct):
        img = f[group.blocks]
        landed = group._block_of[img]
        if np.any(landed != landed[:, :1]):
            return False
        return all(contains_one(group.inner, c) for c in group._pos_of[img])
    table, inv = group.group.table, group.group.inverse
    for img, rows in ((f, group.auts_plain), (inv[f], group.auts_inv)):
        t = int(img[0])
        if len(rows) and t in group.translations:
            if (rows == table[img, inv[t]]).all(axis=1).any():
                return True
    return False


def generators_by_copy(H) -> list[int]:
    """The greedy generators of a ``Subgroup``'s standalone copy
    (``as_group``), by the element-closure oracle, read back as parent
    indices: the oracle for ``Subgroup.generators``, which searches on the
    parent's table."""
    A, elems = H.as_group()
    return [elems[i] for i in greedy_generators_by_bfs(A)]


def isomorphisms_all(G: FiniteGroup, H: FiniteGroup) -> list[np.ndarray]:
    """Every isomorphism G -> H by plain backtracking over the images of a
    greedy generating sequence, pruned only by class fingerprints: the
    oracle for ``automorphism_group`` and ``group_isomorphisms``."""
    if G.order != H.order:
        return []
    if G.order == 1:
        return [np.zeros(1, dtype=np.int32)]
    fp_g = _class_fingerprints(G)
    fp_h = _class_fingerprints(H)
    if sorted(fp_g) != sorted(fp_h):
        return []
    gens = greedy_generators(G)
    pools = [[x for x in range(H.order) if fp_h[x] == fp_g[g]] for g in gens]
    out = []

    def rec(depth: int, images: list[int]) -> None:
        if depth == len(gens):
            m = _extend_partial_map(G, H, gens, images)
            if m is not None:
                out.append(m)
            return
        for cand in pools[depth]:
            if depth > 0:
                a = G.mul(gens[depth - 1], gens[depth])
                b = H.mul(images[-1], cand)
                if fp_g[a] != fp_h[b]:
                    continue
            rec(depth + 1, images + [cand])

    rec(0, [])
    return out


# -- the per-element group primitives ----------------------------------------


def closure_by_bfs(G: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """The subgroup a seed set generates, by a breadth-first search over
    single elements: the oracle for ``closure``."""
    members, queue = {0}, [0]
    seed = list(dict.fromkeys(seed))
    for e in queue:
        for s in seed:
            w = int(G.table[e, s])
            if w not in members:
                members.add(w)
                queue.append(w)
    return tuple(sorted(members))


def conjugacy_classes_by_orbits(G: FiniteGroup) -> ClassPartition:
    """The conjugation orbit of each element not seen yet, ordered by
    (size, smallest member): the oracle for ``conjugacy_classes``."""
    seen = np.zeros(G.order, dtype=bool)
    classes = []
    for x in range(G.order):
        if not seen[x]:
            orbit = np.unique(G.table[G.table[G.inverse, x], np.arange(G.order)])
            seen[orbit] = True
            classes.append(tuple(int(v) for v in orbit))
    classes.sort(key=lambda c: (len(c), c[0]))
    return ClassPartition(tuple(classes))


def element_order_by_powers(G: FiniteGroup, x: int) -> int:
    """The order of x, one power at a time: the oracle for ``element_orders``."""
    k, y = 1, x
    while y != 0:
        y = int(G.table[y, x])
        k += 1
    return k


def greedy_generators_by_bfs(G: FiniteGroup) -> list[int]:
    """``greedy_generators`` on the oracles above: a maximal-order element
    first, then the element that grows the closure most (ties: smallest)."""
    if G.order == 1:
        return []
    orders = [element_order_by_powers(G, x) for x in range(G.order)]
    gens = [max(range(1, G.order), key=lambda x: (orders[x], -x))]
    current = closure_by_bfs(G, gens)
    while len(current) < G.order:
        mem, best_x, best_len = set(current), -1, len(current)
        for x in range(1, G.order):
            if x not in mem:
                ln = len(closure_by_bfs(G, gens + [x]))
                if ln > best_len:
                    best_x, best_len = x, ln
                    if ln == G.order:
                        break
        gens.append(best_x)
        current = closure_by_bfs(G, gens)
    return gens


def normal_closure(G: FiniteGroup, x: int) -> tuple[int, ...]:
    """Smallest normal subgroup containing x (closure of its class)."""
    n, tab, inv = G.order, G.table, G.inverse
    cls = np.unique(tab[tab[inv, x], np.arange(n)])
    return closure(G, (int(v) for v in cls))


def socle_by_closures(G: FiniteGroup) -> tuple[int, ...]:
    """The socle's elements from the element closure of every class: the
    minimal ones among those closures are the minimal normal subgroups, and
    the socle is the closure of their union.  The oracle for ``socle``."""
    closures = {frozenset(normal_closure(G, cls[0])) for cls in conjugacy_classes(G).classes[1:]}
    minimal = [c for c in closures if not any(d < c for d in closures)]
    return closure(G, sorted(frozenset().union(*minimal)))


def is_almost_simple_by_closures(G: FiniteGroup) -> bool:
    """N = soc(G) is nonabelian, its block of the table not symmetric, and
    the N-conjugates of one element of each G-class inside N generate N,
    all by element closures: the oracle for ``is_almost_simple``."""
    if G.order == 1:
        return False
    N = np.asarray(socle_by_closures(G))
    block, inside = G.table[np.ix_(N, N)], set(N.tolist())
    return not np.array_equal(block, block.T) and all(
        len(closure(G, G.table[G.table[G.inverse[N], cls[0]], N])) == len(N)
        for cls in conjugacy_classes(G).classes[1:]
        if cls[0] in inside
    )


def is_simple_group(H: FiniteGroup) -> bool:
    """Whether H is simple: the normal closure of one element per nontrivial
    conjugacy class is all of H."""
    return H.order > 1 and all(
        len(normal_closure(H, cls[0])) == H.order for cls in conjugacy_classes(H).classes[1:]
    )


def is_almost_simple_by_copy(G: FiniteGroup) -> bool:
    """The socle copied out as a standalone group, then tested for being
    nonabelian and simple on its own classes: the oracle for
    ``is_almost_simple``."""
    if G.order == 1:
        return False
    N, _ = socle(G).as_group()
    return not N.is_abelian and is_simple_group(N)


def is_central_by_generators(G: FiniteGroup, row: np.ndarray) -> bool:
    """Whether an identity row is invariant under conjugation by each of
    ``greedy_generators(G)``, and so by all of G: the oracle for
    ``is_central``, which reads the row at class representatives."""
    x = np.arange(G.order)
    return all(
        np.array_equal(row[G.table[G.table[G.inverse[g], x], g]], row)
        for g in greedy_generators(G)
    )


def right_cosets(H) -> list[tuple[int, ...]]:
    """Right cosets Hg of a ``Subgroup``, walked element by element and
    ordered by smallest member, identity coset first."""
    G = H.parent
    seen = np.zeros(G.order, dtype=bool)
    helems = np.asarray(H.elements, dtype=np.int32)
    cosets = []
    for g in range(G.order):
        if not seen[g]:
            members = np.sort(G.table[helems, g])
            seen[members] = True
            cosets.append(tuple(int(m) for m in members))
    return cosets


def coset_class_array(G: FiniteGroup, cosets: Sequence[Sequence[int]]) -> np.ndarray:
    """The label array of a list of cosets; with ``right_cosets`` the
    oracle for ``Subgroup.coset_labels``."""
    out = np.full(G.order, -1, dtype=np.int32)
    for i, coset in enumerate(cosets):
        out[list(coset)] = i
    if np.any(out < 0):
        raise InternalError("cosets do not cover the group")
    return out


def row_matrix(G: FiniteGroup, row: np.ndarray) -> CoherentConfiguration:
    """The n x n color matrix of an identity row, checked for (C1) and (C2)."""
    X = CoherentConfiguration(cayley_matrix(G, row))
    X.verify_light()
    return X


def pair_matrices(swp):
    """X, Y and the identity algebraic isomorphism phi of a ``SchemesWithPhi``,
    as n x n matrices gathered from its two closure rows."""
    X = row_matrix(swp.src.gamma.group, swp.src.row)
    Y = row_matrix(swp.dst.gamma.group, swp.row_b)
    return X, Y, AlgebraicIso(X, Y, np.arange(X.rank, dtype=np.int32))


def restricted_matrix(rec):
    """XU, the closure restricted to U, as the |U| x |U| matrix of the U-row."""
    return row_matrix(rec.U, rec.u_row)


def scheme_matrix(scheme) -> CoherentConfiguration:
    """A ``CayleyScheme`` as its n x n color matrix, gathered from the row."""
    return row_matrix(scheme.group, scheme.row)


def point_classes(scheme) -> list[tuple[int, ...]]:
    """Neighborhoods of the identity per basis relation of a ``CayleyScheme``."""
    return [tuple(int(x) for x in np.nonzero(scheme.row == s)[0]) for s in range(scheme.rank)]


def is_boxplus_trivial(X: CoherentConfiguration, parts: Sequence[Sequence[int]]) -> bool:
    """Whether X is the direct sum of trivial configurations on the parts.

    Inside each part only the diagonal and its complement may appear, and
    every color crossing two parts must cover their full product.  The
    pipeline decides this on the closure row (``cencay.cayley.compute_H0``);
    this is its n x n oracle.
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


# -- the dict-based stabilizer chain ---------------------------------------------

ELEMENT_CAP = 10_000_000  # the largest group an enumeration lists


def chain_elements(group: PermutationGroup) -> Iterator[Perm]:
    """Every element of a ``PermutationGroup``, read off its chain's levels
    in transversal-digit order, the order ``DictChainGroup.elements`` uses."""
    group._ensure_chain()
    if group.order > ELEMENT_CAP:
        raise CapExceededError(f"group of order {group.order} exceeds element cap")
    levels = group._levels
    forward = [_invert_rows(lv.inv) for lv in levels]

    def rec(i: int) -> Iterator[Perm]:
        if i == len(levels):
            yield identity_perm(group.degree)
            return
        for e in rec(i + 1):
            yield from forward[i][:, e]  # e u for every transversal row u

    yield from rec(0)


class DictLevel:
    __slots__ = ("base", "gens", "trans", "trans_inv", "points")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[Perm] = []  # strong generators first stuck at this level
        self.trans: dict[int, Perm] = {}
        self.trans_inv: dict[int, Perm] = {}
        self.points: list[int] = []  # orbit in discovery order


class DictChainGroup:
    """The dict-based stabilizer chain: per-point forward and inverse
    transversal dicts, one Schreier generator formed and sifted at a time.
    The oracle for ``PermutationGroup``'s batched chain, which must build
    the same levels (bases, orbits in order, inverse transversals).

    ``known_order`` is an optional externally certified order: chain
    construction stops as soon as the transversal product reaches it.  The
    product of transversal sizes never exceeds the true order of the
    generated group, so reaching the target proves the chain is complete.
    """

    def __init__(
        self,
        generators: Iterable[Sequence[int]],
        degree: int,
        known_order: Optional[int] = None,
    ):
        self.degree = int(degree)
        self.generators: list[Perm] = []
        for g in generators:
            p = _member_candidate(g, self.degree)
            if p is None:
                raise InvalidInputError("images are not a bijection")
            if not is_identity(p):
                self.generators.append(p)
        self._known_order = known_order
        self._levels: Optional[list[DictLevel]] = None
        self._order: Optional[int] = None

    # -- chain construction ------------------------------------------------

    def _effective_gens(self, i: int) -> list[Perm]:
        out = []
        for lv in self._levels[i:]:
            out.extend(lv.gens)
        return out

    def _extend_orbit(self, i: int, new_gen: Optional[Perm] = None) -> None:
        """BFS-extend the level transversal.

        Existing points were already saturated under the old generators, so
        when a single new generator arrives only it is applied to them; newly
        reached points are expanded under the full effective generator set.
        """
        lv = self._levels[i]
        if lv.base not in lv.trans:
            ident = identity_perm(self.degree)
            lv.trans[lv.base] = ident
            lv.trans_inv[lv.base] = ident
            lv.points.append(lv.base)
        gens = self._effective_gens(i)

        def reach(a: int, g: Perm) -> None:
            b = int(g[a])
            if b not in lv.trans:
                ub = compose(lv.trans[a], g)
                lv.trans[b] = ub
                lv.trans_inv[b] = inverse_perm(ub)
                lv.points.append(b)
                queue.append(b)

        queue: list[int] = []
        if new_gen is not None:
            for a in list(lv.points):
                reach(a, new_gen)
        else:
            queue = list(lv.points)
        head = 0
        while head < len(queue):
            a = queue[head]
            head += 1
            for g in gens:
                reach(a, g)

    def _strip(self, p: Perm, start: int = 0) -> tuple[Perm, int]:
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            d = int(p[lv.base])
            v = lv.trans_inv.get(d)
            if v is None:
                return p, i
            p = compose(p, v)
        return p, len(self._levels)

    def _chain_order(self) -> int:
        o = 1
        for lv in self._levels:
            o *= len(lv.trans)
        return o

    def _add_strong_gen(self, j: int, g: Perm) -> None:
        if j == len(self._levels):
            moved = int(np.nonzero(g != np.arange(self.degree, dtype=np.int32))[0][0])
            self._levels.append(DictLevel(moved))
        self._levels[j].gens.append(g)
        for i in range(j, -1, -1):
            self._extend_orbit(i, new_gen=g)

    def _ensure_chain(self) -> None:
        if self._levels is not None:
            return
        self._levels = []
        target = self._known_order
        for g in self.generators:
            r, j = self._strip(g)
            if not is_identity(r):
                self._add_strong_gen(j, r)
        if target is not None:
            if self._chain_order() == target:
                self._order = target
                return
            # certified order: fill the chain by sifting pseudo-random
            # products; every transversal entry is a genuine word in the
            # generators, so reaching the target order proves completeness
            if self._randomized_descent(target):
                self._order = target
                return
        i = len(self._levels) - 1
        while i >= 0:
            lv = self._levels[i]
            gens = self._effective_gens(i)
            restart = False
            for a in list(lv.points):
                ua = lv.trans[a]
                for g in gens:
                    b = int(g[a])
                    sg = compose(compose(ua, g), lv.trans_inv[b])
                    if is_identity(sg):
                        continue
                    r, j = self._strip(sg, i + 1)
                    if not is_identity(r):
                        if j <= i:
                            raise InternalError("sift residue above its level")
                        self._add_strong_gen(j, r)
                        if target is not None and self._chain_order() == target:
                            self._order = target
                            return
                        i = j
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                i -= 1
        self._order = self._chain_order()
        if target is not None and self._order != target:
            raise InternalError(
                f"chain order {self._order} disagrees with certified order {target}"
            )

    def _randomized_descent(self, target: int) -> bool:
        """Fill the chain from seeded product-replacement samples.

        Returns True once the transversal product reaches the target, and
        False after 16 rounds per point in a row that add no strong
        generator.  A False return falls back to deterministic Schreier
        processing, so a wrong target can only ever slow things down, never
        falsify an order.
        """
        if not self.generators:
            return self._chain_order() == target
        rng = np.random.default_rng(0xD15C0)
        pool = [g.copy() for g in self.generators]
        while len(pool) < 6:
            pool.append(identity_perm(self.degree))
        accum = identity_perm(self.degree)
        stalled = 0
        while stalled < 16 * self.degree:
            i = int(rng.integers(len(pool)))
            j = int(rng.integers(len(pool)))
            if i != j:
                pool[i] = compose(pool[i], pool[j])
            accum = compose(accum, pool[i])
            r, lvl = self._strip(accum)
            stalled += 1
            if not is_identity(r):
                stalled = 0
                self._add_strong_gen(lvl, r)
                if self._chain_order() == target:
                    return True
        return False

    # -- queries -------------------------------------------------------------

    @property
    def order(self) -> int:
        self._ensure_chain()
        return self._order

    def __contains__(self, p) -> bool:
        r = _member_candidate(p, self.degree)
        if r is None:
            return False
        self._ensure_chain()
        return is_identity(self._strip(r)[0])

    def elements(self, cap: int = ELEMENT_CAP) -> Iterator[Perm]:
        """All elements, deterministically ordered by transversal digits."""
        self._ensure_chain()
        if self.order > cap:
            raise CapExceededError(f"group of order {self.order} exceeds element cap")
        levels = self._levels
        if not levels:
            yield identity_perm(self.degree)
            return

        def rec(i: int) -> Iterator[Perm]:
            if i == len(levels):
                yield identity_perm(self.degree)
                return
            for e in rec(i + 1):
                for pt in levels[i].points:
                    yield compose(e, levels[i].trans[pt])

        yield from rec(0)

    def __repr__(self) -> str:
        return f"DictChainGroup(degree={self.degree}, gens={len(self.generators)})"


def dict_reduce_generators(gens: Iterable[Sequence[int]], degree: int) -> list[Perm]:
    """Drop generators already generated by the kept ones, rebuilding a
    chain per kept generator: the oracle for ``reduce_generators``."""
    kept: list[Perm] = []
    group: Optional[DictChainGroup] = None
    for g in gens:
        p = as_perm(g, degree)
        if is_identity(p):
            continue
        if group is not None and p in group:
            continue
        kept.append(p)
        group = DictChainGroup(kept, degree)
    return kept


# -- the regular-subgroup enumeration -----------------------------------------------


def _candidate_pools_parametric(K: D2Subgroup, needed: set[int]) -> dict[int, list[Perm]]:
    """Uniform-cycle-type elements of a parametric D(2,G)-subgroup, per order.

    For each (automorphism, kind) the rows over its translations t form the
    columns of one matrix; column-wise powers are taken together, so the
    uniform-type test is vectorized over t: the smallest cycle length is the
    first power with a fixed point, and the cycles agree iff that power is
    the identity.
    """
    n = K.degree
    T = K.group.table
    inv = K.group.inverse
    ts = np.asarray(K.translations.elements, dtype=np.int32)[None, :]
    ident_col = np.arange(n, dtype=np.int32)[:, None]
    cols = np.arange(ts.shape[1], dtype=np.int32)[None, :]
    pools: dict[int, list[Perm]] = {o: [] for o in needed}

    def scan(M: np.ndarray) -> None:
        # M[x, t] is the image of x under candidate t; length[t] is its
        # uniform cycle length, 0 before its first fixed point, -1 if none
        length = np.zeros(M.shape[1], dtype=np.int64)
        for k in range(1, max(needed) + 1):
            P = M if k == 1 else M[P, cols]
            fixed = P == ident_col
            first = (length == 0) & fixed.any(axis=0)
            length[first] = np.where(fixed.all(axis=0)[first], k, -1)
        for o in needed:
            pools[o].extend(np.ascontiguousarray(M[:, t]) for t in np.flatnonzero(length == o))

    for alpha in K.auts_plain:
        scan(T[alpha[:, None], ts])
    for alpha in K.auts_inv:
        scan(inv[T[alpha[:, None], ts]])
    return pools


def _bfs_tree(H: FiniteGroup, gens: list[int]) -> list[tuple[int, int, int]]:
    """Edges (parent, gen slot, child) of a BFS spanning tree of the Cayley graph."""
    seen, edges, queue = {0}, [], [0]
    for a in queue:  # the queue grows while it is walked
        for gi, g in enumerate(gens):
            b = int(H.table[a, g])
            if b not in seen:
                seen.add(b)
                edges.append((a, gi, b))
                queue.append(b)
    if len(seen) < H.order:
        raise InternalError("generating sequence does not generate")
    return edges


def regular_subgroups_by_scan(K: D2Subgroup, H: FiniteGroup) -> list[FiniteGroup]:
    """The enumeration ``regular_subgroups`` replaced, kept as its oracle.

    All regular subgroups of K isomorphic to H, each as its abstract group,
    in order of their member rows' bytes: column i of the table is the
    member that takes 0 to i, so a * b is the image of a under member b.

    A regular subgroup V is recovered from the images (c_1..c_k) of a short
    generating sequence of H: the base-point orbit map b(h) = 0^phi(h) is
    filled along a BFS tree of H's Cayley graph, then the candidate is kept
    iff b is a bijection, conjugating H_right by b reproduces the c_i, and
    every conjugated translation lies in K.  Candidate images are restricted
    to elements whose cycles all have the generator's order: nonidentity
    elements of a regular group are fixed-point-free with uniform cycle type.
    """
    n = H.order
    if K.degree != n:
        return []  # a regular subgroup has order equal to the degree
    gens_idx = greedy_generators(H)
    k = len(gens_idx)
    orders = element_orders(H)[gens_idx].tolist()
    pools = _candidate_pools_parametric(K, set(orders))

    # iterate small pools in the outer product, batch over the largest one
    slot_order = sorted(range(k), key=lambda i: len(pools[orders[i]]))
    gens_idx = [gens_idx[i] for i in slot_order]
    orders = [orders[i] for i in slot_order]

    tree = _bfs_tree(H, gens_idx)
    T = H.table
    found: dict[bytes, np.ndarray] = {}

    def accept(cands: list[Perm], b: np.ndarray) -> None:
        binv = inverse_perm(b)
        P = b[T[binv]]  # column h is the conjugated right translation by h
        # conjugating H_right by b must reproduce the candidate images
        if any(not np.array_equal(P[:, g], c) for g, c in zip(gens_idx, cands)):
            return
        # canonical form: element rows indexed by their image of the base point
        M = np.ascontiguousarray(P.T[binv])
        if not np.array_equal(M[:, 0], np.arange(n)):
            raise InternalError("group is not regular on its domain")
        full = M.tobytes()
        if full not in found and all(row in K for row in M):
            found[full] = M

    last_pool = pools[orders[-1]]
    if not last_pool or any(not pools[o] for o in orders):
        return []
    c_last = np.stack(last_pool)
    m_last = len(last_pool)

    def scan_batch(prefix: list[Perm]) -> None:
        """Fill the orbit map for every last-slot candidate at once.

        Writes that revisit a point kill the row; rows that survive all n-1
        tree edges have a bijective orbit map by counting.  Dead rows are
        compacted away periodically to keep the vectors short.
        """
        B = np.zeros((m_last, n), dtype=np.int32)
        used = np.zeros((m_last, n), dtype=bool)
        used[:, 0] = True
        alive = np.arange(m_last)
        cand = c_last
        dead = np.zeros(m_last, dtype=bool)
        idx = np.arange(m_last)
        for step, (parent, gi, child) in enumerate(tree):
            prev = B[:, parent]
            if gi < k - 1:
                nxt = prefix[gi][prev]
            else:
                nxt = cand[idx, prev]
            dead |= used[idx, nxt]
            B[:, child] = nxt
            used[idx, nxt] = True
            if step % 24 == 23 and dead.any():
                keep = ~dead
                if keep.sum() * 2 < len(alive):
                    alive = alive[keep]
                    B = B[keep]
                    used = used[keep]
                    cand = cand[keep]
                    dead = np.zeros(len(alive), dtype=bool)
                    idx = np.arange(len(alive))
                    if not len(alive):
                        return
        for local_j, j in enumerate(alive):
            if not dead[local_j]:
                accept(prefix + [last_pool[j]], B[local_j])

    for combo in itertools.product(*(pools[o] for o in orders[:-1])):
        scan_batch(list(combo))

    return [FiniteGroup(found[key].T, check=False) for key in sorted(found)]
