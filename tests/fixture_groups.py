"""Shared test groups, built once per session, n x n views of the
closure rows that the pipeline keeps, and the per-element group primitives
and dict-based stabilizer chain that the array-native ones replaced."""

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
    greedy_generators,
    group_from_generators,
)
from cencay.errors import CapExceededError, InternalError, InvalidInputError
from cencay.perm import (
    ELEMENT_CAP,
    Perm,
    PermutationGroup,
    _member_candidate,
    as_perm,
    compose,
    identity_perm,
    inverse_perm,
    is_identity,
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


def d2_chain(K):
    """A parametric D(2,G) subgroup as a stabilizer chain on its generators:
    the oracle for its structural order and membership."""
    return PermutationGroup(K.generators, K.degree, known_order=K.order)


def isomorphisms_all(G: FiniteGroup, H: FiniteGroup) -> list[np.ndarray]:
    """Every isomorphism G -> H by plain backtracking over the images of a
    greedy generating sequence, pruned only by class fingerprints: the
    oracle for ``automorphism_group`` and ``group_isomorphisms``."""
    if G.order != H.order:
        return []
    if G.order == 1:
        return [np.zeros(1, dtype=np.int32)]
    _, fp_g = _class_fingerprints(G)
    _, fp_h = _class_fingerprints(H)
    if sorted(fp_g["elem"]) != sorted(fp_h["elem"]):
        return []
    gens = greedy_generators(G)
    pools = [[x for x in range(H.order) if fp_h["elem"][x] == fp_g["elem"][g]] for g in gens]
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
                if fp_g["elem"][a] != fp_h["elem"][b]:
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


def pair_matrices(swp):
    """X, Y and the identity algebraic isomorphism phi of a ``SchemesWithPhi``,
    as n x n matrices gathered from its two closure rows."""
    X = CoherentConfiguration(cayley_matrix(swp.src.gamma.group, swp.src.row))
    Y = CoherentConfiguration(cayley_matrix(swp.dst.gamma.group, swp.row_b))
    X.verify_light()
    Y.verify_light()
    return X, Y, AlgebraicIso(X, Y, np.arange(X.rank, dtype=np.int32))


def restricted_matrix(rec):
    """XU, the closure restricted to U, as the |U| x |U| matrix of the U-row."""
    XU = CoherentConfiguration(cayley_matrix(rec.U, rec.u_row))
    XU.verify_light()
    return XU


# -- the dict-based stabilizer chain ---------------------------------------------


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

    def element_rows(self, cap: int = ELEMENT_CAP) -> np.ndarray:
        return np.array(list(self.elements(cap)), dtype=np.int32)

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
