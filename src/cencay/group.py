"""Finite groups as 0-based multiplication tables.

The identity always has index 0.  All derived orderings (conjugacy classes,
subgroups, cosets) are deterministic by (size, smallest member), so every
computation downstream is reproducible.  Every subgroup is a sorted element
tuple of its parent's table, closed inside it; no quotient group is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceededError, InvalidInputError

CLOSURE_CAP = 10_000  # elements ``group_from_generators`` may close
AUT_CAP = 1000  # largest order ``automorphism_group`` searches


class FiniteGroup:
    """A group of order n given by its n x n multiplication table.

    ``table[a][b]`` is the index of a*b, index 0 is the identity.
    Instances are immutable after construction and safe to share; the file
    loader hands out one live instance per table (``files.group_from_dict``).
    Each instance memoizes what is derived from it once: the conjugacy
    classes (which also decide centrality, ``is_central``),
    ``greedy_generators``, the socle, the subgroups over it, almost
    simplicity, the class fingerprints and Aut(G), with the conjugation
    table that Aut(G) and the isomorphisms onto G read.  The memos hold
    element tuples and arrays only, never a ``Subgroup``, so they make no
    reference cycle.  Subgroups
    are closed breadth first with one gather per layer (``closure``).
    """

    def __init__(self, table, names: Optional[Sequence[str]] = None, check: bool = True):
        tab = np.array(table, dtype=np.int32, order="C")  # a copy: frozen below
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1] or tab.shape[0] == 0:
            raise InvalidInputError("multiplication table must be square and nonempty")
        self.table = tab
        self.order: int = int(tab.shape[0])
        self.names = list(names) if names is not None else None
        if self.names is not None and len(self.names) != self.order:
            raise InvalidInputError("names length does not match group order")
        # each row's one 0 is its least entry: validated below when checked
        self.inverse = tab.argmin(axis=1).astype(np.int32)
        if check:
            self._validate()
        self.table.setflags(write=False)
        self.inverse.setflags(write=False)
        self._aut_cache: Optional[list[np.ndarray]] = None
        self._conj_cache: Optional[np.ndarray] = None
        self._classes_cache: Optional[tuple[tuple[int, ...], ...]] = None
        self._generators_cache: Optional[tuple[int, ...]] = None
        # the socle's elements, not a Subgroup: that would point back here
        # and leave the table to the cycle collector
        self._socle_cache: Optional[tuple[int, ...]] = None
        # likewise (elements, is_normal) per subgroup over the socle
        self._over_socle_cache: Optional[list[tuple[tuple[int, ...], bool]]] = None
        self._almost_simple_cache: Optional[bool] = None
        self._fingerprints_cache: Optional[tuple[tuple, ...]] = None

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        n, tab = self.order, self.table
        idx = np.arange(n, dtype=np.int32)
        if not (np.array_equal(tab[0], idx) and np.array_equal(tab[:, 0], idx)):
            raise InvalidInputError("index 0 is not a two-sided identity")
        if np.any(np.sort(tab, axis=1) != idx) or np.any(np.sort(tab, axis=0) != idx[:, None]):
            raise InvalidInputError("table is not a Latin square")
        if np.any(tab[idx, self.inverse] != 0) or np.any(tab[self.inverse, idx] != 0):
            raise InvalidInputError("inverse law fails")
        # Light's test: the s with (x*s)*y = x*(s*y) for all x, y contain the
        # identity and are closed under products, so they are everything once
        # they include a set S from which right multiplication reaches every
        # element.  S grows by the smallest element not reached yet, so the
        # check is exact, at O(|S| n^2) with |S| <= log2(n) for a group.
        reached = [True] + [False] * (n - 1)
        columns: list[list[int]] = []  # x -> x*s for each s in S
        while False in reached:
            s = reached.index(False)
            if not np.array_equal(tab[tab[:, s]], tab[:, tab[s]]):
                raise InvalidInputError(f"associativity fails at element {s}")
            columns.append(tab[:, s].tolist())
            stack = [x for x in range(n) if reached[x]]
            while stack:
                x = stack.pop()
                for col in columns:
                    if not reached[col[x]]:
                        reached[col[x]] = True
                        stack.append(col[x])

    # -- basic operations --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def conj(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        return int(self.table[self.table[self.inverse[g], x], g])

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteGroup) and np.array_equal(self.table, other.table)

    def __hash__(self) -> int:
        return hash((self.order, self.table.tobytes()))


@dataclass(frozen=True)
class ClassPartition:
    """Partition of a group into conjugation-closed classes; class 0 is {0}."""

    classes: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        return len(self.classes)

    def class_of_array(self, n: int) -> np.ndarray:
        """Class index per element; the classes must be nonempty and list
        every element of 0..n-1 exactly once."""
        if any(not cls for cls in self.classes):
            raise InvalidInputError("a class is empty")
        listed = np.fromiter((x for cls in self.classes for x in cls), dtype=np.int64)
        if listed.min() < 0 or listed.max() >= n:
            raise InvalidInputError("a class lists an element outside the group")
        counts = np.bincount(listed, minlength=n)
        if np.any(counts > 1):
            raise InvalidInputError("classes overlap: an element is listed more than once")
        if np.any(counts == 0):
            raise InvalidInputError("classes do not cover the group")
        out = np.empty(n, dtype=np.int32)
        out[listed] = np.repeat(np.arange(self.k, dtype=np.int32), [len(c) for c in self.classes])
        return out

    def size_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(len(c) for c in self.classes))


@dataclass
class Subgroup:
    """A subgroup as a sorted element set within a parent group; its right
    coset partition is held as one label array (``coset_labels``)."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    _is_normal: Optional[bool] = field(default=None, repr=False)
    _members: Optional[frozenset] = field(default=None, repr=False)

    def __post_init__(self):
        self.elements = tuple(sorted(self.elements))
        if not self.elements or self.elements[0] != 0:
            raise InvalidInputError("subgroup must contain the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self._member_set()

    def _member_set(self) -> frozenset:
        # cached on the instance: a cache on the class would keep every
        # subgroup, and through it every parent table, alive for good
        if self._members is None:
            self._members = frozenset(self.elements)
        return self._members

    def __hash__(self):
        return hash((id(self.parent), self.elements))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    @property
    def is_normal(self) -> bool:
        """Whether H is a union of conjugacy classes (``is_central``)."""
        if self._is_normal is None:
            member = np.zeros(self.parent.order, dtype=bool)
            member[list(self.elements)] = True
            self._is_normal = is_central(self.parent, member)
        return self._is_normal

    def as_group(self) -> tuple[FiniteGroup, list[int]]:
        """Reindex the subgroup as a standalone group.

        Returns the group and the list mapping new indices to parent indices.
        The whole group copies the parent's table with no relabel gather, and
        keeps the parent's class and generator memos (immutable tuples).
        """
        elems, P = list(self.elements), self.parent
        if self.order == P.order:  # the relabel is the identity
            H = FiniteGroup(P.table, names=P.names, check=False)
            H._classes_cache, H._generators_cache = P._classes_cache, P._generators_cache
            return H, elems
        relabel = np.full(P.order, -1, dtype=np.int32)
        relabel[elems] = np.arange(len(elems))
        sub_tab = relabel[P.table[np.ix_(elems, elems)]]
        if np.any(sub_tab < 0):
            raise InvalidInputError("element set is not closed under multiplication")
        names = None if P.names is None else [P.names[e] for e in elems]
        return FiniteGroup(sub_tab, names=names, check=False), elems

    def generators(self) -> list[int]:
        """Greedy short generating sequence of the subgroup (parent indices),
        searched on the parent's table; the whole group's is memoized there."""
        if self.order == self.parent.order:
            return greedy_generators(self.parent)
        return _greedy_search(self.parent, self.elements)

    def coset_labels(self) -> np.ndarray:
        """Each element's right coset Hg, numbered by smallest member
        (identity coset 0): the smallest member of Hg is the column minimum
        of the rows at H."""
        firsts = self.parent.table[list(self.elements)].min(axis=0)
        return np.unique(firsts, return_inverse=True)[1].astype(np.int32)


# -- construction ----------------------------------------------------------


def _compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    return tuple(q[x] for x in p)


def group_from_generators(
    generators: Iterable[Sequence[int]], degree: Optional[int] = None
) -> FiniteGroup:
    """Close a set of permutations under composition into a FiniteGroup.

    Element 0 is the identity; the remaining elements appear in breadth-first
    order from the generators (taken in the given order), which makes the
    element indexing deterministic.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if degree is None:
        degree = len(gens[0]) if gens else 1
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise InvalidInputError(f"not a permutation of 0..{degree - 1}: {g}")
    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index = {ident: 0}
    edges: list[tuple[int, int, int]] = []  # (parent, generator slot, child)
    head = 0
    while head < len(elems):
        e = elems[head]
        head += 1
        for gi, g in enumerate(gens):
            w = _compose(e, g)
            j = index.get(w)
            if j is None:
                if len(elems) >= CLOSURE_CAP:
                    raise CapExceededError(f"group too large (closure cap {CLOSURE_CAP})")
                j = len(elems)
                index[w] = j
                elems.append(w)
                edges.append((head - 1, gi, j))
    n = len(elems)
    # gen_step[x, gi] = index of elems[x] followed by gens[gi]
    gen_step = np.empty((n, max(len(gens), 1)), dtype=np.int32)
    for gi, g in enumerate(gens):
        for x, e in enumerate(elems):
            gen_step[x, gi] = index[_compose(e, g)]
    # table column for a BFS child b = parent * gen is the gen-step of column parent
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    for parent, gi, child in edges:
        table[:, child] = gen_step[table[:, parent], gi]
    names = [perm_cycle_string(e) for e in elems]
    return FiniteGroup(table, names=names)


def perm_cycle_string(p: Sequence[int]) -> str:
    """Cycle notation for a permutation, 0-based; '()' for the identity."""
    seen, out = set(), []
    for i in range(len(p)):
        if i in seen or p[i] == i:
            continue
        cyc, j = [i], p[i]
        while j != i:
            seen.add(j)
            cyc.append(j)
            j = p[j]
        out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) if out else "()"


# -- conjugacy structure ----------------------------------------------------


def conjugacy_classes(G: FiniteGroup) -> ClassPartition:
    """Conjugacy classes (memoized), ordered by (size, smallest member); each
    element's class is labelled by its smallest conjugate, a column minimum
    of the conjugation table: G's memo if any, else one built and dropped."""
    if G._classes_cache is None:
        conj = _conjugation_table(G) if G._conj_cache is None else G._conj_cache
        label = conj.min(axis=0)
        members = np.argsort(label, kind="stable")  # grouped by label, ascending
        reps, sizes = np.unique(label, return_counts=True)
        classes = np.split(members, np.cumsum(sizes)[:-1])
        G._classes_cache = tuple(tuple(classes[i].tolist()) for i in np.lexsort((reps, sizes)))
    return ClassPartition(G._classes_cache)


def element_orders(G: FiniteGroup) -> np.ndarray:
    """The order of every element: y <- y*x for every x whose power y is
    not yet the identity, one gather per step."""
    orders = np.ones(G.order, dtype=np.int64)
    x = y = np.arange(1, G.order)
    while len(x):
        orders[x] += 1
        y = G.table[y, x]
        x, y = x[y != 0], y[y != 0]
    return orders


def is_central(G: FiniteGroup, row: np.ndarray) -> bool:
    """Whether an identity row (one value per element) is constant on
    conjugacy classes: whether it equals itself read at each element's class
    representative.  O(n) once the classes are memoized, as
    ``is_almost_simple`` leaves them; no generators are built.
    """
    classes = conjugacy_classes(G).classes
    rep = np.array([c[0] for c in classes])[class_index(classes, G.order)]
    return bool(np.array_equal(row[rep], row))


def closure(G: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Subgroup generated by a seed set, as a sorted element tuple.

    Breadth first from the identity: each layer marks the frontier's rows of
    ``table[:, seed]`` in one gather, and the newly marked elements are the
    next frontier.
    """
    step = G.table[:, np.unique(np.fromiter(seed, dtype=np.int64))]
    member = np.zeros(G.order, dtype=bool)
    member[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        before = member.copy()
        member[step[frontier]] = True
        frontier = np.flatnonzero(member > before)
    return tuple(np.flatnonzero(member).tolist())


def class_index(classes: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """Class index per element of a group's own classes, unchecked."""
    out = np.empty(n, dtype=np.intp)
    out[np.fromiter(itertools.chain(*classes), np.intp, n)] = np.repeat(
        np.arange(len(classes)), [len(c) for c in classes])
    return out


def class_closure(prod: np.ndarray, members: Sequence[int]) -> frozenset[int]:
    """The ids of the classes in the normal closure of a class K, from
    ``prod[i, x]``, the class of rep_i * x: K_i K is the set of classes of
    rep_i K, so the closure is what class 0 reaches by such steps."""
    step = np.zeros((len(prod),) * 2, dtype=bool)
    step[np.arange(len(prod))[:, None], prod[:, members]] = True  # step[i, l]: K_l in K_i K
    have, frontier = np.arange(len(prod)) == 0, [0]
    while len(frontier):
        frontier = np.flatnonzero(step[frontier].any(axis=0) & ~have)
        have[frontier] = True
    return frozenset(np.flatnonzero(have).tolist())


def _socle_parts(G: FiniteGroup) -> tuple[tuple[int, ...], int]:
    """The socle's elements and the number of minimal normal subgroups:
    the minimal ones among the normal closures of single classes, which
    all read one r x n gather.  One is the socle itself."""
    classes = conjugacy_classes(G).classes
    prod = class_index(classes, G.order)[G.table[[c[0] for c in classes]]]
    closures = {class_closure(prod, cls) for cls in classes[1:]}
    minimal = [c for c in closures if not any(d < c for d in closures)]
    members = sorted(x for i in frozenset().union(*minimal) for x in classes[i])
    return (tuple(members) if len(minimal) == 1 else closure(G, members)), len(minimal)


def socle(G: FiniteGroup) -> Subgroup:
    """Product of all minimal normal subgroups (``_socle_parts``), memoized
    on the instance."""
    if G.order == 1:
        raise InvalidInputError("socle undefined for the trivial group")
    if G._socle_cache is None:
        G._socle_cache = _socle_parts(G)[0]
    return Subgroup(G, G._socle_cache)


def is_almost_simple(G: FiniteGroup) -> bool:
    """True iff N = soc(G) is a nonabelian simple group (memoized).

    N must be G's one minimal normal subgroup, and its block of the table
    not symmetric.  N = G is then simple, and N < G is iff each nontrivial
    N-class generates N; one element per G-class inside N suffices, since
    conjugation by G carries N-classes, and what they generate, to theirs.
    """
    if G.order == 1:
        return False
    if G._almost_simple_cache is None:
        G._socle_cache, minimal = _socle_parts(G)
        N, inside = np.asarray(G._socle_cache), set(G._socle_cache)
        block = G.table[np.ix_(N, N)]
        G._almost_simple_cache = minimal == 1 and not np.array_equal(block, block.T) and (
            len(N) == G.order or all(
                len(closure(G, G.table[G.table[G.inverse[N], cls[0]], N])) == len(N)
                for cls in conjugacy_classes(G).classes[1:] if cls[0] in inside))
    return G._almost_simple_cache


# -- subgroups over the socle ------------------------------------------------


def subgroups_over_socle(G: FiniteGroup, require_normal: bool) -> list[Subgroup]:
    """All H with soc(G) <= H <= G, ordered by (order, elements).

    Closed from the socle one coset representative at a time: since
    soc <= H, the closure of H and r depends only on the coset r*soc, so
    one representative per right coset of the socle suffices.  The element
    sets and their normality are memoized on the instance, like the socle;
    each call hands out new ``Subgroup`` objects.
    """
    if G._over_socle_cache is None:
        soc = socle(G)
        reps = np.unique(soc.coset_labels(), return_index=True)[1][1:].tolist()
        found = {soc.elements}
        frontier = [soc.elements]
        while frontier:
            H = frontier.pop()
            for r in reps:
                if r not in H:
                    ext = closure(G, H + (r,))
                    if ext not in found:
                        found.add(ext)
                        frontier.append(ext)
        G._over_socle_cache = [
            (elems, Subgroup(G, elems).is_normal)
            for elems in sorted(found, key=lambda h: (len(h), h))
        ]
    return [
        Subgroup(G, elems, _is_normal=normal)
        for elems, normal in G._over_socle_cache
        if normal or not require_normal
    ]


# -- automorphisms and isomorphisms -------------------------------------------


def greedy_generators(G: FiniteGroup) -> list[int]:
    """Short generating sequence: start from a maximal-order element, then
    greedily add the element that grows the closure most (ties: smallest
    index).  Memoized on the instance; each call hands out a new list.
    """
    if G._generators_cache is None:
        G._generators_cache = tuple(_greedy_search(G, range(G.order)))
    return list(G._generators_cache)


def _greedy_search(G: FiniteGroup, elements: Sequence[int]) -> list[int]:
    """``greedy_generators`` of the subgroup with these sorted elements, in
    G: closures there are the subgroup's, in the order of its own numbering.
    Each pick keeps the closure that won it."""
    orders = element_orders(G)[list(elements)]
    gens = [elements[int(np.argmax(orders))]] if len(elements) > 1 else []
    current = closure(G, gens)
    while len(current) < len(elements):
        mem = set(current)
        best_x, best = -1, current
        for x in elements:
            if x in mem:
                continue
            grown = closure(G, gens + [x])
            if len(grown) > len(best):
                best_x, best = x, grown
                if len(grown) == len(elements):
                    break
        gens.append(best_x)
        current = best
    return gens


def _class_fingerprints(G: FiniteGroup) -> tuple[tuple, ...]:
    """``_fingerprint_table``, memoized on the instance."""
    if G._fingerprints_cache is None:
        G._fingerprints_cache = _fingerprint_table(G)
    return G._fingerprints_cache


def _fingerprint_table(G: FiniteGroup) -> tuple[tuple, ...]:
    """Isomorphism-invariant fingerprint per element x, used to prune the
    backtracking: (order, class size, the (order, class size) of x^j for
    0 < j < order), read at class representatives, whose powers advance
    together, one gather a step."""
    classes = conjugacy_classes(G).classes
    cls_of = class_index(classes, G.order)
    sizes = [len(c) for c in classes]
    reps = np.array([c[0] for c in classes])
    orders = element_orders(G)[reps].tolist()
    steps = [reps]  # steps[j][i]: rep_i^(j+1)
    for _ in range(max(orders) - 2):
        steps.append(G.table[steps[-1], reps])
    base = list(zip(orders, sizes))
    fps = [b + (tuple(base[c] for c in row[: b[0] - 1]),)
           for b, row in zip(base, cls_of[np.array(steps)].T.tolist())]
    return tuple(fps[c] for c in cls_of.tolist())


def _extend_partial_map(
    src: FiniteGroup,
    dst: FiniteGroup,
    gens: list[int],
    images: list[int],
) -> Optional[np.ndarray]:
    """Extend gens -> images to a full homomorphism by closing the Cayley graph.

    Returns the full index map or None on any conflict or non-injectivity.
    Consistency is checked on every (element, generator) edge, which makes a
    completed map a genuine isomorphism of the tables.
    """
    n = src.order
    # right multiplication by each generator and its image, as plain lists:
    # one numpy column each instead of a numpy scalar read per edge
    steps = [(src.table[:, g].tolist(), dst.table[:, h].tolist()) for g, h in zip(gens, images)]
    m = [-1] * n
    used = [False] * dst.order
    m[0] = 0
    used[0] = True
    queue = [0]
    for a in queue:  # breadth first: the queue grows while it is read
        ma = m[a]
        for step_s, step_d in steps:
            x, y = step_s[a], step_d[ma]
            if m[x] < 0:
                if used[y]:
                    return None
                m[x] = y
                used[y] = True
                queue.append(x)
            elif m[x] != y:
                return None
    if len(queue) < n:
        return None
    return np.array(m, dtype=np.int32)


def _conjugation_table(G: FiniteGroup) -> np.ndarray:
    """conj[h, x] = h^-1 x h: row h is the inner automorphism by h, read
    as table[h^-1 x, h] in one flat gather.  The flat index stays int32
    while n^2 fits, and indexing (unlike ``np.take``) does not widen it."""
    n = G.order
    flat = G.table[G.inverse].astype(np.int32 if n * n < 2**31 else np.intp, copy=False)
    flat *= n
    flat += np.arange(n, dtype=flat.dtype)[:, None]
    return G.table.ravel()[flat]


def _conjugation(G: FiniteGroup) -> np.ndarray:
    """G's conjugation table, built once and memoized on the instance."""
    if G._conj_cache is None:
        G._conj_cache = _conjugation_table(G)
        G._conj_cache.setflags(write=False)
    return G._conj_cache


def automorphism_group(G: FiniteGroup) -> list[np.ndarray]:
    """All automorphisms of G as permutations of {0..n-1} fixing 0.

    Aut(G) is Inn(G)·T for one automorphism t per coset of Inn(G); the
    search finds T, and one conjugation row per coset of the centre
    multiplies it out in one gather: rows h and h' of the conjugation table
    agree iff h'h^-1 is central, so the least member of each centre coset
    gives one row per inner automorphism, ascending.  The memo is read-only.
    """
    if G.order > AUT_CAP:
        raise CapExceededError(f"automorphism search capped at order {AUT_CAP}")
    if G._aut_cache is None:
        conj = _conjugation(G)
        idx = np.arange(G.order)
        centre = np.flatnonzero((conj == idx).all(axis=1))
        first = np.flatnonzero(G.table[centre].min(axis=0) == idx)
        reps = np.array(_isomorphisms_mod_inner(G, G))
        auts = conj[first[:, None, None], reps].reshape(-1, G.order)
        auts.setflags(write=False)
        G._aut_cache = list(auts)
    return list(G._aut_cache)


def _isomorphisms_mod_inner(
    G: FiniteGroup, H: FiniteGroup, first_only: bool = False
) -> list[np.ndarray]:
    """One isomorphism G -> H in every coset Inn(H)·phi (only the first found
    with ``first_only``).

    Backtracking over images of a greedy generating sequence, pruned by
    class fingerprints (order, class size, power classes).  An inner
    automorphism moves the first generator's image to the smallest member of
    its class, and conjugation by that member's centralizer then moves the
    second generator's image to the smallest member of its orbit, so only
    those images are tried.  An automorphism of H is fixed by its images of
    ``greedy_generators(H)``, so the inner ones are keyed by those alone.
    """
    if G.order != H.order:
        return []
    if G.order == 1:
        return [np.zeros(1, dtype=np.int32)]
    conj = _conjugation(H)
    fp_g = _class_fingerprints(G)
    fp_h = fp_g if H is G else _class_fingerprints(H)
    if sorted(fp_g) != sorted(fp_h):
        return []
    gens = greedy_generators(G)
    pools = []
    for g in gens:
        fp = fp_g[g]
        pools.append([x for x in range(H.order) if fp_h[x] == fp])
    class_min = conj.min(axis=0)
    pools[0] = [x for x in pools[0] if class_min[x] == x]
    hgens = [] if first_only else greedy_generators(H)  # first_only compares no cosets
    inner = {row.tobytes() for row in conj[:, hgens]} if hgens else set()
    out: list[np.ndarray] = []
    out_inv: list[np.ndarray] = []  # t^-1 at H's generators, per map t kept
    stack: list[list[int]] = [[]]  # depth first, pools in order
    while stack:
        images = stack.pop()
        depth = len(images)
        if depth == len(gens):
            m = _extend_partial_map(G, H, gens, images)
            # m and t lie in one Inn-coset iff m * t^-1 is inner
            if m is not None and not any(m[t_inv].tobytes() in inner for t_inv in out_inv):
                out.append(m)
                out_inv.append(np.argsort(m)[hgens])
                if first_only:
                    break
            continue
        pool = pools[depth]
        if depth == 1:
            c = images[0]
            orbit_min = conj[conj[:, c] == c].min(axis=0)
            pool = [x for x in pool if orbit_min[x] == x]
        if depth > 0:
            # quick order-of-product prune using the previous image
            fp = fp_g[G.mul(gens[depth - 1], gens[depth])]
            pool = [x for x in pool if fp_h[H.mul(images[-1], x)] == fp]
        stack.extend(images + [x] for x in reversed(pool))
    return out


def group_isomorphisms(
    G: FiniteGroup, H: FiniteGroup
) -> Optional[tuple[np.ndarray, list[np.ndarray]]]:
    """One isomorphism G -> H plus Aut(H), or None.

    The full isomorphism set is the returned map composed with each
    automorphism of H.
    """
    reps = _isomorphisms_mod_inner(G, H, first_only=True)
    if not reps:
        return None
    return reps[0], automorphism_group(H)
