"""Permutation groups on indexed domains.

Permutations are numpy int32 image arrays; ``compose(p, q)`` applies p first.
Groups carry a deterministic stabilizer chain (base points are smallest moved
points, transversals breadth-first), so orders, membership tests and element
enumeration are reproducible across runs.  Each chain level holds its orbit,
a point-to-orbit-index array and its inverse transversal as one int32 matrix
with a row per orbit point; forward rows are derived from it when needed.
Completion is batched: Schreier generators are formed 32 at a time with one
gather and sifted together level by level, in the order of the textbook
one-at-a-time loop, so the chain is the same as that loop would build.
``reduce_generators`` sifts its candidates through one chain and extends it
in place for each generator it keeps.

Three groups are kept structural instead: the symmetric group on a point
set, the wreath product B wr T on a block system, and the subgroups of
D(2,G) given by their parameters (automorphism, translation, inversion).
Each answers its order and membership from its definition, so neither the
huge groups of symmetric-type Cayley schemes (orders like (168!)^2) nor the
block group of the normal type ever builds a chain.  The action of a group
on a block system, with one preimage per induced map, is ``action_closure``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import CapExceededError, InternalError, InvalidInputError
from .group import FiniteGroup, Subgroup, element_orders, greedy_generators

Perm = np.ndarray

ELEMENT_CAP = 10_000_000


def as_perm(images: Sequence[int], degree: Optional[int] = None) -> Perm:
    p = np.asarray(images, dtype=np.int32)
    if degree is not None and len(p) != degree:
        raise InvalidInputError(f"permutation degree {len(p)} != {degree}")
    return p


def identity_perm(n: int) -> Perm:
    return np.arange(n, dtype=np.int32)


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return q[p]


def inverse_perm(p: Perm) -> Perm:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


@lru_cache(maxsize=64)
def _identity(n: int) -> Perm:
    """The identity of degree n, shared and read-only."""
    ident = identity_perm(n)
    ident.setflags(write=False)
    return ident


def is_identity(p: Perm) -> bool:
    return bool((p == _identity(len(p))).all())


def uniform_cycle_length(p: Perm) -> Optional[int]:
    """The common cycle length if all cycles of p agree, else None."""
    n = len(p)
    seen = np.zeros(n, dtype=bool)
    common: Optional[int] = None
    for i in range(n):
        if seen[i]:
            continue
        ln, j = 1, int(p[i])
        seen[i] = True
        while j != i:
            seen[j] = True
            j = int(p[j])
            ln += 1
        if common is None:
            common = ln
        elif ln != common:
            return None
    return common


def is_permutation(p: np.ndarray) -> bool:
    """Whether the integer array p lists every point of 0..len(p)-1 once."""
    n = len(p)
    if n and (p.min() < 0 or p.max() >= n):
        return False
    hit = np.zeros(n, dtype=bool)
    hit[p] = True
    return bool(hit.all())


def _member_candidate(p, degree: int) -> Optional[Perm]:
    """p as an int32 permutation of 0..degree-1, or None if it is none.

    Membership tests call this first, so an image outside the domain can
    neither wrap around as a negative index nor raise from numpy.  A wrong
    shape raises InvalidInputError.
    """
    a = np.asarray(p)
    if a.ndim != 1 or len(a) != degree:
        raise InvalidInputError(f"permutation of shape {a.shape} on degree {degree}")
    if a.dtype.kind not in "iu" or not is_permutation(a):
        return None
    return a.astype(np.int32, copy=False)


# -- stabilizer chain ---------------------------------------------------------

# Schreier generators are formed and sifted this many at a time, so the
# temporaries of a completion step stay O(32 * degree)
_CHUNK = 32


class _Level:
    """One level of the chain: the orbit of ``base`` under the strong
    generators of this level and the deeper ones, and its inverse transversal.

    ``inv[k]`` is u^-1 for the transversal element u taking ``base`` to
    ``points[k]``; ``pos`` maps a point to its orbit index (-1 outside the
    orbit).  Forward rows are the inverses of these rows, made on demand.
    """

    __slots__ = ("base", "gens", "points", "pos", "inv")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.gens: list[Perm] = []  # strong generators first stuck at this level
        self.points = np.array([base], dtype=np.int32)  # orbit in discovery order
        self.pos = np.full(degree, -1, dtype=np.int32)
        self.pos[base] = 0
        self.inv = identity_perm(degree)[None, :]

    def reach(self, gens: np.ndarray, frontier: np.ndarray) -> np.ndarray:
        """Append the new points gens take the frontier to, in queue order
        (by frontier point, then generator), each with u^-1 = g^-1 u_a^-1;
        returns their orbit indices."""
        images = gens[:, self.points[frontier]].T.ravel()
        fresh = np.flatnonzero(self.pos[images] < 0)
        if not len(fresh):
            return fresh
        _, first = np.unique(images[fresh], return_index=True)
        fresh = fresh[np.sort(first)]
        src, via = np.divmod(fresh, len(gens))
        start = len(self.points)
        self.points = np.concatenate([self.points, images[fresh]])
        self.pos[images[fresh]] = np.arange(start, len(self.points), dtype=np.int32)
        rows = _rows_of(self.inv, frontier[src], _invert_rows(gens[via]))
        self.inv = np.concatenate([self.inv, rows])
        return np.arange(start, len(self.points))


def _rows_of(table: np.ndarray, which: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """table[which[r]][rows[r]] for every r: each row followed by a table row.

    One flat ``np.take``; a two-axis fancy index is several times slower on
    the 32-row batches of the chain.
    """
    return np.take(table, which.astype(np.intp)[:, None] * table.shape[1] + rows)


def _invert_rows(rows: np.ndarray) -> np.ndarray:
    """The inverse of every row of a permutation matrix."""
    out = np.empty_like(rows)
    out[np.arange(len(rows))[:, None], rows] = _identity(rows.shape[1])
    return out


def _is_identity_rows(rows: np.ndarray) -> np.ndarray:
    return (rows == _identity(rows.shape[1])).all(axis=1)


class PermutationGroup:
    """Permutation group with a deterministic stabilizer chain.

    Each level keeps its orbit in breadth-first discovery order and its
    inverse transversal as one int32 matrix, one row per orbit point (see
    ``_Level``).  Schreier–Sims completion (Seress, *Permutation Group
    Algorithms*, 2003, ch. 4) walks each level's (orbit point, generator)
    pairs in order, but forms their Schreier generators 32 at a time with
    one gather and sifts them together; the first one with a nonidentity
    residue becomes a strong generator, exactly as a one-at-a-time loop
    would choose.

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
        self._levels: Optional[list[_Level]] = None
        self._order: Optional[int] = None

    # -- chain construction ------------------------------------------------

    def _effective_gens(self, i: int) -> list[Perm]:
        out = []
        for lv in self._levels[i:]:
            out.extend(lv.gens)
        return out

    def _extend_orbit(self, i: int, new_gen: Perm) -> None:
        """Breadth-first extension of the level orbit after new_gen arrived.

        Existing points were already saturated under the old generators, so
        only new_gen is applied to them; newly reached points are expanded
        under the full effective generator set, one BFS layer per step.
        """
        lv = self._levels[i]
        frontier = lv.reach(new_gen[None, :], np.arange(len(lv.points)))
        if len(frontier):  # most calls reach nothing new: skip stacking the generators
            gens = np.stack(self._effective_gens(i))
            while len(frontier):
                frontier = lv.reach(gens, frontier)

    def _strip(self, p: Perm, start: int = 0) -> tuple[Perm, int]:
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            k = lv.pos[p[lv.base]]
            if k < 0:
                return p, i
            p = lv.inv[k][p]
        return p, len(self._levels)

    def _strip_rows(self, rows: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Sift every row together: the residues and the level each stopped at."""
        res = np.empty_like(rows)
        stop = np.full(len(rows), len(self._levels))
        live = np.arange(len(rows))
        for i in range(start, len(self._levels)):
            lv = self._levels[i]
            k = lv.pos[rows[:, lv.base]]
            out = k < 0
            if out.any():
                res[live[out]], stop[live[out]] = rows[out], i
                live, rows, k = live[~out], rows[~out], k[~out]
            rows = _rows_of(lv.inv, k, rows)
        res[live] = rows
        return res, stop

    def _first_residue(self, rows: np.ndarray, start: int) -> Optional[tuple[int, Perm, int]]:
        """(index, residue, level) of the first row that does not sift to
        the identity from level start on, or None if every row does."""
        res, stop = self._strip_rows(rows, start)
        # a row that stopped early moves that level's base point
        out = (stop < len(self._levels)) | ~_is_identity_rows(res)
        if not out.any():
            return None
        r = int(np.argmax(out))
        return r, res[r], int(stop[r])

    def _chain_order(self) -> int:
        o = 1
        for lv in self._levels:
            o *= len(lv.points)
        return o

    def _add_strong_gen(self, j: int, g: Perm) -> None:
        if j == len(self._levels):
            moved = int(np.flatnonzero(g != _identity(self.degree))[0])
            self._levels.append(_Level(moved, self.degree))
        self._levels[j].gens.append(g)
        for i in range(j, -1, -1):
            self._extend_orbit(i, g)

    def _schreier_residue(self, i: int) -> Optional[tuple[int, Perm, int]]:
        """The first Schreier generator of level i, in (orbit point,
        generator) order, that does not sift through the deeper levels."""
        lv = self._levels[i]
        gens = np.stack(self._effective_gens(i))
        pairs = len(lv.points) * len(gens)
        for lo in range(0, pairs, _CHUNK):
            a, via = np.divmod(np.arange(lo, min(lo + _CHUNK, pairs)), len(gens))
            u = _invert_rows(lv.inv[a[0] : a[-1] + 1])  # the chunk's few orbit points
            ug = _rows_of(gens, via, u[a - a[0]])  # u_a g
            sg = _rows_of(lv.inv, lv.pos[ug[:, lv.base]], ug)  # u_a g u_b^-1
            sg = sg[~_is_identity_rows(sg)]
            hit = self._first_residue(sg, i + 1) if len(sg) else None
            if hit is not None:
                return hit
        return None

    def _complete(self, i: int, target: Optional[int]) -> bool:
        """Schreier–Sims on levels i, i-1, ..., 0; the levels deeper than i
        must already be complete.  True if the chain order reached target."""
        while i >= 0:
            hit = self._schreier_residue(i)
            if hit is None:
                i -= 1
                continue
            _, r, j = hit
            if j <= i:
                raise InternalError("sift residue above its level")
            self._add_strong_gen(j, r)
            if target is not None and self._chain_order() == target:
                return True
            i = j
        return False

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
        if self._complete(len(self._levels) - 1, target):
            self._order = target
            return
        self._order = self._chain_order()
        if target is not None and self._order != target:
            raise InternalError(
                f"chain order {self._order} disagrees with certified order {target}"
            )

    def _adjoin(self, p: Perm) -> None:
        """Add a generator from outside the group to a built chain, and
        complete the chain again."""
        self.generators.append(p)
        r, j = self._strip(p)
        self._add_strong_gen(j, r)
        self._complete(j, None)
        self._order = self._chain_order()

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
        forward = [_invert_rows(lv.inv) for lv in levels]

        def rec(i: int) -> Iterator[Perm]:
            if i == len(levels):
                yield identity_perm(self.degree)
                return
            for e in rec(i + 1):
                yield from forward[i][:, e]  # e u for every transversal row u

        yield from rec(0)

    def element_rows(self, cap: int = ELEMENT_CAP) -> np.ndarray:
        return np.array(list(self.elements(cap)), dtype=np.int32)

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, gens={len(self.generators)})"


def reduce_generators(gens: Iterable[Sequence[int]], degree: int) -> list[Perm]:
    """Drop generators already generated by the kept ones.

    Candidates are sifted 32 at a time through one chain of the kept ones;
    the first that does not sift to the identity is kept and adjoined to
    that same chain, and sifting resumes after it.
    """
    cands = [as_perm(g, degree) for g in gens]
    kept: list[Perm] = []
    group = PermutationGroup([], degree)
    group._ensure_chain()
    lo = 0
    while lo < len(cands):
        chunk = cands[lo : lo + _CHUNK]
        rows = np.stack(chunk)
        if rows.ndim != 2 or not _is_identity_rows(np.sort(rows, axis=1)).all():
            raise InvalidInputError("images are not a bijection")
        hit = group._first_residue(rows, 0)
        if hit is None:
            lo += len(chunk)
            continue
        r = hit[0]
        kept.append(chunk[r])
        group._adjoin(chunk[r])
        lo += r + 1
    return kept


# -- structural groups ----------------------------------------------------------


class SymmetricGroup:
    """Sym(points) inside Sym(degree), answered from its definition.

    A permutation of the domain is a member iff it fixes every point outside
    ``points``; the order is k!.  The generators are a k-cycle along
    ``points`` and the transposition of its first two points.
    """

    def __init__(self, points: Sequence[int], degree: int):
        pts = [int(x) for x in points]
        self.degree = int(degree)
        self.order = math.factorial(len(pts))
        ident = identity_perm(self.degree)
        self._fixed = np.setdiff1d(ident, pts)
        self.generators: list[Perm] = []
        if len(pts) >= 2:
            cyc, tr = ident.copy(), ident.copy()
            cyc[pts] = pts[1:] + pts[:1]
            tr[pts[:2]] = pts[1::-1]
            self.generators = [cyc, tr] if len(pts) > 2 else [tr]

    def __contains__(self, p) -> bool:
        r = _member_candidate(p, self.degree)
        return r is not None and bool(np.array_equal(r[self._fixed], self._fixed))


def symmetric_group_on(points: Sequence[int], degree: int) -> SymmetricGroup:
    """Sym(points) inside Sym(degree)."""
    return SymmetricGroup(points, degree)


# every group type with degree, order, generators and membership
AnyGroup = Union[PermutationGroup, SymmetricGroup, "WreathProduct", "D2Subgroup"]


def conj_into_block(d: Perm, blk: Sequence[int], degree: int) -> Perm:
    """A permutation of block positions 0..b-1, acting on the block's points."""
    out = identity_perm(degree)
    arr = np.asarray(blk, dtype=np.int32)
    out[arr] = arr[d]
    return out


class WreathProduct:
    """inner wr top on a block system, answered blockwise from its definition.

    ``inner`` acts on positions 0..b-1; block i is the point list blocks[i],
    identified positionwise.  ``top`` acts on block indices.  The group is
    {f : f permutes blocks by some tau in top, and every block component,
    pulled back to positions, lies in inner}, of order |inner|^m * |top|;
    membership tests exactly that (Seress, *Permutation Group Algorithms*,
    2003, sec. 2.4).  The generators are inner's on the first block of each
    orbit of top, followed by top's lifted positionwise.
    """

    inner: AnyGroup
    top: AnyGroup

    def __init__(self, inner: AnyGroup, blocks: np.ndarray, top: AnyGroup, degree: int):
        m, b = blocks.shape
        self.degree = int(degree)
        self.inner, self.blocks, self.top = inner, blocks, top
        self.order = inner.order**m * top.order
        self._block_of = np.empty(self.degree, dtype=np.int32)
        self._block_of[blocks] = np.arange(m, dtype=np.int32)[:, None]
        self._pos_of = np.empty(self.degree, dtype=np.int32)
        self._pos_of[blocks] = np.arange(b, dtype=np.int32)[None, :]
        self.generators = [
            conj_into_block(g, blocks[i], degree)
            for i in _orbit_minima(top.generators, m)
            for g in inner.generators
        ]
        for t in top.generators:
            lift = identity_perm(self.degree)
            lift[blocks] = blocks[t]
            self.generators.append(lift)

    def __contains__(self, p) -> bool:
        f = _member_candidate(p, self.degree)
        if f is None:
            return False
        img = f[self.blocks]
        landed = self._block_of[img]
        tau = landed[:, 0]
        if np.any(landed != tau[:, None]) or tau not in self.top:
            return False
        return all(c in self.inner for c in self._pos_of[img])


def _orbit_minima(gens: Sequence[Perm], m: int) -> np.ndarray:
    """The smallest point of each orbit of <gens> on 0..m-1, ascending."""
    low = np.arange(m)
    for _ in range(m):  # after k rounds: the minimum within k steps along gens
        low = np.min([low] + [low[g] for g in gens], axis=0)
    return np.flatnonzero(low == np.arange(m))


def wreath_group_on_blocks(
    inner: AnyGroup, blocks: list[list[int]], top: AnyGroup, degree: int
) -> WreathProduct:
    """The wreath product inner wr top on a block system (see ``WreathProduct``)."""
    b = len(blocks[0]) if blocks else 0
    if not b or any(len(blk) != b for blk in blocks):
        raise InvalidInputError("blocks must be nonempty and of equal size")
    arr = np.asarray(blocks, dtype=np.int32)
    if arr.size != degree or not is_permutation(arr.ravel()):
        raise InvalidInputError("blocks must partition the domain")
    if inner.degree != b or top.degree != len(blocks):
        raise InvalidInputError("inner must act on block positions and top on block indices")
    return WreathProduct(inner, arr, top, degree)


# -- regular representations and D(2,G) ----------------------------------------


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


def d2_group(
    G: FiniteGroup, automorphisms: Optional[list[Perm]] = None, cap: int = 1000
) -> PermutationGroup:
    """D(2,G): the holomorph of G extended by inversion, acting on G.

    Generators are right translations, the automorphisms (as permutations
    fixing 0), and inversion; the generator list is reduced before chain
    construction.
    """
    from .group import automorphism_group

    if G.order > cap:
        raise CapExceededError(f"d2_group capped at order {cap}")
    reps = regular_representations(G)
    auts = automorphisms if automorphisms is not None else automorphism_group(G)
    gens = reduce_generators(
        reps.right_gens + [as_perm(a, G.order) for a in auts] + [reps.sigma], G.order
    )
    return PermutationGroup(gens, G.order)


class D2Subgroup:
    """A subgroup of D(2,G) given parametrically.

    Elements are x -> alpha(x) * t or x -> (alpha(x) * t)^-1 with t ranging
    over ``translations`` (a subgroup T of G; all of G by default), alpha
    over ``auts_plain`` for the first kind and over ``auts_inv`` for the
    second.  For nonabelian G the parameters are unique per element, so the
    order is |T| * (|auts_plain| + |auts_inv|), and membership reads t off
    the image of the identity and looks up alpha: O(n), no chain.

    The kernel of the action on the cosets of a normal subgroup N has the
    same form (``coset_kernel``): x -> (alpha(x) t)^eps fixes every N-coset
    iff t lies in N (put x = 1) and alpha acts on G/N trivially (eps = +1)
    or by inversion (eps = -1).
    """

    def __init__(
        self,
        G: FiniteGroup,
        auts_plain: list[Perm],
        auts_inv: list[Perm],
        translations: Optional[Sequence[int]] = None,
    ):
        if G.is_abelian:
            raise InvalidInputError("parametric form needs unique parameters (nonabelian G)")
        self.group = G
        self.degree = G.order
        self.auts_plain = [as_perm(a, G.order) for a in auts_plain]
        self.auts_inv = [as_perm(a, G.order) for a in auts_inv]
        if not self.auts_plain:
            raise InvalidInputError("plain part must contain at least the identity")
        if self.auts_inv and len(self.auts_inv) != len(self.auts_plain):
            raise InternalError("inverted part is not a coset of the plain part")
        self.translations = Subgroup(G, range(G.order) if translations is None else translations)
        self.order = self.translations.order * (len(self.auts_plain) + len(self.auts_inv))
        self._plain_set = {a.tobytes() for a in self.auts_plain}
        self._inv_set = {a.tobytes() for a in self.auts_inv}

    def row(self, alpha: Perm, t: int, inverted: bool) -> Perm:
        r = self.group.table[alpha, t]
        if inverted:
            r = self.group.inverse[r]
        return np.ascontiguousarray(r)

    def __contains__(self, p) -> bool:
        r = _member_candidate(p, self.degree)
        if r is None:
            return False
        table, inv = self.group.table, self.group.inverse
        # the plain part at r, the inverted part at r^-1: t = image of 1 and
        # alpha = r * rho_t^-1
        for img, auts in ((r, self._plain_set), (inv[r], self._inv_set)):
            t = int(img[0])
            if t in self.translations and table[img, inv[t]].tobytes() in auts:
                return True
        return False

    @cached_property
    def generators(self) -> list[Perm]:
        """Right translations by generators of T, the plain automorphisms
        (reduced), and one element of the inverted part if there is one."""
        G = self.group
        gens = [np.ascontiguousarray(G.table[:, g]) for g in self.translations.generators()]
        gens += reduce_generators(self.auts_plain, self.degree)
        if self.auts_inv:
            gens.append(np.ascontiguousarray(G.inverse[self.auts_inv[0]]))
        return gens

    def coset_kernel(self, coset_of: np.ndarray) -> "D2Subgroup":
        """The kernel of the action on the cosets of a normal subgroup N of G,
        given the coset index of each element; the cosets must be blocks."""
        cls, inv = np.asarray(coset_of), self.group.inverse
        plain = [a for a in self.auts_plain if np.array_equal(cls[a], cls)]
        invs = [a for a in self.auts_inv if np.array_equal(cls[a], cls[inv])]
        kept = [t for t in self.translations.elements if cls[t] == cls[0]]
        return D2Subgroup(self.group, plain, invs, kept)

    def __repr__(self) -> str:
        return f"D2Subgroup(order={self.order}, degree={self.degree})"


def full_d2_subgroup(G: FiniteGroup, automorphisms: Optional[list[Perm]] = None) -> D2Subgroup:
    """D(2,G) itself in parametric form (all automorphisms on both parts)."""
    from .group import automorphism_group

    auts = automorphisms if automorphisms is not None else automorphism_group(G)
    return D2Subgroup(G, list(auts), list(auts))


# -- orbitals -------------------------------------------------------------------


@dataclass
class RelationPartition:
    """A partition of Omega x Omega into colored relations."""

    degree: int
    colors: np.ndarray
    n_colors: int


def orbitals(K: PermutationGroup, degree_cap: int = 1000) -> RelationPartition:
    """Orbits of the componentwise action on pairs, by flood fill."""
    n = K.degree
    if n > degree_cap:
        raise CapExceededError(f"orbitals capped at degree {degree_cap}")
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


# -- block actions ---------------------------------------------------------------


@dataclass
class BlockAction:
    """Action of a group on a block partition, with kernel and preimages."""

    action: PermutationGroup
    kernel: PermutationGroup
    _preimages: dict[bytes, Perm]

    def preimage(self, tau: Sequence[int]) -> Perm:
        key = as_perm(tau).astype(np.int32).tobytes()
        try:
            return self._preimages[key]
        except KeyError:
            raise InvalidInputError("block map is not in the action image") from None


def induced_block_map(f: Perm, cls_a: np.ndarray, cls_b: np.ndarray, m: int) -> Optional[Perm]:
    """The map f induces from the classes of cls_a onto those of cls_b.

    cls_a and cls_b give each point's class in 0..m-1; None if f splits a
    class of cls_a over two classes of cls_b.
    """
    out = np.full(m, -1, dtype=np.int32)
    img = cls_b[f]
    out[cls_a] = img
    return out if np.array_equal(out[cls_a], img) else None


def action_closure(
    gens: Sequence[Perm], cls: np.ndarray, m: int, cap: int = 500_000
) -> Optional[dict[bytes, Perm]]:
    """The maps <gens> induces on the classes of cls, each with one preimage.

    Keys are the induced maps' bytes in breadth-first order from the
    identity; each preimage is the product of gens along the first path
    found.  None if some generator splits a class.
    """
    acts = [induced_block_map(g, cls, cls, m) for g in gens]
    if any(a is None for a in acts):
        return None
    start = identity_perm(m)
    reach = {start.tobytes(): identity_perm(len(cls))}
    queue = [(start, reach[start.tobytes()])]
    head = 0
    while head < len(queue):
        arow, pre = queue[head]
        head += 1
        for act, g in zip(acts, gens):
            na = compose(arow, act)
            key = na.tobytes()
            if key not in reach:
                if len(reach) >= cap:
                    raise CapExceededError("block action image too large")
                reach[key] = compose(pre, g)
                queue.append((na, reach[key]))
    return reach


def block_action_with_kernel(
    K: PermutationGroup, partition: Sequence[Sequence[int]], closure_cap: int = 500_000
) -> BlockAction:
    """Induced action on blocks plus its kernel.

    The action image is ``action_closure``; kernel generators are the
    Schreier generators of that coset traversal.
    """
    n = K.degree
    blocks = [list(map(int, blk)) for blk in partition]
    block_of = np.full(n, -1, dtype=np.int32)
    for i, blk in enumerate(blocks):
        block_of[blk] = i
    if np.any(block_of < 0):
        raise InvalidInputError("partition does not cover the domain")
    m = len(blocks)
    reach = action_closure(K.generators, block_of, m, closure_cap)
    if reach is None:
        raise InvalidInputError("not a block system")
    if len(reach) == 1:
        # trivial action: the kernel is the whole group
        return BlockAction(PermutationGroup([], m, known_order=1), K, reach)
    acts = [induced_block_map(g, block_of, block_of, m) for g in K.generators]
    schreier: dict[bytes, Perm] = {}
    for akey, pre in reach.items():
        arow = np.frombuffer(akey, dtype=np.int32)
        for g, ga in zip(K.generators, acts):
            cand = compose(compose(pre, g), inverse_perm(reach[compose(arow, ga).tobytes()]))
            schreier.setdefault(cand.tobytes(), cand)
    # Schreier's lemma: they generate the kernel, and its chain raises
    # InternalError unless they reach the order |K| / |image|
    kernel = PermutationGroup(schreier.values(), n, known_order=K.order // len(reach))
    return BlockAction(PermutationGroup(acts, m, known_order=len(reach)), kernel, reach)


# -- regular subgroups -------------------------------------------------------------


def _divisor_chain(o: int) -> list[int]:
    return [k for k in range(1, o) if o % k == 0]


def _candidate_pools_parametric(K: D2Subgroup, needed: set[int]) -> dict[int, list[Perm]]:
    """Uniform-cycle-type elements of a parametric D(2,G)-subgroup, per order.

    For each (automorphism, kind) the rows over its translations t form the
    columns of one matrix; column-wise powers are taken together, so the
    uniform-type test (f^o = id, f^k fixed-point-free for proper divisors k)
    is vectorized over t.
    """
    n = K.degree
    T = K.group.table
    inv = K.group.inverse
    ts = np.asarray(K.translations.elements, dtype=np.int32)[None, :]
    ident_col = np.arange(n, dtype=np.int32)[:, None]
    cols = np.arange(ts.shape[1], dtype=np.int32)[None, :]
    pools: dict[int, list[Perm]] = {o: [] for o in needed}

    def scan(M: np.ndarray) -> None:
        # M[x, t] is the image of x under candidate t
        maxo = max(needed)
        powers = {1: M}
        P = M
        for k in range(2, maxo + 1):
            P = M[P, cols]
            powers[k] = P
        fpf = {k: ~np.any(powers[k] == ident_col, axis=0) for k in range(1, maxo + 1)}
        is_id = {k: np.all(powers[k] == ident_col, axis=0) for k in range(1, maxo + 1)}
        for o in needed:
            ok = is_id[o].copy()
            for k in _divisor_chain(o):
                ok &= fpf[k]
            for t in np.nonzero(ok)[0]:
                pools[o].append(np.ascontiguousarray(M[:, t]))

    for alpha in K.auts_plain:
        scan(T[alpha[:, None], ts])
    for alpha in K.auts_inv:
        scan(inv[T[alpha[:, None], ts]])
    return pools


def _bfs_tree(H: FiniteGroup, gens: list[int]) -> list[tuple[int, int, int]]:
    """Edges (parent, gen slot, child) of a BFS spanning tree of the Cayley graph."""
    n = H.order
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    edges = []
    queue = [0]
    head = 0
    while head < len(queue):
        a = queue[head]
        head += 1
        for gi, g in enumerate(gens):
            b = int(H.table[a, g])
            if not seen[b]:
                seen[b] = True
                edges.append((a, gi, b))
                queue.append(b)
    if not np.all(seen):
        raise InternalError("generating sequence does not generate")
    return edges


def regular_subgroups(K, H: FiniteGroup, element_cap: int = ELEMENT_CAP) -> list[PermutationGroup]:
    """All regular subgroups of K isomorphic to H.

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
    if K.order > element_cap:
        raise CapExceededError("K too large to enumerate")
    if n == 1:
        return [PermutationGroup([], 1)]
    gens_idx = greedy_generators(H)
    k = len(gens_idx)
    orders = element_orders(H)[gens_idx].tolist()

    if isinstance(K, D2Subgroup):
        pools = _candidate_pools_parametric(K, set(orders))
    else:
        pools = {o: [] for o in set(orders)}
        for row in K.elements(element_cap):
            if int(row[0]) == 0:
                continue  # fixes a point, cannot belong to a regular subgroup
            o = uniform_cycle_length(row)
            if o in pools:
                pools[o].append(row.copy())

    # iterate small pools in the outer product, batch over the largest one
    slot_order = sorted(range(k), key=lambda i: len(pools[orders[i]]))
    gens_idx = [gens_idx[i] for i in slot_order]
    orders = [orders[i] for i in slot_order]

    tree = _bfs_tree(H, gens_idx)
    T = H.table
    found: dict[bytes, PermutationGroup] = {}

    def accept(cands: list[Perm], b: np.ndarray) -> None:
        binv = inverse_perm(b)
        P = b[T[binv]]  # column h is the conjugated right translation by h
        # conjugating H_right by b must reproduce the candidate images
        for gi, g in enumerate(gens_idx):
            if not np.array_equal(P[:, g], cands[gi]):
                return
        # canonical form: element rows indexed by their image of the base point
        M = np.ascontiguousarray(P.T[binv])
        full = M.tobytes()
        if full in found:
            return
        for row in M:
            if row not in K:
                return
        sub = PermutationGroup(list(cands), n, known_order=n)
        sub.element_rows_cache = np.ascontiguousarray(P.T)
        found[full] = sub

    last_pool = pools[orders[-1]]
    if not last_pool or any(not pools[o] for o in orders):
        return []
    c_last = np.stack(last_pool)
    m_last = len(last_pool)
    rows_idx = np.arange(m_last)

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

    return [found[k2] for k2 in sorted(found)]
