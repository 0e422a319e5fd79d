"""Permutation groups on indexed domains.

Permutations are numpy int32 image arrays; ``compose(p, q)`` applies p first.
Groups carry a deterministic stabilizer chain (base points are smallest moved
points, transversals breadth-first), so orders and membership tests are
reproducible across runs.  Each chain level holds its orbit, a
point-to-orbit-index array and its inverse transversal as one int32 matrix
with a row per orbit point.  Completion sifts Schreier generators in batches
of about 2**13 entries (never fewer than 32 rows), in the order of the
textbook one-at-a-time loop, so the chain is the one that loop builds.
``reduce_generators`` sifts its candidates one at a time through one chain
and extends it for each generator it keeps.

Three groups are kept structural instead: the symmetric group of a whole
domain, the wreath product B wr Sym(m) on a system of m blocks, and the
subgroups of D(2,G) given by their parameters (automorphism, translation,
inversion).
Each answers its order and membership from its definition, so neither the
huge groups of symmetric-type Cayley schemes (orders like (168!)^2) nor the
block group of the normal type ever builds a chain: its automorphisms are
rows keyed by their images of a generating set, and its generators come
from a breadth-first closure over them.  The action of a group on a block
system, with one preimage per induced map, is ``action_closure``; its
kernel, through a stabilizer chain, is ``block_action_with_kernel``, which
only the tests' oracles call.  ``regular_subgroups``, the fallback of the
seed coset search, builds the regular subgroups of a parametric D(2,G)
subgroup that contain the right or left translations by soc(G), and hands
each back as a multiplication table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CapExceededError, InternalError, InvalidInputError
from .group import (FiniteGroup, Subgroup, greedy_generators, group_isomorphisms,
                    is_almost_simple, socle)

Perm = np.ndarray

ACTION_CAP = 500_000  # induced maps ``action_closure`` may reach


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

# Schreier generators are formed and sifted max(32, _SIFT_BUDGET // degree)
# rows at a time: wide enough that small degrees pay numpy's per-call cost
# on few batches, and the temporaries of a step stay O(max(2**13, 32 * degree))
_SIFT_BUDGET = 1 << 13


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
    the row batches of the chain.
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
    pairs in order, but forms a batch of their Schreier generators with one
    gather and sifts them together; the first one with a nonidentity
    residue becomes a strong generator, exactly as a one-at-a-time loop
    would choose.

    ``known_order`` is an optional target order: chain construction stops as
    soon as the transversal product reaches it.  The product of transversal
    sizes never exceeds the true order of the generated group, so reaching
    the target proves |<gens>| >= known_order, and a target above the true
    order raises ``InternalError`` once the deterministic completion ends
    below it.  The chain is complete only if the target is also an upper
    bound on |<gens>|, which the caller must certify: below the true order
    the chain stops early, and both ``order`` and membership are wrong.  The
    Aut generators of the full S5 colouring generate a group of order
    28,800, yet with ``known_order=14400`` the order reads 14,400.
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
        return [g for lv in self._levels[i:] for g in lv.gens]

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
        return math.prod(len(lv.points) for lv in self._levels)

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
        batch = max(32, _SIFT_BUDGET // self.degree)
        for lo in range(0, pairs, batch):
            a, via = np.divmod(np.arange(lo, min(lo + batch, pairs)), len(gens))
            u = _invert_rows(lv.inv[a[0] : a[-1] + 1])  # the batch's orbit points
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
        # certified order: fill the chain by sifting pseudo-random products;
        # every transversal entry is a genuine word in the generators, so
        # reaching the target order proves completeness
        if target is not None and (
            self._chain_order() == target or self._randomized_descent(target)
        ):
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

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, gens={len(self.generators)})"


def reduce_generators(gens: Iterable[Sequence[int]], degree: int) -> list[Perm]:
    """Drop generators already generated by the kept ones: each candidate
    is sifted through one chain of the kept ones, and extends it if kept."""
    kept: list[Perm] = []
    group = PermutationGroup([], degree)
    group._ensure_chain()
    for g in gens:
        p = _member_candidate(g, degree)
        if p is None:
            raise InvalidInputError("images are not a bijection")
        r, j = group._strip(p)
        if not is_identity(r):
            kept.append(p)
            group._add_strong_gen(j, r)
            group._complete(j, None)
    return kept


# -- structural groups ----------------------------------------------------------


class SymmetricGroup:
    """Sym(degree) on the whole domain 0..degree-1, answered from its
    definition: every permutation of the domain is a member, and the order
    is degree!.  The generators are the cycle i -> i+1 (mod degree) and the
    transposition of 0 and 1.
    """

    def __init__(self, degree: int):
        self.degree = int(degree)
        self.order = math.factorial(self.degree)
        ident = identity_perm(self.degree)
        self.generators: list[Perm] = []
        if self.degree >= 2:
            cyc, tr = np.roll(ident, -1), ident.copy()
            tr[:2] = 1, 0
            self.generators = [cyc, tr] if self.degree > 2 else [tr]

    def __contains__(self, p) -> bool:
        return _member_candidate(p, self.degree) is not None


def symmetric_group_on(degree: int) -> SymmetricGroup:
    """Sym(degree) on the domain 0..degree-1."""
    return SymmetricGroup(degree)


def conj_into_block(d: Perm, blk: Sequence[int], degree: int) -> Perm:
    """A permutation of block positions 0..b-1, acting on the block's points."""
    out = identity_perm(degree)
    arr = np.asarray(blk, dtype=np.int32)
    out[arr] = arr[d]
    return out


class WreathProduct:
    """inner wr Sym(m) on a system of m blocks, answered blockwise from its
    definition.

    ``inner`` is any group with ``degree``, ``order``, ``generators`` and
    membership, acting on positions 0..b-1; block i is the point list
    blocks[i], identified positionwise.  The group is {f : f maps every
    block into one block, and every block component, pulled back to
    positions, lies in inner}, of order |inner|^m * m!; membership tests
    exactly that (Seress, *Permutation Group Algorithms*, 2003, sec. 2.4).
    A bijection that keeps every block inside one block permutes the
    blocks, so the block map needs no test of its own.  The generators are
    inner's on block 0, followed by those of Sym(m) lifted positionwise.
    """

    def __init__(self, inner, blocks: np.ndarray, degree: int):
        m, b = blocks.shape
        self.degree = int(degree)
        self.inner, self.blocks = inner, blocks
        self.order = inner.order**m * math.factorial(m)
        self._block_of = np.empty(self.degree, dtype=np.int32)
        self._block_of[blocks] = np.arange(m, dtype=np.int32)[:, None]
        self._pos_of = np.empty(self.degree, dtype=np.int32)
        self._pos_of[blocks] = np.arange(b, dtype=np.int32)[None, :]
        self.generators = [conj_into_block(g, blocks[0], degree) for g in inner.generators]
        for t in SymmetricGroup(m).generators:
            lift = identity_perm(self.degree)
            lift[blocks] = blocks[t]
            self.generators.append(lift)

    def __contains__(self, p) -> bool:
        f = _member_candidate(p, self.degree)
        if f is None:
            return False
        img = f[self.blocks]
        landed = self._block_of[img]
        if np.any(landed != landed[:, :1]):
            return False
        return all(c in self.inner for c in self._pos_of[img])


def wreath_group_on_blocks(inner, blocks: np.ndarray, degree: int) -> WreathProduct:
    """The wreath product inner wr Sym(m) on m blocks, the rows of ``blocks``
    (an array or equal-size lists; see ``WreathProduct``)."""
    b = len(blocks[0]) if len(blocks) else 0
    if not b or any(len(blk) != b for blk in blocks):
        raise InvalidInputError("blocks must be nonempty and of equal size")
    arr = np.asarray(blocks, dtype=np.int32)
    if arr.size != degree or not is_permutation(arr.ravel()):
        raise InvalidInputError("blocks must partition the domain")
    if inner.degree != b:
        raise InvalidInputError("inner must act on block positions")
    return WreathProduct(inner, arr, degree)


# -- subgroups of D(2,G) ----------------------------------------------------------


class D2Subgroup:
    """A subgroup of D(2,G) given parametrically.

    Elements are x -> alpha(x) * t or x -> (alpha(x) * t)^-1 with t ranging
    over ``translations`` (a subgroup T of G; all of G by default), alpha
    over the rows of ``auts_plain`` for the first kind and of ``auts_inv``
    for the second.  For nonabelian G the parameters are unique per element,
    so the order is |T| * (|auts_plain| + |auts_inv|).  An automorphism is
    fixed by its images of ``greedy_generators(G)``, so each part keys its
    rows by a mixed-radix int64 code of those images, kept sorted.
    Membership reads t off the image of the identity, looks alpha = r *
    rho_t^-1 up by its code and compares the full row: O(n), no chain.

    The kernel of the action on the cosets of a normal subgroup N has the
    same form (``coset_kernel``): x -> (alpha(x) t)^eps fixes every N-coset
    iff t lies in N (put x = 1) and alpha acts on G/N trivially (eps = +1)
    or by inversion (eps = -1).
    """

    def __init__(
        self,
        G: FiniteGroup,
        auts_plain: Sequence[Sequence[int]],
        auts_inv: Sequence[Sequence[int]],
        translations: Optional[Sequence[int]] = None,
    ):
        if G.is_abelian:
            raise InvalidInputError("parametric form needs unique parameters (nonabelian G)")
        self.group, self.degree = G, G.order
        self._base = np.asarray(greedy_generators(G), dtype=np.intp)
        if G.order ** len(self._base) >= 2**63:
            raise CapExceededError("generator images do not fit an int64 code")
        self._radix = G.order ** np.arange(len(self._base), dtype=np.int64)
        self.auts_plain, self._plain_keys = self._keyed(auts_plain)
        self.auts_inv, self._inv_keys = self._keyed(auts_inv)
        if not len(self.auts_plain):
            raise InvalidInputError("plain part must contain at least the identity")
        if len(self.auts_inv) and len(self.auts_inv) != len(self.auts_plain):
            raise InternalError("inverted part is not a coset of the plain part")
        self.translations = Subgroup(G, range(G.order) if translations is None else translations)
        self.order = self.translations.order * (len(self.auts_plain) + len(self.auts_inv))

    def _keyed(self, auts) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
        """The rows as one int32 matrix, and their sorted codes with each one's row."""
        rows = np.array(auts, dtype=np.int32) if len(auts) else np.empty((0, self.degree), np.int32)
        if rows.ndim != 2 or rows.shape[1] != self.degree:
            raise InvalidInputError(f"automorphisms of shape {rows.shape} on degree {self.degree}")
        codes = rows[:, self._base].astype(np.int64) @ self._radix
        at = np.argsort(codes)
        if np.any(np.diff(codes[at]) == 0):
            raise InvalidInputError("two automorphisms agree on the generators of G")
        return rows, (codes[at], at)

    def _find(self, keys: tuple[np.ndarray, np.ndarray], images: np.ndarray) -> np.ndarray:
        """The row with each generator images (last axis), or -1; the part is nonempty."""
        codes, (sorted_codes, at) = images.astype(np.int64) @ self._radix, keys
        k = np.searchsorted(sorted_codes, codes).clip(max=len(at) - 1)
        return np.where(sorted_codes[k] == codes, at[k], -1)

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
        # alpha = r * rho_t^-1, found by its code and compared in full
        parts = ((r, self.auts_plain, self._plain_keys), (inv[r], self.auts_inv, self._inv_keys))
        for img, rows, keys in parts:
            t = int(img[0])
            if len(rows) and t in self.translations:
                alpha = table[img, inv[t]]
                k = int(self._find(keys, alpha[self._base]))
                if k >= 0 and np.array_equal(rows[k], alpha):
                    return True
        return False

    def _closure_generators(self) -> list[int]:
        """The plain rows outside the closure of the rows kept before them,
        in order: the rows ``reduce_generators`` keeps, with no chain.  Each
        kept row g gets its action map on the row list once (row i -> the
        row of g after i, looked up by the code of its generator images), and
        the closure grows on a bool array by one gather of those maps per
        layer, as ``group.closure`` does; a new row acts on all members
        first.  A product off the list raises InternalError.
        """
        rows, keys = self.auts_plain, self._plain_keys
        images = rows[:, self._base]
        identity = self._find(keys, self._base)
        if identity < 0:
            raise InternalError("the plain part lacks the identity")
        inside = np.zeros(len(rows), dtype=bool)
        inside[identity] = True
        kept: list[int] = []
        acts: list[np.ndarray] = []
        while not inside.all():
            kept.append(int(np.argmin(inside)))
            acts.append(self._find(keys, rows[kept[-1]][images]))
            if np.any(acts[-1] < 0):
                raise InternalError("the plain part is not closed under composition")
            frontier, step = np.flatnonzero(inside), acts[-1][:, None]
            while len(frontier):
                before = inside.copy()
                inside[step[frontier]] = True
                frontier = np.flatnonzero(inside > before)
                step = np.stack(acts, axis=1)
        return kept

    @cached_property
    def generators(self) -> list[Perm]:
        """Right translations by generators of T, the plain automorphisms
        that ``_closure_generators`` keeps, and one element of the inverted
        part if there is one."""
        G = self.group
        gens = [np.ascontiguousarray(G.table[:, g]) for g in self.translations.generators()]
        gens += list(self.auts_plain[self._closure_generators()])
        if len(self.auts_inv):
            gens.append(np.ascontiguousarray(G.inverse[self.auts_inv[0]]))
        return gens

    def coset_kernel(self, coset_of: np.ndarray) -> "D2Subgroup":
        """The kernel of the action on the cosets of a normal subgroup N of G,
        given the coset index of each element; the cosets must be blocks."""
        cls, inv = np.asarray(coset_of), self.group.inverse
        plain = self.auts_plain[(cls[self.auts_plain] == cls).all(axis=1)]
        invs = self.auts_inv[(cls[self.auts_inv] == cls[inv]).all(axis=1)]
        kept = [t for t in self.translations.elements if cls[t] == cls[0]]
        return D2Subgroup(self.group, plain, invs, kept)

    def __repr__(self) -> str:
        return f"D2Subgroup(order={self.order}, degree={self.degree})"


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


def action_closure(gens: Sequence[Perm], cls: np.ndarray, m: int) -> Optional[dict[bytes, Perm]]:
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
    for arow, pre in queue:  # the queue grows while it is walked
        for act, g in zip(acts, gens):
            na = compose(arow, act)
            key = na.tobytes()
            if key not in reach:
                if len(reach) >= ACTION_CAP:
                    raise CapExceededError("block action image too large")
                reach[key] = compose(pre, g)
                queue.append((na, reach[key]))
    return reach


def block_action_with_kernel(K: PermutationGroup, partition: Sequence[Sequence[int]]) -> BlockAction:
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
    reach = action_closure(K.generators, block_of, m)
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


def _close_rows(rows: np.ndarray, have: np.ndarray, gens: Sequence[Perm]) -> bool:
    """Close the members ``rows[have]`` (row p takes 0 to p) under right
    multiplication by gens, in place; False once two take 0 to one point."""
    frontier = np.flatnonzero(have)
    while len(frontier):
        new = np.concatenate([g[rows[frontier]] for g in gens])
        keys = new[:, 0]
        fresh = ~have[keys]
        rows[keys[fresh]] = new[fresh]
        if not np.array_equal(rows[keys], new):
            return False
        have[keys] = True
        frontier = np.unique(keys[fresh])
    return True


class RegularSubgroup(FiniteGroup):
    """A group kept by ``regular_subgroups``, with the isomorphism from H."""
    iso_from: np.ndarray


def regular_subgroups(K: D2Subgroup, H: FiniteGroup) -> list[RegularSubgroup]:
    """The regular subgroups of K isomorphic to H that contain S = T_r or
    S = T_l, the right or left translations by T = soc(G) of the almost
    simple G = K.group, each as its abstract group, in order of their
    member rows' bytes: column i of the table is the member that takes 0 to
    i, so a * b is the image of a under member b, with ``iso_from`` and Aut(R).

    For H almost simple with a socle of T's order, as U in the C0 search,
    that is every such subgroup R.  soc(R) lies in T_r x T_l, over which
    D(2,G) is solvable (its factors there are G/T twice, Aut(G)/Inn(T) <=
    Out(T) and the inversion).  A copy of T there other than T_r and T_l
    is a twisted diagonal x -> phi(t) x t^-1, which fixes 1 wherever
    phi(t) = t, and every automorphism of a nonsolvable group fixes some
    t != 1 (P. Rowley, J. Algebra 174, 1995), so R is not semiregular.

    So R = S<sigma_1, ...>, where sigma_i is R's one member that takes 0 to
    the smallest point c outside the orbit of S<sigma_1, ..., sigma_i-1>:
    a member of K that normalizes S, read off K's parameters (alpha(x) t
    with t = c, or (alpha(x) t)^-1 with t = c^-1).  The rows are closed
    keyed by their image of 0, so they lie in K by construction, and a
    collision rejects the candidate.
    """
    G, n = K.group, K.degree
    if not is_almost_simple(G):
        raise InvalidInputError("the socle-anchored search needs an almost simple group")
    if H.order != n:
        return []  # a regular subgroup has order equal to the degree
    soc, table, inv = socle(G), G.table, G.inverse
    in_soc = np.zeros(n, dtype=bool)
    in_soc[list(soc.elements)] = True
    found: dict[bytes, RegularSubgroup] = {}

    def extend(rows: np.ndarray, have: np.ndarray, sigmas: list[Perm], side, s_gens) -> None:
        if have.all():
            R = RegularSubgroup(rows.T, check=False)
            res = group_isomorphisms(H, R)
            if res is not None:
                R.iso_from = res[0]
                found[rows.tobytes()] = R
            return
        c = int(np.argmin(have))
        P = np.concatenate([  # the members of K that take 0 to c
            table[K.auts_plain, c] if c in K.translations else table[:0],
            inv[table[K.auts_inv, inv[c]]] if inv[c] in K.translations else table[:0],
        ])
        P_inv, keep = _invert_rows(P), np.ones(len(P), dtype=bool)
        for s in s_gens:  # sigma s sigma^-1 must lie in S
            Q = np.take_along_axis(P, s[P_inv], axis=1)
            keep &= in_soc[Q[:, 0]] & (Q == side[Q[:, 0]]).all(axis=1)
        for sigma in P[keep]:
            grown, reached = rows.copy(), have.copy()
            if _close_rows(grown, reached, sigmas + [sigma]):
                extend(grown, reached, sigmas + [sigma], side, s_gens)

    # row t of side is x -> x t (T_r) or x -> t x (T_l), the member taking 0 to t
    for side in (np.ascontiguousarray(table.T), table):
        s_gens = side[soc.generators()]
        if all(g in K for g in s_gens):
            rows = np.zeros((n, n), dtype=np.int32)
            rows[in_soc] = side[in_soc]
            extend(rows, in_soc.copy(), [], side, s_gens)
    return [found[key] for key in sorted(found)]
