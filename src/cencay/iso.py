"""The central Cayley graph isomorphism test and its certificate machinery.

Each graph is analysed once (``analyze``): the closure of its arc colors
(one ``closure_rows`` call), its principal section and, on first use, the
group part C_id of its majorant, a wreath product over the U-cosets whose
block group is either the full symmetric group or the translation-inversion
group cut down to the restricted scheme.  Aut(Gamma) is cut out of C_id by
the quotient-graph automorphisms on the L-cosets.  ``iso_test`` combines two
analyses: one algebraic isomorphism matching colors and section
equivalences (or a proof none exists), from one lockstep refinement of the
two arc colorings; the seed coset C_0 and with it the majorant's
representative; the quotient-graph isomorphisms; and the final lift, which
pulls the answer back through the source's action of C_id on its L-cosets.
The answer is the coset Aut(Gamma) * f.

Every positive answer is re-verified unconditionally against the arc colors,
so the theory is never trusted blindly.  A brute-force backtracking oracle,
independent of all of the above, provides ground truth at small orders.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .cayley import (
    CayleyScheme,
    ColorCayleyGraph,
    PrincipalSection,
    cayley_wl,
    closure_rows,
    color_keys,
    principal_section,
)
from .coherent import extend_algebraic_iso, restriction  # noqa: F401  (for bench/tracing.py WRAPS)
from .errors import CapExceededError, InternalError, InvalidInputError
from .group import (
    FiniteGroup,
    automorphism_group,
    group_isomorphisms,
    is_almost_simple,
)
from .perm import (
    D2Subgroup,
    Perm,
    WreathProduct,
    action_closure,
    compose,
    conj_into_block,
    identity_perm,
    induced_block_map,
    inverse_perm,
    is_identity,
    reduce_generators,
    regular_subgroups,
    symmetric_group_on,
    wreath_group_on_blocks,
)
from .perm import block_action_with_kernel  # noqa: F401  (bound here only for bench/tracing.py WRAPS)

QUOTIENT_CAP = 12
ORACLE_CAP = 200


# -- result types ----------------------------------------------------------------


@dataclass
class IsoResult:
    """Verdict plus certificate: a representative and the automorphism group."""

    verdict: str  # "isomorphic" | "non_isomorphic"
    representative: Optional[np.ndarray]
    aut_generators: list[np.ndarray]
    aut_order: int
    decided_at_step: int
    aut_membership: Optional[Callable[[Sequence[int]], bool]] = field(default=None, repr=False)
    # |<gens>| for generators of Aut, or InternalError (``Analysis.aut``)
    certify: Optional[Callable[[Sequence[np.ndarray]], int]] = field(default=None, repr=False)

    @property
    def isomorphic(self) -> bool:
        return self.verdict == "isomorphic"


@dataclass
class IsoCoset:
    """The seed coset C_0, given by one representative (its group part is D_U)."""

    representative: Optional[np.ndarray]
    empty: bool = False


# -- the block group D_U -----------------------------------------------------------


def d_u_subgroup(u_row: np.ndarray, U: FiniteGroup) -> D2Subgroup:
    """D(2,U) cut down to the automorphisms of the restricted scheme, the
    Cayley scheme of ``u_row`` on U.

    Elements (alpha, t, eps) are filtered by the row: translations are
    color automorphisms for free, so the plain part keeps the alphas
    preserving every point class and the inverted part those matching each
    class to the class of the inverses.
    """
    A = np.array(automorphism_group(U))
    moved = u_row[A]  # u_row[alpha(x^-1)] = u_row[x] for all x iff moved = u_row[inverse]
    plain = A[(moved == u_row).all(axis=1)]
    invs = A[(moved == u_row[U.inverse]).all(axis=1)]
    return D2Subgroup(U, plain, invs)


# -- the quotient graph on the L-cosets -----------------------------------------------


@dataclass
class QuotientGraph:
    """Vertices are the L-cosets; each ordered pair carries a set of colors."""

    m: int
    label_sets: list[list[frozenset]]

    @staticmethod
    def build(gamma: ColorCayleyGraph, l_class_of: np.ndarray, m: int) -> "QuotientGraph":
        """The arcs from coset i to coset j have the quotients h * g^-1 over
        g in L c_i and h in L c_j, and with L normal these fill the single
        L-coset of c_j * c_i^-1; so the labels of i -> j are the colors on it."""
        G, k = gamma.group, gamma.k
        cls = l_class_of.astype(np.int64)
        colors: list[set] = [set() for _ in range(m)]
        for v in np.unique(cls * k + gamma.class_of):
            coset, color = divmod(int(v), k)
            colors[coset].add(color)
        labels = [frozenset(c) for c in colors]
        _, reps = np.unique(cls, return_index=True)  # c_i: the first member of coset i
        quotients = G.table[reps[None, :], G.inverse[reps][:, None]]  # [i, j] = c_j * c_i^-1
        return QuotientGraph(m, [[labels[cls[q]] for q in row] for row in quotients])


def quotient_isos(qa: QuotientGraph, qb: QuotientGraph) -> list[np.ndarray]:
    """All label-preserving vertex bijections, by exhaustive search."""
    if qa.m != qb.m:
        return []
    m = qa.m
    if m > QUOTIENT_CAP:
        raise CapExceededError("quotient too large")
    out = []
    for perm in itertools.permutations(range(m)):
        ok = True
        for i in range(m):
            for j in range(m):
                if qb.label_sets[perm[i]][perm[j]] != qa.label_sets[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(np.array(perm, dtype=np.int32))
    return out


# -- one graph: the analysis record ------------------------------------------------


@dataclass(frozen=True, eq=False)
class Analysis:
    """What the test needs from one graph, each part computed once.

    ``analyze`` validates the graph and computes its closure scheme and
    principal section; every other part is built on first use and cached
    on the record.  C_id depends on the graph alone, so the automorphism
    group is cut out of it directly: the self-majorant is C_id with the
    identity as its representative.
    """

    gamma: ColorCayleyGraph
    scheme: CayleyScheme
    sec: PrincipalSection

    @property
    def row(self) -> np.ndarray:
        """The identity row of the graph's coherent closure, ``scheme.row``.
        U and L are unions of its colors (``principal_section`` checks it),
        so the closure seeded with their indicators as well is this row."""
        return self.scheme.row

    @cached_property
    def u_row(self) -> np.ndarray:
        """The closure restricted to U, as the identity row of a Cayley scheme
        on ``U``: the row at ``sec.U.elements``, renumbered by first
        occurrence.  U is a union of colors of the row, so no color of the
        row on U appears outside U."""
        row = self.row[self.sec.u_class_of == 0]
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        number = np.empty(len(first), dtype=np.int32)
        number[np.argsort(first)] = np.arange(len(first))
        return number[inverse]

    @cached_property
    def U(self) -> FiniteGroup:
        return self.sec.U.as_group()[0]

    @cached_property
    def d_u(self):
        """D_U: Sym(U) for the symmetric type, else D(2,U) cut down to the U-row,
        both structural (no stabilizer chain)."""
        if self.sec.kind == "symmetric":
            if self.u_row.max() > 1:
                raise InternalError("symmetric type restricted scheme must be trivial")
            return symmetric_group_on(self.sec.U.order)
        return d_u_subgroup(self.u_row, self.U)

    @cached_property
    def blocks(self) -> list[list[int]]:
        """The U-cosets, identified positionwise along right translations by
        their smallest members."""
        G, sec = self.gamma.group, self.sec
        return [[int(G.table[u, c[0]]) for u in sec.U.elements] for c in sec.u_cosets]

    @cached_property
    def cid(self) -> WreathProduct:
        """C_id: D_U wr Sym(U-cosets) on the full domain, kept structural:
        order |D_U|^m * m!, and membership tested blockwise in O(n) by D_U's
        own membership.  Its kernel on the L-cosets has a closed form (``aut``)."""
        return wreath_group_on_blocks(self.d_u, self.blocks, self.gamma.group.order)

    @cached_property
    def quotient(self) -> QuotientGraph:
        return QuotientGraph.build(self.gamma, self.sec.l_class_of, self.sec.m)

    @cached_property
    def action(self) -> dict[bytes, Perm]:
        """The induced action of C_id on the L-cosets, each map with one preimage."""
        reach = action_closure(self.cid.generators, self.sec.l_class_of, self.sec.m)
        if reach is None:
            raise InternalError("the L-cosets are not blocks of C_id")
        return reach

    def _structural_order(self, n0_gens: list[Perm], top: list[Perm], kernel) -> int:
        """|<n0_gens + top>| from below, read off the generators' shape.

        The kernel generators must fix every L-coset and be, block by block,
        positional copies of the block group's generators: in the symmetric
        type the |U|-cycle and adjacent swap of ``symmetric_group_on``, which
        generate Sym(U) (Dixon & Mortimer, *Permutation Groups*, 1996), and in
        the normal type ``kernel.generators``, which generate the kernel by
        construction (T's generators and the closure of the plain rows are
        checked as they are built).  Copies on disjoint blocks commute, so
        they span |block group|^blocks maps fixing every L-coset, and ``top``
        induces its maps on the L-cosets on top of those.
        """
        n, cls, b = self.gamma.group.order, self.sec.l_class_of, len(self.blocks[0])
        want = symmetric_group_on(b) if self.sec.kind == "symmetric" else kernel
        copies = [conj_into_block(g, blk, n) for blk in self.blocks for g in want.generators]
        if not (np.array_equal(n0_gens, copies) and (cls[np.array(n0_gens)] == cls).all()):
            raise InternalError("the kernel generators are not block copies fixing the L-cosets")
        induced = action_closure(top, cls, self.sec.m)
        if induced is None:
            raise InternalError("a top generator splits an L-coset")
        return want.order ** len(self.blocks) * len(induced)

    @cached_property
    def aut(self) -> IsoResult:
        """Aut(gamma), certified by ``_self_verify``.

        Generators of the kernel N_0 of C_id on the L-cosets, plus one
        preimage per generator of the quotient stabilizer D_0 (``top``).
        N_0 is, on every block, the kernel of D_U on the L-cosets inside U,
        in closed form: D_U itself when L = U (the symmetric type, and the
        normal type with U = soc), and otherwise (L = soc < U) the maps
        x -> (alpha(x) t)^eps of D_U with t in soc and alpha acting on U/soc
        trivially (eps = +1) or by inversion (eps = -1)
        (``D2Subgroup.coset_kernel``).

        ``certify`` proves the order of any generators that keep the arc
        colors and include these, at every order.  From above: each passes
        ``aut_membership``, whose accepted maps form a group of order at most
        |C_id| / |action| * |D_0| (C_id's membership rebuilds each map from its
        parameters; D_0, the label-preserving part of the action, is the
        intersection of two groups).  From below: ``_structural_order``.
        """
        n, m, cls = self.gamma.group.order, self.sec.m, self.sec.l_class_of
        cid, blocks, reach = self.cid, self.blocks, self.action

        kernel = self.d_u
        if self.sec.L.order != self.sec.U.order:
            kernel = self.d_u.coset_kernel(cls[blocks[0]])  # L-coset of each position of U
        n0_gens = [conj_into_block(g, blk, n) for blk in blocks for g in kernel.generators]

        # the part of the action that fixes the quotient graph
        b_self = {b.tobytes() for b in quotient_isos(self.quotient, self.quotient)}
        d0_rows = [np.frombuffer(k, dtype=np.int32) for k in sorted(reach) if k in b_self]
        if not d0_rows:
            raise InternalError("quotient stabilizer lost the identity")
        top = [reach[r.tobytes()] for r in reduce_generators(d0_rows, m)]
        d0_set = {r.tobytes() for r in d0_rows}

        def aut_membership(f: Sequence[int]) -> bool:
            if f not in cid:  # first: C_id membership rejects every non-permutation
                return False
            tau = induced_block_map(np.asarray(f, dtype=np.int32), cls, cls, m)
            return tau is not None and tau.tobytes() in d0_set

        M, upper = self.gamma.arc_colors, cid.order // len(reach) * len(d0_rows)
        lower = self._structural_order(n0_gens, top, kernel)
        structural = {g.tobytes() for g in n0_gens + top}

        def certify(gens: Sequence[np.ndarray]) -> int:
            rows = [np.asarray(g) for g in gens]
            for g in rows:
                if g.shape != (n,) or not aut_membership(g):  # first: no stray index below
                    raise InternalError("an automorphism generator escapes the majorant")
                if not np.array_equal(M[g[:, None], g[None, :]], M):
                    raise InternalError("an automorphism generator fails the color check")
            if structural - {g.astype(np.int32).tobytes() for g in rows}:
                raise InternalError("a structural generator of Aut is missing")
            if lower != upper:
                raise InternalError("the structural order differs from the majorant's bound")
            return lower

        result = IsoResult(
            "isomorphic", identity_perm(n), n0_gens + top, lower, 5, aut_membership, certify
        )
        _self_verify(result)
        return result

    def negative(self, step: int) -> IsoResult:
        """A non-isomorphic verdict decided at a step, with this graph's Aut."""
        aut = self.aut
        return replace(aut, verdict="non_isomorphic", representative=None, decided_at_step=step)


def analyze(gamma: ColorCayleyGraph) -> Analysis:
    """Validate one graph and compute its closure scheme and principal section."""
    if not is_almost_simple(gamma.group):
        raise InvalidInputError("base group is not almost simple")
    scheme = cayley_wl(gamma)
    return Analysis(gamma, scheme, principal_section(scheme))


def _self_verify(result: IsoResult) -> None:
    """The unconditional check on an automorphism group: the certificate of
    ``Analysis.aut`` must accept the emitted generators and prove exactly the
    claimed order."""
    if result.certify(result.aut_generators) != result.aut_order:
        raise InternalError("the claimed order differs from the certified order")


def automorphisms(gamma: ColorCayleyGraph) -> IsoResult:
    """Aut(gamma) from its own analysis; the representative is the identity."""
    return analyze(gamma).aut


# -- two graphs, steps 1 and 2: the prescribed algebraic isomorphism -----------------


@dataclass
class SchemesWithPhi:
    """Both analyses and dst's closure row in src's color numbering, so that
    the algebraic isomorphism phi is the identity on colors."""

    src: Analysis
    dst: Analysis
    row_b: np.ndarray


def _schemes_with_phi(src: Analysis, dst: Analysis) -> Optional[SchemesWithPhi]:
    ga, gb = src.gamma, dst.gamma
    if ga.group.order != gb.group.order or ga.k != gb.k or src.sec.kind != dst.sec.kind:
        return None
    res = closure_rows([(ga.group, [ga.class_of]), (gb.group, [gb.class_of])])
    if res is None:
        return None
    (row_a, row_b), _ = res
    if not np.array_equal(row_a, src.row):
        raise InternalError("the lockstep renumbered the source closure")
    for cls_a, cls_b in ((src.sec.u_class_of, dst.sec.u_class_of),
                         (src.sec.l_class_of, dst.sec.l_class_of)):
        if not np.array_equal(np.unique(row_a[cls_a == 0]), np.unique(row_b[cls_b == 0])):
            return None
    row_b = CayleyScheme(gb.group, row_b).row
    if color_keys(ga.group, row_a) != color_keys(gb.group, row_b):
        raise InternalError("the color map fails the intersection numbers")
    return SchemesWithPhi(src, dst, row_b)


def schemes_with_phi(
    gamma_a: ColorCayleyGraph, gamma_b: ColorCayleyGraph
) -> Optional[SchemesWithPhi]:
    """Analyses of both sides plus the unique color-matching algebraic iso.

    The closures of the two arc colorings are refined in lockstep with one
    shared key table (``closure_rows``), so phi is the identity on the
    shared colors; it is checked against the intersection numbers of both
    rows (``color_keys``).  U, L, U' and L' are unions of colors
    (``principal_section``), so phi matches the section equivalences iff U
    and U' carry the same colors, and L and L' too: the lockstep seeded with
    their indicators gives the same rows then, and diverges otherwise.
    Returns None when no algebraic isomorphism matches the graph colors and
    the section equivalences (in particular when the section types differ).
    """
    return _schemes_with_phi(analyze(gamma_a), analyze(gamma_b))


# -- step 3: C_0 and the majorant ----------------------------------------------------


def _c0_candidates(U_a: FiniteGroup, U_b: FiniteGroup, d_u2) -> Iterator[Perm]:
    """Candidate bijections f_0: U -> U' for a normal-type C_0, cheapest first.

    The group isomorphisms U -> U' conjugate U_right onto U'_right, and the
    same maps after inversion on U reach U'_left; Aut(U') is the one D_{U'}
    was built from, so these cost no search beyond one isomorphism.  Only
    then come the isomorphisms onto every regular subgroup of D_{U'}
    isomorphic to U, which reach C_0 whenever it is nonempty: a valid f_0
    conjugates U_right onto such a subgroup (``regular_subgroups``).
    Nothing is built before the caller asks for it.
    """
    res = group_isomorphisms(U_a, U_b)
    if res is not None:
        beta0, auts = res
        for alpha in auts:
            yield alpha[beta0]  # beta0, then alpha in Aut(U'): auts act on the target
        for alpha in auts:
            yield alpha[beta0][U_a.inverse]
    for V in regular_subgroups(d_u2, U_a):
        res = group_isomorphisms(U_a, V)
        if res is None:
            raise InternalError("regular subgroup is not isomorphic to U")
        beta0, auts = res
        for alpha in auts:
            yield alpha[beta0]


def c0_search(src: Analysis, dst: Analysis, psi_map: np.ndarray) -> tuple[IsoCoset, object]:
    """The seed coset C_0 from src's U onto dst's, together with its group part D_U.

    Symmetric type: D_U is the full symmetric group and any size-matched
    bijection works.  Normal type: the first of ``_c0_candidates`` (the
    group isomorphisms U -> U', then the same after inversion on U, then,
    as the fallback, the regular subgroups of D_{U'} built on T'_r or T'_l)
    that maps every basis relation along psi and conjugates D_U onto D_{U'}
    (checked on generators) wins.  Any f_0 of C_0 gives the same coset.  An
    empty answer is complete: f_0 carries soc(D_U) = T_r x T_l onto
    soc(D_{U'}), so f_0 U_right f_0^-1 contains T'_r or T'_l, and the
    fallback lists every such subgroup.  Both D_U come from the analyses.

    The relations are compared on the identity rows alone: every candidate
    fixes 1 and conjugates U_right into D_{U'}, a group of automorphisms of
    the restricted scheme of U', so the pair (f_0(x), f_0(y)) has the color
    of (1, f_0(y * x^-1)) there, and f_0 maps every pair along psi iff it
    maps the pairs (1, y).
    """
    d_u, d_u2 = src.d_u, dst.d_u
    b = src.sec.U.order
    if dst.sec.U.order != b or d_u.order != d_u2.order:
        return IsoCoset(None, empty=True), d_u
    if src.sec.kind == "symmetric":
        return IsoCoset(np.arange(b, dtype=np.int32)), d_u
    d_u_gens = d_u.generators
    u_row_b, want = dst.u_row, psi_map[src.u_row]
    for f0 in _c0_candidates(src.U, dst.U, d_u2):
        if not np.array_equal(u_row_b[f0], want):
            continue
        f0_inv = inverse_perm(f0)
        if all(f0[d[f0_inv]] in d_u2 for d in d_u_gens):
            return IsoCoset(f0), d_u
    return IsoCoset(None, empty=True), d_u


@dataclass
class Majorant:
    """C_phi = C_id * representative on the full domain.

    ``cid`` is the source's structural C_id: ``order`` and ``contains``
    (membership in C_id) come from it without a stabilizer chain.
    """

    cid: Optional[WreathProduct]
    representative: Optional[np.ndarray]
    empty: bool = False

    @property
    def order(self) -> int:
        return self.cid.order if self.cid is not None else 0

    def contains(self, f: Sequence[int]) -> bool:
        return not self.empty and f in self.cid


def majorant(swp: SchemesWithPhi) -> Majorant:
    """C_phi: C_id from the source analysis, representative built blockwise.

    phi, the identity on the shared colors, comes down to psi on the colors
    of the U-rows: a color of ``src.u_row`` goes to the color of
    ``dst.u_row`` with the same parent color.  Blocks are paired in order,
    identity coset to identity coset (any pairing yields the same coset),
    and C_0's representative is copied into each.
    """
    src, dst = swp.src, swp.dst
    u_color_b = np.full(len(swp.row_b), -1, dtype=np.int32)  # shared color -> color of dst.u_row
    u_color_b[swp.row_b[dst.sec.u_class_of == 0]] = dst.u_row
    psi_map = np.empty(int(src.u_row.max()) + 1, dtype=np.int32)
    psi_map[src.u_row] = u_color_b[src.row[src.sec.u_class_of == 0]]
    if (psi_map < 0).any():
        return Majorant(None, None, empty=True)

    c0, _ = c0_search(src, dst, psi_map)
    if c0.empty or len(src.blocks) != len(dst.blocks):
        return Majorant(None, None, empty=True)
    rep = np.empty(src.gamma.group.order, dtype=np.int32)
    for blk_a, blk_b in zip(src.blocks, dst.blocks):
        rep[blk_a] = np.asarray(blk_b, dtype=np.int32)[c0.representative]
    return Majorant(src.cid, rep)


# -- steps 4 and 5: quotient isomorphisms and the lift ------------------------------------


def lift_and_intersect(
    maj: Majorant, B: list[np.ndarray], src: Analysis, dst: Analysis
) -> IsoResult:
    """Intersect the induced quotient coset with B and pull back (final step).

    The majorant's representative induces fbar from src's L-cosets onto
    dst's; the first b in B with fbar^-1 * b in the action of C_id is pulled
    back through the preimages of src's action closure.
    """
    m = src.sec.m
    fbar = induced_block_map(maj.representative, src.sec.l_class_of, dst.sec.l_class_of, m)
    if fbar is None:
        raise InternalError("bijection does not respect the coset partition")
    fbar_inv = inverse_perm(fbar)
    for b in B:
        pre = src.action.get(fbar_inv[b].tobytes())  # cbar with cbar-then-fbar equal to b
        if pre is not None:
            return replace(src.aut, representative=compose(pre, maj.representative))
    return src.negative(4)


# -- the full test -----------------------------------------------------------------------


def iso_test(gamma_a: ColorCayleyGraph, gamma_b: ColorCayleyGraph) -> IsoResult:
    """Steps 1-5 on the analyses of both graphs; Aut is the source's.

    The positive answer is verified against every arc color.
    """
    src, dst = analyze(gamma_a), analyze(gamma_b)
    swp = _schemes_with_phi(src, dst)
    if swp is None:
        return src.negative(2)
    maj = majorant(swp)
    if maj.empty:
        return src.negative(3)
    result = lift_and_intersect(maj, quotient_isos(src.quotient, dst.quotient), src, dst)
    if result.isomorphic:
        f, MA, MB = result.representative, gamma_a.arc_colors, gamma_b.arc_colors
        if not np.array_equal(MB[f[:, None], f[None, :]], MA):
            raise InternalError("representative fails the color check")
    return result


# -- the independent oracle -----------------------------------------------------------------


def _vertex_classes(MA: np.ndarray, MB: Optional[np.ndarray], k: int):
    """Shared invariant coloring of vertices by iterated neighborhood profiles."""
    mats = [MA] if MB is None else [MA, MB]
    n = MA.shape[0]
    classes = [np.zeros(n, dtype=np.int64) for _ in mats]
    while True:
        keys: list[list] = []
        for M, cls in zip(mats, classes):
            kk = []
            for v in range(n):
                prof = np.stack([cls, M[v], M[:, v]]).T
                prof = prof[np.lexsort(prof.T[::-1])]
                kk.append((int(cls[v]), prof.tobytes()))
            keys.append(kk)
        table: dict = {}
        for key in keys[0]:
            if key not in table:
                table[key] = len(table)
        new = []
        for kk in keys:
            arr = np.empty(n, dtype=np.int64)
            for v, key in enumerate(kk):
                if key not in table:
                    return None  # sides cannot be isomorphic
                arr[v] = table[key]
            new.append(arr)
        if len(set(int(x) for x in new[0])) == len(set(int(x) for x in classes[0])):
            return new
        classes = new


class _OracleSearch:
    """Color-respecting backtracking on the candidate matrix.

    State is a boolean candidate matrix; pinning v -> u intersects every
    unpinned row with the two arc constraints against the new pin.  The
    automorphism order is counted by orbit-stabilizer: at each level the
    extendable images of one vertex are counted and the recursion descends
    into a single branch, since all branches extend to equally many maps.
    """

    def __init__(self, MA: np.ndarray, MB: np.ndarray):
        self.MA, self.MB = MA, MB
        self.n = MA.shape[0]

    def initial(self) -> Optional[np.ndarray]:
        MA, MB = self.MA, self.MB
        cls = _vertex_classes(MA, None if MA is MB else MB, int(MA.max()) + 1)
        if cls is None:
            return None
        ca = cls[0]
        cb = cls[0] if len(cls) == 1 else cls[1]
        cand = ca[:, None] == cb[None, :]
        cand &= np.diagonal(MA)[:, None] == np.diagonal(MB)[None, :]
        return cand

    def _pick(self, cand: np.ndarray, unpinned: np.ndarray) -> int:
        counts = cand[unpinned].sum(axis=1)
        return int(unpinned[int(np.argmin(counts))])

    def _pin(self, cand: np.ndarray, unpinned: np.ndarray, v: int, u: int):
        MA, MB = self.MA, self.MB
        nc = cand.copy()
        nc[v] = False
        nc[v, u] = True
        rows, cols = MB[u], MB[:, u]
        rest = unpinned[unpinned != v]
        nc[rest] &= (rows[None, :] == MA[v, rest][:, None]) & (
            cols[None, :] == MA[rest, v][:, None]
        )
        nc[rest, u] = False
        if not nc[rest].any(axis=1).all():
            return None
        return nc, rest

    def complete(self, cand: np.ndarray, unpinned: np.ndarray) -> Optional[np.ndarray]:
        """Depth-first search for any full extension."""
        if len(unpinned) == 0:
            return np.argmax(cand, axis=1).astype(np.int32)
        v = self._pick(cand, unpinned)
        for u in np.nonzero(cand[v])[0]:
            res = self._pin(cand, unpinned, v, int(u))
            if res is None:
                continue
            full = self.complete(*res)
            if full is not None:
                return full
        return None

    def count_automorphisms(self, cand: np.ndarray, unpinned: np.ndarray, sink: list) -> int:
        """Exact |Aut| by orbit-stabilizer along the identity branch.

        At every level the extendable images of one vertex are counted and
        the recursion descends into the v -> v branch (the identity extends
        any identity prefix), so the harvested completions are transversal
        representatives of a genuine stabilizer chain of Aut and generate it.
        """
        if len(unpinned) == 0:
            return 1
        v = self._pick(cand, unpinned)
        extendable = 0
        canonical = None
        for u in np.nonzero(cand[v])[0]:
            res = self._pin(cand, unpinned, v, int(u))
            if res is None:
                continue
            full = self.complete(*res)
            if full is not None:
                extendable += 1
                sink.append(full)
                if int(u) == v:
                    canonical = res
        if canonical is None:
            raise InternalError("identity branch missing while counting automorphisms")
        return extendable * self.count_automorphisms(*canonical, sink)


def brute_force_oracle(gamma_a: ColorCayleyGraph, gamma_b: ColorCayleyGraph) -> IsoResult:
    """Exhaustive color-respecting backtracking, independent of the pipeline.

    The automorphism order of the first graph comes from orbit-stabilizer
    counting over the backtracking tree; the verdict from a direct search for
    one isomorphism.  The 2-colored complete graph short-circuits to the full
    symmetric group.
    """
    n = gamma_a.group.order
    if n > ORACLE_CAP:
        raise CapExceededError(f"oracle capped at order {ORACLE_CAP}")
    MA, MB = gamma_a.arc_colors, gamma_b.arc_colors
    if gamma_a.k == 2:
        # complete graph: arcs are diagonal vs everything else
        sym = symmetric_group_on(n)
        verdict = "isomorphic" if gamma_b.k == 2 and MB.shape[0] == n else "non_isomorphic"
        rep = np.arange(n, dtype=np.int32) if verdict == "isomorphic" else None
        return IsoResult(verdict, rep, list(sym.generators), math.factorial(n), 5)
    self_search = _OracleSearch(MA, MA)
    cand = self_search.initial()
    if cand is None:
        raise InternalError("a graph is never non-isomorphic to itself")
    sink: list[np.ndarray] = []
    aut_order = self_search.count_automorphisms(cand, np.arange(n), sink)
    if aut_order <= 10**6:
        gens = reduce_generators(sink, n)
    else:
        gens = [g for g in sink if not is_identity(g)]
    if MB.shape[0] != n or gamma_b.k != gamma_a.k:
        return IsoResult("non_isomorphic", None, gens, aut_order, 5)
    if gamma_a is gamma_b or np.array_equal(MA, MB):
        rep = np.arange(n, dtype=np.int32)
        return IsoResult("isomorphic", rep, gens, aut_order, 5)
    pair_search = _OracleSearch(MA, MB)
    cand = pair_search.initial()
    rep = pair_search.complete(cand, np.arange(n)) if cand is not None else None
    if rep is None:
        return IsoResult("non_isomorphic", None, gens, aut_order, 5)
    return IsoResult("isomorphic", rep, gens, aut_order, 5)
