"""The central Cayley graph isomorphism test and its certificate machinery.

Pipeline: principal sections of both schemes; one algebraic isomorphism
matching colors and section equivalences (or a proof none exists); the
majorant coset, a wreath product over the U-cosets whose block group is
either the full symmetric group or the translation-inversion group cut down
to the restricted scheme; quotient-graph isomorphisms on the L-cosets; and
the final lift, which intersects the induced coset with the quotient
isomorphisms and pulls the answer back up.

Every positive answer is re-verified unconditionally against the arc colors,
so the theory is never trusted blindly.  A brute-force backtracking oracle,
independent of all of the above, provides ground truth at small orders.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .cayley import (
    ColorCayleyGraph,
    PrincipalSection,
    cayley_matrix,
    cayley_wl,
    closure_rows,
    principal_section,
)
from .coherent import AlgebraicIso, CoherentConfiguration, restriction
from .coherent import extend_algebraic_iso  # noqa: F401  (bound here only for bench/tracing.py WRAPS)
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
    PermutationGroup,
    block_action_with_kernel,
    compose,
    identity_perm,
    inverse_perm,
    is_identity,
    reduce_generators,
    regular_subgroups,
    symmetric_group_on,
    wreath_group_on_blocks,
)

QUOTIENT_CAP = 12
CHAIN_RECOUNT_LIMIT = 10**8
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
    aut_membership: Optional[callable] = field(default=None, repr=False)

    @property
    def isomorphic(self) -> bool:
        return self.verdict == "isomorphic"


@dataclass
class IsoCoset:
    """A coset of bijections: group part times one representative."""

    group_part: Optional[object]
    representative: Optional[np.ndarray]
    empty: bool = False


# -- step 1 and 2: schemes and the prescribed algebraic isomorphism ----------------


@dataclass
class SchemesWithPhi:
    gamma_a: ColorCayleyGraph
    gamma_b: ColorCayleyGraph
    sec_a: PrincipalSection
    sec_b: PrincipalSection
    X: CoherentConfiguration
    Y: CoherentConfiguration
    phi: AlgebraicIso


def validate_input(gamma: ColorCayleyGraph) -> None:
    if not is_almost_simple(gamma.group):
        raise InvalidInputError("base group is not almost simple")


def schemes_with_phi(
    gamma_a: ColorCayleyGraph, gamma_b: ColorCayleyGraph
) -> Optional[SchemesWithPhi]:
    """Sections of both sides plus the unique color-matching algebraic iso.

    The closures of the arc colors plus the U- and L-equivalences (seeded by
    the identity rows: the indicators of U and L) are refined in lockstep
    with one shared key table (``closure_rows``); their n x n matrices X and
    Y, needed by the restriction in step 3, are gathered from the rows.
    Returns None when no algebraic isomorphism matches the graph colors and
    the section equivalences (in particular when the section types differ).
    """
    ga, gb = gamma_a.group, gamma_b.group
    if ga.order != gb.order or gamma_a.k != gamma_b.k:
        return None
    sec_a = principal_section(cayley_wl(gamma_a))
    sec_b = principal_section(cayley_wl(gamma_b))
    if sec_a.kind != sec_b.kind:
        return None  # both sides must share the section type
    res = closure_rows([
        (ga, [gamma_a.class_of, sec_a.u_class_of == 0, sec_a.l_class_of == 0]),
        (gb, [gamma_b.class_of, sec_b.u_class_of == 0, sec_b.l_class_of == 0]),
    ])
    if res is None:
        return None
    (row_a, row_b), rank = res
    X = CoherentConfiguration(cayley_matrix(ga, row_a), check=False)
    Y = CoherentConfiguration(cayley_matrix(gb, row_b), check=False)
    X.verify_light()
    Y.verify_light()
    phi = AlgebraicIso(X, Y, np.arange(rank, dtype=np.int32))
    phi.verify()
    return SchemesWithPhi(gamma_a, gamma_b, sec_a, sec_b, X, Y, phi)


# -- the block group D_U -----------------------------------------------------------


def restricted_scheme_class_row(XU: CoherentConfiguration, U: FiniteGroup) -> np.ndarray:
    """Identity-row coloring of a restricted scheme, verified to be Cayley.

    The restriction of a central Cayley scheme to a subgroup class is again a
    central Cayley scheme: the color of (g, h) is the class of h*g^-1.  That
    shape is asserted here; it is what lets D(2,U) be intersected with the
    scheme's automorphisms by looking at the identity row only.
    """
    cls0 = XU.colors[0]
    n = U.order
    expect = cls0[U.table[np.arange(n)[None, :], U.inverse[:, None]]]
    if not np.array_equal(expect, XU.colors):
        raise InternalError("restricted scheme is not in Cayley form")
    return cls0


def d_u_subgroup(XU: CoherentConfiguration, U: FiniteGroup) -> D2Subgroup:
    """D(2,U) cut down to the automorphisms of the restricted scheme.

    Elements (alpha, t, eps) are filtered by the identity row: translations
    are color automorphisms for free, so the plain part keeps the alphas
    preserving every point class and the inverted part those matching each
    class to the class of the inverses.
    """
    cls0 = restricted_scheme_class_row(XU, U)
    auts = automorphism_group(U)
    plain = [a for a in auts if np.array_equal(cls0[a], cls0)]
    invs = [a for a in auts if np.array_equal(cls0[a[U.inverse]], cls0)]
    return D2Subgroup(U, plain, invs)


# -- step 3: C_0 and the majorant ----------------------------------------------------


def _abstract_group_of_regular(V: PermutationGroup) -> FiniteGroup:
    """Multiplication table of a regular permutation group via base-point images."""
    rows = getattr(V, "element_rows_cache", None)
    if rows is None:
        rows = V.element_rows()
    order = rows[:, 0].argsort(kind="stable")
    M = rows[order]
    if not np.array_equal(M[:, 0], np.arange(len(M))):
        raise InternalError("group is not regular on its domain")
    return FiniteGroup(np.ascontiguousarray(M.T), check=False)


def c0_search(
    XU_a: CoherentConfiguration,
    XU_b: CoherentConfiguration,
    psi_map: np.ndarray,
    kind: str,
    U_a: FiniteGroup,
    U_b: FiniteGroup,
) -> tuple[IsoCoset, object]:
    """The seed coset C_0 on the U-domains, together with its group part D_U.

    Symmetric type: D_U is the full symmetric group and any size-matched
    bijection works.  Normal type: candidates f_0 are enumerated from the
    regular subgroups of D_{U'} isomorphic to U, composed with Aut(U); the
    first candidate mapping every basis relation along psi and conjugating
    D_U onto D_{U'} wins (deterministic order).
    """
    b = U_a.order
    if kind == "symmetric":
        if XU_a.rank > 2 or XU_b.rank > 2:
            raise InternalError("symmetric type restricted scheme must be trivial")
        if U_b.order != b:
            return IsoCoset(None, None, empty=True), None
        group = symmetric_group_on(range(b), b)
        return IsoCoset(group, np.arange(b, dtype=np.int32), empty=False), group

    d_u = d_u_subgroup(XU_a, U_a)
    d_u2 = d_u_subgroup(XU_b, U_b)
    if U_b.order != b or d_u.order != d_u2.order:
        return IsoCoset(None, None, empty=True), d_u
    d_u_gens = d_u.generators()
    colors_b = XU_b.colors
    want = psi_map[XU_a.colors]
    for V in regular_subgroups(d_u2, U_a):
        V_abs = _abstract_group_of_regular(V)
        res = group_isomorphisms(U_a, V_abs)
        if res is None:
            raise InternalError("regular subgroup is not isomorphic to U")
        beta0, auts = res
        for alpha in auts:
            f0 = alpha[beta0]  # beta0, then alpha in Aut(V_abs): auts act on the target
            if not np.array_equal(colors_b[f0[:, None], f0[None, :]], want):
                continue
            f0_inv = inverse_perm(f0)
            ok = True
            for d in d_u_gens:
                if f0[d[f0_inv]] not in d_u2:
                    ok = False
                    break
            if ok:
                return IsoCoset(d_u, f0, empty=False), d_u
    return IsoCoset(None, None, empty=True), d_u


@dataclass
class Majorant:
    """C_phi as an explicit wreath-structured coset on the full domain."""

    cid: Optional[PermutationGroup]
    representative: Optional[np.ndarray]
    blocks_a: list[list[int]]
    blocks_b: list[list[int]]
    inner_chain: Optional[PermutationGroup]
    inner_kind: str
    empty: bool = False

    @property
    def order(self) -> int:
        return self.cid.order if self.cid is not None else 0

    def contains(self, f: Sequence[int]) -> bool:
        return not self.empty and (np.asarray(f, dtype=np.int32) in self.cid)


def _conj_into_block(p: Perm, block: list[int], degree: int) -> Perm:
    out = identity_perm(degree)
    arr = np.asarray(block, dtype=np.int32)
    out[arr] = arr[p]
    return out


def majorant(swp: SchemesWithPhi) -> Majorant:
    """C_phi: group part D_U wr Sym(U-cosets), representative built blockwise.

    Blocks are identified along right translations by the coset
    representatives, and the coset pairing sends the identity coset to the
    identity coset with the rest zipped in canonical order (any choice yields
    the same coset).
    """
    G_a, G_b = swp.gamma_a.group, swp.gamma_b.group
    n = G_a.order
    sec_a, sec_b = swp.sec_a, swp.sec_b
    U_a, _ = sec_a.U.as_group()
    U_b, _ = sec_b.U.as_group()
    XU_a, parent_a = restriction(swp.X, sec_a.U.elements)
    XU_b, parent_b = restriction(swp.Y, sec_b.U.elements)
    lookup_b = {int(p): i for i, p in enumerate(parent_b)}
    psi_map = np.empty(XU_a.rank, dtype=np.int32)
    for i, p in enumerate(parent_a):
        tgt = lookup_b.get(int(swp.phi.color_map[int(p)]))
        if tgt is None:
            return Majorant(None, None, [], [], None, swp.sec_a.kind, empty=True)
        psi_map[i] = tgt

    c0, d_u = c0_search(XU_a, XU_b, psi_map, sec_a.kind, U_a, U_b)
    if c0.empty:
        return Majorant(None, None, [], [], None, sec_a.kind, empty=True)

    u_sorted_a = list(sec_a.U.elements)
    u_sorted_b = list(sec_b.U.elements)
    blocks_a = [[int(G_a.table[u, int(c[0])]) for u in u_sorted_a] for c in sec_a.u_cosets]
    blocks_b = [[int(G_b.table[u, int(c[0])]) for u in u_sorted_b] for c in sec_b.u_cosets]
    m = len(blocks_a)
    if len(blocks_b) != m:
        return Majorant(None, None, [], [], None, sec_a.kind, empty=True)

    b = U_a.order
    if sec_a.kind == "symmetric":
        inner = symmetric_group_on(range(b), b)
        inner_gens = inner.generators
    else:
        inner = d_u.to_chain()
        inner_gens = d_u.generators()

    gens: list[Perm] = []
    for blk in blocks_a:
        for g in inner_gens:
            gens.append(_conj_into_block(g, blk, n))
    top = symmetric_group_on(range(m), m)
    for t in top.generators:
        lifted = identity_perm(n)
        for i, blk in enumerate(blocks_a):
            tgt = blocks_a[int(t[i])]
            for pos, pt in enumerate(blk):
                lifted[pt] = tgt[pos]
        gens.append(lifted)

    cid = wreath_group_on_blocks(inner, blocks_a, top, n, generators=gens)

    rep = np.empty(n, dtype=np.int32)
    f0 = c0.representative
    for i in range(m):
        src = np.asarray(blocks_a[i], dtype=np.int32)
        dst = np.asarray(blocks_b[i], dtype=np.int32)
        rep[src] = dst[f0]
    return Majorant(cid, rep, blocks_a, blocks_b, inner, sec_a.kind)


# -- step 4: quotient graphs -----------------------------------------------------------


@dataclass
class QuotientGraph:
    """Vertices are the L-cosets; each ordered pair carries a set of colors."""

    m: int
    label_sets: list[list[frozenset]]

    @staticmethod
    def build(gamma: ColorCayleyGraph, l_class_of: np.ndarray, m: int) -> "QuotientGraph":
        M = gamma.arc_colors.astype(np.int64)
        cls = l_class_of.astype(np.int64)
        k = gamma.k
        combined = (cls[:, None] * m + cls[None, :]) * k + M
        pairs = np.unique(combined)
        label_sets = [[set() for _ in range(m)] for _ in range(m)]
        for v in pairs:
            cell, color = divmod(int(v), k)
            i, j = divmod(cell, m)
            label_sets[i][j].add(color)
        return QuotientGraph(m, [[frozenset(s) for s in row] for row in label_sets])


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


# -- step 5: the lift ---------------------------------------------------------------------


def _action_closure(
    gens: list[Perm], class_of: np.ndarray, m: int, cap: int = 500_000
) -> dict[bytes, Perm]:
    """Closure of the induced block maps, each with one preimage."""
    reps_first = np.empty(m, dtype=np.int64)
    for i in range(m):
        reps_first[i] = int(np.nonzero(class_of == i)[0][0])
    degree = len(class_of)
    ident_k = identity_perm(degree)
    start = identity_perm(m)
    reach: dict[bytes, Perm] = {start.tobytes(): ident_k}
    queue = [(start, ident_k)]
    gen_actions = []
    for g in gens:
        act = class_of[g[reps_first]].astype(np.int32)
        # well-defined: every member of a class must land in the same class
        for i in range(m):
            members = np.nonzero(class_of == i)[0]
            if np.any(class_of[g[members]] != act[i]):
                raise InternalError("partition is not invariant under the coset group")
        gen_actions.append((act, g))
    head = 0
    while head < len(queue):
        arow, pre = queue[head]
        head += 1
        for act, g in gen_actions:
            na = compose(arow, act)
            key = na.tobytes()
            if key not in reach:
                if len(reach) >= cap:
                    raise CapExceededError("block action image too large")
                npre = compose(pre, g)
                reach[key] = npre
                queue.append((na, npre))
    return reach


def _induced_block_map(f: Perm, cls_a: np.ndarray, cls_b: np.ndarray, m: int) -> Perm:
    out = np.full(m, -1, dtype=np.int32)
    for i in range(m):
        members = np.nonzero(cls_a == i)[0]
        imgs = cls_b[f[members]]
        if np.any(imgs != imgs[0]):
            raise InternalError("bijection does not respect the coset partition")
        out[i] = int(imgs[0])
    return out


def lift_and_intersect(
    maj: Majorant,
    B: list[np.ndarray],
    B_self: list[np.ndarray],
    sec_a: PrincipalSection,
    sec_b: PrincipalSection,
    same_graph: bool,
) -> IsoResult:
    """Intersect the induced quotient coset with B and pull back (final step).

    The automorphism group of the source graph is always assembled: kernel
    generators per block plus one preimage per generator of the quotient
    stabilizer; its order is |kernel| * |quotient stabilizer| exactly.
    """
    if maj.empty:
        return IsoResult("non_isomorphic", None, [], 0, 3)
    n = maj.cid.degree
    m_l = sec_a.m
    cls_a = sec_a.l_class_of
    cls_b = sec_b.l_class_of

    # kernel of the inner block group on the L-cosets inside U
    inner_positions_class = cls_a[np.asarray(maj.blocks_a[0], dtype=np.int32)]
    inner_ids = np.unique(inner_positions_class)
    remap = {int(v): i for i, v in enumerate(inner_ids)}
    inner_cls = np.array([remap[int(v)] for v in inner_positions_class], dtype=np.int32)
    inner_cosets = [np.nonzero(inner_cls == i)[0].tolist() for i in range(len(inner_ids))]
    ba_inner = block_action_with_kernel(maj.inner_chain, inner_cosets)
    ker_gens_positions = ba_inner.kernel.generators

    n0_gens = []
    for blk in maj.blocks_a:
        for g in ker_gens_positions:
            n0_gens.append(_conj_into_block(g, blk, n))
    n0_order = ba_inner.kernel.order ** len(maj.blocks_a)

    # the induced action of C_id on the L-cosets, with preimages
    reach = _action_closure(maj.cid.generators, cls_a, m_l)
    cbar_order = len(reach)
    if maj.cid.order % cbar_order:
        raise InternalError("action order does not divide the majorant order")
    if maj.cid.order // cbar_order != n0_order:
        raise InternalError("kernel order mismatch in the lift")

    # subgroup of the action that fixes the source quotient graph
    d0_rows = [np.frombuffer(k, dtype=np.int32) for k in sorted(reach.keys())]
    bself_set = {b.tobytes() for b in B_self}
    d0_rows = [r for r in d0_rows if r.tobytes() in bself_set]
    d0_order = len(d0_rows)
    if d0_order == 0:
        raise InternalError("quotient stabilizer lost the identity")
    aut_gens = list(n0_gens)
    for r in reduce_generators(d0_rows, m_l):
        aut_gens.append(reach[r.astype(np.int32).tobytes()])
    aut_order = n0_order * d0_order

    d0_set = {r.tobytes() for r in d0_rows}
    cid = maj.cid

    def aut_membership(f: Sequence[int]) -> bool:
        f = np.asarray(f, dtype=np.int32)
        if f not in cid:
            return False
        fbar = _induced_block_map(f, cls_a, cls_a, m_l)
        return fbar.tobytes() in d0_set

    fbar = _induced_block_map(maj.representative, cls_a, cls_b, m_l)
    fbar_inv = inverse_perm(fbar)
    rep = None
    for b in B:
        cbar = fbar_inv[b]  # the action element with cbar-then-fbar equal to b
        key = cbar.tobytes()
        if key in reach:
            rep = compose(reach[key], maj.representative)
            break
    if rep is None:
        if same_graph:
            raise InternalError("self test failed to find a representative")
        return IsoResult("non_isomorphic", None, aut_gens, aut_order, 4, aut_membership)
    return IsoResult("isomorphic", rep, aut_gens, aut_order, 5, aut_membership)


# -- the full test -----------------------------------------------------------------------


def iso_test(
    gamma_a: ColorCayleyGraph,
    gamma_b: ColorCayleyGraph,
    chain_recount_limit: int = CHAIN_RECOUNT_LIMIT,
) -> IsoResult:
    """Steps 1-5; the positive answer is verified against every arc color."""
    validate_input(gamma_a)
    validate_input(gamma_b)
    same = gamma_a is gamma_b or (
        gamma_a.group == gamma_b.group
        and np.array_equal(gamma_a.arc_colors, gamma_b.arc_colors)
    )

    def negative(step: int) -> IsoResult:
        # the automorphism group of the source is part of the output contract
        aut = iso_test(gamma_a, gamma_a, chain_recount_limit)
        return IsoResult(
            "non_isomorphic", None, aut.aut_generators, aut.aut_order, step,
            aut.aut_membership,
        )

    swp = schemes_with_phi(gamma_a, gamma_b)
    if swp is None:
        return negative(2)
    maj = majorant(swp)
    if maj.empty:
        return negative(3)
    qa = QuotientGraph.build(gamma_a, swp.sec_a.l_class_of, swp.sec_a.m)
    qb = QuotientGraph.build(gamma_b, swp.sec_b.l_class_of, swp.sec_b.m)
    B_self = quotient_isos(qa, qa)
    B = B_self if same else quotient_isos(qa, qb)
    result = lift_and_intersect(maj, B, B_self, swp.sec_a, swp.sec_b, same)
    _self_verify(result, gamma_a, gamma_b, maj, chain_recount_limit)
    return result


def _self_verify(
    result: IsoResult,
    gamma_a: ColorCayleyGraph,
    gamma_b: ColorCayleyGraph,
    maj: Optional[Majorant],
    chain_recount_limit: int,
) -> None:
    """Unconditional certificate checks on a finished result."""
    MA, MB = gamma_a.arc_colors, gamma_b.arc_colors
    if result.isomorphic:
        f = result.representative
        if not np.array_equal(MB[f[:, None], f[None, :]], MA):
            raise InternalError("representative fails the color check")
    for g in result.aut_generators:
        if not np.array_equal(MA[g[:, None], g[None, :]], MA):
            raise InternalError("an automorphism generator fails the color check")
    if maj is not None and not maj.empty:
        for g in result.aut_generators:
            if g not in maj.cid:
                raise InternalError("an automorphism generator escapes the majorant")
    if 1 < result.aut_order <= chain_recount_limit and result.aut_generators:
        recount = PermutationGroup(result.aut_generators, gamma_a.group.order).order
        if recount != result.aut_order:
            raise InternalError("stabilizer chain recount disagrees with the order")


def automorphisms(gamma: ColorCayleyGraph, **kw) -> IsoResult:
    return iso_test(gamma, gamma, **kw)


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


def brute_force_oracle(
    gamma_a: ColorCayleyGraph, gamma_b: ColorCayleyGraph, cap: int = ORACLE_CAP
) -> IsoResult:
    """Exhaustive color-respecting backtracking, independent of the pipeline.

    The automorphism order of the first graph comes from orbit-stabilizer
    counting over the backtracking tree; the verdict from a direct search for
    one isomorphism.  The 2-colored complete graph short-circuits to the full
    symmetric group.
    """
    n = gamma_a.group.order
    if n > cap:
        raise CapExceededError(f"oracle capped at order {cap}")
    MA, MB = gamma_a.arc_colors, gamma_b.arc_colors
    if gamma_a.k == 2:
        # complete graph: arcs are diagonal vs everything else
        sym = symmetric_group_on(range(n), n)
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
