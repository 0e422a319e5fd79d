import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cencay.cayley import build_central_cayley, partition_from_class_merge
from cencay.errors import InternalError, InvalidInputError
from cencay.fixtures import BUILTIN_NAMES, builtin_group
from cencay.group import (
    FiniteGroup,
    automorphism_group,
    conjugacy_classes,
    group_from_generators,
    group_isomorphisms,
    socle,
)
from cencay.iso import analyze
from cencay.perm import (
    D2Subgroup,
    PermutationGroup,
    block_action_with_kernel,
    compose,
    conj_into_block,
    identity_perm,
    inverse_perm,
    is_identity,
    reduce_generators,
    regular_subgroups,
    symmetric_group_on,
    wreath_group_on_blocks,
)
from .fixture_groups import (
    DictChainGroup,
    DictLevel,
    _candidate_pools_parametric,
    alt5,
    alt6,
    chain_d2_generators,
    chain_elements,
    coset_class_array,
    d2_chain,
    d2_group,
    full_d2_subgroup,
    orbitals,
    psl27,
    regular_representations,
    regular_subgroups_by_scan,
    right_cosets,
    set_partitions,
    sym5,
)


def test_chain_order_s5():
    g = PermutationGroup([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 5)
    assert g.order == 120


def test_chain_trivial():
    assert PermutationGroup([], 9).order == 1


def test_chain_regular_alt5():
    A5 = alt5()
    reps = regular_representations(A5)
    assert PermutationGroup(reps.right_gens, 60).order == 60


def test_chain_membership():
    g = PermutationGroup([(1, 2, 3, 4, 0)], 5)
    assert np.array([2, 3, 4, 0, 1]) in g
    assert np.array([1, 0, 2, 3, 4]) not in g


def test_chain_matches_brute_force_closure():
    gens = [(1, 0, 3, 2), (0, 2, 1, 3)]
    g = PermutationGroup(gens, 4)
    seen = {tuple(range(4))}
    frontier = [tuple(range(4))]
    while frontier:
        e = frontier.pop()
        for h in gens:
            w = tuple(h[x] for x in e)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert g.order == len(seen)
    assert sorted(tuple(p) for p in chain_elements(g)) == sorted(seen)


def test_regular_representations_star_order():
    A5 = alt5()
    reps = regular_representations(A5)
    assert PermutationGroup(reps.star_gens, 60).order == 3600


def test_regular_representations_trivial():
    T = group_from_generators([], degree=1)
    reps = regular_representations(T)
    assert reps.right_gens == [] and is_identity(reps.sigma)


def test_sigma_conjugates_right_to_left():
    S5 = sym5()
    reps = regular_representations(S5)
    assert is_identity(compose(reps.sigma, reps.sigma))
    left = PermutationGroup(reps.left_gens, 120)
    for rg in reps.right_gens:
        conj = compose(compose(reps.sigma, rg), reps.sigma)
        assert conj in left


def test_d2_orders():
    assert d2_group(alt5()).order == 14_400
    assert d2_group(sym5()).order == 28_800
    assert d2_group(group_from_generators([], degree=1)).order == 1


def test_d2_normalizes_socle_star():
    S5 = sym5()
    soc, elems = socle(S5).as_group()
    socle_star_gens = []
    idx = np.array(elems, dtype=np.int32)
    for g in elems:
        socle_star_gens.append(np.ascontiguousarray(S5.table[:, g]))
        socle_star_gens.append(np.ascontiguousarray(S5.table[g, :]))
    star = PermutationGroup(reduce_generators(socle_star_gens, 120), 120)
    D = d2_group(S5)
    for k in D.generators:
        kinv = inverse_perm(k)
        for s in star.generators:
            assert compose(compose(kinv, s), k) in star


def test_orbitals_of_star_match_classes():
    S5 = sym5()
    reps = regular_representations(S5)
    star = PermutationGroup(reps.star_gens, 120)
    orb = orbitals(star)
    assert orb.n_colors == 7
    # invariance under every generator
    for g in star.generators:
        assert np.array_equal(orb.colors[g[:, None], g[None, :]], orb.colors)
    # orbital of (identity, x) is determined by the class of x: counts match
    from cencay.group import conjugacy_classes

    cc = conjugacy_classes(S5)
    row = orb.colors[0]
    for cls in cc.classes:
        assert len({int(row[x]) for x in cls}) == 1


def test_orbitals_trivial_and_symmetric():
    assert orbitals(PermutationGroup([], 4)).n_colors == 16
    sym = PermutationGroup([(1, 2, 3, 0), (1, 0, 2, 3)], 4)
    assert orbitals(sym).n_colors == 2


def test_orbitals_diagonal_union():
    g = PermutationGroup([(1, 0, 3, 2)], 4)
    orb = orbitals(g)
    diag = {int(orb.colors[i, i]) for i in range(4)}
    off = {int(orb.colors[i, j]) for i in range(4) for j in range(4) if i != j}
    assert diag.isdisjoint(off)


def test_block_action_d2_s5_on_cosets():
    S5 = sym5()
    cosets = right_cosets(socle(S5))
    D = d2_group(S5)
    ba = block_action_with_kernel(D, cosets)
    assert ba.action.order == 2
    assert ba.kernel.order == 14_400
    assert D.order == ba.kernel.order * ba.action.order


def test_block_action_right_translations_swap_cosets():
    S5 = sym5()
    cosets = right_cosets(socle(S5))
    right = PermutationGroup(regular_representations(S5).right_gens, 120)
    ba = block_action_with_kernel(right, cosets)
    assert ba.action.order == 2


def test_block_action_singletons():
    g = PermutationGroup([(1, 2, 0)], 3)
    ba = block_action_with_kernel(g, [[0], [1], [2]])
    assert ba.action.order == g.order
    assert ba.kernel.order == 1


def test_block_action_rejects_non_blocks():
    g = PermutationGroup([(1, 2, 3, 0)], 4)
    with pytest.raises(InvalidInputError):
        block_action_with_kernel(g, [[0, 1], [2, 3]])


def test_block_action_preimage():
    S5 = sym5()
    cosets = right_cosets(socle(S5))
    D = d2_group(S5)
    ba = block_action_with_kernel(D, cosets)
    swap = ba.preimage([1, 0])
    assert swap in D


def test_symmetric_group_chain():
    s = symmetric_group_on(6)
    assert s.order == 720
    assert np.array([1, 0, 5, 3, 4, 2]) in s


def test_wreath_chain_order_and_membership():
    blocks = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    W = wreath_group_on_blocks(symmetric_group_on(3), blocks, 9)
    assert W.order == 6**3 * 6
    assert PermutationGroup(W.generators, 9).order == W.order
    member = np.array([1, 2, 0, 5, 4, 3, 6, 8, 7], dtype=np.int32)
    assert member in W
    cross = identity_perm(9)
    cross[0], cross[3] = 3, 0
    assert cross not in W


def test_wreath_chain_giant_symmetric():
    blocks = [list(range(60)), list(range(60, 120))]
    W = wreath_group_on_blocks(symmetric_group_on(60), blocks, 120)
    assert W.order == 2 * math.factorial(60) ** 2
    swap = np.concatenate([np.arange(60, 120), np.arange(60)]).astype(np.int32)
    assert swap in W


# -- the former explicit chains, kept as oracles for the structural groups ------


def _chain_levels(group):
    """The dict-based chain's levels, for a group of either chain type."""
    if not isinstance(group, DictChainGroup):
        group = DictChainGroup(group.generators, group.degree, known_order=group._known_order)
    group._ensure_chain()
    return group._levels


def _chain_group(gens, degree, levels):
    group = DictChainGroup(gens, degree)
    group._levels = levels
    group._order = math.prod(len(lv.trans) for lv in levels)
    return group


def chain_symmetric_group_on(degree):
    """Sym(degree), with an explicit transposition chain."""
    pts = list(range(degree))
    k = len(pts)
    ident = identity_perm(degree)
    levels = []
    for i in range(k - 1):
        lv = DictLevel(pts[i])
        lv.trans[pts[i]] = ident
        lv.trans_inv[pts[i]] = ident
        lv.points.append(pts[i])
        for j in range(i + 1, k):
            t = ident.copy()
            t[pts[i]], t[pts[j]] = t[pts[j]], t[pts[i]]
            lv.trans[pts[j]] = t
            lv.trans_inv[pts[j]] = t
            lv.points.append(pts[j])
        levels.append(lv)
    gens = []
    if k >= 2:
        cyc = ident.copy()
        for a, b in zip(pts, pts[1:] + pts[:1]):
            cyc[a] = b
        tr = ident.copy()
        tr[pts[0]], tr[pts[1]] = tr[pts[1]], tr[pts[0]]
        gens = [cyc, tr] if k > 2 else [tr]
    return _chain_group(gens, degree, levels)


def _chain_lift_block_map(tau, blocks, degree):
    """Lift a block permutation to points, positionwise along the block lists."""
    out = identity_perm(degree)
    for i, blk in enumerate(blocks):
        tgt = blocks[int(tau[i])]
        for pos, pt in enumerate(blk):
            out[pt] = tgt[pos]
    return out


def chain_wreath_group_on_blocks(inner, blocks, top, degree):
    """inner wr top on a block system, as an explicit chain.

    The chain pins blocks one at a time: first along top's own chain (base
    block beta; cross-block transversal entries are lifted top transversals
    composed with conjugated inner transversals), then the blocks left fixed.
    """
    m = len(blocks)
    inner_levels = _chain_levels(inner)
    levels = []

    def add_inner_stage(beta, top_level):
        blk = blocks[beta]
        for nu, ilv in enumerate(inner_levels):
            lv = DictLevel(blk[ilv.base])
            if nu == 0 and top_level is not None:
                for gamma_pt in top_level.points:
                    tau = top_level.trans[gamma_pt]
                    lift = _chain_lift_block_map(tau, blocks, degree)
                    gblk = blocks[int(tau[beta])]
                    for q in ilv.points:
                        w = compose(lift, conj_into_block(ilv.trans[q], gblk, degree))
                        pt = int(w[lv.base])
                        lv.trans[pt] = w
                        lv.trans_inv[pt] = inverse_perm(w)
                        lv.points.append(pt)
            else:
                for q in ilv.points:
                    w = conj_into_block(ilv.trans[q], blk, degree)
                    pt = blk[q]
                    lv.trans[pt] = w
                    lv.trans_inv[pt] = inverse_perm(w)
                    lv.points.append(pt)
            levels.append(lv)

    pinned = []
    for tlv in _chain_levels(top):
        add_inner_stage(tlv.base, tlv)
        pinned.append(tlv.base)
    for beta in range(m):
        if beta not in pinned:
            add_inner_stage(beta, None)
    generators = [conj_into_block(g, blocks[0], degree) for g in inner.generators]
    generators += [_chain_lift_block_map(t, blocks, degree) for t in top.generators]
    return _chain_group(generators, degree, levels)


def _random_products(gens, degree, rng, count=6, length=8):
    out = []
    for _ in range(count):
        f = identity_perm(degree)
        for _ in range(length):
            f = compose(f, gens[int(rng.integers(len(gens)))])
        out.append(f)
    return out


def _assert_same_group(new, old, probes):
    assert new.order == old.order
    assert len(new.generators) == len(old.generators)
    assert all(np.array_equal(a, b) for a, b in zip(new.generators, old.generators))
    for f in probes:
        assert (f in new) == (f in old)


def _block_swap(blocks, i, j, degree):
    tau = identity_perm(len(blocks))
    tau[i], tau[j] = j, i
    return _chain_lift_block_map(tau, blocks, degree)


@pytest.mark.parametrize("degree", [1, 2, 6, 30])
def test_symmetric_group_matches_the_transposition_chain(degree):
    rng = np.random.default_rng(11)
    new, old = symmetric_group_on(degree), chain_symmetric_group_on(degree)
    probes = _random_products(new.generators, degree, rng) if new.generators else []
    probes += [rng.permutation(degree).astype(np.int32) for _ in range(4)]
    _assert_same_group(new, old, probes)
    assert all(f in new for f in probes)


def test_wreath_matches_the_chain_on_a_full_top():
    rng = np.random.default_rng(12)
    blocks = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    new = wreath_group_on_blocks(symmetric_group_on(3), blocks, 9)
    old = chain_wreath_group_on_blocks(
        chain_symmetric_group_on(3), blocks, chain_symmetric_group_on(3), 9
    )
    members = _random_products(new.generators, 9, rng)
    cross = identity_perm(9)
    cross[[2, 4]] = 4, 2
    others = [cross] + [rng.permutation(9).astype(np.int32) for _ in range(6)]
    _assert_same_group(new, old, members + others)
    assert all(f in new for f in members) and cross not in new


def test_wreath_matches_the_chain_on_a_d2_inner_group():
    # inner = the D(2,U) chain of the full A5 colouring, over two blocks
    A5 = alt5()
    k = conjugacy_classes(A5).k
    inner = d2_chain(
        analyze(build_central_cayley(A5, partition_from_class_merge(A5, [[i] for i in range(k)]))).d_u
    )
    rng = np.random.default_rng(13)
    blocks = [list(range(60)), list(range(60, 120))]
    new = wreath_group_on_blocks(inner, blocks, 120)
    old = chain_wreath_group_on_blocks(inner, blocks, chain_symmetric_group_on(2), 120)
    members = _random_products(new.generators, 120, rng)
    stray = identity_perm(120)
    stray[[1, 2]] = 2, 1  # block-preserving, but a transposition is not in D(2,A5)
    stray_swapped = compose(stray, _block_swap(blocks, 0, 1, 120))
    probes = members + [stray, stray_swapped, _block_swap(blocks, 0, 1, 120)]
    _assert_same_group(new, old, probes)
    assert all(f in new for f in members)
    assert stray not in new and stray_swapped not in new


def test_d2_subgroup_with_a_translation_subgroup():
    # the kernel of D(2,S5) on the two cosets of A5: translations by A5 only
    S5 = sym5()
    D = full_d2_subgroup(S5)
    soc = set(socle(S5).elements)
    coset_of = np.array([0 if x in soc else 1 for x in range(120)])
    K = D.coset_kernel(coset_of)
    assert K.translations.elements == tuple(sorted(soc))
    oracle = block_action_with_kernel(d2_chain(D), [sorted(soc), sorted(set(range(120)) - soc)])
    assert K.order == oracle.kernel.order == D.order // 2
    right = regular_representations(S5).right_gens
    odd = next(g for g in right if int(g[0]) not in soc)
    assert odd in D and odd not in K and odd not in oracle.kernel
    assert all(g in K for g in oracle.kernel.generators)
    assert all(g in oracle.kernel for g in K.generators)
    # the candidate pools of the enumeration hold members only; a group
    # fixing both cosets has no regular subgroup
    pools = _candidate_pools_parametric(K, {2, 4, 6})
    assert all(f in K for pool in pools.values() for f in pool)
    assert regular_subgroups(K, S5) == []


def test_coset_kernel_where_alpha_inverts_the_quotient():
    # A4 over V4: the quotient is C3, and the outer automorphisms invert it,
    # so the kernel's inverted part is the outer half of Aut(A4), not the inner
    A4 = group_from_generators([(1, 2, 0, 3), (1, 0, 3, 2)])
    D = full_d2_subgroup(A4)
    cosets = right_cosets(socle(A4))
    K = D.coset_kernel(coset_class_array(A4, cosets))
    oracle = block_action_with_kernel(d2_chain(D), cosets).kernel
    assert (len(K.auts_plain), len(K.auts_inv), K.order) == (12, 12, 96)
    assert K.order == oracle.order
    assert all(g in K for g in oracle.generators) and all(g in oracle for g in K.generators)
    rng = np.random.default_rng(15)
    for f in _random_products(D.generators, 12, rng, count=30):
        assert (f in K) == (f in oracle)


@pytest.mark.parametrize("name", [nm for nm in BUILTIN_NAMES if nm != "trivial"])
def test_d2_generators_are_the_chain_reductions(name):
    D = full_d2_subgroup(builtin_group(name))
    assert [g.tobytes() for g in D.generators] == [g.tobytes() for g in chain_d2_generators(D)]


def test_d2_membership_compares_the_full_row():
    # alpha' agrees with an automorphism on the generators of A5, so its code
    # is found, but it swaps two other images: no automorphism, no member
    A5 = alt5()
    D = D2Subgroup(A5, full_d2_subgroup(A5).auts_plain, [])
    alpha = D.auts_plain[7]
    f = D.row(alpha, 11, False)
    x, y = [p for p in range(1, 60) if p not in D._base][:2]
    g = f.copy()
    g[[x, y]] = f[[y, x]]
    stray = A5.table[g, A5.inverse[11]]
    assert np.array_equal(stray[D._base], alpha[D._base]) and not np.array_equal(stray, alpha)
    assert f in D and g not in D
    assert g not in PermutationGroup(D.generators, 60, known_order=D.order)


def test_d2_generators_need_a_closed_plain_part():
    A5 = alt5()
    a = next(r for r in full_d2_subgroup(A5).auts_plain if not is_identity(compose(r, r)))
    with pytest.raises(InternalError):  # a * a is not listed
        D2Subgroup(A5, [identity_perm(60), a], []).generators
    with pytest.raises(InternalError):  # nor is the identity
        D2Subgroup(A5, [a], []).generators


def _non_permutations(n):
    """Arrays of length n that are not permutations of 0..n-1."""
    out = []
    for bad in (-1, n, 0, 2**32 + n - 1):
        f = np.arange(n, dtype=np.int64)
        f[-1] = bad
        out.append(f)
    out.append(np.full(n, 0.5))
    return out


def _membership_groups():
    A5 = alt5()
    blocks = [[0, 1, 2], [3, 4, 5]]
    wreath = wreath_group_on_blocks(symmetric_group_on(3), blocks, 6)
    return [
        symmetric_group_on(6),
        symmetric_group_on(2),
        wreath,
        PermutationGroup([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], 5),
        full_d2_subgroup(A5),
    ]


@pytest.mark.parametrize("index", range(5))
def test_membership_rejects_non_permutations(index):
    group = _membership_groups()[index]
    n = group.degree
    for f in _non_permutations(n):
        assert f not in group
    assert np.arange(n) in group
    assert list(range(n)) in group
    for wrong in (np.arange(n + 1), np.arange(n - 1), np.zeros((n, 2), dtype=np.int32)):
        with pytest.raises(InvalidInputError):
            wrong in group


def test_generators_out_of_the_int32_range_are_rejected():
    # an int32 cast would wrap 2**32 + 1 to the transposition's image 1
    for bad in ([2**32, 1], np.array([2**32 + 1, 0], dtype=np.int64)):
        with pytest.raises(InvalidInputError):
            PermutationGroup([bad], 2)


def closed_rows(gens, n):
    """The group the permutations generate, closed breadth first from the
    identity, as a matrix with its rows ordered by their image of 0."""
    seen = {identity_perm(n).tobytes(): identity_perm(n)}
    queue = [identity_perm(n)]
    for e in queue:  # the queue grows while it is walked
        for g in gens:
            w = compose(e, g)
            if w.tobytes() not in seen:
                seen[w.tobytes()] = w
                queue.append(w)
    rows = np.array(queue)
    return rows[np.argsort(rows[:, 0], kind="stable")]


def test_regular_subgroups_d2_alt5():
    A5 = alt5()
    K = full_d2_subgroup(A5)
    subs = regular_subgroups(K, A5)
    assert len(subs) == 2
    tables = set()
    for V in subs:
        rows = V.table.T  # row i: the member that takes 0 to i
        group = closed_rows(list(rows), 60)
        # the rows are exactly the group they generate, one per image of 0
        assert np.array_equal(group[:, 0], np.arange(60))
        assert np.array_equal(group, rows)
        assert all(r in K for r in rows)
        assert FiniteGroup(V.table) == V and group_isomorphisms(A5, V) is not None
        tables.add(rows.tobytes())
    reps = regular_representations(A5)
    right, left = closed_rows(reps.right_gens, 60), closed_rows(reps.left_gens, 60)
    assert tables == {right.tobytes(), left.tobytes()}
    assert [V.table.T.tobytes() for V in subs] == sorted(tables)


def test_regular_subgroups_degree_mismatch():
    assert regular_subgroups(full_d2_subgroup(sym5()), alt5()) == []


def test_regular_subgroups_need_an_almost_simple_group():
    S4 = group_from_generators([(1, 2, 3, 0), (1, 0, 2, 3)])
    with pytest.raises(InvalidInputError, match="almost simple"):
        regular_subgroups(full_d2_subgroup(S4), S4)


# -- the socle-anchored search: its proof's inputs and the product scan ----------


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "trivial"])
def test_every_socle_automorphism_fixes_a_nontrivial_element(name):
    # Rowley (J. Algebra 174, 1995): no automorphism of a nonsolvable group
    # is fixed-point-free, so no twisted diagonal of T_r x T_l is semiregular
    T, _ = socle(builtin_group(name)).as_group()
    auts = np.array(automorphism_group(T))
    assert (auts[:, 1:] == np.arange(1, T.order)).any(axis=1).all()


@pytest.mark.parametrize("make", [alt5, sym5, psl27])
def test_only_the_identity_of_d2_centralizes_the_socle_translations(make):
    # every member x -> (alpha(x) t)^eps of D(2,G), brute force: one column per t
    G = make()
    gens = [G.table[:, t] for t in socle(G).generators()]  # T_r
    gens += [G.table[t, :] for t in socle(G).generators()]  # T_l
    ts = np.arange(G.order)
    central = []
    for eps, auts in enumerate((automorphism_group(G),) * 2):
        for alpha in auts:
            M = G.table[alpha[:, None], ts]
            M = G.inverse[M] if eps else M
            commute = np.logical_and.reduce([(M[g] == g[M]).all(axis=0) for g in gens])
            central += [M[:, t] for t in np.flatnonzero(commute)]
    assert len(central) == 1 and np.array_equal(central[0], ts)


def test_a_simple_group_has_only_its_two_regular_representations():
    A6 = alt6()
    reps = regular_representations(A6)
    right, left = closed_rows(reps.right_gens, 360), closed_rows(reps.left_gens, 360)
    subs = regular_subgroups(full_d2_subgroup(A6), A6)
    assert [V.table.T.tobytes() for V in subs] == sorted([right.tobytes(), left.tobytes()])


# one colouring per distinct normal-type D_U of PGL(2,7), out of all 4,140 of
# its central colourings (``test_the_pgl27_d_u_list_is_complete`` rescans them)
PGL27_D_U_MERGES = ([[0], [1], [2], [3], [4], [5], [6], [7], [8]], [[0], [1], [4], [6], [2, 3, 5, 7], [8]])


def distinct_normal_analyses(name, merges=None):
    """One analysis per distinct normal-type D_U of a builtin group, keyed
    by U and D_U, over every central colouring or over the merges given."""
    G = builtin_group(name)
    if merges is None:
        merges = [[[0]] + part for part in set_partitions(list(range(1, conjugacy_classes(G).k)))]
    seen = {}
    for merge in merges:
        rec = analyze(build_central_cayley(G, partition_from_class_merge(G, merge)))
        if rec.sec.kind == "normal":
            d = rec.d_u
            key = rec.sec.U.elements, d.auts_plain.tobytes(), d.auts_inv.tobytes(), d.translations.elements
            seen.setdefault(key, rec)
    return seen


def assert_anchored_equals_the_scan(recs):
    for rec in recs.values():
        got = regular_subgroups(rec.d_u, rec.U)
        expect = regular_subgroups_by_scan(rec.d_u, rec.U)
        assert [V.table.tobytes() for V in got] == [V.table.tobytes() for V in expect]


@pytest.mark.parametrize("name", ["alt5", "psl27", "sym5", "pgl27"])
def test_anchored_regular_subgroups_equal_the_scan(name):
    # the scan takes about 26 s on PGL(2,7)'s larger D_U, 2-core host
    recs = distinct_normal_analyses(name, PGL27_D_U_MERGES if name == "pgl27" else None)
    assert len(recs) == 2
    assert_anchored_equals_the_scan(recs)


@pytest.mark.slow
def test_anchored_regular_subgroups_equal_the_scan_on_alt6():
    recs = distinct_normal_analyses("alt6")
    assert len(recs) == 4
    assert_anchored_equals_the_scan(recs)


@pytest.mark.slow
def test_the_pgl27_d_u_list_is_complete():
    listed = distinct_normal_analyses("pgl27", PGL27_D_U_MERGES)
    assert distinct_normal_analyses("pgl27").keys() == listed.keys()


def test_reduce_generators():
    gens = [(1, 0, 2, 3, 4), (1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (1, 0, 3, 2, 4)]
    red = reduce_generators(gens, 5)
    assert len(red) == 2
    assert PermutationGroup(red, 5).order == 4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.permutations(list(range(6))), min_size=1, max_size=3))
def test_chain_order_matches_closure_size(gens):
    g = PermutationGroup([tuple(p) for p in gens], 6)
    seen = {tuple(range(6))}
    frontier = [tuple(range(6))]
    while frontier:
        e = frontier.pop()
        for h in gens:
            w = tuple(h[x] for x in e)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert g.order == len(seen)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.permutations(list(range(8))), min_size=1, max_size=2), st.permutations(list(range(8))))
def test_chain_membership_agrees_with_enumeration(gens, probe):
    g = PermutationGroup([tuple(p) for p in gens], 8)
    elems = {tuple(p) for p in chain_elements(g)}
    assert (tuple(probe) in elems) == (np.array(probe) in g)
