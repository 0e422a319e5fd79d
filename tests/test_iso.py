import math

import numpy as np
import pytest

from cencay.cayley import build_central_cayley, partition_from_class_merge
from cencay.errors import InvalidInputError
from cencay.group import ClassPartition, FiniteGroup, conjugacy_classes, socle
from cencay.iso import (
    IsoResult,
    QuotientGraph,
    brute_force_oracle,
    iso_test,
    automorphisms,
    lift_and_intersect,
    majorant,
    quotient_isos,
    schemes_with_phi,
)
from cencay.perm import (
    PermutationGroup,
    d2_group,
    full_d2_subgroup,
    regular_representations,
)
from .fixture_groups import alt5, cyclic, sym5


def class_id(G, size, order):
    cc = conjugacy_classes(G)
    return next(
        i for i, c in enumerate(cc.classes) if len(c) == size and G.element_order(c[0]) == order
    )


def transposition_graph():
    G = sym5()
    t = class_id(G, 10, 2)
    rest = [i for i in range(7) if i not in (0, t)]
    return build_central_cayley(G, partition_from_class_merge(G, [[0], [t], rest]))


def four_cycle_graph():
    G = sym5()
    f = class_id(G, 30, 4)
    rest = [i for i in range(7) if i not in (0, f)]
    return build_central_cayley(G, partition_from_class_merge(G, [[0], [f], rest]))


def coset_graph():
    G = sym5()
    soc_set = set(socle(G).elements)
    cc = conjugacy_classes(G)
    even = [i for i, c in enumerate(cc.classes) if i and c[0] in soc_set]
    odd = [i for i, c in enumerate(cc.classes) if i and c[0] not in soc_set]
    return build_central_cayley(G, partition_from_class_merge(G, [[0], even, odd]))


def swap_pair():
    G = sym5()
    c3, c32 = class_id(G, 20, 3), class_id(G, 20, 6)
    rest = [i for i in range(7) if i not in (0, c3, c32)]
    a = build_central_cayley(G, partition_from_class_merge(G, [[0], [c3], [c32], rest]))
    pa = a.partition
    b = build_central_cayley(
        G, ClassPartition((pa.classes[0], pa.classes[2], pa.classes[1], pa.classes[3]))
    )
    return a, b


def test_schemes_with_phi_identity():
    gam = transposition_graph()
    swp = schemes_with_phi(gam, gam)
    assert swp is not None
    assert np.array_equal(swp.phi.color_map, np.arange(swp.X.rank))
    assert swp.sec_a.kind == "normal"


def test_schemes_with_phi_swap_none():
    a, b = swap_pair()
    assert schemes_with_phi(a, b) is None


def test_schemes_with_phi_relabelled():
    gam = transposition_graph()
    G = gam.group
    d2 = full_d2_subgroup(G)
    f = d2.row(d2.auts_plain[3], 17, True)
    gam2 = gam.relabelled(f)
    swp = schemes_with_phi(gam, gam2)
    assert swp is not None
    swp.phi.verify()


def test_majorant_normal_type_transpositions():
    gam = transposition_graph()
    swp = schemes_with_phi(gam, gam)
    maj = majorant(swp)
    assert not maj.empty
    assert 14_400 <= maj.order <= 28_800
    # the majorant contains G* (centrality) and sigma
    reps = regular_representations(gam.group)
    for g in reps.star_gens:
        assert maj.contains(g)
    assert maj.contains(reps.sigma)


def test_majorant_symmetric_type_order():
    gam = coset_graph()
    swp = schemes_with_phi(gam, gam)
    maj = majorant(swp)
    assert maj.order == 2 * math.factorial(60) ** 2


def test_quotient_graph_labels_m2():
    gam = transposition_graph()
    swp = schemes_with_phi(gam, gam)
    q = QuotientGraph.build(gam, swp.sec_a.l_class_of, swp.sec_a.m)
    assert q.m == 2
    assert q.label_sets[0][0] == frozenset({0, 2})
    assert q.label_sets[0][1] == frozenset({1, 2})
    B = quotient_isos(q, q)
    assert sorted(tuple(b) for b in B) == [(0, 1), (1, 0)]


def test_quotient_isos_m1_and_mismatch():
    gam = transposition_graph()
    q1 = QuotientGraph(1, [[frozenset({0, 1})]])
    assert [tuple(b) for b in quotient_isos(q1, q1)] == [(0,)]
    q2 = QuotientGraph(1, [[frozenset({0})]])
    assert quotient_isos(q1, q2) == []


def test_lift_rejects_empty_B():
    gam = transposition_graph()
    swp = schemes_with_phi(gam, gam)
    maj = majorant(swp)
    qa = QuotientGraph.build(gam, swp.sec_a.l_class_of, swp.sec_a.m)
    B_self = quotient_isos(qa, qa)
    res = lift_and_intersect(maj, [], B_self, swp.sec_a, swp.sec_b, False)
    assert res.verdict == "non_isomorphic"
    assert res.decided_at_step == 4


def test_c0_search_symmetric_and_normal():
    import cencay.iso as iso_mod
    from cencay.coherent import restriction

    # symmetric type: group part is the full symmetric group on U
    gam = coset_graph()
    swp = schemes_with_phi(gam, gam)
    XU, _ = restriction(swp.X, swp.sec_a.U.elements)
    U, _ = swp.sec_a.U.as_group()
    c0, d_u = iso_mod.c0_search(XU, XU, np.arange(XU.rank), "symmetric", U, U)
    assert not c0.empty
    assert c0.group_part.order == math.factorial(60)

    # normal type: group part contains U* and sits inside D(2,U)
    gam = transposition_graph()
    swp = schemes_with_phi(gam, gam)
    XU, _ = restriction(swp.X, swp.sec_a.U.elements)
    U, _ = swp.sec_a.U.as_group()
    c0, d_u = iso_mod.c0_search(XU, XU, np.arange(XU.rank), "normal", U, U)
    assert not c0.empty
    assert 14_400 <= d_u.order <= 28_800
    assert d_u.order % (2 * U.order) == 0
    reps = regular_representations(U)
    for g in reps.star_gens:
        assert g in d_u
    # the representative composed with group elements stays inside the coset:
    # here the coset is the group itself (identity qualifies), so f0 is in D_U
    assert c0.representative in d_u


def test_h0_h1_structure_invariants():
    from cencay.cayley import cayley_wl, compute_H0, compute_H1
    from cencay.group import socle

    gam = coset_graph()
    scheme = cayley_wl(gam)
    h0 = compute_H0(scheme)
    soc = socle(gam.group)
    assert any(H.elements == soc.elements for H in h0)  # symmetric type marker
    h1 = compute_H1(scheme)
    assert any(H.order == gam.group.order for H in h1)  # G itself always passes

    gam2 = transposition_graph()
    scheme2 = cayley_wl(gam2)
    assert compute_H0(scheme2) == []
    h1b = compute_H1(scheme2)
    assert [H.order for H in h1b] == [120]


def test_aut_transpositions_is_d2():
    gam = transposition_graph()
    res = automorphisms(gam)
    assert res.aut_order == 28_800
    D2 = d2_group(gam.group)
    assert all(g in D2 for g in res.aut_generators)
    assert all(res.aut_membership(g) for g in D2.generators)


def test_aut_four_cycles_is_d2():
    res = automorphisms(four_cycle_graph())
    assert res.aut_order == 28_800


def test_aut_symmetric_fixture():
    res = automorphisms(coset_graph())
    assert res.aut_order == 2 * math.factorial(60) ** 2
    reps = regular_representations(sym5())
    assert all(res.aut_membership(g) for g in reps.star_gens)


def test_iso_swap_pair_step2():
    a, b = swap_pair()
    res = iso_test(a, b)
    assert res.verdict == "non_isomorphic"
    assert res.decided_at_step == 2
    assert res.aut_order == automorphisms(a).aut_order


def test_iso_relabelled_pairs():
    gam = transposition_graph()
    G = gam.group
    d2 = full_d2_subgroup(G)
    rng = np.random.default_rng(11)
    MA = gam.arc_colors
    for _ in range(3):
        alpha = d2.auts_plain[int(rng.integers(len(d2.auts_plain)))]
        f = d2.row(alpha, int(rng.integers(G.order)), bool(rng.integers(2)))
        gam2 = gam.relabelled(f)
        res = iso_test(gam, gam2)
        assert res.isomorphic
        r = res.representative
        assert np.array_equal(gam2.arc_colors[r[:, None], r[None, :]], MA)


def test_iso_rejects_non_almost_simple():
    from cencay.cayley import ColorCayleyGraph

    C = cyclic(6)
    cc = conjugacy_classes(C)
    g = ColorCayleyGraph(C, partition_from_class_merge(C, [[0], list(range(1, cc.k))]))
    with pytest.raises(InvalidInputError):
        iso_test(g, g)


def test_g_star_always_in_aut():
    for gam in (transposition_graph(), coset_graph()):
        res = automorphisms(gam)
        reps = regular_representations(gam.group)
        for g in reps.star_gens:
            assert res.aut_membership(g)


def test_normal_type_u_equals_g_aut_inside_d2():
    gam = transposition_graph()
    res = automorphisms(gam)
    D2 = d2_group(gam.group)
    for g in res.aut_generators:
        assert g in D2


def test_oracle_self_and_complete():
    A5 = alt5()
    gam = build_central_cayley(A5, partition_from_class_merge(A5, [[0], [1, 2, 3, 4]]))
    res = brute_force_oracle(gam, gam)
    assert res.aut_order == math.factorial(60)
    pipe = automorphisms(gam)
    assert pipe.aut_order == math.factorial(60)


def test_oracle_matches_pipeline_small():
    A5 = alt5()
    merges = [
        [[0], [1], [2], [3], [4]],
        [[0], [1, 2], [3], [4]],
        [[0], [1, 2, 3], [4]],
    ]
    graphs = [build_central_cayley(A5, partition_from_class_merge(A5, m)) for m in merges]
    for gam in graphs:
        a = automorphisms(gam)
        b = brute_force_oracle(gam, gam)
        assert a.verdict == b.verdict
        assert a.aut_order == b.aut_order
    r1 = iso_test(graphs[0], graphs[1])
    r2 = brute_force_oracle(graphs[0], graphs[1])
    assert r1.verdict == r2.verdict == "non_isomorphic"
    assert r1.aut_order == r2.aut_order


def test_oracle_relabelled_pair():
    A5 = alt5()
    gam = build_central_cayley(A5, partition_from_class_merge(A5, [[0], [1, 2], [3], [4]]))
    d2 = full_d2_subgroup(A5)
    f = d2.row(d2.auts_plain[5], 23, False)
    gam2 = gam.relabelled(f)
    r1 = iso_test(gam, gam2)
    r2 = brute_force_oracle(gam, gam2)
    assert r1.verdict == r2.verdict == "isomorphic"
    assert r1.aut_order == r2.aut_order
    for res, src, dst in ((r1, gam, gam2), (r2, gam, gam2)):
        r = res.representative
        assert np.array_equal(dst.arc_colors[r[:, None], r[None, :]], src.arc_colors)


def relabelled_copy(G, seed):
    """G on a randomly relabelled table with the identity fixed, and the relabelling."""
    rng = np.random.default_rng(seed)
    pi = np.concatenate([[0], 1 + rng.permutation(G.order - 1)]).astype(np.int32)
    table = np.empty_like(G.table)
    table[pi[:, None], pi[None, :]] = pi[G.table]
    return FiniteGroup(table), pi


@pytest.mark.parametrize("seed", range(6))
def test_relabelled_tables_agree_with_oracle(seed):
    # C0 composes Aut of the target after the base isomorphism; composing it
    # on the source side answered non_isomorphic on some relabellings
    G = alt5()
    H, pi = relabelled_copy(G, seed)
    for merge in ([[0], [1], [2], [3], [4]], [[0], [1], [2], [3, 4]], [[0], [1], [2, 3, 4]]):
        a = build_central_cayley(G, partition_from_class_merge(G, merge))
        b = build_central_cayley(
            H, ClassPartition(tuple(tuple(sorted(pi[list(c)].tolist())) for c in a.partition.classes))
        )
        res = iso_test(a, b)
        oracle = brute_force_oracle(a, b)
        assert res.verdict == oracle.verdict == "isomorphic"
        assert res.aut_order == oracle.aut_order
