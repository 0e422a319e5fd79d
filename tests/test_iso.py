import dataclasses
import json
import math

import numpy as np
import pytest

from cencay.cayley import build_central_cayley, partition_from_class_merge
from cencay.errors import InternalError, InvalidInputError
from cencay.files import (
    CHAIN_RECOUNT_LIMIT,
    emit_report,
    report_to_dict,
    result_from_dict,
    result_to_dict,
    verify_emitted_order,
)
from cencay.group import ClassPartition, FiniteGroup, conjugacy_classes, element_orders, socle
from cencay.iso import (
    IsoResult,
    QuotientGraph,
    _self_verify,
    analyze,
    brute_force_oracle,
    iso_test,
    automorphisms,
    lift_and_intersect,
    majorant,
    quotient_isos,
    schemes_with_phi,
)
from cencay.perm import PermutationGroup
from .fixture_groups import (
    alt5,
    alt6,
    chain_d2_generators,
    cyclic,
    d2_chain,
    d2_group,
    full_d2_subgroup,
    pair_matrices,
    pgl27,
    psl27,
    regular_representations,
    restricted_matrix,
    set_partitions,
    sym5,
    sym6,
)

try:
    from sympy.combinatorics import Permutation as SymPerm
    from sympy.combinatorics import PermutationGroup as SymGroup
except ImportError:  # sympy is an optional test dependency
    SymGroup = None


def class_id(G, size, order):
    cc = conjugacy_classes(G)
    return next(
        i for i, c in enumerate(cc.classes) if len(c) == size and element_orders(G)[c[0]] == order
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


def a5_coset_graph():
    """A normal-type S5 graph with U = L = A5: two U-cosets."""
    S5 = sym5()
    return build_central_cayley(S5, partition_from_class_merge(S5, [[0], [2, 5], [1, 3, 4, 6]]))


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
    X, _, phi = pair_matrices(swp)
    assert np.array_equal(phi.color_map, np.arange(X.rank))
    assert swp.src.sec.kind == "normal"


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
    pair_matrices(swp)[2].verify()


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
    q = QuotientGraph.build(gam, swp.src.sec.l_class_of, swp.src.sec.m)
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
    res = lift_and_intersect(maj, [], swp.src, swp.dst)
    assert res.verdict == "non_isomorphic"
    assert res.decided_at_step == 4
    assert res.aut_order == 28_800


def test_c0_search_symmetric_and_normal():
    import cencay.iso as iso_mod
    from cencay.coherent import restriction

    # symmetric type: group part is the full symmetric group on U
    gam = coset_graph()
    swp = schemes_with_phi(gam, gam)
    rec = swp.src
    c0, d_u = iso_mod.c0_search(rec, rec, np.arange(restricted_matrix(rec).rank))
    assert not c0.empty
    assert d_u.order == math.factorial(60)

    # normal type: group part contains U* and sits inside D(2,U)
    gam = transposition_graph()
    swp = schemes_with_phi(gam, gam)
    rec = swp.src
    # the pair's restriction, which carries phi down to U, is the analysis' XU
    XU = restricted_matrix(rec)
    assert restriction(pair_matrices(swp)[0], rec.sec.U.elements)[0] == XU
    c0, d_u = iso_mod.c0_search(rec, rec, np.arange(XU.rank))
    assert not c0.empty
    assert 14_400 <= d_u.order <= 28_800
    assert d_u.order % (2 * rec.U.order) == 0
    reps = regular_representations(rec.U)
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


def test_symmetric_type_builds_no_standalone_u(monkeypatch):
    # D_U is Sym(U), sized from the section: U is never copied out of G
    import cencay.group as group_mod

    calls = [0]
    as_group = group_mod.Subgroup.as_group

    def counted(self):
        calls[0] += 1
        return as_group(self)

    monkeypatch.setattr(group_mod.Subgroup, "as_group", counted)
    gam = coset_graph()
    assert automorphisms(gam).aut_order == 2 * math.factorial(60) ** 2
    assert iso_test(gam, gam).isomorphic
    assert calls == [0]


def test_whole_group_u_keeps_aut_off_the_input_group():
    # U = G is a copy that shares G's class and generator memos; Aut(U)
    # lives on the copy, so it goes with the analysis, not with the input
    G = FiniteGroup(sym5().table)  # a fresh instance: nothing cached yet
    gam = full_graph(G)
    rec = analyze(gam)
    assert rec.sec.kind == "normal" and rec.sec.U.order == G.order
    assert G._classes_cache is not None and G._generators_cache is not None
    assert rec.U is not G and rec.U._classes_cache is G._classes_cache
    assert rec.U._generators_cache is G._generators_cache
    assert automorphisms(gam).aut_order == automorphisms(full_graph(sym5())).aut_order
    assert G._aut_cache is None


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


def same_group(gens_a, order_a, gens_b, order_b, degree, upper_bound=None):
    """<gens_a> == <gens_b>, and both claimed orders are its order.

    No claim sets a chain target: side a's order comes from a chain without
    one, or, when the caller certifies an independent upper bound on
    |<gens_a>|, from a chain that reaches that bound (a chain's transversal
    product is a lower bound, so the order is then the bound exactly).
    Membership in an early-stopped chain is sound when it holds, so side
    b's chain may stop at its claim.
    """
    chain_a = PermutationGroup(gens_a, degree, known_order=upper_bound)
    chain_b = PermutationGroup(gens_b, degree, known_order=order_b)
    return (
        chain_a.order == order_a == order_b
        and all(g in chain_b for g in gens_a)
        and all(g in chain_a for g in gens_b)
    )


def test_same_group_checks_the_claims_against_the_true_order():
    gens = automorphisms(full_graph(sym5())).aut_generators
    assert PermutationGroup(gens, 120).order == 28_800
    assert same_group(gens, 28_800, gens, 28_800, 120)
    assert not same_group(gens, 14_400, gens, 14_400, 120)
    assert not same_group(gens, 28_800, gens, 14_400, 120)


def full_graph(G):
    k = conjugacy_classes(G).k
    return build_central_cayley(G, partition_from_class_merge(G, [[i] for i in range(k)]))


def test_record_path_agrees_with_pair_path_and_oracle():
    A5 = alt5()
    graphs = [
        build_central_cayley(A5, partition_from_class_merge(A5, [[0]] + merge))
        for merge in set_partitions([1, 2, 3, 4])
    ]
    assert len(graphs) == 15
    graphs += [transposition_graph(), coset_graph(), full_graph(sym5())]
    for gam in graphs:
        n = gam.group.order
        record = automorphisms(gam)
        pair = iso_test(gam, gam)
        oracle = brute_force_oracle(gam, gam)
        assert record.verdict == pair.verdict == oracle.verdict == "isomorphic"
        assert record.aut_order == pair.aut_order == oracle.aut_order
        assert np.array_equal(record.representative, np.arange(n))
        # the pair path returns the source's Aut, so its generators are the record's
        assert len(pair.aut_generators) == len(record.aut_generators)
        assert all(np.array_equal(g, h) for g, h in zip(pair.aut_generators, record.aut_generators))
        bound = None
        if record.aut_order > CHAIN_RECOUNT_LIMIT:
            # a chain without target takes 16 s (complete A5 graph) and 77 s (coset
            # graph) on a 2-core host; the generators keep the arc colours, so the
            # oracle's exhaustive count of Aut bounds their group from above instead
            MA = gam.arc_colors
            assert all(np.array_equal(MA[g[:, None], g[None, :]], MA) for g in record.aut_generators)
            bound = oracle.aut_order
        assert same_group(record.aut_generators, record.aut_order,
                          oracle.aut_generators, oracle.aut_order, n, upper_bound=bound)


def test_each_graph_is_analysed_once(monkeypatch):
    import cencay.iso as iso_mod

    calls = {"cayley_wl": [], "principal_section": 0, "c0_search": 0, "iso_test": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name == "cayley_wl":
                calls[name].append(args[0])
            else:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(iso_mod, name, counted(name, getattr(iso_mod, name)))
    a, b = swap_pair()
    res = iso_mod.iso_test(a, b)
    assert res.verdict == "non_isomorphic"
    assert len(calls["cayley_wl"]) == 2
    assert calls["cayley_wl"][0] is a and calls["cayley_wl"][1] is b
    assert calls["principal_section"] == 2
    for gam in (transposition_graph(), coset_graph()):
        for name in calls:
            calls[name] = [] if name == "cayley_wl" else 0
        automorphisms(gam)
        assert len(calls["cayley_wl"]) == 1 and calls["cayley_wl"][0] is gam
        assert (calls["principal_section"], calls["c0_search"], calls["iso_test"]) == (1, 0, 0)
    assert res.aut_order == automorphisms(a).aut_order == 28_800


def test_each_graph_is_closed_once(monkeypatch):
    # the analysis closes the arc colours alone, and a pair adds one lockstep
    # of the two arc colourings: one closure per automorphisms, three per iso_test
    import cencay.cayley
    import cencay.iso as iso_mod

    counters = [count_calls(monkeypatch, m, "closure_rows") for m in (cencay.cayley, iso_mod)]

    def closures(run, *graphs):
        for c in counters:
            c[0] = 0
        verdict = run(*graphs).verdict
        return sum(c[0] for c in counters), verdict

    for gam in (transposition_graph(), coset_graph(), a5_coset_graph(), full_graph(psl27())):
        assert closures(automorphisms, gam) == (1, "isomorphic")
    a, b = swap_pair()
    s5 = transposition_graph()
    for x, y, verdict in ((a, b, "non_isomorphic"), (s5, relabelled_graph(s5, 3), "isomorphic"),
                          (coset_graph(), coset_graph(), "isomorphic")):
        assert closures(iso_test, x, y) == (3, verdict)


def test_d_u_is_its_own_kernel_when_l_equals_u(monkeypatch):
    # with L = U every position of U lies in one L-coset, so D_U's kernel on
    # the L-cosets is D_U itself, with the same rows and generators
    from cencay.perm import D2Subgroup

    for gam, l_equals_u in ((full_graph(psl27()), True), (a5_coset_graph(), True),
                            (transposition_graph(), False)):
        rec = analyze(gam)
        assert rec.sec.kind == "normal"
        assert (rec.sec.L.order == rec.sec.U.order) == l_equals_u
        if l_equals_u:
            kernel = rec.d_u.coset_kernel(rec.sec.l_class_of[rec.blocks[0]])
            assert kernel.order == rec.d_u.order
            assert [g.tobytes() for g in kernel.generators] == [
                g.tobytes() for g in rec.d_u.generators
            ]
    calls = count_calls(monkeypatch, D2Subgroup, "coset_kernel")
    for gam, want in ((full_graph(psl27()), 0), (a5_coset_graph(), 0), (transposition_graph(), 1)):
        calls[0] = 0
        automorphisms(gam)
        assert calls == [want]


def test_lockstep_checks_that_phi_maps_u_onto_u():
    # the transposition graph has U = S5 and L = A5; a hand-built normal
    # section with L = U = A5 on one side has the same L but another U, and
    # the colours on S5 are not those on A5, so no phi matches the sections
    from cencay.cayley import PrincipalSection, coset_class_array
    from cencay.iso import _schemes_with_phi

    gam = transposition_graph()
    src = analyze(gam)
    soc = socle(gam.group)
    cosets = soc.right_cosets()
    cls = coset_class_array(gam.group, cosets)
    dst = dataclasses.replace(
        analyze(gam), sec=PrincipalSection("normal", soc, soc, cosets, cosets, cls, cls)
    )
    assert _schemes_with_phi(src, analyze(gam)) is not None
    assert _schemes_with_phi(src, dst) is None


def test_a_natural_pgl27_pair_reaches_the_c0_fallback(monkeypatch):
    # these colourings pass step 2, and every group-isomorphism candidate for
    # C0 fails; the 44 regular subgroups of D_U' built on its socle (24-31 s
    # a direction by the product scan they replaced, 1-2 s now on a 2-core
    # host) give no C0 either, so the answer is a negative at step 3
    import cencay.iso as iso_mod

    calls = count_calls(monkeypatch, iso_mod, "regular_subgroups")
    G = pgl27()
    a, b = (
        build_central_cayley(G, partition_from_class_merge(G, merge))
        for merge in ([[0], [1, 6], [2, 5], [3, 4, 8], [7]], [[0], [1, 6], [2, 3], [4, 5, 8], [7]])
    )
    for x, y in ((a, b), (b, a)):
        calls[0] = 0
        res = iso_test(x, y)
        assert (res.verdict, res.decided_at_step, calls[0]) == ("non_isomorphic", 3, 1)


def test_one_conjugation_table_per_group_in_a_normal_type_pair(monkeypatch):
    # G and G' build theirs for their classes; D_U' takes Aut(U') from U''s
    # table, and the search for U -> U' reads that same table
    import cencay.group as group_mod

    built, conjugation_table = [], group_mod._conjugation_table
    monkeypatch.setattr(group_mod, "_conjugation_table", lambda K: built.append(K) or conjugation_table(K))
    a = full_graph(FiniteGroup(sym5().table))  # fresh instances: nothing cached yet
    b = relabelled_graph(a, 1)
    assert len(built) == 2 and built[0] is a.group and built[1] is b.group
    assert iso_test(a, b).isomorphic and analyze(b).sec.kind == "normal"
    assert len(built) == len({id(K) for K in built}) == 4  # and U, U'


# -- C0: the cheap candidates against the full enumeration ----------------------------


def c0_by_enumeration(src, dst, psi_map):
    """The regular-subgroup enumeration alone, as C0 ran before the cheap
    candidates: the first f0 over every regular subgroup of D_{U'}
    isomorphic to U that passes the colour check and conjugates D_U onto
    D_{U'}."""
    from cencay.group import group_isomorphisms
    from cencay.perm import inverse_perm, regular_subgroups

    d_u, d_u2 = src.d_u, dst.d_u
    want, colors_b = psi_map[restricted_matrix(src).colors], restricted_matrix(dst).colors
    for V in regular_subgroups(d_u2, src.U):  # each as its multiplication table
        beta0, auts = group_isomorphisms(src.U, V)
        for alpha in auts:
            f0 = alpha[beta0]
            if not np.array_equal(colors_b[f0[:, None], f0[None, :]], want):
                continue
            f0_inv = inverse_perm(f0)
            if all(f0[d[f0_inv]] in d_u2 for d in d_u.generators):
                return f0
    return None


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def recorded_c0_calls(monkeypatch, pairs):
    """Run ``iso_test`` on each pair, recording every c0_search call."""
    import cencay.iso as iso_mod

    calls = []
    original = iso_mod.c0_search

    def recording(src, dst, psi_map):
        out = original(src, dst, psi_map)
        calls.append((src, dst, psi_map, out[0]))
        return out

    monkeypatch.setattr(iso_mod, "c0_search", recording)
    for a, b in pairs:
        assert iso_test(a, b).isomorphic
    return calls


def relabelled_graph(gam, seed):
    """The same colouring on a randomly relabelled copy of the group's table."""
    H, pi = relabelled_copy(gam.group, seed)
    classes = tuple(tuple(sorted(pi[list(c)].tolist())) for c in gam.partition.classes)
    return build_central_cayley(H, ClassPartition(classes))


def test_cheap_c0_lies_in_the_enumerated_coset(monkeypatch):
    from cencay.perm import inverse_perm

    A5 = alt5()
    a5_graphs = [
        build_central_cayley(A5, partition_from_class_merge(A5, merge))
        for merge in ([[0], [1], [2], [3], [4]], [[0], [1], [2], [3, 4]])
    ]
    s5_graphs = [transposition_graph(), four_cycle_graph(), full_graph(sym5())]
    # on tables relabelled by seeds 3 and 4 the first isomorphism A5 -> A5'
    # fails the colour check, so a later candidate has to be found
    pairs = [(g, relabelled_graph(g, seed)) for g in a5_graphs for seed in (3, 4)]
    pairs += [(g, relabelled_graph(g, 0)) for g in s5_graphs]
    pairs.append((full_graph(psl27()), full_graph(psl27())))
    calls = recorded_c0_calls(monkeypatch, pairs)
    assert len(calls) == len(pairs)
    for src, dst, psi_map, c0 in calls:
        assert src.sec.kind == "normal" and not c0.empty
        f_oracle = c0_by_enumeration(src, dst, psi_map)
        assert f_oracle is not None
        # both lie in one coset D_{U'} f0
        assert f_oracle[inverse_perm(c0.representative)] in dst.d_u


def test_c0_falls_back_to_the_enumeration(monkeypatch):
    import cencay.iso as iso_mod

    A5 = alt5()
    gam = build_central_cayley(A5, partition_from_class_merge(A5, [[0], [1], [2], [3], [4]]))
    swp = schemes_with_phi(gam, gam)
    calls = count_calls(monkeypatch, iso_mod, "regular_subgroups")
    rank = restricted_matrix(swp.src).rank
    # psi moves the diagonal colour 0, which no bijection can do
    psi_map = np.roll(np.arange(rank, dtype=np.int32), 1)
    c0, _ = iso_mod.c0_search(swp.src, swp.dst, psi_map)
    assert c0.empty
    assert calls == [1]
    # the identity colour map is realised by a cheap candidate: no enumeration
    c0, _ = iso_mod.c0_search(swp.src, swp.dst, np.arange(rank, dtype=np.int32))
    assert not c0.empty
    assert calls == [1]


def test_iso_test_takes_the_cheap_c0_path(monkeypatch):
    import cencay.iso as iso_mod

    from .fixture_groups import alt6, pgl27

    calls = count_calls(monkeypatch, iso_mod, "regular_subgroups")
    s5 = transposition_graph()
    pgl = full_graph(pgl27())
    a6 = full_graph(alt6())
    for a, b in ((s5, relabelled_graph(s5, 3)), (pgl, relabelled_graph(pgl, 0)), (a6, a6)):
        res = iso_test(a, b)
        assert res.isomorphic
        r = res.representative
        assert np.array_equal(b.arc_colors[r[:, None], r[None, :]], a.arc_colors)
        assert res.aut_order == automorphisms(a).aut_order
        assert b is a or res.aut_order == automorphisms(b).aut_order
    assert calls == [0]


def test_cheap_c0_candidates_map_translations_to_translations():
    import itertools

    import cencay.iso as iso_mod
    from cencay.group import automorphism_group
    from cencay.perm import inverse_perm

    gam = transposition_graph()
    rec = iso_mod.analyze(relabelled_graph(gam, 2))
    U_a, U_b = iso_mod.analyze(gam).U, rec.U
    n, n_aut = U_a.order, len(automorphism_group(U_b))
    cheap = list(itertools.islice(iso_mod._c0_candidates(U_a, U_b, rec.d_u), 2 * n_aut))
    assert len({f.tobytes() for f in cheap}) == 2 * n_aut
    x = np.arange(n)
    for i, f in enumerate(cheap):
        f_inv = inverse_perm(f)
        for h in (1, 7, n - 1):
            # f conjugates the right translation by h into a translation of U'
            conj = f[U_a.table[f_inv, h]]
            image = int(conj[0])
            if i < n_aut:  # isomorphisms: right translations go to right ones
                assert np.array_equal(conj, U_b.table[x, image])
            else:  # after inversion on U: right translations go to left ones
                assert np.array_equal(conj, U_b.table[image, x])


def test_row_c0_check_equals_the_full_check_on_every_candidate(monkeypatch):
    # every candidate, fallback included, for the true psi, the identity and
    # psi with two colors swapped: comparing the U-rows (length |U|) accepts
    # exactly the candidates that the |U| x |U| comparison accepts
    import cencay.iso as iso_mod

    A5 = alt5()
    graphs = [
        build_central_cayley(A5, partition_from_class_merge(A5, merge))
        for merge in ([[0], [1], [2], [3], [4]], [[0], [1], [2], [3, 4]])
    ]
    pairs = [(g, relabelled_graph(g, seed)) for g in graphs for seed in (3, 4)]
    pairs += [(g, relabelled_graph(g, 0)) for g in (transposition_graph(), full_graph(sym5()))]
    for src, dst, psi_map, _ in recorded_c0_calls(monkeypatch, pairs):
        XU_a, XU_b = restricted_matrix(src).colors, restricted_matrix(dst).colors
        swapped = psi_map.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        n_aut = len(iso_mod.automorphism_group(dst.U))
        for psi in (psi_map, np.arange(len(psi_map)), swapped):
            full_want, row_want = psi[XU_a], psi[src.u_row]
            tried = passed = 0
            for f0 in iso_mod._c0_candidates(src.U, dst.U, dst.d_u):
                full = np.array_equal(XU_b[f0[:, None], f0[None, :]], full_want)
                assert np.array_equal(dst.u_row[f0], row_want) == full
                tried += 1
                passed += full
            assert tried > 2 * n_aut  # the fallback enumeration ran too
            assert passed or psi is not psi_map  # the true psi has a C_0


def complete_graph(G):
    k = conjugacy_classes(G).k
    return build_central_cayley(G, partition_from_class_merge(G, [[0], list(range(1, k))]))


def even_odd_coset_graph(G):
    soc_set = set(socle(G).elements)
    cc = conjugacy_classes(G)
    even = [i for i, c in enumerate(cc.classes) if i and c[0] in soc_set]
    odd = [i for i, c in enumerate(cc.classes) if i and c[0] not in soc_set]
    return build_central_cayley(G, partition_from_class_merge(G, [[0], even, odd]))


@pytest.mark.parametrize("graph", [complete_graph, full_graph])
def test_aut_membership_rejects_non_permutations(graph):
    res = automorphisms(graph(alt5()))
    f = np.arange(60)
    assert res.aut_membership(f)
    for bad in (-1, 60, 0):  # a wrapped index, one past the domain, a repeated image
        f[59] = bad
        assert not res.aut_membership(f)
    with pytest.raises(InvalidInputError):
        res.aut_membership(np.arange(59))


@pytest.mark.parametrize("group", [pgl27, alt6, sym6])
def test_aut_of_large_complete_graphs_is_the_symmetric_group(group):
    G = group()
    n = G.order
    res = automorphisms(complete_graph(G))
    assert res.verdict == "isomorphic"
    assert res.aut_order == math.factorial(n)
    f = np.random.default_rng(n).permutation(n)
    assert res.aut_membership(f)
    f[1] = f[0]
    assert not res.aut_membership(f)


def test_aut_of_the_pgl27_coset_graph_is_a_wreath_product():
    G = pgl27()
    res = automorphisms(even_odd_coset_graph(G))
    assert res.aut_order == 2 * math.factorial(168) ** 2
    soc = np.asarray(socle(G).elements)
    outside = np.setdiff1d(np.arange(336), soc)
    rng = np.random.default_rng(7)
    f = np.arange(336)
    f[soc] = rng.permutation(soc)
    f[outside] = rng.permutation(outside)
    assert res.aut_membership(f)
    f[soc[0]], f[outside[0]] = f[outside[0]], f[soc[0]]  # mixes the two cosets on one point pair
    assert not res.aut_membership(f)


# -- the structural D_U and its closed-form kernel against their chains -----------------


def inner_cosets(rec):
    """The L-cosets inside U, as lists of positions of U."""
    cls = rec.sec.l_class_of[rec.blocks[0]]
    return [np.flatnonzero(cls == c).tolist() for c in np.unique(cls)]


def chain_kernel(rec):
    """The kernel of D_U on the L-cosets inside U, the way Aut took it before
    the closed form: Schreier generators of D_U's chain on the coset action."""
    from cencay.perm import block_action_with_kernel

    return block_action_with_kernel(d2_chain(rec.d_u), inner_cosets(rec)).kernel


def assert_same_members(new, old, strays, rng):
    """Equal orders, and membership agrees both ways on random products of
    either side's generators and on the stray permutations."""
    from cencay.perm import compose

    assert new.order == old.order
    for gens in (new.generators, old.generators):
        assert gens
        for _ in range(4):
            f = np.arange(new.degree, dtype=np.int32)
            for _ in range(6):
                f = compose(f, gens[int(rng.integers(len(gens)))])
            assert f in new and f in old
    for f in strays:
        assert (f in new) == (f in old)


def d_u_strays(rec, rng):
    """D_U's generators and random products (some move L-cosets), each also
    with two points swapped, and random permutations of U."""
    from cencay.perm import compose

    d_u, b = rec.d_u, rec.U.order
    gens = d_u.generators
    strays = list(gens) + [rng.permutation(b).astype(np.int32) for _ in range(3)]
    for _ in range(6):
        f = np.arange(b, dtype=np.int32)
        for _ in range(5):
            f = compose(f, gens[int(rng.integers(len(gens)))])
        strays.append(f)
        g = f.copy()
        g[[1, 2]] = g[[2, 1]]
        strays.append(g)
    return strays


def kernel_cases():
    """The full colouring of every builtin group, then every 8th S5 colouring
    (26 of 203; U is S5 on some and A5 on others)."""
    from cencay.fixtures import BUILTIN_NAMES, builtin_group

    S5 = sym5()
    full = [full_graph(builtin_group(name)) for name in BUILTIN_NAMES if name != "trivial"]
    return [(False, gam) for gam in full] + [
        (True, build_central_cayley(S5, partition_from_class_merge(S5, [[0]] + merge)))
        for merge in list(set_partitions([1, 2, 3, 4, 5, 6]))[::8]
    ]


def test_closed_form_kernel_and_d_u_match_their_chains():
    rng = np.random.default_rng(21)
    checked = 0
    for is_s5, gam in kernel_cases():
        rec = analyze(gam)
        if rec.sec.kind != "normal":
            continue
        assert rec.sec.m == 2 or not is_s5
        kernel = rec.d_u.coset_kernel(rec.sec.l_class_of[rec.blocks[0]])
        strays = d_u_strays(rec, rng)
        assert_same_members(rec.d_u, d2_chain(rec.d_u), strays, rng)
        assert_same_members(kernel, chain_kernel(rec), strays, rng)
        if len(inner_cosets(rec)) > 1:
            # a generator of D_U moves a coset, so the kernel is proper here
            assert kernel.order < rec.d_u.order
            assert any(f in rec.d_u and f not in kernel for f in strays)
        checked += 1
    assert checked == 6 + 26


def test_d_u_and_kernel_generators_are_the_chain_reductions():
    for _, gam in kernel_cases()[:6]:  # the full colouring of every builtin group
        rec = analyze(gam)
        assert rec.sec.kind == "normal"
        for K in (rec.d_u, rec.d_u.coset_kernel(rec.sec.l_class_of[rec.blocks[0]])):
            assert [g.tobytes() for g in K.generators] == [
                g.tobytes() for g in chain_d2_generators(K)
            ]


def test_normal_aut_builds_chains_only_for_the_recount_and_the_quotient(monkeypatch):
    # D_U and its coset kernel take their generators from the closure, and
    # the order certificate reads the generators' shape instead of a
    # recount, so the only groups built are the degree-m quotient
    # reduction; on S5 with U = L = A5 none has degree |U| = 60, and none
    # has degree n = 120
    degrees = counted_degrees(monkeypatch)
    for gam, u_order in ((a5_coset_graph(), 60), (transposition_graph(), 120)):
        rec = analyze(gam)
        assert (rec.sec.kind, rec.sec.U.order, rec.sec.m) == ("normal", u_order, 2)
        degrees.clear()
        res = rec.aut
        assert set(degrees) == {2}
        assert res.certify(res.aut_generators) == res.aut_order
    assert res.aut_order == 28_800  # the transposition graph's order, certified


def counted_degrees(monkeypatch) -> list[int]:
    """The degree of every ``PermutationGroup`` built from here on."""
    degrees = []
    init = PermutationGroup.__init__

    def counted_init(self, generators, degree, *args, **kwargs):
        degrees.append(int(degree))
        init(self, generators, degree, *args, **kwargs)

    monkeypatch.setattr(PermutationGroup, "__init__", counted_init)
    return degrees


def test_a_decision_that_emits_its_report_builds_one_chain(monkeypatch, tmp_path):
    # the decision's certificate goes with its result, so neither the
    # decision nor its report builds a chain of degree n; the one chain is
    # the recount of the same result without its certificate
    gam = transposition_graph()
    others = {"positive": relabelled_graph(gam, 1), "negative": coset_graph()}
    degrees = counted_degrees(monkeypatch)
    for kind in ("aut", "positive", "negative"):
        degrees.clear()
        res = automorphisms(gam) if kind == "aut" else iso_test(gam, others[kind])
        assert res.isomorphic == (kind != "negative")
        payload = emit_report(res, tmp_path / f"{kind}.json", n=120, m=2, section_kind="normal")
        assert 120 not in degrees
        assert (payload["aut_order"], payload["order_verification"]) == ("28800", "certificate")
        # the payload of a recount from scratch differs in its label only
        fresh = dataclasses.replace(res, certify=None)
        recounted = report_to_dict(fresh, n=120, m=2, section_kind="normal")
        assert recounted == dict(payload, order_verification="chain")
        assert degrees.count(120) == 1
        assert json.loads((tmp_path / f"{kind}.json").read_text()) == payload
        # a wrong claimed order is caught by the certificate
        with pytest.raises(InternalError):
            verify_emitted_order(dataclasses.replace(res, aut_order=28801), 120)
        assert degrees.count(120) == 1


def test_generators_other_than_the_recounted_ones_are_recounted(monkeypatch):
    # the certificate runs on the generators as they are emitted: a change
    # is certified again (an extra generator, another dtype) or rejected (a
    # structural generator missing, another degree, an overwritten array);
    # a result without a certificate is recounted by a chain from scratch
    gam = transposition_graph()
    res = automorphisms(gam)
    gens = res.aut_generators
    degrees = counted_degrees(monkeypatch)
    for changed in (gens + [gens[0].copy()], [g.astype(np.int64) for g in gens]):
        other = dataclasses.replace(res, aut_generators=changed)
        assert other.certify(changed) == 28800
        assert verify_emitted_order(other, 120) == "certificate"
    dropped = dataclasses.replace(res, aut_generators=gens[:-1])
    for check in (_self_verify, lambda r: verify_emitted_order(r, 120)):
        with pytest.raises(InternalError, match="structural generator"):
            check(dropped)
    with pytest.raises(InternalError, match="degree 60"):
        verify_emitted_order(res, 60)
    assert degrees == []
    loaded = result_from_dict(result_to_dict(res))
    by_hand = IsoResult(res.verdict, res.representative, gens, res.aut_order, 5)
    for other in (loaded, by_hand):
        assert other.certify is None
        degrees.clear()
        assert verify_emitted_order(other, 120) == "chain"
        assert degrees == [120]
    # overwritten in place after the decision: the certificate holds what
    # it certified, not the arrays, and finds it missing
    for g in gens:
        g[:] = np.arange(120)
    degrees.clear()
    for check in (_self_verify, lambda r: verify_emitted_order(r, 120)):
        with pytest.raises(InternalError, match="structural generator"):
            check(res)
    assert degrees == []


RECOUNT_CASES = {
    "alt5": lambda: full_graph(alt5()),
    "sym5": lambda: full_graph(sym5()),
    "psl27": lambda: full_graph(psl27()),
    "pgl27": lambda: full_graph(pgl27()),
    "alt6": lambda: full_graph(alt6()),
    "transpositions": transposition_graph,
    "cosets": coset_graph,
}


@pytest.mark.parametrize("name", list(RECOUNT_CASES))
def test_kept_recount_is_the_order_of_a_chain_without_target(name):
    # the certified order against independent counts of the same generators
    gam = RECOUNT_CASES[name]()
    res = automorphisms(gam)
    n, gens = gam.group.order, res.aut_generators
    assert res.certify(gens) == res.aut_order
    assert verify_emitted_order(res, n) == "certificate"
    if name == "cosets":
        # |Aut| = 2 * (60!)^2: without its certificate the report takes the
        # known-order path; test_cross_checks recounts this order with sympy
        # (a chain without target takes over a minute here)
        assert res.aut_order > CHAIN_RECOUNT_LIMIT
        uncertified = dataclasses.replace(res, certify=None)
        assert verify_emitted_order(uncertified, n) == "chain-lower-bound"
        return
    assert res.aut_order == PermutationGroup(gens, n).order
    if SymGroup is not None:
        perms = [SymPerm([int(x) for x in g], size=n) for g in gens]
        assert SymGroup(perms).order() == res.aut_order


def test_self_verification_rejects_a_tampered_s5_result():
    gam = full_graph(sym5())
    res = automorphisms(gam)
    order, gens = res.aut_order, res.aut_generators
    assert order == 28_800  # the order the certificate proved

    # a claim below the certified order (a known-order chain alone would
    # accept it), and one above it
    assert PermutationGroup(gens, 120, known_order=order // 2).order == order // 2
    for claim in (order // 2, 2 * order):
        with pytest.raises(InternalError, match="certified order"):
            _self_verify(dataclasses.replace(res, aut_order=claim))

    # an upper side raised to twice the order: the generators' shape still
    # bounds the order from below by the true order, so the sides do not meet
    rec = analyze(gam)
    rec.cid.order *= 2
    with pytest.raises(InternalError, match="majorant's bound"):
        rec.aut

    # a generator outside C_id: an automorphism of the coarser coset graph,
    # which the majorant rejects before any color is read; the known-order
    # chain alone would accept it
    stray = automorphisms(coset_graph()).aut_generators[0]
    assert not res.aut_membership(stray)
    assert PermutationGroup(gens + [stray], 120, known_order=order).order == order
    with pytest.raises(InternalError, match="escapes the majorant"):
        _self_verify(dataclasses.replace(res, aut_generators=gens + [stray]))


def _tampered(kind, rec):
    """Aut's kernel generators and top preimages, with one kernel generator
    changed as ``kind`` says."""
    gens, k = rec.aut.aut_generators, 2 * len(rec.blocks)  # a cycle and a swap per block
    kernel, top = [g.copy() for g in gens[:k]], gens[k:]
    if kind == "dropped_swap":
        del kernel[1]
    elif kind == "shorter_cycle":
        blk = rec.blocks[0][:-1]
        kernel[0] = np.arange(len(kernel[0]), dtype=np.int32)
        kernel[0][blk] = blk[1:] + blk[:1]
    elif kind == "two_blocks":  # the swaps of blocks 0 and 1 at once
        kernel[1] = kernel[1][kernel[3]]
    return kernel, top


@pytest.mark.parametrize("kind", ["dropped_swap", "shorter_cycle", "two_blocks"])
def test_certificate_rejects_a_tampered_symmetric_block(kind):
    # on the S5 coset graph (symmetric type, two blocks of 60) the kernel
    # generators are a 60-cycle and an adjacent swap per block; every
    # tampered generator keeps the arc colors and lies in C_id, so only the
    # structure rejects it
    rec = analyze(coset_graph())
    assert rec.sec.kind == "symmetric" and len(rec.blocks) == 2
    kernel, top = _tampered(kind, rec)
    assert all(rec.aut.aut_membership(g) for g in kernel)
    tampered = dataclasses.replace(rec.aut, aut_generators=kernel + top)
    for check in (_self_verify, lambda r: verify_emitted_order(r, 120)):
        with pytest.raises(InternalError, match="structural generator"):
            check(tampered)
    # the shape check itself: these kernel generators prove no lower bound
    with pytest.raises(InternalError, match="block copies"):
        rec._structural_order(kernel, top, rec.d_u)


def test_certificate_rejects_a_doubled_claim_and_another_degree():
    res = automorphisms(coset_graph())
    assert res.aut_order == 2 * math.factorial(60) ** 2
    doubled = dataclasses.replace(res, aut_order=2 * res.aut_order)
    with pytest.raises(InternalError, match="certified order"):
        _self_verify(doubled)
    with pytest.raises(InternalError, match="uncertified order"):
        verify_emitted_order(doubled, 120)
    for degree in (60, 240):
        with pytest.raises(InternalError, match=f"degree {degree}"):
            verify_emitted_order(res, degree)
    assert verify_emitted_order(res, 120) == "certificate"


def test_normal_kernel_shape_is_checked():
    # normal type with U = L = A5 in S5, two blocks: kernel generators that
    # are dropped, swapped between the blocks or span both prove no bound
    rec = analyze(a5_coset_graph())
    kernel = rec.d_u.coset_kernel(rec.sec.l_class_of[rec.blocks[0]])
    half = len(kernel.generators)
    k, gens = 2 * half, rec.aut.aut_generators
    assert (rec.sec.kind, len(rec.blocks)) == ("normal", 2)
    assert rec._structural_order(gens[:k], gens[k:], kernel) == rec.aut.aut_order
    spanning = [gens[0][gens[half]]] + gens[1:k]
    for bad in (gens[1:k], gens[half:k] + gens[:half], spanning):
        with pytest.raises(InternalError, match="block copies"):
            rec._structural_order(bad, gens[k:], kernel)


@pytest.mark.parametrize("group", [alt5, sym5, psl27])
def test_self_verification_completes_no_chain(group, monkeypatch):
    # the certificate reads the order off the generators' shape, so no
    # Schreier-Sims pass runs while verifying, and no chain of degree n is
    # built at all
    import cencay.iso as iso_mod

    verifying, completions = [False], [0]
    verify, complete = iso_mod._self_verify, PermutationGroup._complete

    def counted_verify(*args):
        verifying[0] = True
        try:
            verify(*args)
        finally:
            verifying[0] = False

    def counted_complete(self, *args):
        completions[0] += verifying[0]
        return complete(self, *args)

    monkeypatch.setattr(iso_mod, "_self_verify", counted_verify)
    monkeypatch.setattr(PermutationGroup, "_complete", counted_complete)
    degrees = counted_degrees(monkeypatch)
    gam = full_graph(group())
    res = automorphisms(gam)
    assert res.certify(res.aut_generators) == res.aut_order
    assert completions == [0]
    assert gam.group.order not in degrees


def test_complete_a6_graph_and_its_report_build_no_chain_of_degree_n(monkeypatch, tmp_path):
    degrees = counted_degrees(monkeypatch)
    res = automorphisms(complete_graph(alt6()))
    payload = emit_report(res, tmp_path / "a6.json", n=360)
    assert payload["aut_order"] == str(math.factorial(360))
    assert payload["order_verification"] == "certificate"
    assert 360 not in degrees


def test_aut_generators_span_the_group_of_the_chain_kernel():
    # Aut's generators from the closed-form kernel span the group that the
    # chain kernel's generators (plus the same quotient preimages) spanned
    from cencay.perm import conj_into_block

    for gam in (full_graph(alt5()), full_graph(sym5()), transposition_graph(), coset_graph()):
        rec = analyze(gam)
        res = rec.aut
        n, kernel = gam.group.order, rec.d_u
        if rec.sec.kind == "normal":
            kernel = rec.d_u.coset_kernel(rec.sec.l_class_of[rec.blocks[0]])
            old = chain_kernel(rec)
        else:
            old = kernel
        n_kernel = len(rec.blocks) * len(kernel.generators)
        old_gens = [conj_into_block(g, blk, n) for blk in rec.blocks for g in old.generators]
        old_gens += res.aut_generators[n_kernel:]
        if res.aut_order <= 10**8:
            assert same_group(res.aut_generators, res.aut_order, old_gens, res.aut_order, n)
        else:
            assert all(res.aut_membership(g) for g in old_gens)


def test_aut_and_iso_test_build_no_block_action_kernel(monkeypatch):
    import cencay.iso as iso_mod
    import cencay.perm as perm_mod

    calls = [
        count_calls(monkeypatch, module, "block_action_with_kernel")
        for module in (iso_mod, perm_mod)
    ]
    gam = full_graph(sym5())
    assert automorphisms(gam).aut_order == 28_800
    assert iso_test(gam, relabelled_graph(gam, 1)).isomorphic
    assert calls == [[0], [0]]


def test_steps_build_no_nxn_scheme_matrix(monkeypatch):
    # the arc colors, built here up front for the certificates, are the only
    # n x n matrix: steps 1-3 work on closure rows
    import cencay.cayley as cayley_mod
    import cencay.coherent as coherent_mod
    import cencay.iso as iso_mod
    from cencay.coherent import AlgebraicIso, CoherentConfiguration

    pairs = [(full_graph(G), relabelled_graph(full_graph(G), 1)) for G in (sym5(), psl27())]
    for pair in pairs:
        for gam in pair:
            assert gam.arc_colors.shape == (gam.group.order,) * 2
    targets = [
        (cayley_mod, "cayley_matrix"),
        (coherent_mod, "restriction"),
        (AlgebraicIso, "verify"),
        (CoherentConfiguration, "verify_light"),
    ]
    targets += [(iso_mod, name) for name in ("cayley_matrix", "restriction")
                if hasattr(iso_mod, name)]
    calls = [count_calls(monkeypatch, module, name) for module, name in targets]
    for a, b in pairs:
        assert automorphisms(a).aut_order == automorphisms(b).aut_order
        assert iso_test(a, b).isomorphic
    assert [c[0] for c in calls] == [0] * len(calls)


def test_c_id_keeps_a_structural_inner_group():
    from cencay.perm import D2Subgroup, SymmetricGroup

    for gam, inner_type in (
        (transposition_graph(), D2Subgroup),
        (full_graph(sym5()), D2Subgroup),
        (coset_graph(), SymmetricGroup),
        (complete_graph(alt5()), SymmetricGroup),
    ):
        assert type(analyze(gam).cid.inner) is inner_type
