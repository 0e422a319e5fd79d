import math

import numpy as np
import pytest

from cencay.cayley import build_central_cayley, partition_from_class_merge
from cencay.errors import InvalidInputError
from cencay.group import ClassPartition, FiniteGroup, conjugacy_classes, element_orders, socle
from cencay.iso import (
    IsoResult,
    QuotientGraph,
    analyze,
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
from .fixture_groups import (
    alt5,
    alt6,
    cyclic,
    d2_chain,
    pair_matrices,
    pgl27,
    restricted_matrix,
    set_partitions,
    sym5,
    sym6,
)


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


def same_group(gens_a, order_a, gens_b, order_b, degree):
    """<gens_a> == <gens_b>: equal orders and membership in both directions."""
    chain_a = PermutationGroup(gens_a, degree, known_order=order_a)
    chain_b = PermutationGroup(gens_b, degree, known_order=order_b)
    return (
        order_a == order_b
        and all(g in chain_b for g in gens_a)
        and all(g in chain_a for g in gens_b)
    )


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
        assert same_group(record.aut_generators, record.aut_order,
                          oracle.aut_generators, oracle.aut_order, n)


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


# -- C0: the cheap candidates against the full enumeration ----------------------------


def c0_by_enumeration(src, dst, psi_map):
    """The regular-subgroup enumeration alone, as C0 ran before the cheap
    candidates: the first f0 over every regular subgroup of D_{U'}
    isomorphic to U that passes the colour check and conjugates D_U onto
    D_{U'}."""
    from cencay.group import group_isomorphisms
    from cencay.iso import _abstract_group_of_regular
    from cencay.perm import inverse_perm, regular_subgroups

    d_u, d_u2 = src.d_u, dst.d_u
    want, colors_b = psi_map[restricted_matrix(src).colors], restricted_matrix(dst).colors
    for V in regular_subgroups(d_u2, src.U):
        beta0, auts = group_isomorphisms(src.U, _abstract_group_of_regular(V))
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

    from .fixture_groups import psl27

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
    from cencay.cayley import CayleyScheme
    from cencay.coherent import AlgebraicIso, CoherentConfiguration

    from .fixture_groups import psl27

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
    base_calls = [0]
    base = CayleyScheme.__dict__["base"].func

    def counted_base(self):
        base_calls[0] += 1
        return base(self)

    monkeypatch.setattr(CayleyScheme, "base", property(counted_base))
    for a, b in pairs:
        assert automorphisms(a).aut_order == automorphisms(b).aut_order
        assert iso_test(a, b).isomorphic
    assert [c[0] for c in calls] + base_calls == [0] * (len(calls) + 1)


def test_c_id_keeps_a_structural_inner_group():
    from cencay.perm import D2Subgroup, SymmetricGroup

    for gam, inner_type in (
        (transposition_graph(), D2Subgroup),
        (full_graph(sym5()), D2Subgroup),
        (coset_graph(), SymmetricGroup),
        (complete_graph(alt5()), SymmetricGroup),
    ):
        assert type(analyze(gam).cid.inner) is inner_type
