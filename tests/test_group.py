import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cencay.errors import CapExceededError, InvalidInputError
from cencay.fixtures import BUILTIN_NAMES, builtin_group
from cencay.group import (
    FiniteGroup,
    Subgroup,
    _conjugation,
    _isomorphisms_mod_inner,
    automorphism_group,
    closure,
    conjugacy_classes,
    element_orders,
    greedy_generators,
    group_from_generators,
    group_isomorphisms,
    is_almost_simple,
    is_central,
    socle,
    subgroups_over_socle,
)
from .fixture_groups import (
    alt5,
    alt6,
    c2_x_alt5,
    closure_by_bfs,
    coset_class_array,
    conjugacy_classes_by_orbits,
    cyclic,
    element_order_by_powers,
    generators_by_copy,
    greedy_generators_by_bfs,
    is_almost_simple_by_closures,
    is_almost_simple_by_copy,
    is_central_by_generators,
    isomorphisms_all,
    normal_closure,
    pgl27,
    psl27,
    right_cosets,
    set_partitions,
    socle_by_closures,
    sym5,
)


def test_closure_orders():
    assert alt5().order == 60
    assert sym5().order == 120
    assert group_from_generators([], degree=1).order == 1


def test_closure_cap(monkeypatch):
    import cencay.group as group_mod

    monkeypatch.setattr(group_mod, "CLOSURE_CAP", 50)
    with pytest.raises(CapExceededError):
        group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])


def test_closure_rejects_non_permutation():
    with pytest.raises(InvalidInputError):
        group_from_generators([(0, 0, 1)])


def test_identity_is_index_zero():
    G = sym5()
    n = G.order
    assert list(G.table[0]) == list(range(n))
    assert list(G.table[:, 0]) == list(range(n))


def test_conjugacy_classes_sym5():
    # brute-force conjugation orbits; sizes are the S5 cycle-type counts
    cc = conjugacy_classes(sym5())
    assert cc.size_multiset() == (1, 10, 15, 20, 20, 24, 30)
    assert cc.classes[0] == (0,)


def test_conjugacy_classes_alt5():
    cc = conjugacy_classes(alt5())
    assert cc.size_multiset() == (1, 12, 12, 15, 20)


def test_conjugacy_classes_trivial():
    cc = conjugacy_classes(group_from_generators([], degree=1))
    assert cc.k == 1


def test_classes_closed_under_conjugation_and_inversion_sizes():
    G = sym5()
    cc = conjugacy_classes(G)
    for cls in cc.classes:
        mem = set(cls)
        assert all(G.conj(x, g) in mem for x in cls for g in range(0, G.order, 7))
        inv_cls = {int(G.inverse[x]) for x in cls}
        assert len(inv_cls) == len(cls)


def test_socle_sym5_is_even_subgroup():
    G = sym5()
    s = socle(G)
    assert s.order == 60
    # the even permutations are exactly the squares' closure
    squares = closure(G, (int(G.table[x, x]) for x in range(G.order)))
    assert s.elements == squares
    assert s.is_normal


def test_socle_alt5_is_itself():
    G = alt5()
    assert socle(G).order == 60


def test_almost_simple_flags():
    assert is_almost_simple(sym5())
    assert is_almost_simple(alt5())
    assert not is_almost_simple(c2_x_alt5())
    assert not is_almost_simple(cyclic(6))


def alt5_x_alt5() -> FiniteGroup:
    """A5 x A5 (n = 3600), the product of A5's table with itself, so valid
    without a check: its socle is the whole group, nonabelian, not simple."""
    a, n = alt5().table, 60
    return FiniteGroup((a[:, None, :, None] * n + a[None, :, None, :]).reshape(n * n, n * n),
                       check=False)


ALMOST_SIMPLE_CASES = {name: lambda name=name: builtin_group(name) for name in BUILTIN_NAMES}
ALMOST_SIMPLE_CASES.update({
    "c2_x_alt5": c2_x_alt5,
    "cyclic6": lambda: cyclic(6),
    "sym4": lambda: group_from_generators([(1, 2, 3, 0), (1, 0, 2, 3)]),
    "alt4": lambda: group_from_generators([(1, 2, 0, 3), (0, 2, 3, 1)]),
    "alt5_x_alt5": alt5_x_alt5,
})


@pytest.mark.parametrize("build", ALMOST_SIMPLE_CASES.values(), ids=list(ALMOST_SIMPLE_CASES))
def test_almost_simplicity_agrees_with_the_socle_copy_oracle(build):
    G = build()
    fresh = FiniteGroup(G.table, check=False)  # nothing memoized yet
    assert is_almost_simple(fresh) == is_almost_simple_by_copy(G)


def test_subgroups_over_socle_sym5():
    G = sym5()
    subs = subgroups_over_socle(G, require_normal=False)
    assert [h.order for h in subs] == [60, 120]
    subs_n = subgroups_over_socle(G, require_normal=True)
    assert [h.order for h in subs_n] == [60, 120]


def test_subgroups_over_socle_alt5():
    subs = subgroups_over_socle(alt5(), require_normal=False)
    assert [h.order for h in subs] == [60]


def test_automorphism_group_counts():
    assert len(automorphism_group(alt5())) == 120
    assert len(automorphism_group(sym5())) == 120
    assert len(automorphism_group(group_from_generators([], degree=1))) == 1


def test_automorphisms_are_table_maps():
    G = alt5()
    for a in automorphism_group(G)[:10]:
        assert a[0] == 0
        assert np.array_equal(a[G.table], G.table[a[:, None], a[None, :]])


def _is_table_map(a, G, H):
    return a[0] == 0 and np.array_equal(a[G.table], H.table[a[:, None], a[None, :]])


ORACLE_GROUPS = [(name, lambda name=name: builtin_group(name)) for name in BUILTIN_NAMES[:-1]] + [
    ("c2_x_alt5", c2_x_alt5),  # centre of order 2: Inn is a proper quotient
    ("cyclic7", lambda: cyclic(7)),  # Inn trivial
    ("cyclic12", lambda: cyclic(12)),
    ("trivial", lambda: builtin_group("trivial")),
]


@pytest.mark.parametrize("make", [m for _, m in ORACLE_GROUPS], ids=[n for n, _ in ORACLE_GROUPS])
def test_automorphism_group_matches_backtracking_oracle(make):
    G = make()
    auts = automorphism_group(G)
    expect = isomorphisms_all(G, G)
    got = {a.tobytes() for a in auts}
    assert len(got) == len(auts) == len(expect)
    assert got == {a.tobytes() for a in expect}
    assert all(_is_table_map(a, G, G) for a in auts)


@pytest.mark.parametrize("make", [m for _, m in ORACLE_GROUPS], ids=[n for n, _ in ORACLE_GROUPS])
def test_inner_rows_are_the_first_distinct_conjugation_rows(make):
    # the oracle: the first occurrence of each distinct row, by a row sort
    import cencay.group as group_mod

    G = FiniteGroup(make().table)  # a fresh instance: Aut(G) not cached yet
    conj = group_mod._conjugation_table(G)
    _, first = np.unique(conj, axis=0, return_index=True)
    first = np.sort(first)
    centre = np.flatnonzero((conj == np.arange(G.order)).all(axis=1))
    assert len(first) * len(centre) == G.order  # |Inn(G)| = |G| / |Z(G)|
    reps = np.array(group_mod._isomorphisms_mod_inner(G, G))
    expect = conj[first[:, None, None], reps].reshape(-1, G.order)
    # the same maps in the same order: the rows taken are exactly ``first``
    assert np.array_equal(np.array(automorphism_group(G)), expect)


def test_fingerprints_are_computed_once_per_group(monkeypatch):
    import cencay.group as group_mod

    seen, fingerprints = [], group_mod._class_fingerprints

    def counted(K):
        seen.append(K)
        return fingerprints(K)

    monkeypatch.setattr(group_mod, "_class_fingerprints", counted)
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    G = group_from_generators(gens)  # S5, nothing cached yet
    assert len(automorphism_group(G)) == 120
    assert seen == [G]
    H = group_from_generators(gens[::-1])  # another labelling of S5
    automorphism_group(H)
    seen.clear()
    # Aut(H) is cached: the search alone fingerprints each side once
    assert group_isomorphisms(G, H) is not None
    assert len(seen) == 2 and seen[0] is G and seen[1] is H


@pytest.mark.parametrize("name", BUILTIN_NAMES[:-1])
def test_group_isomorphisms_random_relabelling(name, monkeypatch):
    import cencay.group as group_mod

    G = builtin_group(name)
    n = G.order
    p = np.concatenate(([0], 1 + np.random.default_rng(7).permutation(n - 1))).astype(np.int32)
    tab = np.empty_like(G.table)
    tab[p[:, None], p[None, :]] = p[G.table]  # p is an isomorphism G -> H
    H = FiniteGroup(tab)
    tables, conjugation_table = [], group_mod._conjugation_table

    def counted(K):
        tables.append(K)
        return conjugation_table(K)

    monkeypatch.setattr(group_mod, "_conjugation_table", counted)
    res = group_isomorphisms(G, H)
    monkeypatch.undo()
    # Aut(H) is not cached yet: the search's conjugation table serves it too
    assert sum(K is H for K in tables) == 1
    assert res is not None
    beta, auts = res
    assert np.array_equal(np.sort(beta), np.arange(n))
    assert _is_table_map(beta, G, H)
    assert len(auts) == len(automorphism_group(G))
    assert {a.tobytes() for a in auts} == {a.tobytes() for a in automorphism_group(FiniteGroup(tab))}


def test_group_isomorphisms_none_for_same_order_non_isomorphic():
    assert sym5().order == c2_x_alt5().order
    assert group_isomorphisms(sym5(), c2_x_alt5()) is None


def test_group_table_is_copied_not_frozen():
    tab = cyclic(5).table.copy()  # C-contiguous int32: the case that used to freeze
    G = FiniteGroup(tab)
    tab[0, 0] = 4  # the caller's array stays writable
    assert G.table[0, 0] == 0
    assert not G.table.flags.writeable


def test_group_isomorphisms_relabelled_alt5():
    G = alt5()
    # same group, different generator order gives a different element ordering
    H = group_from_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])
    res = group_isomorphisms(G, H)
    assert res is not None
    beta, auts = res
    assert np.array_equal(beta[G.table], H.table[beta[:, None], beta[None, :]])
    assert len(auts) == 120


def test_group_isomorphisms_none_for_cyclic():
    assert group_isomorphisms(alt5(), cyclic(60)) is None


def test_isomorphism_count_equals_aut_order():
    G = sym5()
    res = group_isomorphisms(G, G)
    assert res is not None
    assert len(res[1]) == len(automorphism_group(G))


def test_normal_subgroups_contain_socle_when_almost_simple():
    G = sym5()
    soc = set(socle(G).elements)
    for x in range(1, G.order):
        nc = set(normal_closure(G, x))
        assert soc <= nc


def test_index_of_socle_within_log_bound():
    for G in (alt5(), sym5()):
        assert G.order // socle(G).order <= math.log2(G.order)


def test_greedy_generators_generate():
    for G in (alt5(), sym5(), cyclic(12)):
        gens = greedy_generators(G)
        assert len(closure(G, gens)) == G.order
        assert len(gens) <= 3


def test_subgroup_coset_labels():
    G = sym5()
    soc = socle(G)
    labels = soc.coset_labels()
    assert labels.dtype == np.int32 and labels.shape == (G.order,)
    assert int(labels.max()) == 1
    assert tuple(np.flatnonzero(labels == 0)) == soc.elements


def test_coset_labels_match_the_tuple_cosets():
    # oracle: the cosets walked element by element, then labelled in order
    rng = np.random.default_rng(26)
    cases = {name: builtin_group(name) for name in BUILTIN_NAMES}
    cases["c2_x_alt5"] = c2_x_alt5()
    cases["cyclic12"] = cyclic(12)
    checked = non_normal = 0
    for name, G in cases.items():
        subgroups = [] if G.order == 1 else [
            H.elements for H in subgroups_over_socle(G, require_normal=False)]
        subgroups += [closure(G, [int(x)]) for x in rng.choice(G.order, size=6)]
        subgroups += [(0,), tuple(range(G.order))]
        for elems in subgroups:
            H = Subgroup(G, elems)
            labels = H.coset_labels()
            assert labels.dtype == np.int32, (name, elems)
            assert np.array_equal(labels, coset_class_array(G, right_cosets(H))), (name, elems)
            checked += 1
            non_normal += not H.is_normal
    assert non_normal >= 20 and checked >= 60


@st.composite
def small_perm_group(draw):
    deg = draw(st.integers(min_value=2, max_value=5))
    k = draw(st.integers(min_value=1, max_value=2))
    gens = []
    for _ in range(k):
        p = draw(st.permutations(list(range(deg))))
        gens.append(tuple(p))
    return gens, deg


@settings(max_examples=40, deadline=None)
@given(small_perm_group())
def test_random_closures_are_groups(data):
    gens, deg = data
    G = group_from_generators(gens, degree=deg)
    # validation ran in the constructor; spot the Lagrange property
    cc = conjugacy_classes(G)
    assert sum(len(c) for c in cc.classes) == G.order
    for cls in cc.classes:
        assert G.order % element_orders(G)[cls[0]] == 0


@settings(max_examples=20, deadline=None)
@given(small_perm_group())
def test_random_group_self_isomorphisms(data):
    gens, deg = data
    G = group_from_generators(gens, degree=deg)
    if G.order > 24:
        return
    res = group_isomorphisms(G, G)
    assert res is not None
    assert len(res[1]) == len(automorphism_group(G))


def test_subgroup_does_not_keep_its_parent_alive():
    G = group_from_generators([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
    H = socle(G)
    assert 0 in H and H.is_normal  # fills the membership cache
    parent = weakref.ref(G)
    del G, H
    gc.collect()
    assert parent() is None


def normal_by_definition(H):
    G, members = H.parent, set(H.elements)
    return all(G.conj(x, g) in members for x in H.elements for g in range(G.order))


def test_is_normal_by_generators_matches_definition():
    checked = 0
    for name in BUILTIN_NAMES:
        G = builtin_group(name)
        if not 1 < G.order <= 360:
            continue
        for H in subgroups_over_socle(G, require_normal=False):
            assert H.is_normal == normal_by_definition(H), (name, H.order)
            checked += 1
    assert checked == 7  # alt5, alt6, psl27: the socle; sym5, pgl27: the socle and G
    S5 = builtin_group("sym5")
    H = Subgroup(S5, (0, S5.names.index("(0 1)")))
    assert not H.is_normal and not normal_by_definition(H)


def test_socle_and_almost_simplicity_are_memoised(monkeypatch):
    import cencay.group as group_mod

    calls = {"class_closure": 0}
    original = group_mod.class_closure

    def counted(*args):
        calls["class_closure"] += 1
        return original(*args)

    monkeypatch.setattr(group_mod, "class_closure", counted)
    for gens, simple in (
        ([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], True),  # S5
        ([(1, 0, 2, 3, 4, 5, 6), (0, 1, 3, 4, 5, 6, 2), (0, 1, 3, 4, 2, 5, 6)], False),  # C2 x A5
    ):
        G = group_from_generators(gens)  # a fresh instance: nothing cached yet
        first_soc, first = socle(G), is_almost_simple(G)
        assert calls["class_closure"] > 0
        calls["class_closure"] = 0
        assert socle(G).elements == first_soc.elements
        assert is_almost_simple(G) == first == simple
        assert subgroups_over_socle(G, require_normal=True)
        assert calls["class_closure"] == 0


SOCLE_CASES = dict(ALMOST_SIMPLE_CASES)
SOCLE_CASES.update({
    "c2_x_c2": lambda: group_from_generators([(1, 0, 2, 3), (0, 1, 3, 2)]),
    "sym3_x_sym3": lambda: group_from_generators(  # two minimal normal subgroups, C3 and C3
        [(1, 0, 2, 3, 4, 5), (1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5), (0, 1, 2, 4, 5, 3)]),
})


def assert_socle_matches_the_closures_oracle(G):
    fresh = FiniteGroup(G.table, check=False)  # nothing memoized yet
    if G.order == 1:
        assert not is_almost_simple(fresh)
        return
    assert is_almost_simple(fresh) == is_almost_simple_by_closures(G)
    assert socle(fresh).elements == socle_by_closures(G)
    again = FiniteGroup(G.table, check=False)  # the socle first, then almost simplicity
    assert socle(again).elements == socle_by_closures(G)
    assert is_almost_simple(again) == is_almost_simple(fresh)


@pytest.mark.parametrize("build", SOCLE_CASES.values(), ids=list(SOCLE_CASES))
def test_class_level_socle_matches_the_element_closures(build):
    assert_socle_matches_the_closures_oracle(build())


@settings(max_examples=40, deadline=None)
@given(small_perm_group())
def test_class_level_socle_matches_the_element_closures_on_random_groups(data):
    gens, deg = data
    assert_socle_matches_the_closures_oracle(group_from_generators(gens, degree=deg))


def test_a_simple_group_takes_no_element_closure(monkeypatch):
    import cencay.group as group_mod

    calls = [0]
    original = group_mod.closure

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(group_mod, "closure", counted)
    for make in (alt5, psl27):
        G = FiniteGroup(make().table, check=False)
        conjugacy_classes(G)
        assert is_almost_simple(G) and socle(G).order == G.order
    assert calls == [0]


def test_fingerprints_are_computed_once_per_group_and_search(monkeypatch):
    # the memo serves Aut(H) and every search from H: one computation per group
    import cencay.group as group_mod

    computed, table = [], group_mod._fingerprint_table
    monkeypatch.setattr(group_mod, "_fingerprint_table", lambda K: computed.append(K) or table(K))
    gens = [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]
    H = group_from_generators(gens)  # S5, nothing cached yet
    assert len(automorphism_group(H)) == 120
    targets = [group_from_generators(gens[::-1]), group_from_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])]
    for R in targets + targets:
        assert group_isomorphisms(H, R) is not None
    assert [id(K) for K in computed] == [id(H)] + [id(R) for R in targets]
    monkeypatch.undo()
    fresh = group_from_generators(gens)
    assert H._fingerprints_cache == table(fresh) and type(H._fingerprints_cache) is tuple


def test_subgroups_over_socle_are_memoised(monkeypatch):
    import cencay.group as group_mod

    calls = [0]
    original = group_mod.closure

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(group_mod, "closure", counted)
    G = group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])  # S5, nothing cached yet
    every = subgroups_over_socle(G, require_normal=False)
    assert calls[0] >= 1
    calls[0] = 0
    normal = subgroups_over_socle(G, require_normal=True)
    assert calls == [0]
    assert [H.order for H in every] == [60, 120]
    assert [H.elements for H in normal] == [H.elements for H in every if normal_by_definition(H)]
    assert all(H.is_normal == normal_by_definition(H) for H in every)
    # the memo holds element tuples only, so it keeps no Subgroup alive
    assert all(type(elems) is tuple for elems, _ in G._over_socle_cache)
    parent = weakref.ref(G)
    del G, every, normal
    gc.collect()
    assert parent() is None


def assert_primitives_match_oracles(G, seeds):
    assert conjugacy_classes(G) == conjugacy_classes_by_orbits(G)
    assert element_orders(G).tolist() == [element_order_by_powers(G, x) for x in range(G.order)]
    assert greedy_generators(G) == greedy_generators_by_bfs(G)
    for seed in seeds:
        assert closure(G, iter(seed)) == closure_by_bfs(G, seed), seed


def oracle_seeds(G, rng):
    """Empty, single, repeated and out-of-order seeds, a whole class and
    the generators reversed."""
    n, gens = G.order, greedy_generators_by_bfs(G)
    drawn = [rng.integers(0, n, size=k).tolist() for k in (1, 2, 3, 5)]
    cls = conjugacy_classes_by_orbits(G).classes[-1]
    return [[], [0], [n - 1, n - 1, 0], gens[::-1], gens + gens, list(cls)[::-1]] + drawn


@pytest.mark.parametrize("make", [m for _, m in ORACLE_GROUPS], ids=[n for n, _ in ORACLE_GROUPS])
def test_group_primitives_match_the_per_element_oracles(make):
    G = make()
    assert_primitives_match_oracles(G, oracle_seeds(G, np.random.default_rng(G.order)))


@settings(max_examples=40, deadline=None)
@given(small_perm_group(), st.lists(st.integers(0, 10**6), max_size=6))
def test_group_primitives_match_the_oracles_on_random_groups(data, raw_seed):
    gens, deg = data
    G = group_from_generators(gens, degree=deg)
    seed = [s % G.order for s in raw_seed]
    assert_primitives_match_oracles(G, [seed, seed[::-1], seed + seed])


def test_classes_generators_and_centrality_are_memoised(monkeypatch):
    import cencay.group as group_mod

    calls = {"conj": 0, "closure": 0}
    conj, clos = group_mod._conjugation_table, group_mod.closure

    def counted_conj(*args):
        calls["conj"] += 1
        return conj(*args)

    def counted_closure(*args):
        calls["closure"] += 1
        return clos(*args)

    monkeypatch.setattr(group_mod, "_conjugation_table", counted_conj)
    monkeypatch.setattr(group_mod, "closure", counted_closure)
    G = group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])  # S5, nothing cached yet
    row = np.zeros(G.order, dtype=np.int32)
    classes, gens, central = conjugacy_classes(G), greedy_generators(G), is_central(G, row)
    assert calls["conj"] > 0 and calls["closure"] > 0
    calls.update(conj=0, closure=0)
    assert conjugacy_classes(G) == classes
    assert greedy_generators(G) == gens
    assert is_central(G, row) == central
    assert Subgroup(G, tuple(range(G.order))).generators() == gens  # the whole group's
    # the whole group as a standalone copy: the same table, and G's memos
    H, elems = Subgroup(G, tuple(range(G.order))).as_group()
    assert H is not G and elems == list(range(G.order)) and np.array_equal(H.table, G.table)
    assert conjugacy_classes(H) == classes and greedy_generators(H) == gens
    assert calls == {"conj": 0, "closure": 0}
    # a caller's change to a handed-out list does not reach the memo
    gens.append(7)
    greedy_generators(G).clear()
    assert greedy_generators(G) == gens[:-1] == greedy_generators_by_bfs(G)
    # the memos hold plain tuples, so they keep no Subgroup and make no
    # cycle: the group goes with its last reference, before any collection
    assert type(G._classes_cache) is tuple and type(G._generators_cache) is tuple
    parent = weakref.ref(G)
    del G, classes
    assert parent() is None


def test_as_group_relabels_a_proper_subgroup():
    G = group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])  # S5, nothing cached yet
    conjugacy_classes(G), greedy_generators(G)
    A, elems = socle(G).as_group()
    assert np.array_equal(np.asarray(elems)[A.table], G.table[np.ix_(elems, elems)])
    # only the whole group's copy takes over the parent's memos
    assert A._classes_cache is None and A._generators_cache is None
    with pytest.raises(InvalidInputError, match="not closed"):
        Subgroup(G, (0, 1)).as_group()


def test_subgroup_generators_on_the_parent_equal_the_copy_route():
    # the greedy search over H's elements inside G picks what the search on
    # H's standalone copy picks: closures agree and the relabel is monotone
    rng = np.random.default_rng(27)
    groups = [builtin_group(nm) for nm in BUILTIN_NAMES if nm != "trivial"]
    checked = 0
    for G in groups + [c2_x_alt5(), cyclic(12)]:
        subs = subgroups_over_socle(G, False) if is_almost_simple(G) else []
        subs.append(Subgroup(G, (0,)))
        for x, y in rng.integers(1, G.order, size=(4, 2)).tolist():
            subs += [Subgroup(G, closure(G, [x])), Subgroup(G, closure(G, [x, y]))]
        for H in subs:
            if H.order < G.order:  # the whole group's are the parent's memo
                assert H.generators() == generators_by_copy(H)
                checked += 1
    assert checked > 40


def test_inner_automorphisms_keyed_by_generator_images_match_the_rows():
    # an automorphism is fixed by its images of the greedy generators, so
    # the images key the inner automorphisms as the whole rows do
    # (the search's test), and the search keeps one map per Inn-coset by
    # rows; on D8 x S3 it completes 12 maps and the test rejects 8 of them
    d8_x_s3 = group_from_generators([(1, 2, 3, 0, 4, 5, 6), (3, 2, 1, 0, 4, 5, 6),
                                     (0, 1, 2, 3, 5, 6, 4), (0, 1, 2, 3, 5, 4, 6)])
    assert len(automorphism_group(d8_x_s3)) == len(isomorphisms_all(d8_x_s3, d8_x_s3))
    outer_seen = False
    for G in [builtin_group(name) for name in BUILTIN_NAMES if name != "trivial"] + [d8_x_s3]:
        conj, gens = _conjugation(G), greedy_generators(G)
        by_rows = {row.tobytes() for row in conj}
        by_images = {row.tobytes() for row in conj[:, gens]}
        assert len(by_rows) == len(by_images)
        for alpha in automorphism_group(G):
            inner = alpha.tobytes() in by_rows
            assert inner == (alpha[gens].tobytes() in by_images)
            outer_seen |= not inner
        reps = _isomorphisms_mod_inner(G, G)
        assert len(reps) * len(by_rows) == len(automorphism_group(G))
        for i, t in enumerate(reps):
            assert not any(m[np.argsort(t)].tobytes() in by_rows for m in reps[i + 1:])
    assert outer_seen


def test_the_aut_memo_is_read_only():
    G = group_from_generators([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)])  # A5, nothing cached yet
    auts = automorphism_group(G)
    before = np.array(auts)
    assert len(auts) == 120
    with pytest.raises(ValueError):
        auts[1][1] = auts[1][2]
    assert np.array_equal(np.array(automorphism_group(G)), before)


def test_one_conjugation_table_per_group(monkeypatch):
    # automorphism_group builds the table, and the class fingerprints it
    # needs take the conjugacy classes from that same table
    import cencay.group as group_mod

    calls = [0]
    conj = group_mod._conjugation_table

    def counted_conj(G):
        calls[0] += 1
        return conj(G)

    monkeypatch.setattr(group_mod, "_conjugation_table", counted_conj)
    U = group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])  # S5, nothing cached yet
    assert len(group_mod.automorphism_group(U)) == 120
    classes = conjugacy_classes(U).classes  # memoised from that table
    assert calls == [1]
    monkeypatch.undo()
    fresh = group_from_generators([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)])
    assert classes == conjugacy_classes(fresh).classes


def test_the_int32_conjugation_index_matches_the_intp_one():
    import cencay.group as group_mod

    A6 = FiniteGroup(alt6().table)
    flat = A6.table[A6.inverse].astype(np.intp) * A6.order + np.arange(A6.order)[:, None]
    conj = group_mod._conjugation_table(A6)
    assert conj.dtype == np.int32 and np.array_equal(conj, np.take(A6.table, flat))


def associative_by_triples(tab):
    """The n^3 definition: (a*b)*c == a*(b*c) for all a, b, c."""
    return all(np.array_equal(tab[tab[a]], tab[a][tab]) for a in range(len(tab)))


def intercalate_swapped(n, a, c):
    """The cyclic table of order n (n even) with the 2x2 subsquare at rows
    a, a + n/2 and columns c, c + n/2 swapped: still a Latin square with a
    two-sided identity and inverses."""
    idx = np.arange(n)
    tab = (idx[:, None] + idx[None, :]) % n
    rows, cols = [a, a, a + n // 2, a + n // 2], [c, c + n // 2, c, c + n // 2]
    tab[rows, cols] = tab[rows, cols[::-1]]
    return tab


@pytest.mark.parametrize("n", [8, 12])
def test_associativity_check_matches_the_triple_definition(n):
    for a, c in itertools.product(range(1, n // 2), repeat=2):
        if (a + c) % (n // 2):  # a swapped 0 would break the inverse law first
            tab = intercalate_swapped(n, a, c)
            if associative_by_triples(tab):
                FiniteGroup(tab)
            else:
                with pytest.raises(InvalidInputError, match="associativity"):
                    FiniteGroup(tab)
    for G in (alt5(), sym5(), c2_x_alt5(), cyclic(12)):
        assert associative_by_triples(G.table)
        FiniteGroup(G.table.copy())


def test_associativity_is_checked_beyond_the_first_generator():
    # C3 x (a non-associative loop Q of order 8), indexed g + 3q: element 1
    # lies in C3, which associates with everything, so the failure shows
    # only at a later element of the checked set
    Q = intercalate_swapped(8, 1, 2)
    q, g = np.divmod(np.arange(24), 3)
    tab = (g[:, None] + g[None, :]) % 3 + 3 * Q[q[:, None], q[None, :]]
    assert np.array_equal(tab[tab[:, 1]], tab[:, tab[1]])
    assert not associative_by_triples(tab)
    with pytest.raises(InvalidInputError, match="associativity"):
        FiniteGroup(tab)


def test_associativity_is_checked_exactly_above_order_1000():
    # a sample of 10^6 triples accepted this table or not depending on what
    # a shared generator had drawn before; the exact check always rejects it
    tab = intercalate_swapped(4000, 3, 5)
    for _ in range(2):
        with pytest.raises(InvalidInputError, match="associativity"):
            FiniteGroup(tab)


def test_subgroups_over_socle_match_the_subset_closures():
    # oracle: the closure of soc and S for every subset S of the socle's
    # nontrivial right coset representatives
    cases = {name: builtin_group(name) for name in BUILTIN_NAMES if name != "trivial"}
    cases["s4"] = group_from_generators([(1, 2, 3, 0), (1, 0, 2, 3)])
    cases["a4"] = group_from_generators([(1, 2, 0, 3), (0, 2, 3, 1)])
    cases["c2_x_alt5"] = c2_x_alt5()
    for name, G in cases.items():
        soc = socle(G)
        reps = [c[0] for c in right_cosets(soc)[1:]]
        want = {
            closure(G, soc.elements + S)
            for k in range(len(reps) + 1)
            for S in itertools.combinations(reps, k)
        }
        got = subgroups_over_socle(G, require_normal=False)
        assert [H.elements for H in got] == sorted(want, key=lambda h: (len(h), h)), name
        assert all(H.is_normal == normal_by_definition(H) for H in got), name
    s4 = [(H.order, H.is_normal) for H in subgroups_over_socle(cases["s4"], require_normal=False)]
    assert s4 == [(4, True), (8, False), (8, False), (8, False), (12, True), (24, True)]


def test_is_central_agrees_with_conjugation_by_generators():
    from cencay.cayley import partition_from_class_merge

    rng = np.random.default_rng(24)
    for G in (alt5(), psl27(), sym5(), pgl27()):
        cc = conjugacy_classes(G)
        if G.order <= 168:  # every central colouring
            for merge in set_partitions(list(range(1, cc.k))):
                row = partition_from_class_merge(G, [[0]] + merge).class_of_array(G.order)
                assert is_central(G, row) and is_central_by_generators(G, row)
        for _ in range(8):
            # the class row with one element moved to a colour of its own,
            # a random row, and the class row itself
            moved = cc.class_of_array(G.order).copy()
            moved[int(rng.integers(1, G.order))] = cc.k
            noisy = np.concatenate([[0], rng.integers(1, 4, G.order - 1)])
            for row in (moved, noisy, cc.class_of_array(G.order)):
                assert is_central(G, row) == is_central_by_generators(G, row)
        # every subgroup over the socle, normal or not, fresh
        for H in subgroups_over_socle(G, require_normal=False):
            member = np.zeros(G.order, dtype=bool)
            member[list(H.elements)] = True
            fresh = Subgroup(G, H.elements)
            assert fresh.is_normal == is_central_by_generators(G, member) == H.is_normal
