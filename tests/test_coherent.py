import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cencay.coherent import extend_algebraic_iso, restriction, wl_closure
from cencay.errors import InvalidInputError
from cencay.group import conjugacy_classes, element_orders, socle
from cencay.perm import PermutationGroup
from .fixture_groups import alt5, is_boxplus_trivial, orbitals, regular_representations, sym5


def arc_color_matrix(G):
    """Full class coloring: color of (x, y) is the class of y x^-1."""
    cc = conjugacy_classes(G)
    cls_of = cc.class_of_array(G.order)
    x = np.arange(G.order)
    return cls_of[G.table[x[None, :], G.inverse[:, None]]], cc


def test_wl_trivial_seed():
    cc = wl_closure([], 5)
    assert cc.rank == 2
    cc1 = wl_closure([], 1)
    assert cc1.rank == 1


def test_wl_zero_domain_rejected():
    with pytest.raises(InvalidInputError):
        wl_closure([], 0)


def test_wl_s5_class_relations_equals_orbitals():
    G = sym5()
    M, cc = arc_color_matrix(G)
    rels = [(M == i).astype(np.int8) for i in range(cc.k)]
    X = wl_closure(rels, G.order)
    assert X.rank == 7
    reps = regular_representations(G)
    orb = orbitals(PermutationGroup(reps.star_gens, G.order))
    # same partition: color matrices agree up to renumbering
    a = X.colors.ravel()
    b = orb.colors.ravel()
    pairs = set(zip(a.tolist(), b.tolist()))
    assert len(pairs) == 7
    X.verify_axioms()


def test_wl_five_cycle_rank3():
    # undirected 5-cycle: closure is the dihedral orbital scheme
    arcs = [(i, (i + 1) % 5) for i in range(5)] + [((i + 1) % 5, i) for i in range(5)]
    X = wl_closure([arcs], 5)
    assert X.rank == 3
    # the directed cycle refines further: both arc directions separate
    X2 = wl_closure([arcs[:5]], 5)
    assert X2.rank == 5


def test_wl_idempotent():
    arcs = [(i, (i + 1) % 7) for i in range(7)]
    X = wl_closure([arcs], 7)
    Y = wl_closure([X.colors], 7)
    assert np.array_equal(X.colors, Y.colors)


def test_wl_closure_of_orbitals_is_fixed_point():
    G = alt5()
    reps = regular_representations(G)
    orb = orbitals(PermutationGroup(reps.star_gens, 60))
    X = wl_closure([orb.colors], 60)
    assert X.rank == orb.n_colors
    pairs = set(zip(X.colors.ravel().tolist(), orb.colors.ravel().tolist()))
    assert len(pairs) == X.rank


def test_wl_monotone_in_seed():
    G = sym5()
    M, cc = arc_color_matrix(G)
    rels = [(M == i).astype(np.int8) for i in range(cc.k)]
    coarse = wl_closure(rels[:2], G.order)
    fine = wl_closure(rels, G.order)
    assert fine.rank >= coarse.rank


def test_restriction_cases():
    G = sym5()
    M, _ = arc_color_matrix(G)
    X = wl_closure([M], 120)
    soc = socle(G)
    sub, parent_of = restriction(X, soc.elements)
    assert sub.n == 60
    assert sub.homogeneous
    # restriction of the trivial configuration
    T = wl_closure([], 6)
    # fibers of a homogeneous config: the whole domain is one fiber
    sub2, _ = restriction(T, range(6))
    assert sub2.rank == 2


def test_restriction_rejects_bad_set():
    G = sym5()
    M, _ = arc_color_matrix(G)
    X = wl_closure([M], 120)
    with pytest.raises(InvalidInputError):
        restriction(X, range(7))  # not a coset of anything in the closure


def test_boxplus_trivial():
    T = wl_closure([], 6)
    assert is_boxplus_trivial(T, [list(range(6))])
    # two parts, block structure forced by part indicators
    diag_parts = [list(range(3)), list(range(3, 6))]
    ind = np.zeros((6, 6), dtype=np.int8)
    for p in diag_parts[0]:
        ind[p, p] = 1
    X = wl_closure([ind], 6)
    assert is_boxplus_trivial(X, diag_parts)
    # a 6-cycle is certainly not a direct sum of trivial parts
    arcs = [(i, (i + 1) % 6) for i in range(6)]
    Y = wl_closure([arcs], 6)
    assert not is_boxplus_trivial(Y, diag_parts)


def test_extend_identity():
    arcs = [(i, (i + 1) % 5) for i in range(5)]
    res = extend_algebraic_iso([arcs], [arcs], 5)
    assert res is not None
    X, Y, phi = res
    assert np.array_equal(phi.color_map, np.arange(X.rank))


def test_extend_swapped_classes_fails():
    # 3-cycles vs the (3,2) class over S5 with the prescribed pairing: the
    # 3-cycle relation spans two components, the (3,2) relation only one
    G = sym5()
    M, cc = arc_color_matrix(G)
    sizes = [len(c) for c in cc.classes]
    threes = next(
        i for i, c in enumerate(cc.classes) if len(c) == 20 and element_orders(G)[c[0]] == 3
    )
    three_two = next(
        i for i, c in enumerate(cc.classes) if len(c) == 20 and element_orders(G)[c[0]] == 6
    )
    rel_a = (M == threes).astype(np.int8)
    rel_b = (M == three_two).astype(np.int8)
    rest = (~((M == threes) | (M == three_two) | (M == 0))).astype(np.int8)
    diag = (M == 0).astype(np.int8)
    res = extend_algebraic_iso(
        [diag, rel_a, rel_b, rest], [diag, rel_b, rel_a, rest], 120
    )
    assert res is None


def test_extend_relabelled_domain():
    rng = np.random.default_rng(3)
    arcs = [(i, (i + 1) % 8) for i in range(8)]
    M = np.zeros((8, 8), dtype=np.int8)
    for i, j in arcs:
        M[i, j] = 1
    f = rng.permutation(8)
    Mf = np.zeros_like(M)
    Mf[f[:, None], f[None, :]] = M
    res = extend_algebraic_iso([M], [Mf], 8)
    assert res is not None
    X, Y, phi = res
    phi.verify()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_wl_axioms_on_random_digraphs(n, data):
    edges = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * 2
        )
    )
    X = wl_closure([list(edges)], n)
    X.verify_axioms()
    # idempotence
    Y = wl_closure([X.colors], n)
    assert np.array_equal(X.colors, Y.colors)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.data())
def test_wl_relabelling_always_extends(n, data):
    edges = data.draw(
        st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * 2)
    )
    M = np.zeros((n, n), dtype=np.int8)
    for i, j in edges:
        M[i, j] = 1
    f = np.array(data.draw(st.permutations(list(range(n)))))
    Mf = np.zeros_like(M)
    Mf[f[:, None], f[None, :]] = M
    res = extend_algebraic_iso([M], [Mf], n)
    assert res is not None
