"""The class-level row engine against the exact n x n code it replaced.

``closure_rows`` (through ``cayley_wl`` and ``schemes_with_phi``) and the row
criterion of ``compute_H0`` must give the same matrices and the same
subgroups as exact n x n refinement: ``wl_closure``, the coset-indicator
direct-sum test, and ``extend_algebraic_iso``.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cencay.cayley import (
    CayleyScheme,
    ColorCayleyGraph,
    build_central_cayley,
    cayley_matrix,
    cayley_wl,
    closure_rows,
    compute_H0,
    partition_from_class_merge,
    principal_section,
)
from cencay.coherent import extend_algebraic_iso, is_boxplus_trivial, wl_closure
from cencay.fixtures import builtin_group
from cencay.group import ClassPartition, FiniteGroup, conjugacy_classes, socle, subgroups_over_socle
from cencay.iso import schemes_with_phi

SMALL = ("alt5", "sym5", "psl27")
LARGE = ("pgl27", "alt6")  # n = 336 and 360: the exact oracle takes seconds per closure


# -- the n x n oracles --------------------------------------------------------------


def coset_indicators(G, cosets):
    """Diagonal indicator relations, one per coset."""
    out = []
    for coset in cosets:
        M = np.zeros((G.order, G.order), dtype=np.int8)
        idx = np.asarray(list(coset), dtype=np.int32)
        M[idx, idx] = 1
        out.append(M)
    return out


def oracle_H0(scheme):
    """Subgroups H over the socle whose coset-indicator closure is a direct
    sum of trivial configurations on the cosets, by one n x n closure each."""
    G = scheme.group
    out = []
    for H in subgroups_over_socle(G, require_normal=False):
        cosets = H.right_cosets()
        X = wl_closure([scheme.base.colors] + coset_indicators(G, cosets), G.order)
        if is_boxplus_trivial(X, cosets):
            out.append(H)
    return out


def equivalence_matrix(class_of):
    return (class_of[:, None] == class_of[None, :]).astype(np.int8)


# -- helpers ------------------------------------------------------------------------


@st.composite
def class_merges(draw, names):
    """A builtin group and a random merge of its nontrivial conjugacy classes."""
    G = builtin_group(draw(st.sampled_from(names)))
    ids = draw(st.permutations(list(range(1, conjugacy_classes(G).k))))
    cuts = sorted(draw(st.sets(st.integers(1, len(ids) - 1), max_size=len(ids) - 1)))
    bounds = [0] + cuts + [len(ids)]
    merge = [[0]] + [list(ids[a:b]) for a, b in zip(bounds, bounds[1:])]
    return build_central_cayley(G, partition_from_class_merge(G, merge))


def swapped(gamma, i, j):
    """The same classes with colors i and j exchanged."""
    classes = list(gamma.partition.classes)
    classes[i], classes[j] = classes[j], classes[i]
    return ColorCayleyGraph(gamma.group, ClassPartition(tuple(classes)))


def check_closure_and_h0(gamma):
    n = gamma.group.order
    scheme = cayley_wl(gamma)
    oracle = wl_closure([gamma.arc_colors], n)
    assert np.array_equal(scheme.base.colors, oracle.colors)
    assert [H.elements for H in compute_H0(scheme)] == [H.elements for H in oracle_H0(scheme)]


def check_lockstep(gamma_a, gamma_b):
    """Row lockstep and schemes_with_phi against extend_algebraic_iso."""
    sec_a = principal_section(cayley_wl(gamma_a))
    sec_b = principal_section(cayley_wl(gamma_b))
    oracle = extend_algebraic_iso(
        [gamma_a.arc_colors, equivalence_matrix(sec_a.u_class_of),
         equivalence_matrix(sec_a.l_class_of)],
        [gamma_b.arc_colors, equivalence_matrix(sec_b.u_class_of),
         equivalence_matrix(sec_b.l_class_of)],
        gamma_a.group.order,
    )
    rows = closure_rows([
        (gamma_a.group, [gamma_a.class_of, sec_a.u_class_of == 0, sec_a.l_class_of == 0]),
        (gamma_b.group, [gamma_b.class_of, sec_b.u_class_of == 0, sec_b.l_class_of == 0]),
    ])
    assert (rows is None) == (oracle is None)
    swp = schemes_with_phi(gamma_a, gamma_b)
    if oracle is None or sec_a.kind != sec_b.kind:
        assert swp is None
        return
    X, Y, _ = oracle
    (row_a, row_b), rank = rows
    assert rank == X.rank
    assert np.array_equal(cayley_matrix(gamma_a.group, row_a), X.colors)
    assert np.array_equal(cayley_matrix(gamma_b.group, row_b), Y.colors)
    assert np.array_equal(swp.X.colors, X.colors)
    assert np.array_equal(swp.Y.colors, Y.colors)


# -- tests --------------------------------------------------------------------------


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(class_merges(SMALL), st.data())
def test_row_engine_matches_nxn_oracle(gamma, data):
    check_closure_and_h0(gamma)
    check_lockstep(gamma, gamma)
    if gamma.k > 2:
        i = data.draw(st.integers(1, gamma.k - 2))
        check_lockstep(gamma, swapped(gamma, i, data.draw(st.integers(i + 1, gamma.k - 1))))


@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(class_merges(LARGE))
def test_row_engine_matches_nxn_oracle_large(gamma):
    check_closure_and_h0(gamma)
    check_lockstep(gamma, gamma)


def coset_graph(G, split_outer=False):
    """{1 | socle minus 1 | the rest}, the rest split off its first class if asked."""
    soc = set(socle(G).elements)
    cc = conjugacy_classes(G)
    inner = [i for i, c in enumerate(cc.classes) if i and c[0] in soc]
    outer = [i for i, c in enumerate(cc.classes) if c[0] not in soc]
    merge = [[0], inner] + ([outer[:1], outer[1:]] if split_outer else [outer])
    return build_central_cayley(G, partition_from_class_merge(G, merge))


def test_row_h0_cases():
    orders = {}
    for name in SMALL + LARGE:
        G = builtin_group(name)
        complete = build_central_cayley(
            G, partition_from_class_merge(G, [[0], list(range(1, conjugacy_classes(G).k))])
        )
        check_closure_and_h0(complete)
        orders[name] = [H.order for H in compute_H0(cayley_wl(complete))]
    assert orders == {"alt5": [60], "sym5": [60, 120], "psl27": [168],
                      "pgl27": [168, 336], "alt6": [360]}
    for name, order in (("sym5", 60), ("pgl27", 168)):
        G = builtin_group(name)
        gamma = coset_graph(G)
        check_closure_and_h0(gamma)
        assert [H.order for H in compute_H0(cayley_wl(gamma))] == [order]
        split = coset_graph(G, split_outer=True)
        check_closure_and_h0(split)
        assert compute_H0(cayley_wl(split)) == []
        # the criterion holds for any row: this one is constant on the socle
        # minus 1 but not on the other coset (its closure splits both)
        raw = CayleyScheme(G, split.class_of)
        assert compute_H0(raw) == oracle_H0(raw) == []


def test_cayley_wl_cyclic_1025():
    # beyond 1024 points; the closure of the cycle C_1025 is its distance partition
    n = 1025
    idx = np.arange(n)
    G = FiniteGroup((idx[:, None] + idx[None, :]) % n)
    gamma = ColorCayleyGraph(G, ClassPartition(((0,), (1, n - 1), tuple(range(2, n - 1)))))
    scheme = cayley_wl(gamma)
    assert scheme.rank == n // 2 + 1
    distance = np.minimum(idx, n - idx)
    assert all(len(set(distance[list(cls)])) == 1 for cls in scheme.point_classes)
