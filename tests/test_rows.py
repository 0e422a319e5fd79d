"""The class-level row engine against the exact n x n code it replaced.

``closure_rows`` (through ``cayley_wl`` and ``schemes_with_phi``), the row
criteria of ``compute_H0`` and ``compute_H1`` and the row-built quotient
graph must give the same matrices, subgroups and labels as exact n x n
code: ``wl_closure``, the coset-indicator direct-sum test,
``extend_algebraic_iso``, the partial-translation generator test and the
quotient labels read off the arc-color matrix.
"""

import itertools

import numpy as np
import pytest
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
    compute_H1,
    partition_from_class_merge,
    principal_section,
)
from cencay.coherent import extend_algebraic_iso, wl_closure
from cencay.fixtures import builtin_group
from cencay.group import ClassPartition, FiniteGroup, conjugacy_classes, socle, subgroups_over_socle
from cencay.iso import QuotientGraph, _schemes_with_phi, analyze, schemes_with_phi

from .fixture_groups import (
    coset_class_array,
    is_boxplus_trivial,
    pair_matrices,
    point_classes,
    right_cosets,
    scheme_matrix,
    set_partitions,
)

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
        cosets = right_cosets(H)
        X = wl_closure([scheme_matrix(scheme).colors] + coset_indicators(G, cosets), G.order)
        if is_boxplus_trivial(X, cosets):
            out.append(H)
    return out


def oracle_H1(scheme):
    """Normal subgroups H over the socle such that every one-sided partial
    translation by a generator of H (x -> xh or hx on H, the identity
    elsewhere) keeps the n x n color matrix."""
    G = scheme.group
    C = cayley_matrix(G, scheme.row)
    out = []
    for H in subgroups_over_socle(G, require_normal=True):
        idx = np.asarray(H.elements, dtype=np.int32)
        ok = True
        for h in H.generators():
            for moved in (G.table[idx, h], G.table[h, idx]):
                p = np.arange(G.order, dtype=np.int32)
                p[idx] = moved
                ok = ok and np.array_equal(C[p[:, None], p[None, :]], C)
        if ok:
            out.append(H)
    return out


def oracle_quotient(gamma, l_class_of, m):
    """Quotient labels read off the n x n arc colors: the colors of all
    arcs from coset i to coset j."""
    M = gamma.arc_colors.astype(np.int64)
    cls = l_class_of.astype(np.int64)
    k = gamma.k
    label_sets = [[set() for _ in range(m)] for _ in range(m)]
    for v in np.unique((cls[:, None] * m + cls[None, :]) * k + M):
        cell, color = divmod(int(v), k)
        i, j = divmod(cell, m)
        label_sets[i][j].add(color)
    return QuotientGraph(m, [[frozenset(s) for s in row] for row in label_sets])


def seeded_rows(*recs):
    """The closure rows of the arc colors seeded with the U- and L-indicators
    too, in lockstep over the analyses: the closure the pipeline ran before
    U and L were certified as unions of colors of the unseeded row."""
    return closure_rows([
        (rec.gamma.group, [rec.gamma.class_of, rec.sec.u_class_of == 0, rec.sec.l_class_of == 0])
        for rec in recs
    ])


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
    assert np.array_equal(scheme_matrix(scheme).colors, oracle.colors)
    assert [H.elements for H in compute_H0(scheme)] == [H.elements for H in oracle_H0(scheme)]


def check_h1_and_quotients(gamma):
    """compute_H1 on the closure and on the raw arc-color row (not always a
    scheme: the criterion holds for any row), and the quotient graph on the
    cosets of L and of every normal subgroup over the socle, against their
    n x n oracles."""
    G = gamma.group
    for scheme in (cayley_wl(gamma), CayleyScheme(G, gamma.class_of, verify=False)):
        assert [H.elements for H in compute_H1(scheme)] == [
            H.elements for H in oracle_H1(scheme)
        ]
    sec = principal_section(cayley_wl(gamma))
    parts = [(sec.l_class_of, sec.m)]
    for H in subgroups_over_socle(G, require_normal=True):
        cosets = right_cosets(H)
        parts.append((coset_class_array(G, cosets), len(cosets)))
    for cls, m in parts:
        assert QuotientGraph.build(gamma, cls, m) == oracle_quotient(gamma, cls, m)


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
    X_swp, Y_swp, _ = pair_matrices(swp)
    assert np.array_equal(X_swp.colors, X.colors)
    assert np.array_equal(Y_swp.colors, Y.colors)


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


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(class_merges(SMALL + ("pgl27",)))
def test_row_h1_and_quotient_match_nxn_oracles(gamma):
    check_h1_and_quotients(gamma)


def test_row_h1_finds_a_proper_subgroup():
    # S5 colourings with all odd classes (ids 1, 3, 6) in one color: the
    # closure row is constant on the odd coset, so A5 passes as well as S5
    G = builtin_group("sym5")
    for merge in ([[0], [2], [4], [5], [1, 3, 6]], [[0], [5], [1, 2, 3, 4, 6]]):
        gamma = build_central_cayley(G, partition_from_class_merge(G, merge))
        check_h1_and_quotients(gamma)
        assert [H.order for H in compute_H1(cayley_wl(gamma))] == [60, 120]


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
    assert all(len(set(distance[list(cls)])) == 1 for cls in point_classes(scheme))


@pytest.mark.parametrize("name", SMALL)
def test_seeding_u_and_l_gives_back_the_closure_row(name):
    # every central colouring: the analysis closes the arc colors alone, and
    # its row equals the closure seeded with the U- and L-indicators as well;
    # on every ordered pair with equal part sizes, phi from the unseeded
    # lockstep and the U/L color check gives the seeded lockstep's rows, and
    # None exactly when the seeded lockstep diverges
    G = builtin_group(name)
    recs = []
    for parts in set_partitions(list(range(1, conjugacy_classes(G).k))):
        merge = [[0]] + sorted(sorted(p) for p in parts)
        recs.append(analyze(build_central_cayley(G, partition_from_class_merge(G, merge))))
    for rec in recs:
        (row,), rank = seeded_rows(rec)
        assert np.array_equal(rec.row, row) and rank == rec.scheme.rank
    sizes = [sorted(len(c) for c in rec.gamma.partition.classes) for rec in recs]
    pairs = positives = 0
    for src, dst in itertools.permutations(range(len(recs)), 2):
        if sizes[src] != sizes[dst]:
            continue
        src, dst = recs[src], recs[dst]
        seeded = seeded_rows(src, dst) if src.sec.kind == dst.sec.kind else None
        swp = _schemes_with_phi(src, dst.gamma)
        assert (swp is None) == (seeded is None)
        if swp is not None:
            (row_a, row_b), _ = seeded
            assert np.array_equal(swp.src.row, row_a) and np.array_equal(swp.row_b, row_b)
            # dst read off the lockstep's row is dst's own analysis
            got, own = swp.dst.sec, dst.sec
            assert (got.kind, got.U.elements, got.L.elements) == (own.kind, own.U.elements,
                                                                  own.L.elements)
            assert swp.dst.scheme.rank == dst.scheme.rank
            assert np.array_equal(swp.dst.u_row, dst.u_row)
            positives += 1
        pairs += 1
    assert (len(recs), pairs, positives) == {
        "alt5": (15, 8, 0), "psl27": (52, 32, 20), "sym5": (203, 232, 0)}[name]
