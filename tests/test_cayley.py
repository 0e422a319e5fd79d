import numpy as np
import pytest

from cencay.cayley import (
    CayleyScheme,
    ColorCayleyGraph,
    build_central_cayley,
    cayley_wl,
    compute_H0,
    compute_H1,
    partition_from_class_merge,
    principal_section,
)
from cencay.errors import InvalidInputError
from cencay.group import ClassPartition, conjugacy_classes, element_orders, is_central, socle
from cencay.perm import PermutationGroup, orbitals, regular_representations
from .fixture_groups import alt5, psl27, set_partitions, sym5


def merge_partition(G, groups):
    return partition_from_class_merge(G, groups)


def class_id_by(G, size=None, order=None):
    cc = conjugacy_classes(G)
    for i, cls in enumerate(cc.classes):
        if size is not None and len(cls) != size:
            continue
        if order is not None and element_orders(G)[cls[0]] != order:
            continue
        return i
    raise AssertionError("no class matches")


def transposition_graph(G):
    """{1 | transpositions | rest} over S5: transpositions = order 2, size 10."""
    t = class_id_by(G, size=10, order=2)
    rest = [i for i in range(conjugacy_classes(G).k) if i not in (0, t)]
    return build_central_cayley(G, merge_partition(G, [[0], [t], rest]))


def coset_graph(G):
    """{1 | A5 minus 1 | odd} over S5."""
    cc = conjugacy_classes(G)
    soc_set = set(socle(G).elements)
    even = [i for i, cls in enumerate(cc.classes) if i != 0 and cls[0] in soc_set]
    odd = [i for i, cls in enumerate(cc.classes) if i != 0 and cls[0] not in soc_set]
    return build_central_cayley(G, merge_partition(G, [[0], even, odd]))


def test_build_validates():
    G = sym5()
    full = merge_partition(G, [[i] for i in range(7)])
    gamma = build_central_cayley(G, full)
    assert gamma.k == 7
    # non-closed class is rejected
    bad = ClassPartition(((0,), tuple(range(1, 61)), tuple(range(61, 120))))
    with pytest.raises(InvalidInputError):
        build_central_cayley(G, bad)
    # class 0 must be the identity
    cc = conjugacy_classes(G)
    swapped = ClassPartition((cc.classes[1], (0,) + cc.classes[2], *cc.classes[3:]))
    with pytest.raises(InvalidInputError):
        ColorCayleyGraph(G, swapped)


def test_three_color_transposition_graph():
    gamma = transposition_graph(sym5())
    assert gamma.k == 3
    M = gamma.arc_colors
    # arc convention: color of (g, h) is the class of h g^-1
    G = gamma.group
    assert M[0, 0] == 0
    for h in gamma.partition.classes[1][:4]:
        assert M[0, h] == 1


def test_cayley_wl_full_classes_is_orbital_scheme():
    G = sym5()
    gamma = build_central_cayley(G, merge_partition(G, [[i] for i in range(7)]))
    scheme = cayley_wl(gamma)
    assert scheme.base.rank == 7
    reps = regular_representations(G)
    orb = orbitals(PermutationGroup(reps.star_gens, 120))
    pairs = set(zip(scheme.base.colors.ravel().tolist(), orb.colors.ravel().tolist()))
    assert len(pairs) == 7
    assert scheme.central


def test_cayley_wl_transpositions_rank7():
    scheme = cayley_wl(transposition_graph(sym5()))
    assert scheme.base.rank == 7


def test_point_classes_partition_group():
    scheme = cayley_wl(transposition_graph(sym5()))
    pts = [x for cls in scheme.point_classes for x in cls]
    assert sorted(pts) == list(range(120))


def test_h0_examples():
    G = sym5()
    scheme_coset = cayley_wl(coset_graph(G))
    h0 = compute_H0(scheme_coset)
    assert [H.order for H in h0] == [60]

    scheme_transp = cayley_wl(transposition_graph(G))
    assert compute_H0(scheme_transp) == []

    trivial = build_central_cayley(G, merge_partition(G, [[0], list(range(1, 7))]))
    scheme_trivial = cayley_wl(trivial)
    h0t = compute_H0(scheme_trivial)
    assert [H.order for H in h0t] == [60, 120]


def test_h1_examples():
    G = sym5()
    scheme_transp = cayley_wl(transposition_graph(G))
    h1 = compute_H1(scheme_transp)
    assert [H.order for H in h1] == [120]

    scheme_coset = cayley_wl(coset_graph(G))
    h1c = compute_H1(scheme_coset)
    assert [H.order for H in h1c] == [60, 120]

    A5 = alt5()
    gamma = build_central_cayley(A5, merge_partition(A5, [[i] for i in range(5)]))
    scheme = cayley_wl(gamma)
    assert [H.order for H in compute_H1(scheme)] == [60]


def test_principal_section_normal_type():
    G = sym5()
    sec = principal_section(cayley_wl(transposition_graph(G)))
    assert sec.kind == "normal"
    assert sec.L.order == 60 and sec.U.order == 120
    assert sec.m == 2


def test_principal_section_symmetric_type():
    G = sym5()
    sec = principal_section(cayley_wl(coset_graph(G)))
    assert sec.kind == "symmetric"
    assert sec.L.order == 60 and sec.U.order == 60
    assert sec.m == 2


def test_principal_section_alt5_full_classes():
    A5 = alt5()
    gamma = build_central_cayley(A5, merge_partition(A5, [[i] for i in range(5)]))
    sec = principal_section(cayley_wl(gamma))
    assert sec.L.order == 60 and sec.U.order == 60
    assert sec.m == 1


def is_wreath_wrt(X, class_of):
    """Whether the equivalence class_of is a union of colors of X and every
    color outside it is a union of full products of its classes."""
    cls = np.asarray(class_of, dtype=np.int64)
    m = int(cls.max()) + 1
    same = cls[:, None] == cls[None, :]
    inside = np.unique(X.colors[same])
    assert not np.intersect1d(inside, np.unique(X.colors[~same])).size
    cell = cls[:, None] * m + cls[None, :]
    counts = np.bincount(
        (X.colors.astype(np.int64) * (m * m) + cell).ravel(), minlength=X.rank * m * m
    ).reshape(X.rank, m, m)
    full = np.outer(np.bincount(cls, minlength=m), np.bincount(cls, minlength=m))
    return all(
        np.array_equal(counts[c][counts[c] > 0], full[counts[c] > 0])
        for c in range(X.rank)
        if c not in inside
    )


def test_symmetric_type_is_wreath_wrt_l():
    G = sym5()
    gamma = coset_graph(G)
    scheme = cayley_wl(gamma)
    sec = principal_section(scheme)
    assert is_wreath_wrt(scheme.base, sec.l_class_of)
    # the normal-type transposition graph is not a wreath product over its L
    scheme_t = cayley_wl(transposition_graph(G))
    assert not is_wreath_wrt(scheme_t.base, principal_section(scheme_t).l_class_of)


def test_index_bound_reported():
    import math

    G = sym5()
    sec = principal_section(cayley_wl(transposition_graph(G)))
    assert G.order // sec.L.order <= math.log2(G.order)


def test_relabelled_roundtrip():
    G = sym5()
    gamma = transposition_graph(G)
    # relabel along a right translation: classes are unchanged
    rho = np.ascontiguousarray(G.table[:, 7])
    gamma2 = gamma.relabelled(rho)
    assert gamma2.partition.classes == gamma.partition.classes
    # relabel along inversion: still a valid central coloring
    gamma3 = gamma.relabelled(G.inverse)
    assert gamma3.k == 3


def central_by_definition(G, class_of):
    return all(
        class_of[G.conj(x, g)] == class_of[x] for x in range(G.order) for g in range(G.order)
    )


def test_is_central_matches_definition():
    A5 = alt5()
    merges = list(set_partitions([1, 2, 3, 4]))
    assert len(merges) == 15
    for merge in merges:
        class_of = merge_partition(A5, [[0]] + merge).class_of_array(A5.order)
        assert is_central(A5, class_of) and central_by_definition(A5, class_of)
    rng = np.random.default_rng(7)
    for G in (alt5(), sym5(), psl27()):
        cc = conjugacy_classes(G)
        for _ in range(4):
            # a random partition, and a class merge with one element moved
            noisy = np.concatenate([[0], rng.integers(1, 4, G.order - 1)])
            moved = cc.class_of_array(G.order).copy()
            moved[int(rng.integers(1, G.order))] = cc.k
            for class_of in (noisy, moved):
                assert not is_central(G, class_of)
                assert not central_by_definition(G, class_of)
                classes = [tuple(np.nonzero(class_of == i)[0].tolist()) for i in range(class_of.max() + 1)]
                with pytest.raises(InvalidInputError):
                    ColorCayleyGraph(G, ClassPartition(tuple(c for c in classes if c)))


def test_overlapping_duplicated_or_empty_classes_are_rejected():
    A5 = alt5()
    cc = conjugacy_classes(A5).classes
    n = A5.order
    # (1 | C1 | C1+C2 | C3+C4): 72 elements listed for n = 60
    overlap = (cc[0], cc[1], cc[1] + cc[2], cc[3] + cc[4])
    assert sum(len(c) for c in overlap) == 72
    duplicated = (cc[0], cc[1] + cc[1][:1], cc[2], cc[3] + cc[4])
    empty = (cc[0], cc[1], (), cc[2] + cc[3] + cc[4])
    outside = (cc[0], cc[1], cc[2], cc[3] + cc[4][1:] + (n,))
    negative = (cc[0], cc[1], cc[2], cc[3] + cc[4][1:] + (-1,))
    for classes in (overlap, duplicated, empty, outside, negative):
        part = ClassPartition(classes)
        with pytest.raises(InvalidInputError):
            part.class_of_array(n)
        with pytest.raises(InvalidInputError):
            ColorCayleyGraph(A5, part)
    # a true partition still reads back class by class
    class_of = ClassPartition(cc).class_of_array(n)
    for i, cls in enumerate(cc):
        assert np.all(class_of[list(cls)] == i)
