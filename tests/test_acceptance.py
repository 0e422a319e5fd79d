"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from cencay.cayley import (
    build_central_cayley,
    cayley_wl,
    partition_from_class_merge,
    principal_section,
)
from cencay.coherent import wl_closure
from cencay.group import automorphism_group, conjugacy_classes, element_orders, socle
from cencay.iso import (
    automorphisms,
    brute_force_oracle,
    iso_test,
    majorant,
    schemes_with_phi,
)
from cencay.perm import PermutationGroup
from cencay.fixtures import builtin_group
from .fixture_groups import (
    d2_group,
    full_d2_subgroup,
    orbitals,
    regular_representations,
    scheme_matrix,
)

ALL_FIXTURES = ("alt5", "sym5", "alt6", "sym6", "psl27", "pgl27")


def _class_id(G, size, order):
    cc = conjugacy_classes(G)
    return next(
        i for i, c in enumerate(cc.classes) if len(c) == size and element_orders(G)[c[0]] == order
    )


def _merge_rest(G, picked):
    k = conjugacy_classes(G).k
    rest = [i for i in range(k) if i not in picked and i != 0]
    return [[0]] + [[p] for p in picked] + [rest]


def _sym5_graph(class_size, class_order):
    G = builtin_group("sym5")
    cid = _class_id(G, class_size, class_order)
    return build_central_cayley(G, partition_from_class_merge(G, _merge_rest(G, [cid])))


def _sym5_coset_graph():
    G = builtin_group("sym5")
    soc_set = set(socle(G).elements)
    cc = conjugacy_classes(G)
    even = [i for i, c in enumerate(cc.classes) if i and c[0] in soc_set]
    odd = [i for i, c in enumerate(cc.classes) if i and c[0] not in soc_set]
    return build_central_cayley(G, partition_from_class_merge(G, [[0], even, odd]))


def _full_class_graph(G):
    cc = conjugacy_classes(G)
    return build_central_cayley(G, partition_from_class_merge(G, [[i] for i in range(cc.k)]))


def _two_sided_equal(gens_a, group_b, degree):
    """<gens_a> == group_b via membership in both directions."""
    if any(g not in group_b for g in gens_a):
        return False
    chain_a = PermutationGroup(gens_a, degree)
    if chain_a.order != group_b.order:
        return False
    return all(g in chain_a for g in group_b.generators)


def test_criterion_1_theorem_aut_is_d2():
    t0 = time.perf_counter()
    G = builtin_group("sym5")
    D2 = d2_group(G)
    for label, size, order in (("transpositions", 10, 2), ("4-cycles", 30, 4)):
        gamma = _sym5_graph(size, order)
        res = automorphisms(gamma)
        assert res.aut_order == 28_800, label
        assert _two_sided_equal(res.aut_generators, D2, 120), label
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60
    print(f"PASS criterion 1: Aut = D(2,S5), order 28800 for both graphs ({elapsed:.1f}s)")


def test_criterion_2_symmetric_pipeline():
    t0 = time.perf_counter()
    gamma = _sym5_coset_graph()
    sec = principal_section(cayley_wl(gamma))
    assert sec.kind == "symmetric"
    assert sec.L.order == 60 and sec.U.order == 60 and sec.m == 2
    res = automorphisms(gamma)
    independent = 2 * math.factorial(60) ** 2
    assert res.aut_order == independent
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120
    print(f"PASS criterion 2: symmetric section (L=U=A5, m=2), aut = 2*(60!)^2 ({elapsed:.1f}s)")


def test_criterion_3_swap_pair_negative():
    t0 = time.perf_counter()
    G = builtin_group("sym5")
    c3 = _class_id(G, 20, 3)
    c32 = _class_id(G, 20, 6)
    rest = [i for i in range(7) if i not in (0, c3, c32)]
    a = build_central_cayley(G, partition_from_class_merge(G, [[0], [c3], [c32], rest]))
    pa = a.partition
    from cencay.group import ClassPartition

    b = build_central_cayley(
        G, ClassPartition((pa.classes[0], pa.classes[2], pa.classes[1], pa.classes[3]))
    )
    res = iso_test(a, b)
    assert res.verdict == "non_isomorphic"
    assert res.decided_at_step == 2
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60
    print(f"PASS criterion 3: swapped pair non-isomorphic at step 2 ({elapsed:.1f}s)")


def test_criterion_4_relabelled_pairs_20_seeds():
    t0 = time.perf_counter()
    gamma = _sym5_graph(10, 2)
    G = gamma.group
    d2 = full_d2_subgroup(G)
    MA = gamma.arc_colors
    ok = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        alpha = d2.auts_plain[int(rng.integers(len(d2.auts_plain)))]
        f = d2.row(alpha, int(rng.integers(G.order)), bool(rng.integers(2)))
        beta = d2.auts_plain[int(rng.integers(len(d2.auts_plain)))]
        f = f[beta]  # compose with a random automorphism, still inside D(2,G)
        gamma2 = gamma.relabelled(f)
        res = iso_test(gamma, gamma2)
        if not res.isomorphic:
            continue
        r = res.representative
        if np.array_equal(gamma2.arc_colors[r[:, None], r[None, :]], MA):
            ok += 1
    assert ok == 20
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 4: 20/20 relabelled pairs verified ({elapsed:.1f}s)")


def _random_merge(rng):
    ids = [1, 2, 3, 4]
    rng.shuffle(ids)
    ncuts = int(rng.integers(0, 4))
    cuts = sorted(rng.choice([1, 2, 3], size=min(ncuts, 3), replace=False).tolist())
    groups, prev = [], 0
    for c in list(cuts) + [4]:
        if ids[prev:c]:
            groups.append(sorted(ids[prev:c]))
        prev = c
    return [[0]] + groups


def test_criterion_5_oracle_equivalence():
    t0 = time.perf_counter()
    A5 = builtin_group("alt5")
    rng = np.random.default_rng(20260810)
    graphs = []
    for _ in range(20):
        gamma = build_central_cayley(A5, partition_from_class_merge(A5, _random_merge(rng)))
        graphs.append(gamma)
        a = automorphisms(gamma)
        b = brute_force_oracle(gamma, gamma)
        assert a.verdict == b.verdict
        assert a.aut_order == b.aut_order
    for _ in range(10):
        x = graphs[int(rng.integers(len(graphs)))]
        y = graphs[int(rng.integers(len(graphs)))]
        r1 = iso_test(x, y)
        r2 = brute_force_oracle(x, y)
        assert r1.verdict == r2.verdict
        assert r1.aut_order == r2.aut_order
        if r1.isomorphic:
            r = r1.representative
            assert np.array_equal(y.arc_colors[r[:, None], r[None, :]], x.arc_colors)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 5: 20 graphs + 10 pairs agree with the oracle ({elapsed:.1f}s)")


def test_criterion_6_coherence_axioms():
    t0 = time.perf_counter()
    checked = 0
    # every WL output produced here is checked exhaustively (all n <= 360)
    outputs = []
    for name in ("alt5", "sym5", "psl27", "pgl27", "alt6"):
        G = builtin_group(name)
        gamma = _full_class_graph(G)
        scheme = cayley_wl(gamma)
        outputs.append((name, scheme_matrix(scheme)))
    gamma_t = _sym5_graph(10, 2)
    outputs.append(("sym5-transpositions", scheme_matrix(cayley_wl(gamma_t))))
    A6 = builtin_group("alt6")
    cc6 = conjugacy_classes(A6)
    merged = build_central_cayley(
        A6, partition_from_class_merge(A6, [[0], [1, 2], list(range(3, cc6.k))])
    )
    outputs.append(("alt6-merged", scheme_matrix(cayley_wl(merged))))
    for name, X in outputs:
        assert X.n <= 360
        X.verify_axioms()
        Y = wl_closure([X.colors], X.n)
        assert np.array_equal(Y.colors, X.colors), f"idempotence fails for {name}"
        checked += 1
    # wl(orbitals(S5*)) is a fixed point of rank 7
    reps = regular_representations(builtin_group("sym5"))
    orb = orbitals(PermutationGroup(reps.star_gens, 120))
    X = wl_closure([orb.colors], 120)
    assert X.rank == 7
    pairs = set(zip(X.colors.ravel().tolist(), orb.colors.ravel().tolist()))
    assert len(pairs) == 7
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 6: exhaustive (C1)-(C3) on {checked} closures up to n=360 ({elapsed:.1f}s)")


def test_criterion_7_structural_bounds():
    t0 = time.perf_counter()
    for name in ALL_FIXTURES:
        G = builtin_group(name)
        index = G.order // socle(G).order
        assert index <= math.log2(G.order), name
    for name, expect in (("alt5", 14_400), ("sym5", 28_800)):
        G = builtin_group(name)
        assert d2_group(G).order == expect == 2 * G.order * len(automorphism_group(G))
    for name in ("psl27", "pgl27"):
        G = builtin_group(name)
        assert d2_group(G).order == 2 * G.order * len(automorphism_group(G))
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 7: socle index and D(2,G) order identities ({elapsed:.1f}s)")


def test_criterion_8_majorant_containment():
    t0 = time.perf_counter()
    instances = [
        _sym5_graph(10, 2),
        _sym5_coset_graph(),
        _full_class_graph(builtin_group("alt5")),
    ]
    for gamma in instances:
        swp = schemes_with_phi(gamma, gamma)
        maj = majorant(swp)
        res = automorphisms(gamma)
        for g in res.aut_generators:
            assert maj.contains(g)
        reps = regular_representations(gamma.group)
        for g in reps.star_gens:
            assert res.aut_membership(g)
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 8: Aut inside C_id, G* inside Aut, on {len(instances)} instances ({elapsed:.1f}s)")


def test_criterion_9_scale_psl_pgl():
    t0 = time.perf_counter()
    for name, cap in (("psl27", 600), ("pgl27", 600)):
        G = builtin_group(name)
        gamma = _full_class_graph(G)
        t1 = time.perf_counter()
        res = automorphisms(gamma)
        el = time.perf_counter() - t1
        assert el <= cap, f"{name} exceeded {cap}s"
        assert res.isomorphic
        assert res.aut_order == 2 * G.order * G.order  # Hol + inversion, inner part only
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 9: PSL(2,7) and PGL(2,7) pipelines within caps ({elapsed:.1f}s)")


@pytest.mark.parametrize("name", ["alt6", "sym6"])
def test_criterion_9_scale_alt6_sym6(name):
    t0 = time.perf_counter()
    G = builtin_group(name)
    gamma = _full_class_graph(G)
    res = automorphisms(gamma)
    assert res.isomorphic
    # the outer automorphisms move classes, so only Hol's inner part survives
    assert res.aut_order == 2 * G.order**2
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 9: {name} pipeline, aut = {res.aut_order} ({elapsed:.1f}s)")
