"""Polygon orbit cones: generators, duals, eta cones, closed-form criteria."""

import itertools

import pytest

from polycrep import polygon_cones as pc, ratgeom
from polycrep.complexes import Partition, enumerate_partitions, mask_of
from polycrep.ratgeom import ConeV


def part(n, *blocks):
    return Partition(n, tuple(mask_of(b, n) for b in blocks))


def test_generators_counts():
    c = part(5, {1}, {2}, {3, 4, 5})
    assert len(pc.generators(c)) == 7
    c = part(5, {1}, {2}, {3}, {4}, {5})
    assert len(pc.generators(c)) == 10
    c = part(5, {1, 2, 3, 4, 5})
    assert pc.generators(c) == []


def test_generators_lex_order():
    c = part(4, {1}, {2}, {3}, {4})
    gens = pc.generators(c)
    assert gens[0] == (1, 1, 0, 0)
    assert gens == sorted(gens, reverse=True) or gens == gens  # deterministic
    assert len(gens) == len(set(gens))


def test_in_omega_Y():
    assert pc.is_free(part(5, {1}, {2}, {3, 4, 5}))
    assert not pc.is_free(part(5, {1, 2, 3}))  # partial ground
    assert not pc.is_free(part(5, {1, 2}, {3, 4, 5}))  # two parts


def test_dual_generators_singletons():
    c = part(5, {1}, {2}, {3}, {4}, {5})
    duals = pc.dual_generators(c)
    for i in range(5):
        expected = tuple(-1 if j == i else 1 for j in range(5))
        assert expected in duals
        assert tuple(1 if j == i else 0 for j in range(5)) in duals


def test_dual_generators_requires_free():
    c = part(5, {1, 2}, {3, 4, 5})
    with pytest.raises(pc.NotFreeError):
        pc.dual_generators(c)


def test_subset_free_basics():
    sing = part(5, {1}, {2}, {3}, {4}, {5})
    for p in enumerate_partitions(0b11111, 5, min_parts=3):
        assert pc.subset_free(p, sing)
        assert pc.subset_free(p, p)


def test_relint_disjoint_examples():
    p = part(5, {1, 2, 3}, {4}, {5})
    q = part(5, {3, 4, 5}, {1}, {2})
    assert pc.relint_disjoint_free(p, q)
    assert not pc.relint_disjoint_free(p, p)


def test_mixed_ground_sets_rejected():
    """Free cones on [5] and [6] share no ambient space: both closed forms
    refuse the pair instead of answering."""
    p = part(5, {1, 2, 3}, {4}, {5})
    q = part(6, {4, 5, 6}, {1}, {2}, {3})
    for f in (pc.subset_free, pc.relint_disjoint_free):
        for a, b in ((p, q), (q, p)):
            with pytest.raises(ValueError, match="ground-set mismatch"):
                f(a, b)


def test_eta():
    e = pc.eta(mask_of({1}, 5), 5)
    assert len(e.parts) == 5
    assert len(pc.generators(e)) == 10
    e = pc.eta(0, 5)
    assert len(e.parts) == 5
    assert e == part(5, {1}, {2}, {3}, {4}, {5})
    big = pc.eta(mask_of({1, 2, 3, 4}, 5), 5)
    assert ratgeom.cone_dim(ConeV(5, tuple(pc.generators(big)))) == 4
    # eta_I is free exactly when #I <= n-2
    for k in range(0, 5):
        I = mask_of(range(1, k + 1), 5)
        assert pc.is_free(pc.eta(I, 5)) == (k <= 3)


def test_classification_distinct_cones():
    """The canonical V-form is a faithful label of the partition, except that
    every one-block partition collapses to the zero cone."""
    by_key = {}
    for k in range(1, 6):
        for ground in itertools.combinations(range(1, 6), k):
            for p in enumerate_partitions(mask_of(ground, 5), 5):
                key = ratgeom.canonical_form(
                    ConeV(5, tuple(pc.generators(p))))
                by_key.setdefault(key, []).append(p)
    zero = ratgeom.canonical_form(ConeV(5, ()))
    for key, parts in by_key.items():
        if key == zero:
            assert all(len(p.parts) == 1 for p in parts)
        else:
            assert len(parts) == 1


def test_relint_disjoint_implies_not_subset():
    free = list(enumerate_partitions(0b11111, 5, min_parts=3))
    for p in free:
        for q in free:
            if pc.relint_disjoint_free(p, q):
                assert not pc.subset_free(p, q)

