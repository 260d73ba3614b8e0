"""Bunch axioms, the complex<->bunch bijection, projectivity certificates."""

import itertools
import random
from fractions import Fraction

import pytest

from polycrep import (arrangements as ar, bunches, complexes as cx,
                      polygon_cones as pc)
from polycrep.complexes import Complex, Partition, mask_of

import routes
from routes import Bunch


def size2_complex(n):
    return Complex.from_faces(n, tuple(
        frozenset(p) for p in itertools.combinations(range(1, n + 1), 2)))


def singletons_cone(n):
    return Partition(n, tuple(mask_of({i}, n) for i in range(1, n + 1)))


def weight(theta, part):
    """Σ θ_i over the elements i of the part mask."""
    return sum(t for i, t in enumerate(theta) if part >> i & 1)


def test_phi_from_complex_size2():
    phi = routes.phi_from_complex(size2_complex(5))
    # 1 all-singleton + 10 one-pair + 15 two-pair partitions
    assert len(phi.cones) == 26
    assert routes.is_bunch(phi)
    assert routes.is_maximal_bunch(phi)
    assert all(len(c.parts) >= 3 for c in phi.cones)


def test_eta_pair_is_not_a_bunch():
    # wall cones of complementary subsets have disjoint interiors
    i, ic = mask_of({1, 2}, 5), mask_of({3, 4, 5}, 5)
    phi = Bunch(5, frozenset({pc.eta(i, 5), pc.eta(ic, 5)}))
    assert not routes.is_bunch(phi)


def test_singleton_bunch():
    phi = Bunch(5, frozenset({singletons_cone(5)}))
    assert routes.is_bunch(phi)
    assert not routes.is_maximal_bunch(phi)
    with pytest.raises(ValueError):
        routes.complex_from_bunch(phi)


def test_empty_is_not_a_bunch():
    assert not routes.is_bunch(Bunch(5, frozenset()))


def test_is_bunch_matches_pairwise_definition():
    """is_bunch against the definition written out: nonempty, every pair of
    members with meeting relative interiors, and every free refinement of
    a member a member.  Subsets are random, upward closures of random
    subsets, and closures of subsets of a chamber's bunch Φ_θ plus maybe
    one other cone."""
    n = 5
    free = list(cx.enumerate_partitions((1 << n) - 1, n, min_parts=3))
    a = ar.build_A(n)
    thetas = routes.chambers_in_cone(a, ar.cone_C0(n))

    def closure(cones):
        return {q for q in free
                if any(cx.refines(q, c) for c in cones)}

    def pairwise(cones):
        cones = list(cones)
        if not cones:
            return False
        if any(pc.relint_disjoint_free(p, q)
               for i, p in enumerate(cones) for q in cones[i + 1:]):
            return False
        return closure(cones) <= set(cones)

    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for trial in range(3000):
        kind = trial % 3
        if kind == 2:
            phi = routes.bunch_from_theta(rng.choice(thetas), n).cones
            cones = set(rng.sample(sorted(phi, key=lambda p: p.parts),
                                   rng.randint(1, 4)))
            if rng.random() < 0.5:
                cones.add(rng.choice(free))
        else:
            cones = set(rng.sample(free, rng.randint(1, 6)))
        if kind:
            cones = closure(cones)
        want = pairwise(cones)
        assert routes.is_bunch(Bunch(n, frozenset(cones))) == want, cones
        seen[want] += 1
    assert min(seen.values()) > 300, seen


def test_phi_requires_free_partition():
    with pytest.raises(ValueError):
        # non-full complex: no partition of [n] into faces exists
        routes.phi_from_complex(
            Complex.from_faces(5, (frozenset({2, 3, 4, 5}),)))


def test_removing_minimal_cone_breaks_maximality():
    phi = routes.phi_from_complex(size2_complex(5))
    coarse = next(c for c in phi.cones if len(c.parts) == 3)
    smaller = Bunch(5, phi.cones - {coarse})
    assert routes.is_bunch(smaller)
    assert not routes.is_maximal_bunch(smaller)


def test_every_maximal_bunch_contains_singletons_cone():
    sing = singletons_cone(5)
    for m in cx.max_biconnected_masks(5, full_only=True):
        assert sing in routes.phi_from_complex(Complex(5, m)).cones


def test_phi_from_complex_matches_definition():
    """Φ_Δ against the definition written out over part masks: every
    partition of [n] into >= 3 parts whose parts are all faces of Δ, for
    every complex at n=5, 200 seeded complexes at n=6, and two complexes
    with two-part partitions into faces."""
    cases = [Complex(5, m) for m in cx.max_biconnected_masks(5)]
    cases += random.Random(11).sample(
        [Complex(6, m) for m in cx.max_biconnected_masks(6)], 200)
    cases += [size2_complex(4),
              Complex.from_faces(6, itertools.combinations(range(1, 7), 3))]
    for d in cases:
        n = d.n
        want = frozenset(
            p for p in cx.enumerate_partitions((1 << n) - 1, n, min_parts=3)
            if all(d.family >> part & 1 for part in p.parts))
        if not want:
            with pytest.raises(ValueError):
                routes.phi_from_complex(d)
            continue
        assert routes.phi_from_complex(d).cones == want


def test_bunch_from_theta_matches_definition():
    """Φ_θ against the definition: every free partition each of whose parts
    has θ-weight below half the total, at every C0 chamber witness of
    A(5)."""
    n = 5
    free = [p for p in cx.enumerate_partitions((1 << n) - 1, n,
                                               min_parts=3)]
    for theta in routes.chambers_in_cone(ar.build_A(n), ar.cone_C0(n)):
        total = sum(theta)
        want = frozenset(p for p in free
                         if all(2 * weight(theta, part) < total
                                for part in p.parts))
        assert routes.bunch_from_theta(theta, n).cones == want


def test_bunch_from_theta_ones():
    phi = routes.bunch_from_theta((1, 1, 1, 1, 1), 5)
    assert phi == routes.phi_from_complex(size2_complex(5))
    assert routes.is_maximal_bunch(phi)


def test_bunch_from_theta_rejections():
    """Orthant, then C0, then wall: each point fails the first check it
    breaks, also when it breaks a later one."""
    with pytest.raises(ValueError, match="C_0"):
        routes.bunch_from_theta((10, 1, 1, 1, 1), 5)  # inside a corner cone
    with pytest.raises(ValueError, match="C_0"):
        routes.bunch_from_theta((4, 1, 1, 1, 1), 5)  # also on v_{1} = 0
    with pytest.raises(ValueError, match="wall"):
        routes.bunch_from_theta((1, 1, 1, 1, 1, 1), 6)  # on walls (#I=3)
    with pytest.raises(ValueError, match="wall"):
        routes.bunch_from_theta((1, 2, 3, 4, 4), 5)  # v_{34} = 0, in C0°
    with pytest.raises(ValueError, match="orthant"):
        routes.bunch_from_theta((0, 1, 1, 1, 1), 5)  # also on a wall


def test_bunch_from_theta_non_integral():
    """A generic non-integral θ: Φ_θ against the definition, and the same
    bunch as the integral multiple of θ."""
    n = 5
    theta = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5),
             Fraction(5, 6))
    total = sum(theta)
    assert all(2 * sum(theta[i - 1] for i in I) != total
               for k in range(1, n)
               for I in itertools.combinations(range(1, n + 1), k))
    want = frozenset(
        p for p in cx.enumerate_partitions((1 << n) - 1, n, min_parts=3)
        if all(2 * weight(theta, part) < total for part in p.parts))
    phi = routes.bunch_from_theta(theta, n)
    assert phi.cones == want
    assert phi == routes.bunch_from_theta([60 * t for t in theta], n)


def test_same_chamber_same_bunch():
    a = routes.bunch_from_theta((1, 1, 1, 1, 1), 5)
    b = routes.bunch_from_theta((9, 10, 11, 12, 13), 5)
    assert a == b  # both generic points lie in the central chamber


def test_projectivity_n5_all_true():
    for m in cx.max_biconnected_masks(5, full_only=True):
        assert bunches.is_projective(Complex(5, m))


def test_projectivity_routes_agree_n5():
    for m in cx.max_biconnected_masks(5, full_only=True):
        d = Complex(5, m)
        phi = routes.phi_from_complex(d)
        dd = bunches.projectivity_witness(d)
        lp = routes.projectivity_witness_lp(phi)
        assert (dd is None) == (lp is None)
        if dd is not None:
            theta = routes.bunch_from_theta(dd, 5)
            assert theta == phi


def test_projectivity_routes_agree_n6_sample():
    """The face route on the complex against the LP route on its bunch, on
    a seeded sample of the 2640 full complexes at n=6, where over a third
    are not projective."""
    full = [Complex(6, m) for m in cx.max_biconnected_masks(6, full_only=True)]
    nonprojective = 0
    for d in random.Random(2640).sample(full, 600):
        phi = routes.phi_from_complex(d)
        witness = bunches.projectivity_witness(d)
        assert (witness is None) == (
            routes.projectivity_witness_lp(phi) is None)
        if witness is None:
            nonprojective += 1
        else:
            assert routes.bunch_from_theta(witness, 6) == phi
    assert nonprojective >= 150


def test_projectivity_requires_full_maximally_biconnected():
    # ↓([5] minus {1})
    nonfull = Complex.from_faces(5, (frozenset({2, 3, 4, 5}),))
    assert cx.is_maximal_biconnected(nonfull)
    not_maximal = Complex.from_faces(
        5, tuple(frozenset({i}) for i in range(1, 6)))
    assert cx.is_full(not_maximal)
    for d in (nonfull, not_maximal):
        with pytest.raises(ValueError):
            bunches.projectivity_witness(d)
        with pytest.raises(ValueError):
            bunches.is_projective(d)


@pytest.mark.parametrize("n", [5, 6])
def test_witness_is_chamber_point(n):
    """The projectivity witness of a chamber's complex is the point the
    split of C_0 reports for that chamber: the face rows cut out the
    chamber's closure, and both take the ray sum of its extreme rays."""
    a = ar.build_A(n)
    for theta in routes.chambers_in_cone(a, ar.cone_C0(n)):
        d = routes.chamber_to_complex(a, theta)
        assert bunches.projectivity_witness(d) == theta
