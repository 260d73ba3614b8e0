"""Hyperpolygon-side orbit cones ω_{P,K} and the crepant-resolution census.

ω_{P,K} = ω_P + Cone(−e_k | k ∈ K), with the polygon cone ω_P named by its
partition P as in polygon_cones and K a subset mask, so that every test
below is a few mask operations.  The module provides the combinatorial
membership test for orbit data, the corner-cone and orthant containment
criteria, the C_0 slice, the Ψ_Δ membership kernel, and the census that
pairs every maximally-biconnected complex, as its family mask, with an
exact witness character when it is projective and None when it is not.

The census works by S_n-orbits of GIT chambers: arrangements._sorted_pieces
splits only the sorted cone W: θ_1 ≥ … ≥ θ_n inside C_0, which meets one
chamber C per orbit in its W-piece P = C̄ ∩ W.  The counts add up the orbit
sizes (arrangements.chamber_orbits).  The census witness of C, the ray_sum
of the extreme rays of C̄, comes from P's rays, with no conversion of C̄ to
rays: with S the stabiliser of C, the product of the symmetric groups on
the runs the split reads, C̄ = ∪_{σ∈S} σP, so ext(C̄) is the S-orbit of
the rays of P extreme in C̄, those on which the hyperplanes of A(n)
through them have rank n − 1 (tested only for the rays on a wall
θ_i = θ_{i+1} of W, once per ray; the walls and the hyperplanes through
a ray are read off its DD record's tight mask), and the witness is
primitive(Σ_r Σ_{v∈S·r} v), whose inner sum is, within each run,
|S·r| × (r's sum over the run) / (the run's length).  complexes._orbits,
started from the witness, then carries it over C's orbit.  The second
routes, which the tests compare it with, split all of C_0
(arrangements.count_regions_in_cone, and chambers_in_cone in
tests/routes.py), walk every complex, and certify each representative's
complex by bunches.projectivity_witness, its own double description.

All closed forms here are cross-validated against the ratgeom oracle in the
test suite; any disagreement is a test failure, not a warning.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from math import factorial

from . import arrangements, polygon_cones, ratgeom
from .complexes import (Complex, Partition, _check_range, _closure,
                        _max_biconnected_leaves, _orbits,
                        count_max_biconnected, enumerate_partitions,
                        is_full, is_maximal_biconnected)
from .polygon_cones import eta
from .values import Value


class HyperCone(Value):
    """ω_{P,K} for orbit data (P, K), K a subset mask."""

    __slots__ = ("n", "partition", "K")

    def __init__(self, n: int, partition: Partition, K: int):
        if partition.n != n:
            raise ValueError("partition range mismatch")
        if K < 0 or K >> n:
            raise ValueError("K outside [n]")
        Value.__init__(self, n, partition, K)


def generators_hyper(c: HyperCone) -> list:
    """Polygon generators of ω_P followed by −e_k, k ∈ K."""
    gens = polygon_cones.generators(c.partition)
    for k in range(c.n):
        if c.K >> k & 1:
            v = [0] * c.n
            v[k] = -1
            gens.append(tuple(v))
    return gens


def in_omega_X_free(p: Partition, K: int) -> bool:
    """Free orbit-data test (P partitions all of [n])."""
    if p.ground != (1 << p.n) - 1:
        return False
    meets = sum(1 for J in p.parts if J & K)
    if meets >= 4:
        return True
    if any((J & K).bit_count() == 1 for J in p.parts):
        return False
    if len(p.parts) >= 3:
        return True
    return len(p.parts) >= 2 and bool(K)


def is_free(c: HyperCone) -> bool:
    return in_omega_X_free(c.partition, c.K)


def contains_corner(c: HyperCone, i: int) -> bool:
    """C_i ⊆ ω_{P,K} iff K meets the complement of i's part, i in [n]."""
    bit = 1 << (i - 1) if i > 0 else 0
    I = next((J for J in c.partition.parts if J & bit), None)
    if I is None:
        raise ValueError("index outside the partition's ground")
    return bool(c.K & ~I)


def contains_F(c: HyperCone) -> bool:
    """Orthant containment: K nonempty and inside no single part
    (equivalently ω_{P,K} is not strongly convex)."""
    return bool(c.K) and all(c.K & ~I for I in c.partition.parts)


def meet_C0(c: HyperCone) -> Partition:
    """ω_{P,K} ∩ C_0, named by its partition: the wall cone η_I for
    K ⊆ I ∈ P, or ω_P when K = ∅."""
    if contains_F(c):
        raise ValueError("cone contains the orthant; the slice is not a wall")
    if not c.K:
        return c.partition
    I = next(J for J in c.partition.parts if not c.K & ~J)
    return eta(I, c.n)


def _psi_faces(c: HyperCone) -> int | None:
    """What Ψ_Δ membership for a full Δ asks of a free datum, found once
    per datum: the family mask of the faces Δ must have — none when
    ω_{P,K} contains F, P's parts when K = ∅, else the part I holding K —
    or None when #I > n − 2, so that ω_{P,K} is in no full Ψ_Δ."""
    if not is_free(c):
        raise ValueError("requires a free hyper cone")
    if contains_F(c):
        return 0
    if not c.K:
        return sum(1 << J for J in c.partition.parts)
    I = next(J for J in c.partition.parts if not c.K & ~J)
    return 1 << I if I.bit_count() <= c.n - 2 else None


def _psi_corner(d: Complex) -> int:
    """The index i of the singleton a non-full Δ = ↓([n] minus {i})
    misses, or 0 for a full Δ, once Δ is checked maximally biconnected."""
    if not is_maximal_biconnected(d):
        raise ValueError("requires a maximally-biconnected complex")
    if is_full(d):
        return 0
    missing = [i for i in range(1, d.n + 1)
               if not d.family >> (1 << (i - 1)) & 1]
    if len(missing) != 1:
        raise ValueError("non-full maximally-biconnected complex "
                         "must miss exactly one singleton")
    return missing[0]


def _psi(family: int, i: int, c: HyperCone, faces: int | None) -> bool:
    """Membership of ω_{P,K} in Ψ_Δ, for Δ given by its family mask and
    _psi_corner index i, and c by its _psi_faces.

    Non-full Δ (all subsets avoiding i): cones containing C_i.  Full Δ:
    cones containing F, or whose C_0 slice contains a free polygon cone of
    Φ_Δ — ω_P with P ⊆ Δ for K = ∅, and η_I with I a face of Δ of size
    ≤ n−2 for K ⊆ I ∈ P.
    """
    if i:
        return contains_corner(c, i)
    return faces is not None and family & faces == faces


def orbit_data(n: int, max_k: int | None = None) -> Iterator[tuple]:
    """Every orbit datum (P, K) on [n], free or not: P a partition of [n]
    into at least two parts, K ⊆ [n], optionally with #K bounded."""
    bits = [1 << j for j in range(n)]
    top = n if max_k is None else min(n, max_k)  # K ⊆ [n]
    for p in enumerate_partitions((1 << n) - 1, n, min_parts=2):
        for size in range(0, top + 1):
            for K in map(sum, itertools.combinations(bits, size)):
                yield p, K


def free_orbit_data(n: int, max_k: int | None = None) -> Iterator[HyperCone]:
    """All free hyper cones on [n], optionally with #K bounded."""
    return (HyperCone(n, p, K) for p, K in orbit_data(n, max_k)
            if in_omega_X_free(p, K))


# ---------------------------------------------------------------------------
# census

def _corner_witness(n: int, i: int) -> tuple:
    """A deterministic generic point of C_i°: distinct powers of 3 off i,
    and θ_i one more than their sum (odd total, so no wall vanishes)."""
    theta = [3 ** j for j in range(1, n + 1)]
    theta[i - 1] = sum(theta) - theta[i - 1] + 1
    return tuple(theta)


def _chamber_ray(through, n: int) -> bool:
    """Whether a ray of a chamber's W-piece is extreme in the closed chamber
    C̄: exactly when the hyperplanes of A(n) through it, whose normals are
    the rows through, have rank n − 1.  C̄ is cut out by those normals,
    each with the sign it takes on C, so this does not depend on the
    chamber."""
    return ratgeom.rank(through) == n - 1


def _projective_bank(n: int) -> dict:
    """family mask -> chamber witness θ, over the chambers of 𝒜 in C_0,
    from the W-pieces of arrangements._sorted_pieces, one per S_n-orbit.

    A chamber C with W-piece P = C̄ ∩ W and stabiliser S, the product of
    the symmetric groups on its runs, has C̄ = ∪_{σ∈S} σP: sorting a point
    of C moves it into W, and the one chamber of its orbit meeting W is C.
    An extreme ray of C̄ lies in some σP and is extreme there, so ext(C̄)
    is the S-orbit of the rays of P that are extreme in C̄, and distinct
    rays of P, all sorted, have disjoint orbits.  A ray of P on no wall
    θ_i = θ_{i+1} of W is tight only on hyperplanes of A(n), so it is
    extreme in C̄; one on such a wall is kept when _chamber_ray says so,
    found once per ray.  A ray's record says which rows of the split it is
    tight on: the walls are the first n − 1, and every later row is a
    hyperplane of A(n).  The witness, the ray_sum of ext(C̄), is then
    primitive(Σ_r Σ_{v∈S·r} v), and within a run of length L the inner sum
    is |S·r| times r's sum over the run, divided by L, at every element of
    the run.  It is the projectivity witness of C's complex (the tests
    compare the two).

    σC has extreme rays σ·(those of C), so its witness is σ·w_C, and its
    family mask is σ applied to C's: complexes._orbits walks the orbit of
    C's mask starting from w_C, and so gives each member its witness."""
    walls = (1 << n - 1) - 1
    extreme = {}
    reps = {}

    def collect(rays, theta, fam, runs, rows):
        spans = []
        start = 0
        for run in runs:
            spans.append((start, start + run))
            start += run
        total = [0] * n
        for r, _, _, _, tight in rays:
            if tight & walls:
                keep = extreme.get(r)
                if keep is None:
                    keep = extreme[r] = _chamber_ray(
                        [h for j, h in enumerate(rows)
                         if j >= n - 1 and tight >> j & 1], n)
                if not keep:
                    continue
            size = 1
            for s, e in spans:
                size *= factorial(e - s)
                for _, same in itertools.groupby(r[s:e]):
                    size //= factorial(len(tuple(same)))
            for s, e in spans:
                share = size * sum(r[s:e]) // (e - s)
                for j in range(s, e):
                    total[j] += share
        reps[fam] = ratgeom.primitive(total)

    arrangements._sorted_pieces(n, collect)
    bank = {}
    for _, orbit in _orbits(reps, n, reps):
        bank.update(orbit)
    return bank


def census(n: int, leaves: bool = False) -> Iterator[tuple]:
    """(family mask, witness) for each maximally-biconnected complex on
    [n], in the order of max_biconnected_masks; the witness is None
    exactly when the complex is not projective.  With leaves, each mask is
    the walk's leaf, which carries the complex's covered mask above bit
    2^n (complexes._max_biconnected_leaves): the rows that `resolutions
    census --records` writes.

    Non-full complexes, ↓([n] minus {i}), are always projective (corner
    chambers, witness _corner_witness); a full complex is projective exactly
    when some arrangement chamber inside C_0 induces it, and that chamber's
    interior point is the witness.  n is checked, and the witnesses found,
    at the call; the walk runs as the result is read.
    """
    _check_range(n)
    bank = _projective_bank(n)
    bank.update((_closure(n, ((1 << n) - 1 ^ 1 << (i - 1),)),
                 _corner_witness(n, i)) for i in range(1, n + 1))
    low = (1 << (1 << n)) - 1
    return ((m, bank.get(m & low))
            for m in _max_biconnected_leaves(n, covered=leaves))


def census_counts(n: int) -> dict:
    """{total, projective, nonprojective} by structure, without the census
    walk: λ(n) complexes, of which the n non-full ones and the one full
    complex per chamber of 𝒜 inside C_0 are projective (a chamber lies on
    no hyperplane v_I = 0, so it is fixed by, and fixes, its complex).
    The chambers are counted by S_n-orbit, as the sum of the orbit sizes,
    and λ(n) by the orbit sum, whose range check, 4 ≤ n ≤ 8, runs first:
    the counts reach one n beyond the census walk."""
    total = count_max_biconnected(n)
    proj = n + sum(size for _, size in arrangements.chamber_orbits(n))
    return {"n": n, "total": total, "projective": proj,
            "nonprojective": total - proj}
