"""Bunches of free polygon orbit cones.

A bunch is a nonempty collection of free cones ω_P, each named by its
partition P, whose relative interiors pairwise intersect, closed under
passing to larger cones (finer partitions).  Maximal bunches are in
bijection with full maximally-biconnected complexes: Φ_Δ = {ω_P free :
every part of P is a face of Δ}, and the inverse recovers Δ as the downward
closure of all member parts.

Projectivity of the quotient attached to Δ amounts to the cones of Φ_Δ
sharing a common interior point.  Their intersection is cut out by θ ≥ 0
and v_I ≥ 0 over the maximal faces I of Δ, so `projectivity_witness` reads
those faces off the complex and certifies the answer by the extreme rays of
that cone, the closed GIT chamber of Δ when it is projective.  The second
route builds the bunch, recovers the maximal parts from its own members,
and solves an exact rational LP.
"""

from __future__ import annotations

from fractions import Fraction

from . import ratgeom
from .complexes import (Complex, Partition, _closure, _mask_is_full,
                        _maximal_faces_of_mask, _partition_masks,
                        _splits_every_pair, _subset_table, family_mask,
                        is_full, is_maximal_biconnected, mask_of)
from .polygon_cones import is_free
from .values import Value


class Bunch(Value):
    """A set of free polygon orbit cones, each named by its Partition."""

    __slots__ = ("n", "cones")

    def __init__(self, n: int, cones: frozenset):
        for c in cones:
            if c.n != n:
                raise ValueError("ambient rank mismatch")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "cones", cones)


def _free_bunch(n: int, family: int) -> Bunch:
    """The free cones ω_P, P a partition of [n] into >= 3 parts each in the
    family mask."""
    sets = _subset_table(n)
    return Bunch(n, frozenset(
        Partition(n, tuple(sets[p][1] for p in parts))
        for parts in _partition_masks((1 << n) - 1, family, 3)))


def is_bunch(phi: Bunch) -> bool:
    """Pairwise-meeting interiors plus upward closure under refinement.

    Two free cones have disjoint relative interiors exactly when a part of
    one and a part of the other cover [n], and two parts of one free
    partition never do, so the interiors meet pairwise exactly when no two
    member parts cover [n]."""
    cones = list(phi.cones)
    if not cones:
        return False
    for c in cones:
        if not is_free(c):
            raise ValueError("bunch members must be free cones")
    n = phi.n
    full = (1 << n) - 1
    members = {tuple(mask_of(part, n) for part in c.parts) for c in cones}
    parts = {p for m in members for p in m}
    if any(a | b == full for a in parts for b in parts):
        return False
    # Upward closure under refinement.  Every refinement of a member is
    # reached by splitting one part in two at a time, and each step is still
    # free, so it is enough that every such split of a member is a member.
    for m in members:
        for i, part in enumerate(m):
            low = part & -part
            rest = part ^ low
            sub = rest
            while sub:
                sub = (sub - 1) & rest
                q = m[:i] + m[i + 1:] + (low | sub, rest ^ sub)
                if tuple(sorted(q, key=lambda s: s & -s)) not in members:
                    return False
    return True


def phi_from_complex(d: Complex) -> Bunch:
    """Φ_Δ: all free partitions of [n] whose parts are faces of Δ."""
    phi = _free_bunch(d.n, d.family)
    if not phi.cones:
        raise ValueError("complex admits no free partition")
    return phi


def complex_from_bunch(phi: Bunch) -> Complex:
    """Downward closure of all member parts; inverse of phi_from_complex."""
    if not is_bunch(phi):
        raise ValueError("not a bunch")
    parts = (mask_of(part, phi.n) for c in phi.cones for part in c.parts)
    d = Complex(phi.n, _closure(phi.n, parts))
    if not (is_full(d) and is_maximal_biconnected(d)):
        raise ValueError("not a maximal bunch")
    if phi_from_complex(d) != phi:
        raise ValueError("not a maximal bunch")
    return d


def is_maximal_bunch(phi: Bunch) -> bool:
    if not is_bunch(phi):
        raise ValueError("not a bunch")
    try:
        complex_from_bunch(phi)
    except ValueError:
        return False
    return True


def bunch_from_theta(theta, n: int) -> Bunch:
    """Φ_θ: all free P with θ strictly interior to ω_P.

    Requires θ componentwise positive, strictly inside C_0, and off every
    wall v_I = 0 (so strict membership is decided by signs alone).  The
    family of the I with v_I(θ) > 0 decides the last two: θ is inside C_0
    when it holds every singleton, and on a wall when it holds neither I
    nor its complement.
    """
    theta = tuple(Fraction(t) for t in theta)
    if len(theta) != n:
        raise ValueError("dimension mismatch")
    if any(t <= 0 for t in theta):
        raise ValueError("theta must lie in the open orthant")
    family = family_mask(theta, n)
    if not _mask_is_full(family, n):
        raise ValueError("theta must lie in the interior of C_0")
    if not _splits_every_pair(family, n):
        raise ValueError("theta lies on a wall of the arrangement")
    return _free_bunch(n, family)


def _cone_rows(n: int, faces) -> list:
    """θ_i >= 0 and v_I >= 0 (-1 on I, 1 off it) over the face masks I: the
    H-description of the intersection of the free cones with parts in faces."""
    rows = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return rows + [tuple(-1 if s >> j & 1 else 1 for j in range(n))
                   for s in faces]


def projectivity_witness(d: Complex):
    """A rational θ interior to every cone of Φ_Δ, or None.

    Δ must be full and maximally biconnected.  Its maximal faces are the
    maximal parts of Φ_Δ (each has at most n − 2 elements, so it is a part
    of a free partition next to singletons), and the intersection cone is
    pointed (it sits in the orthant), so its extreme rays certify the
    answer: their ray_sum lies in its relative interior, which is the
    interior exactly when there are rays and no inequality vanishes there.
    On the orthant v_J ≥ v_I for J ⊆ I and v_{I^c} = −v_I, so for a
    projective Δ the cone is the closure of the chamber of A(n) inducing
    Δ, and the witness is the point chambers_in_cone reports for it.
    """
    if not (is_full(d) and is_maximal_biconnected(d)):
        raise ValueError("requires a full maximally-biconnected complex")
    n = d.n
    rows = _cone_rows(n, _maximal_faces_of_mask(d.family, n))
    rays = ratgeom.h_to_v(ratgeom.ConeH(n, tuple(rows))).generators
    theta = ratgeom.ray_sum(rays)
    if not rays or any(ratgeom.dot(row, theta) <= 0 for row in rows):
        return None
    return theta


def _projectivity_witness_lp(phi: Bunch):
    """Independent LP route on the bunch itself: with the maximal parts of
    its members (subsets of parts are implied), θ_i >= 1 and v_I(θ) >= 1 is
    feasible (by scaling) exactly when the common interior is nonempty."""
    n = phi.n
    parts = (mask_of(part, n) for c in phi.cones for part in c.parts)
    rows = _cone_rows(n, _maximal_faces_of_mask(_closure(n, parts), n))
    return ratgeom.solve_ge(rows, [1] * len(rows))


def is_projective(d: Complex) -> bool:
    """Whether the cones of Φ_Δ share a full-dimensional intersection."""
    return projectivity_witness(d) is not None
