"""Bunches of free polygon orbit cones.

A bunch is a nonempty collection of free cones whose relative interiors
pairwise intersect, closed under passing to larger cones (finer partitions).
Maximal bunches are in bijection with full maximally-biconnected complexes:
Φ_Δ = {ω_P free : every part of P is a face of Δ}, and the inverse recovers
Δ as the downward closure of all member parts.  Projectivity of the quotient
attached to a maximal bunch amounts to the member cones sharing a common
interior point, which we certify with an exact rational LP.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import ratgeom
from .complexes import (Complex, Partition, complex_family,
                        enumerate_partitions, family_mask, mask_of, members_of)
from .polygon_cones import PolygonCone, is_free, v_I


@dataclass(frozen=True)
class Bunch:
    """A set of free polygon orbit cones, canonicalized and deduplicated."""

    n: int
    cones: frozenset

    def __post_init__(self):
        for c in self.cones:
            if c.n != self.n:
                raise ValueError("ambient rank mismatch")


def _free_partitions_with(n: int, family: int) -> list:
    """All partitions of [n] into >= 3 parts, every part in the family (a
    family bitmask, bit s set for the subset with mask s).

    Recursion on int masks: the lowest unassigned element picks its part
    among the submasks of what is left; Partition objects are built only
    for the accepted partitions.
    """
    found = []

    def rec(remaining, parts):
        if not remaining:
            if len(parts) >= 3:
                found.append(parts)
            return
        low = remaining & -remaining
        rest = remaining ^ low
        sub = rest
        while True:
            part = low | sub
            if family >> part & 1:
                rec(remaining ^ part, parts + (part,))
            if not sub:
                break
            sub = (sub - 1) & rest

    rec((1 << n) - 1, ())
    sets = _subsets(n)
    return [Partition(n, tuple(sets[p] for p in parts)) for parts in found]


@functools.lru_cache(maxsize=None)
def _subsets(n: int) -> tuple:
    """The subset of [n] with mask s, at index s."""
    return tuple(members_of(s) for s in range(1 << n))


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
    full = (1 << phi.n) - 1
    parts = {mask_of(part, phi.n) for c in cones for part in c.partition.parts}
    if any(a | b == full for a in parts for b in parts):
        return False
    # Upward closure: any free Q refining a member P must itself be a member.
    partitions = {c.partition for c in cones}
    for p in cones:
        for q in _refinements(p.partition):
            if len(q.parts) >= 3 and q not in partitions:
                return False
    return True


@functools.lru_cache(maxsize=4096)
def _refinements(p: Partition) -> tuple:
    """All partitions refining p: split each part independently."""
    choices = [[sub.parts for sub in enumerate_partitions(part, p.n)]
               for part in p.parts]
    return tuple(Partition(p.n, tuple(pt for sub in combo for pt in sub))
                 for combo in itertools.product(*choices))


def phi_from_complex(d: Complex) -> Bunch:
    """Φ_Δ: all free partitions of [n] whose parts are faces of Δ."""
    n = d.n
    parts = _free_partitions_with(n, complex_family(d))
    if not parts:
        raise ValueError("complex admits no free partition")
    return Bunch(n, frozenset(PolygonCone(n, p) for p in parts))


def _closure_complex(phi: Bunch) -> Complex:
    faces = set()
    for c in phi.cones:
        faces.update(c.partition.parts)
    maximal = [f for f in faces if not any(f < g for g in faces)]
    return Complex(phi.n, tuple(maximal))


def complex_from_bunch(phi: Bunch) -> Complex:
    """Downward closure of all member parts; inverse of phi_from_complex."""
    if not is_bunch(phi):
        raise ValueError("not a bunch")
    d = _closure_complex(phi)
    from .complexes import is_full, is_maximal_biconnected
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
    wall v_I = 0 (so strict membership is decided by signs alone).
    """
    theta = tuple(Fraction(t) for t in theta)
    if len(theta) != n:
        raise ValueError("dimension mismatch")
    if any(t <= 0 for t in theta):
        raise ValueError("theta must lie in the open orthant")
    total = sum(theta)
    for t in theta:
        if 2 * t >= total:
            raise ValueError("theta must lie in the interior of C_0")
    for bits in range(1, 1 << (n - 1)):
        I = {i + 1 for i in range(n) if bits >> i & 1}
        if sum(theta[i - 1] for i in I) * 2 == total:
            raise ValueError("theta lies on a wall of the arrangement")
    parts = _free_partitions_with(n, family_mask(theta, n))
    return Bunch(n, frozenset(PolygonCone(n, p) for p in parts))


def _intersection_ineqs(phi: Bunch):
    """H-description of the intersection of all member cones: the orthant
    plus v_I >= 0 over every part in use (subsets of parts are implied)."""
    n = phi.n
    parts = set()
    for c in phi.cones:
        parts.update(c.partition.parts)
    maximal = [p for p in parts if not any(p < q for q in parts)]
    rows = []
    for i in range(n):
        e = [0] * n
        e[i] = 1
        rows.append(tuple(e))
    for I in sorted(maximal, key=sorted):
        rows.append(v_I(I, n))
    return rows


def projectivity_witness(phi: Bunch):
    """A rational θ interior to every member cone, or None.

    The intersection cone is pointed (it sits in the orthant), so its
    extreme rays certify the answer: it has interior points exactly when
    the rays span, and their sum is then such a point.
    """
    n = phi.n
    rows = _intersection_ineqs(phi)
    rays = ratgeom.h_to_v(ratgeom.ConeH(n, tuple(rows))).generators
    if ratgeom.rank(rays) < n:
        return None
    return ratgeom.primitive(tuple(sum(c) for c in zip(*rays)))


def _projectivity_witness_lp(phi: Bunch):
    """Independent LP route: θ_i >= 1 and v_I(θ) >= 1 over member parts is
    feasible (by scaling) exactly when the common interior is nonempty."""
    rows = _intersection_ineqs(phi)
    return ratgeom.solve_ge(rows, [1] * len(rows))


def is_projective(phi: Bunch) -> bool:
    """Whether the member cones share a full-dimensional intersection."""
    return projectivity_witness(phi) is not None


def to_json_obj(phi: Bunch) -> list:
    return sorted([sorted(p) for p in c.partition.parts] for c in phi.cones)
