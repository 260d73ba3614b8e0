"""Polygon-side orbit cones ω_P and the wall cones η_I.

ω_P = Cone(e_i + e_j | i < j in the ground set, {i,j} not inside one part).
For free cones (P a partition of [n] with at least 3 parts) the dual
description, containment, and relative-interior disjointness have
closed combinatorial forms; those are implemented here and cross-validated
against the ratgeom oracle in the test suite.  Non-free queries are
deliberately routed to the oracle (NotFreeError) instead of extrapolating
the closed forms beyond their proven domain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import Partition, refines


class NotFreeError(ValueError):
    """Closed form only proven for free cones; caller should fall back to the
    ratgeom oracle."""


@dataclass(frozen=True)
class PolygonCone:
    """ω_P, identified by its (canonical) partition."""

    n: int
    partition: Partition

    def __post_init__(self):
        if self.partition.n != self.n:
            raise ValueError("partition range mismatch")


def v_I(I, n: int) -> tuple:
    """The functional v_I = sum_{j not in I} f_j - sum_{i in I} f_i."""
    I = set(I)
    return tuple(-1 if i in I else 1 for i in range(1, n + 1))


def generators(c: PolygonCone) -> list:
    """Vectors e_i + e_j over pairs of the ground set not inside one part."""
    n = c.n
    ground = sorted(c.partition.ground)
    gens = []
    for i, j in itertools.combinations(ground, 2):
        if any({i, j} <= part for part in c.partition.parts):
            continue
        v = [0] * n
        v[i - 1] = 1
        v[j - 1] = 1
        gens.append(tuple(v))
    return gens


def in_omega_Y_free(p: Partition) -> bool:
    return len(p.ground) == p.n and len(p.parts) >= 3


def is_free(c: PolygonCone) -> bool:
    return in_omega_Y_free(c.partition)


def dual_generators(c: PolygonCone) -> list:
    """Generators of ω_P^∨ for free P: the v_I, I ∈ P, plus f_1..f_n."""
    if not is_free(c):
        raise NotFreeError("dual description proven only for free cones")
    n = c.n
    gens = [v_I(part, n) for part in c.partition.parts]
    for i in range(n):
        f = [0] * n
        f[i] = 1
        gens.append(tuple(f))
    return gens


def subset_free(p: PolygonCone, q: PolygonCone) -> bool:
    """ω_P ⊆ ω_Q iff Q refines P (free cones only)."""
    if not (is_free(p) and is_free(q)):
        raise NotFreeError("containment closed form requires free cones")
    return refines(q.partition, p.partition)


def relint_disjoint_free(p: PolygonCone, q: PolygonCone) -> bool:
    """ω_P° ∩ ω_Q° = ∅ iff some I' ∈ P and J' ∈ Q have I' ∪ J' = [n]."""
    if not (is_free(p) and is_free(q)):
        raise NotFreeError("disjointness closed form requires free cones")
    full = set(range(1, p.n + 1))
    return any(set(a) | set(b) == full
               for a in p.partition.parts for b in q.partition.parts)


def eta(I, n: int) -> PolygonCone:
    """η_I = ω_{P_I} with P_I = {I} plus singletons of I^c (η_∅ = singletons)."""
    I = frozenset(I)
    parts = [frozenset({j}) for j in range(1, n + 1) if j not in I]
    if I:
        parts.append(I)
    return PolygonCone(n, Partition(n, tuple(parts)))

