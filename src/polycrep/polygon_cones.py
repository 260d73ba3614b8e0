"""Polygon-side orbit cones ω_P and the wall cones η_I.

ω_P = Cone(e_i + e_j | i < j in the ground set, {i,j} not inside one part),
and a cone is named by its `Partition` P, whose parts are subset masks, as
is the I of η_I.  For free cones (P a partition of [n] with at least 3
parts) the dual description, containment, and relative-interior
disjointness have closed combinatorial forms; those are implemented here
and cross-validated against the ratgeom oracle in the test suite.
Non-free queries are deliberately routed to the oracle (NotFreeError)
instead of extrapolating the closed forms beyond their proven domain.
"""

from __future__ import annotations

import itertools

from .complexes import Partition, cone_rows, refines


class NotFreeError(ValueError):
    """Closed form only proven for free cones; caller should fall back to the
    ratgeom oracle."""


def generators(p: Partition) -> list:
    """Vectors e_i + e_j over pairs of the ground set not inside one part."""
    n, ground = p.n, p.ground
    gens = []
    for i, j in itertools.combinations(
            [k for k in range(n) if ground >> k & 1], 2):
        pair = 1 << i | 1 << j
        if any(not pair & ~part for part in p.parts):
            continue
        v = [0] * n
        v[i] = 1
        v[j] = 1
        gens.append(tuple(v))
    return gens


def is_free(p: Partition) -> bool:
    """ω_P is free: P partitions all of [n] into at least 3 parts."""
    return p.ground == (1 << p.n) - 1 and len(p.parts) >= 3


def dual_generators(p: Partition) -> list:
    """Generators of ω_P^∨ for free P: ω_P's own rows, since ω_P is
    θ ≥ 0 and v_I ≥ 0 for I ∈ P: cone_rows(n, P), f_1..f_n and then the
    v_I in the order of P's parts."""
    if not is_free(p):
        raise NotFreeError("dual description proven only for free cones")
    return cone_rows(p.n, p.parts)


def subset_free(p: Partition, q: Partition) -> bool:
    """ω_P ⊆ ω_Q iff Q refines P (free cones only)."""
    if not (is_free(p) and is_free(q)):
        raise NotFreeError("containment closed form requires free cones")
    return refines(q, p)


def relint_disjoint_free(p: Partition, q: Partition) -> bool:
    """ω_P° ∩ ω_Q° = ∅ iff some I' ∈ P and J' ∈ Q have I' ∪ J' = [n]."""
    if not (is_free(p) and is_free(q)):
        raise NotFreeError("disjointness closed form requires free cones")
    if p.n != q.n:
        raise ValueError("ground-set mismatch")
    full = p.ground
    return any(a | b == full for a in p.parts for b in q.parts)


def eta(I: int, n: int) -> Partition:
    """η_I = ω_{P_I} with P_I = {I} plus singletons of I^c (η_∅ = singletons),
    I a subset mask."""
    parts = [1 << j for j in range(n) if not I >> j & 1]
    if I:
        parts.append(I)
    return Partition(n, tuple(parts))
