"""Bunches of free polygon orbit cones.

A bunch is a nonempty collection of free cones ω_P, each named by its
partition P, whose relative interiors pairwise intersect, closed under
passing to larger cones (finer partitions).  Maximal bunches are in
bijection with full maximally-biconnected complexes: Φ_Δ = {ω_P free :
every part of P is a face of Δ}, and the inverse recovers Δ as the downward
closure of all member parts.

Projectivity of the quotient attached to Δ amounts to the cones of Φ_Δ
sharing a common interior point.  Their intersection is cut out by θ ≥ 0
and v_I ≥ 0 over the maximal faces I of Δ, the rows complexes.cone_rows
writes for those faces, so `projectivity_witness` reads them off the
complex and certifies the answer by the extreme rays of that cone, the
closed GIT chamber of Δ when it is projective.  The library builds no
bunch: the Bunch value class, Φ_Δ itself (phi_from_complex) and the
second route live in tests/routes.py.  That route builds the bunch,
recovers the maximal parts from its own members and solves an exact
rational LP on the same rows; the inverse map and the bunch axioms live
there too.  The oracle's Ψ suite (crosscheck.psi_suite) finds Φ_Δ's
members as part tuples, with no bunch either.
"""

from __future__ import annotations

from . import ratgeom
from .complexes import (Complex, _maximal_faces_of_mask, cone_rows, is_full,
                        is_maximal_biconnected)


def projectivity_witness(d: Complex):
    """A rational θ interior to every cone of Φ_Δ, or None.

    Δ must be full and maximally biconnected.  Its maximal faces are the
    maximal parts of Φ_Δ (each has at most n − 2 elements, so it is a part
    of a free partition next to singletons), and the intersection cone is
    pointed (it sits in the orthant), so its extreme rays certify the
    answer: their ray_sum lies in its relative interior, which is the
    interior exactly when there are rays and no inequality vanishes there.
    The rows are cone_rows(n, maximal faces), so row n + k is the k-th
    maximal face's v_I.
    On the orthant v_J ≥ v_I for J ⊆ I and v_{I^c} = −v_I, so for a
    projective Δ the cone is the closure of the chamber of A(n) inducing
    Δ, and the witness is the ray_sum of that chamber's extreme rays.
    """
    if not (is_full(d) and is_maximal_biconnected(d)):
        raise ValueError("requires a full maximally-biconnected complex")
    n = d.n
    rows = cone_rows(n, _maximal_faces_of_mask(d.family, n))
    rays = ratgeom.h_to_v(ratgeom.ConeH(n, tuple(rows))).generators
    theta = ratgeom.ray_sum(rays)
    if not rays or any(ratgeom.dot(row, theta) <= 0 for row in rows):
        return None
    return theta


def is_projective(d: Complex) -> bool:
    """Whether the cones of Φ_Δ share a full-dimensional intersection."""
    return projectivity_witness(d) is not None
