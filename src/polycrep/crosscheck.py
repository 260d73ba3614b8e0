"""Exhaustive cross-validation of closed-form criteria against ratgeom.

Every suite runs the combinatorial closed form side by side with an
independent polyhedral computation (dual descriptions via the double
description method, membership by evaluating generators against exact
H-forms, relative-interior tests by exact LP) and reports the number of
instances checked and the number of disagreements.  A nonzero mismatch
count is a correctness failure of the library, not a tolerance issue.
"""

from __future__ import annotations

import itertools

from . import arrangements, bunches, hyper_cones, polygon_cones, ratgeom
from .complexes import (Complex, _check_range, cone_rows,
                        enumerate_partitions, is_full, max_biconnected_masks)
from .ratgeom import ConeH, ConeV


def _h_form(gens, n) -> ConeH:
    return ratgeom.v_to_h(ConeV(n, tuple(gens)))


def _contains_all(h: ConeH, vectors) -> bool:
    return all(all(ratgeom.dot(ineq, v) >= 0 for ineq in h.inequalities)
               for v in vectors)


def _free_polygon_cones(n: int):
    return [(p, polygon_cones.generators(p))
            for p in enumerate_partitions((1 << n) - 1, n, min_parts=3)]


def polygon_suite(n: int) -> dict:
    """dual_generators, subset_free and relint_disjoint_free vs the oracle,
    exhaustively over all free partitions of [n]."""
    cones = _free_polygon_cones(n)
    checked = mismatches = 0
    hforms = []
    for c, gens in cones:
        h = _h_form(gens, n)
        hforms.append(h)
        # dual description: closed-form dual generates the same cone as the
        # DD-computed dual (mutual containment of generator sets)
        dual_closed = polygon_cones.dual_generators(c)
        dual_dd = [tuple(i) for i in h.inequalities]
        hc = _h_form(dual_closed, n)
        hd = _h_form(dual_dd, n)
        checked += 1
        if not (_contains_all(hd, dual_closed) and _contains_all(hc, dual_dd)):
            mismatches += 1
    for (p, pg), hp in zip(cones, hforms):
        for (q, qg), hq in zip(cones, hforms):
            checked += 1
            if polygon_cones.subset_free(p, q) != _contains_all(hq, pg):
                mismatches += 1
            checked += 1
            oracle = not ratgeom.relint_intersects(ConeV(n, tuple(pg)),
                                                   ConeV(n, tuple(qg)))
            if polygon_cones.relint_disjoint_free(p, q) != oracle:
                mismatches += 1
    return {"suite": "polygon", "n": n,
            "checked": checked, "mismatches": mismatches}


def hyper_suite(n: int, max_k: int = 3) -> dict:
    """contains_corner, contains_F, meet_C0 and the F°-intersection
    invariant vs the oracle, over all free orbit data with #K bounded."""
    checked = mismatches = 0
    f_rays = cone_rows(n)
    corner_rays = {i: ratgeom.h_to_v(arrangements.cone_Ci(n, i)).generators
                   for i in range(1, n + 1)}
    c0_h = arrangements.cone_C0(n)
    for hc in hyper_cones.free_orbit_data(n, max_k):
        gens = hyper_cones.generators_hyper(hc)
        h = _h_form(gens, n)
        for i in range(1, n + 1):
            checked += 1
            if hyper_cones.contains_corner(hc, i) != _contains_all(
                    h, corner_rays[i]):
                mismatches += 1
        checked += 1
        if hyper_cones.contains_F(hc) != _contains_all(h, f_rays):
            mismatches += 1
        checked += 1
        if not ratgeom.relint_intersects(ConeV(n, tuple(gens)),
                                         ConeV(n, tuple(f_rays))):
            mismatches += 1  # every free cone must meet the open orthant
        if not hyper_cones.contains_F(hc):
            checked += 1
            slice_h = ConeH(n, h.inequalities + c0_h.inequalities)
            got = ratgeom.canonical_form(ratgeom.h_to_v(slice_h))
            want = ratgeom.canonical_form(ConeV(
                n, tuple(polygon_cones.generators(hyper_cones.meet_C0(hc)))))
            if got != want:
                mismatches += 1
    return {"suite": "hyper", "n": n, "max_k": max_k,
            "checked": checked, "mismatches": mismatches}


def psi_suite(n: int, max_k: int = 3) -> dict:
    """psi_membership vs the oracle 'some Φ_Δ cone is contained in ω',
    over every maximally-biconnected complex and bounded free orbit data."""
    checked = mismatches = 0
    free_pc = _free_polygon_cones(n)
    data = list(hyper_cones.free_orbit_data(n, max_k))
    hforms = [_h_form(hyper_cones.generators_hyper(hc), n) for hc in data]
    # which free polygon cones each hyper cone contains
    contains = []
    for h in hforms:
        bits = 0
        for idx, (_, gens) in enumerate(free_pc):
            if _contains_all(h, gens):
                bits |= 1 << idx
        contains.append(bits)
    corner_rays = {i: ratgeom.h_to_v(arrangements.cone_Ci(n, i)).generators
                   for i in range(1, n + 1)}
    for d in (Complex(n, m) for m in max_biconnected_masks(n)):
        if is_full(d):
            phi = bunches.phi_from_complex(d)
            members = 0
            for idx, (c, _) in enumerate(free_pc):
                if c in phi.cones:
                    members |= 1 << idx
            oracle_bits = [bool(members & cb) for cb in contains]
        else:
            i = next(j for j in range(1, n + 1)
                     if not d.family >> (1 << (j - 1)) & 1)
            oracle_bits = [_contains_all(h, corner_rays[i]) for h in hforms]
        for hc, oracle in zip(data, oracle_bits):
            checked += 1
            if hyper_cones.psi_membership(d, hc) != oracle:
                mismatches += 1
    return {"suite": "psi", "n": n, "max_k": max_k,
            "checked": checked, "mismatches": mismatches}


def orbit_membership_suite(n: int, max_k: int = 3) -> dict:
    """in_omega_X_free consistency: every accepted orbit datum generates a
    top-dimensional cone."""
    checked = mismatches = 0
    bits = [1 << j for j in range(n)]
    for p in enumerate_partitions((1 << n) - 1, n, min_parts=2):
        for size in range(0, max_k + 1):
            for K in map(sum, itertools.combinations(bits, size)):
                ok = hyper_cones.in_omega_X_free(p, K)
                checked += 1
                if ok:
                    gens = hyper_cones.generators_hyper(
                        hyper_cones.HyperCone(n, p, K))
                    if ratgeom.cone_dim(ConeV(n, tuple(gens))) != n:
                        mismatches += 1
    return {"suite": "orbit-membership", "n": n, "max_k": max_k,
            "checked": checked, "mismatches": mismatches}


def run_all(n: int, max_k: int = 3) -> list:
    _check_range(n)  # psi_suite walks every complex: fail before any suite
    return [polygon_suite(n),
            hyper_suite(n, max_k),
            psi_suite(n, max_k),
            orbit_membership_suite(n, max_k)]
