"""Exhaustive cross-validation of closed-form criteria against ratgeom.

Every suite runs the combinatorial closed form side by side with an
independent polyhedral computation (dual descriptions via the double
description method, membership by evaluating generators against exact
H-forms, relative-interior tests by exact LP) and reports the number of
instances checked and the number of disagreements.  A nonzero mismatch
count is a correctness failure of the library, not a tolerance issue.

Each oracle-side object is computed once per n and shared by the suites:
the free polygon cones ω_P with their generators, the free orbit data
ω_{P,K} with their DD H-forms, and the corner rays of C_1..C_n by DD.
Containment is read off incidence masks: the generator vectors of all
these cones are a few distinct ones (e_i + e_j, e_i, −e_k), each with a
bit, and one kernel (_Vectors.inside) gives per H-form the mask of those
it contains, dotting each distinct inequality with each vector once; a
cone lies in the H-form when its generator mask does.  Sharing changes
what is computed, not what is compared: every ordered instance still
meets its closed form.  relint_intersects is symmetric, so polygon_suite
solves one LP per unordered pair and compares relint_disjoint_free(P, Q)
and (Q, P) against it separately, as it does subset_free.  psi_suite
checks each complex and each orbit datum once and then meets every pair
at the Ψ_Δ kernel, hyper_cones._psi.  The oracle side reads no
closed-form answer; the closed forms only choose, as before, which
instances a suite visits.
"""

from __future__ import annotations

import functools
import itertools

from . import arrangements, hyper_cones, polygon_cones, ratgeom
from .complexes import (Complex, _partition_masks, cone_rows,
                        enumerate_partitions, max_biconnected_masks)
from .ratgeom import ConeH, ConeV

MAX_ORACLE_N = 6  # run_all's error says why


class _Vectors:
    """Distinct vectors of Q^n, vector k with bit 1 << k, and the one
    containment kernel over them."""

    def __init__(self, vectors):
        self.vectors = tuple(dict.fromkeys(vectors))
        self.bit = {v: 1 << k for k, v in enumerate(self.vectors)}
        self.every = (1 << len(self.vectors)) - 1
        self._below = {}

    def mask(self, vectors) -> int:
        """The bits of the given vectors, each of which must be indexed."""
        out = 0
        for v in vectors:
            out |= self.bit[v]
        return out

    def inside(self, h: ConeH) -> int:
        """The mask of the vectors in the cone h: those that no inequality
        of h puts below zero.  Each inequality's mask of the vectors below
        it is memoised, so an inequality shared by many H-forms meets each
        vector once."""
        below = 0
        for a in h.inequalities:
            m = self._below.get(a)
            if m is None:
                m = self._below[a] = sum(
                    1 << k for k, v in enumerate(self.vectors)
                    if ratgeom.dot(a, v) < 0)
            below |= m
        return self.every & ~below


def _contains_all(h: ConeH, vectors) -> bool:
    index = _Vectors(vectors)
    return index.inside(h) == index.every


@functools.lru_cache(maxsize=None)
def _corner_rays(n: int) -> tuple:
    """The extreme rays of C_1..C_n by DD, those of C_i at index i − 1."""
    return tuple(ratgeom.h_to_v(arrangements.cone_Ci(n, i)).generators
                 for i in range(1, n + 1))


@functools.lru_cache(maxsize=None)
def _index(n: int) -> _Vectors:
    """Every generator vector the suites test for containment: the orthant
    rays e_i, the generators of ω_{P,K} for P the singletons and K = [n]
    (every e_i + e_j and −e_k), and the corner rays."""
    widest = hyper_cones.HyperCone(n, polygon_cones.eta(0, n), (1 << n) - 1)
    return _Vectors(itertools.chain(
        cone_rows(n), hyper_cones.generators_hyper(widest), *_corner_rays(n)))


@functools.lru_cache(maxsize=None)
def _polygon_cones(n: int) -> tuple:
    """(P, its ConeV, its generator mask) per free polygon cone ω_P."""
    index = _index(n)
    out = []
    for p in enumerate_partitions((1 << n) - 1, n, min_parts=3):
        gens = polygon_cones.generators(p)
        out.append((p, ConeV(n, tuple(gens)), index.mask(gens)))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _orbit_cones(n: int, max_k: int) -> tuple:
    """(ω_{P,K}, its ConeV, its H-form by DD, the mask of the indexed
    vectors in it) per free orbit datum with #K ≤ max_k.  Callers pass
    max_k clamped to n (K ⊆ [n]), so each set of data is cached once."""
    index = _index(n)
    out = []
    for hc in hyper_cones.free_orbit_data(n, max_k):
        v = ConeV(n, tuple(hyper_cones.generators_hyper(hc)))
        h = ratgeom.v_to_h(v)
        out.append((hc, v, h, index.inside(h)))
    return tuple(out)


def polygon_suite(n: int) -> dict:
    """dual_generators, subset_free and relint_disjoint_free vs the oracle,
    exhaustively over all free partitions of [n]."""
    index = _index(n)
    cones = _polygon_cones(n)
    checked = mismatches = 0
    inside = []
    for p, v, _ in cones:
        h = ratgeom.v_to_h(v)
        inside.append(index.inside(h))
        # dual description: closed-form dual generates the same cone as the
        # DD-computed dual (mutual containment of generator sets)
        dual_closed = polygon_cones.dual_generators(p)
        dual_dd = h.inequalities
        hc = ratgeom.v_to_h(ConeV(n, tuple(dual_closed)))
        hd = ratgeom.v_to_h(ConeV(n, dual_dd))
        checked += 1
        if not (_contains_all(hd, dual_closed)
                and _contains_all(hc, dual_dd)):
            mismatches += 1
    for a, b in itertools.combinations_with_replacement(range(len(cones)), 2):
        disjoint = not ratgeom.relint_intersects(cones[a][1], cones[b][1])
        for i, j in ((a, b), (b, a)) if a != b else ((a, b),):
            p, q = cones[i][0], cones[j][0]
            checked += 2
            if polygon_cones.subset_free(p, q) != (
                    not cones[i][2] & ~inside[j]):
                mismatches += 1
            if polygon_cones.relint_disjoint_free(p, q) != disjoint:
                mismatches += 1
    return {"suite": "polygon", "n": n,
            "checked": checked, "mismatches": mismatches}


def hyper_suite(n: int, max_k: int = 3) -> dict:
    """contains_corner, contains_F, meet_C0 and the F°-intersection
    invariant vs the oracle, over all free orbit data with #K bounded."""
    checked = mismatches = 0
    index = _index(n)
    corners = [index.mask(rays) for rays in _corner_rays(n)]
    f_rays = cone_rows(n)
    f_mask = index.mask(f_rays)
    f_cone = ConeV(n, tuple(f_rays))
    c0_rows = arrangements.cone_C0(n).inequalities
    wants = {}  # meet_C0 partition -> canonical generators of its cone
    for hc, v, h, inside in _orbit_cones(n, min(n, max_k)):
        for i, corner in enumerate(corners, 1):
            checked += 1
            if hyper_cones.contains_corner(hc, i) != (not corner & ~inside):
                mismatches += 1
        checked += 1
        if hyper_cones.contains_F(hc) != (not f_mask & ~inside):
            mismatches += 1
        checked += 1
        if not ratgeom.relint_intersects(v, f_cone):
            mismatches += 1  # every free cone must meet the open orthant
        if not hyper_cones.contains_F(hc):
            checked += 1
            # h_to_v's output is canonical already
            got = ratgeom.h_to_v(ConeH(n, h.inequalities + c0_rows))
            part = hyper_cones.meet_C0(hc)
            want = wants.get(part)
            if want is None:
                want = wants[part] = ratgeom.canonical_form(
                    ConeV(n, tuple(polygon_cones.generators(part))))
            if got != want:
                mismatches += 1
    return {"suite": "hyper", "n": n, "max_k": max_k,
            "checked": checked, "mismatches": mismatches}


def psi_suite(n: int, max_k: int = 3) -> dict:
    """Ψ_Δ membership vs the oracle 'some Φ_Δ cone is contained in ω',
    over every maximally-biconnected complex and bounded free orbit data.

    The closed form checks each datum once (_psi_faces) and each complex
    once (_psi_corner), then meets every pair at its kernel, _psi.  The
    oracle finds a non-full Δ's missing singleton i from the family mask
    and tests C_i ⊆ ω; for a full Δ it finds Φ_Δ's members by the part
    tuples of the partitions of [n] into faces of Δ, indexing the free
    polygon cones by theirs."""
    checked = mismatches = 0
    free_pc = _polygon_cones(n)
    data = _orbit_cones(n, min(n, max_k))
    corners = [_index(n).mask(rays) for rays in _corner_rays(n)]
    position = {p.parts: idx for idx, (p, *_) in enumerate(free_pc)}
    hyper = [hc for hc, *_ in data]
    faces = [hyper_cones._psi_faces(hc) for hc in hyper]
    # which free polygon cones each hyper cone contains
    contains = [sum(1 << idx for idx, (*_, gens) in enumerate(free_pc)
                    if not gens & ~inside)
                for *_, inside in data]
    ground = (1 << n) - 1
    psi = hyper_cones._psi
    for fam in max_biconnected_masks(n):
        i = hyper_cones._psi_corner(Complex(n, fam))
        missing = next((j for j in range(1, n + 1)
                        if not fam >> (1 << (j - 1)) & 1), 0)
        if missing:
            corner = corners[missing - 1]
            oracle = [not corner & ~inside for *_, inside in data]
        else:
            members = 0
            for parts in _partition_masks(ground, fam, 3):
                members |= 1 << position[parts]
            oracle = [bool(members & cb) for cb in contains]
        for hc, f, want in zip(hyper, faces, oracle):
            if psi(fam, i, hc, f) != want:
                mismatches += 1
        checked += len(hyper)
    return {"suite": "psi", "n": n, "max_k": max_k,
            "checked": checked, "mismatches": mismatches}


def orbit_membership_suite(n: int, max_k: int = 3) -> dict:
    """in_omega_X_free consistency: every accepted orbit datum generates a
    top-dimensional cone."""
    checked = mismatches = 0
    for p, K in hyper_cones.orbit_data(n, max_k):
        checked += 1
        if hyper_cones.in_omega_X_free(p, K):
            gens = hyper_cones.generators_hyper(
                hyper_cones.HyperCone(n, p, K))
            if ratgeom.cone_dim(ConeV(n, tuple(gens))) != n:
                mismatches += 1
    return {"suite": "orbit-membership", "n": n, "max_k": max_k,
            "checked": checked, "mismatches": mismatches}


def run_all(n: int, max_k: int = 3) -> list:
    # fail before any suite runs
    if not 4 <= n <= MAX_ORACLE_N:
        why = (" (psi_suite checks each complex against each free orbit "
               "datum: λ(7) × 6840 ≈ 9.7·10⁹ checks at n=7 with --max-k "
               "3, over ten hours)") if n > MAX_ORACLE_N else ""
        raise ValueError(
            f"n={n} outside supported range 4..{MAX_ORACLE_N}{why}")
    return [polygon_suite(n),
            hyper_suite(n, max_k),
            psi_suite(n, max_k),
            orbit_membership_suite(n, max_k)]
