"""Arrangements of hyperplanes and exact region counting.

Two independent counting backends:

* ``enumerate`` — depth-first region splitting by ratgeom.dd_regions, with
  an exact double-description certificate per region: its extreme rays and
  their cached constraint values, split without any LP.  Space is covered,
  modulo the lineality of the normals, by the 2^r simplicial sign cones of
  r independent normals, r the rank; regions come in ± pairs, so half of
  the cones are split and the count doubled, each from sign flips of one
  ratgeom.dd_start.  A cone's split starts from independent facets, and
  its other facets bound it.  Counting carries no ray coordinates: a ray
  is its constraint values, divided by their gcd, and its sign/tight
  masks, and pairs of rays with fewer than r − 2 common tight rows are
  never tested for adjacency.
* ``charpoly`` — one rank-by-rank pass over the intersection lattice finds
  the flats and the Möbius function together.  Each frontier flat carries
  its quotient lines (the normals' residual directions modulo its span,
  with one coordinate per rank cut off); a cover's lines come from its
  parent's by one exact integer elimination step, and μ follows Weisner's
  theorem (Stanley, Enumerative Combinatorics I, §3.9), one step per cover
  pair.  The region count is (−1)^d · χ(−1) (Zaslavsky).

An arrangement is stored as its hyperplanes' canonical normals, and a
region is reported as the ray_sum θ of its extreme rays: that is all a GIT
chamber inside C_0 needs, since its complex is {I : v_I(θ) > 0}
(``complexes.family_mask``).  Everything is exact Python-int arithmetic,
whatever the size of the entries.
"""

from __future__ import annotations

import itertools
from math import factorial, gcd

from . import ratgeom
from .complexes import _swap_adjacent, cone_rows, family_mask, v_I
from .ratgeom import ConeH, canon_normal, ray_sum
from .values import Value

MAX_DIM = 8
# One hyperplane bound per route.  Enumerate visits every region, and
# A(7)'s 71 hyperplanes make 15 733 888.  Charpoly walks every flat: A(7)
# has 835 026 (under a minute), A(8), with 136 hyperplanes, far more.
MAX_HYPERPLANES = 64
MAX_CHARPOLY_HYPERPLANES = 71
# Splitting a cone visits every region inside it: A(7)'s 71 hyperplanes
# leave 122 914 chambers in C_0 (seconds), A(8)'s 136 leave 33 207 248.
MAX_CONE_HYPERPLANES = 71


def _normal(v, dim: int) -> tuple:
    """The canonical normal of the hyperplane v·x = 0 in Q^dim: primitive,
    first nonzero entry positive."""
    v = canon_normal(v)
    if not any(v):
        raise ValueError("zero normal")
    if len(v) != dim:
        raise ValueError("normal dimension mismatch")
    return v


def _check_dim(dim: int):
    if dim > MAX_DIM:
        raise ValueError(f"dimension bound exceeded (dim <= {MAX_DIM})")


class Arrangement(Value):
    """A central arrangement in Q^dim, stored as its hyperplanes' canonical
    normals, deduplicated and sorted."""

    __slots__ = ("dim", "normals")

    def __init__(self, dim: int, normals: tuple):
        Value.__init__(self, dim, tuple(sorted(
            {_normal(v, dim) for v in normals})))


def build_A(n: int) -> Arrangement:
    """The hyperplanes of cone_rows(n, every subset mask): v_I·θ = 0, one
    per complement pair (Σθ = 0 included, as I = ∅), and the n coordinate
    hyperplanes, 2^(n−1) + n in total.  Arrangement merges ±v_I."""
    if n < 4:
        raise ValueError("n >= 4 required")
    _check_dim(n)
    return Arrangement(n, tuple(cone_rows(n, range(1 << n))))


def build_B(n: int, m: int) -> Arrangement:
    """Hyperplanes Σ_{i∈I} z_i = 0, #I = m, in dimension n−1 (n = 2m)."""
    if n != 2 * m or m < 3:
        raise ValueError("require n = 2m with m >= 3")
    d = n - 1
    _check_dim(d)
    normals = [tuple(1 if i in I else 0 for i in range(d))
               for I in itertools.combinations(range(d), m)]
    return Arrangement(d, tuple(normals))


# ---------------------------------------------------------------------------
# corner cones of the parameter space, as H-descriptions

def cone_F(n: int) -> ConeH:
    """The closed positive orthant of parameters."""
    return ConeH(n, tuple(cone_rows(n)))


def cone_C0(n: int) -> ConeH:
    """0 <= θ_i <= Σ_{j≠i} θ_j: v_I >= 0 over the singletons I."""
    return ConeH(n, tuple(cone_rows(n, (1 << i for i in range(n)))))


def cone_Ci(n: int, i: int) -> ConeH:
    """Cone(e_i, e_i + e_j | j ≠ i): θ_j >= 0 (j ≠ i) and v_I >= 0 for
    I = [n] minus {i}, i.e. θ_i >= Σ_{j≠i}θ_j, which implies θ_i >= 0."""
    if not 1 <= i <= n:
        raise ValueError("index out of range")
    rows = cone_rows(n, ((1 << n) - 1 ^ 1 << (i - 1),))
    del rows[i - 1]
    return ConeH(n, tuple(rows))


# ---------------------------------------------------------------------------
# enumerate backend: DD region splitting

def _count_enumerate(a: Arrangement) -> int:
    """Split the 2^(r−1) simplicial cones {x : s_i b_i·x >= 0} with s_1 = +1
    of r independent normals b_i, r the rank, and double the count.  The
    b_i are hyperplanes of the arrangement, so each region lies in one sign
    cone, and its negative, also a region, lies in the opposite one.

    dd_start over the normals gives b's simplicial rays r_j, with
    b_i·r_j = p_j δ_ij, p_j > 0, modulo the lineality every normal vanishes
    on.  The sign cone's rays are s_j r_j, so for s_j = −1 ray j's record
    negates its values and swaps its pos/neg masks; a count reads no
    coordinates, so the flip carries none.  The b_i are decided: each sign
    cone lies on one side of every one."""
    every = (1 << len(a.normals)) - 1
    recs, base = ratgeom.dd_start(a.normals, a.dim, every)
    flips = [(None, [-v for v in vals], neg, pos, tight)
             for _, vals, pos, neg, tight in recs]
    total = 0
    for rest in itertools.product((False, True), repeat=len(recs) - 1):
        start = [f if s else rv
                 for s, rv, f in zip((False, *rest), recs, flips)]
        total += ratgeom.dd_regions(start, base, 0, None)
    return 2 * total


# ---------------------------------------------------------------------------
# charpoly backend: intersection lattice and Möbius function

def _quotient(lines: dict, key: tuple, drops: dict) -> dict:
    """The quotient lines of the cover X ∨ L from those of X, L = lines[key].

    Each residual r loses its component along key by one elimination step
    at key's pivot p, its first nonzero entry, and is made primitive with
    its first nonzero entry positive; residuals that become parallel merge.
    Every residual is then zero at p, so coordinate p is dropped, and a
    line of a rank-k flat has dim − k coordinates.  Dropping a coordinate
    that is zero on every residual is a bijection that keeps primitivity
    and the sign rule, so each residual stays unique up to scale.  drops
    caches, per pivot, X's residuals already zero there with p cut out, so
    that X's covers share those tuples.
    """
    p = next(i for i, x in enumerate(key) if x)
    drop = drops.get(p)
    if drop is None:
        drop = drops[p] = {r: r[:p] + r[p + 1:] for r in lines if not r[p]}
    kp = key[p]
    out = {}
    for r, hs in lines.items():
        c = r[p]
        if c:
            if r == key:
                continue
            v = [kp * x - c * y for x, y in zip(r, key)]
            del v[p]
            for x in v:
                if x:
                    break
            g = gcd(*v) if x > 0 else -gcd(*v)
            r = tuple([y // g for y in v])
        else:
            r = drop[r]
        out[r] = out.get(r, 0) | hs
    return out


def char_poly(a: Arrangement) -> dict:
    """Characteristic polynomial χ(t) = Σ_X μ(0̂, X) t^{dim X} as
    {power: coefficient}.

    The flats are built rank by rank.  A frontier flat X, keyed by its
    mask (the hyperplanes containing it), carries its quotient lines: each
    residual direction of the normals modulo span(X), mapped to the mask
    of the normals on it.  Every line L gives a cover X ∨ L of mask
    X | lines[L], whose own lines _quotient derives from X's.

    μ follows Weisner's theorem for geometric lattices (Stanley,
    Enumerative Combinatorics I, §3.9): for a hyperplane H ≤ X,
    μ(0̂, X) = −Σ μ(0̂, Y) over the lower covers Y ⋖ X with H ≰ Y.  With H
    the lowest bit of X's mask, each cover pair Y ⋖ X is seen once, when
    the closure reaches X from Y, so μ costs one step per cover pair.

    The pass stops at rank dim − 1, whose flats get no lines: their only
    cover is the origin.  Its μ, the t^0 coefficient, follows from
    χ(1) = 0, which holds for every non-empty central arrangement
    (Zaslavsky; Stanley, §3.9), and is 0 when the rank is below dim.  The
    empty arrangement's χ is t^dim.
    """
    _check_dim(a.dim)
    if len(a.normals) > MAX_CHARPOLY_HYPERPLANES:
        raise ValueError(f"hyperplane bound exceeded (<= "
                         f"{MAX_CHARPOLY_HYPERPLANES} for charpoly)")
    coeffs = {a.dim: 1}
    frontier = {0: [1, {v: 1 << g for g, v in enumerate(a.normals)}]}
    for rank in range(1, a.dim):
        last = rank == a.dim - 1
        covers = {}
        # popping frees each flat's lines as soon as its covers have theirs
        while frontier:
            y, (mu, lines) = frontier.popitem()
            drops = {}
            for key, hs in lines.items():
                x = y | hs
                cover = covers.get(x)
                if cover is None:
                    cover = covers[x] = [
                        0, None if last else _quotient(lines, key, drops)]
                if not y & x & -x:
                    cover[0] -= mu
        coeffs[a.dim - rank] = sum(mu for mu, _ in covers.values())
        frontier = covers
    if a.normals:
        coeffs[0] = -sum(coeffs.values())
    return {p: c for p, c in sorted(coeffs.items(), reverse=True) if c}


def count_regions(a: Arrangement, mode: str = "enumerate") -> int:
    """Number of open regions of the arrangement: (−1)^dim χ(−1) for
    charpoly (Zaslavsky), one certified split per region for enumerate."""
    if mode == "charpoly":
        return abs(sum(c * (-1) ** p for p, c in char_poly(a).items()))
    if mode != "enumerate":
        raise ValueError("mode must be 'enumerate' or 'charpoly'")
    _check_dim(a.dim)
    if len(a.normals) > MAX_HYPERPLANES:
        raise ValueError(
            f"hyperplane bound exceeded (<= {MAX_HYPERPLANES} hyperplanes)")
    if not a.normals:
        return 1
    return _count_enumerate(a)


# ---------------------------------------------------------------------------
# regions relative to cones and rays

def _split_rows(a: Arrangement, cone: ConeH) -> tuple:
    """The rows of the split of a cone whose facets are arrangement
    hyperplanes, so that every region is inside it or disjoint: its facets
    followed by the normals."""
    if cone.ambient_dim != a.dim:
        raise ValueError("cone/arrangement dimension mismatch")
    if len(a.normals) > MAX_CONE_HYPERPLANES:
        raise ValueError(f"hyperplane bound exceeded (<= "
                         f"{MAX_CONE_HYPERPLANES} to split a cone)")
    have = set(a.normals)
    for ineq in cone.inequalities:
        if canon_normal(ineq) not in have:
            raise ValueError("cone facet is not an arrangement hyperplane")
    return (*cone.inequalities, *a.normals)


def count_regions_in_cone(a: Arrangement, cone: ConeH) -> int:
    """Regions of the arrangement wholly inside the given pointed cone with
    interior, whose facets must themselves be arrangement hyperplanes: the
    facets bound the split and the normals cut it.  The cone has no
    interior when some y >= 0 with Σy = 1 has Fᵀy = 0, F its facets
    (Gordan's alternative)."""
    F = cone.inequalities
    facets = (1 << len(F)) - 1
    rays, base = ratgeom.dd_start(_split_rows(a, cone), a.dim, facets)
    if len(rays) < a.dim:
        raise ValueError("cone must be pointed")
    count = ratgeom.dd_regions(rays, base, facets, None)
    if not count:
        raise ValueError("zero cone")
    if ratgeom.phase1([*zip(*F), (1,) * len(F)],
                      [0] * a.dim + [1]) is not None:
        raise ValueError("cone has no interior")
    return count


def _sorted_pieces(n: int, collect) -> None:
    """Split the sorted cone W: θ_1 ≥ … ≥ θ_n ≥ 0 inside C_0 by A(n), and
    hand each piece to collect(rays, θ, fam, runs, rows): its ray records
    (ray first), θ the ray_sum of its rays, fam = family_mask(θ), the
    lengths of the runs of adjacent elements whose exchange fixes fam, and
    the split's rows, which the records' masks index.

    A(n) and C_0 are S_n-invariant.  A chamber's complex is a threshold
    family, so its interchangeable elements form runs in the weight order,
    and exactly one chamber C of each orbit meets the interior of W.
    Inside W, C_0 is the one inequality θ_1 ≤ Σ_{j>1} θ_j.  The regions of
    A(n) inside W ∩ C_0 are those chambers' W-pieces P = C̄ ∩ W, split from
    W's simplicial rays with C_0's row bounding, as in
    count_regions_in_cone, though θ_i = θ_{i+1} is no hyperplane of A(n):
    a bounding row need not be.  The records' rows are W's n − 1 rows
    θ_i − θ_{i+1}, θ_n, C_0's row, then A(n)'s normals.  θ is strictly
    decreasing and off every hyperplane, and C's stabiliser is the product
    of the symmetric groups on the runs.
    """
    a = build_A(n)
    facets = [tuple(1 if j == i else -1 if j == i + 1 else 0
                    for j in range(n)) for i in range(n - 1)]
    facets.append(tuple(1 if j == n - 1 else 0 for j in range(n)))
    facets.append(v_I(1, n))
    rows = (*facets, *a.normals)

    def piece(rays):
        theta = ray_sum(rv[0] for rv in rays)
        fam = family_mask(theta, n)
        runs = []
        run = 1
        for i in range(n - 1):
            if _swap_adjacent(fam, n, i) == fam:
                run += 1
            else:
                runs.append(run)
                run = 1
        runs.append(run)
        collect(rays, theta, fam, runs, rows)

    bounding = (1 << len(facets)) - 1
    ratgeom.dd_regions(*ratgeom.dd_start(rows, n, bounding), bounding, piece)


def chamber_orbits(n: int) -> list:
    """One (θ, orbit size) per S_n-orbit of the chambers of A(n) inside C_0:
    per W-piece of _sorted_pieces, its ray_sum θ and n!/|Stab|, Stab the
    product of the symmetric groups on its runs."""
    out = []

    def collect(rays, theta, fam, runs, rows):
        stab = 1
        for run in runs:
            stab *= factorial(run)
        out.append((theta, factorial(n) // stab))

    _sorted_pieces(n, collect)
    return out


def count_chambers_at_ray(a: Arrangement, theta) -> int:
    """Chambers whose closure contains theta = regions of the localization
    at theta (hyperplanes vanishing there).  theta is read as its primitive
    integer vector, the same ray."""
    theta = ratgeom.primitive(theta)
    if len(theta) != a.dim or not any(theta):
        raise ValueError("theta must be a nonzero vector of the right dimension")
    local = [h for h in a.normals if ratgeom.dot(h, theta) == 0]
    if not local:
        return 1
    return count_regions(Arrangement(a.dim, tuple(local)))

