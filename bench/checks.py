"""Reference values and output checkers for the benchmark.

Nothing here imports polycrep: every reference is either a published value
or computed by this file in plain integers, so a check never compares the
program against a copy of its own output.

Sources:
  * LAMBDA: λ(n), the number of maximally-biconnected complexes on [n], is
    the number of self-dual monotone Boolean functions of n variables (OEIS
    A001206).
  * CHAMBERS_F / CHAMBERS_C0: the paper's chamber table, chambers of the
    arrangement 𝒜(n) inside the orthant F and inside the cone C₀.
  * Sign-flip symmetry: the coordinate sign flips permute the hyperplanes of
    𝒜(n) and act simply transitively on the open orthants, so 𝒜(n) has
    2ⁿ · CHAMBERS_F[n] regions.
  * Generic central arrangements (Zaslavsky 1975): m hyperplanes in Q^d in
    general position have 2 · Σ_{i<d} C(m−1, i) regions.
  * Stirling numbers of the second kind and Bell numbers give the sizes of
    the oracle suites that enumerate set partitions.
"""

from __future__ import annotations

import itertools
import json
from math import comb

LAMBDA = {4: 12, 5: 81, 6: 2646, 7: 1422564}
CHAMBERS_F = {5: 81, 6: 1684, 7: 122921}
CHAMBERS_C0 = {5: 76, 6: 1678, 7: 122914}


class CheckError(Exception):
    """An operation's output contradicts a reference value or property."""


def require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def projective_count(n: int) -> int:
    """Projective resolutions: one per chamber of 𝒜 in C₀ (full complexes)
    plus the n non-full complexes, which are always projective."""
    return CHAMBERS_C0[n] + n


def full_count(n: int) -> int:
    """Full complexes: all but the n complexes 'every subset avoiding i'."""
    return LAMBDA[n] - n


def stirling2(n: int, k: int) -> int:
    row = [1] + [0] * k
    for i in range(1, n + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def polygon_suite_size(n: int) -> int:
    """One dual check per free partition (≥ 3 parts) plus two checks per
    ordered pair of them."""
    f = sum(stirling2(n, k) for k in range(3, n + 1))
    return f + 2 * f * f


def orbit_membership_suite_size(n: int, max_k: int) -> int:
    """One check per partition with ≥ 2 parts and subset K with #K ≤ max_k."""
    return (bell(n) - 1) * sum(comb(n, k) for k in range(max_k + 1))


def generic_region_count(m: int, d: int) -> int:
    return 2 * sum(comb(m - 1, i) for i in range(d))


def det(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    k = len(a)
    sign, prev = 1, 1
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        for r in range(c + 1, k):
            for j in range(c + 1, k):
                a[r][j] = (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // prev
        prev = a[c][c]
    return sign * a[k - 1][k - 1]


def is_generic(normals, d: int) -> bool:
    """Every d of the normals are linearly independent."""
    return all(det(sub) != 0 for sub in itertools.combinations(normals, d))


# ---------------------------------------------------------------------------
# complexes and records

def membership(faces, n: int) -> list:
    """member[s] for every subset mask s of [n] in the downward closure of
    the given maximal faces, after validating them."""
    full = (1 << n) - 1
    masks = []
    for f in faces:
        require(all(isinstance(i, int) and 1 <= i <= n for i in f),
                f"face {f} outside [{n}]")
        require(len(set(f)) == len(f), f"face {f} repeats an element")
        masks.append(sum(1 << (i - 1) for i in f))
    for a in masks:
        for b in masks:
            require(a == b or a & b != a, "maximal faces are not an antichain")
    require(len(set(masks)) == len(masks), "repeated maximal face")
    member = [False] * (full + 1)
    for f in masks:
        s = f
        while True:
            member[s] = True
            if s == 0:
                break
            s = (s - 1) & f
    return member


def check_max_biconnected(faces, n: int) -> list:
    """Membership table of a maximally-biconnected complex, else CheckError.

    Biconnected: no two faces (one face twice included) cover [n].
    Maximal: exactly one of each complementary pair I, [n]∖I of nonempty
    proper subsets is a face.
    """
    member = membership(faces, n)
    full = (1 << n) - 1
    require(not member[full], "[n] itself is a face")
    for s in range(1, full):
        if member[s]:
            require(not member[full ^ s],
                    f"faces {s:b} and its complement cover [n]")
        else:
            require(member[full ^ s],
                    f"neither {s:b} nor its complement is a face")
    return member


def check_witness(theta, member, n: int):
    """I is a face exactly when 2·Σ_{i∈I} θ_i < Σ θ, no I on a wall."""
    require(len(theta) == n, "witness has the wrong length")
    total = sum(theta)
    sums = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        sums[s] = sums[s ^ low] + theta[low.bit_length() - 1]
    for s in range(1, (1 << n) - 1):
        require(2 * sums[s] != total, f"witness lies on the wall of {s:b}")
        require((2 * sums[s] < total) == member[s],
                f"witness does not induce the record's complex at {s:b}")


def _complex_key(faces) -> tuple:
    return tuple(sorted(tuple(sorted(f)) for f in faces))


def check_complex_stream(stdout: str, n: int):
    """`complexes enumerate`: λ(n) distinct maximally-biconnected complexes."""
    keys = set()
    lines = stdout.splitlines()
    for line in lines:
        obj = json.loads(line)
        require(obj.get("n") == n, "record for the wrong n")
        check_max_biconnected(obj["maximal_faces"], n)
        keys.add(_complex_key(obj["maximal_faces"]))
    require(len(lines) == LAMBDA[n], f"{len(lines)} records, want {LAMBDA[n]}")
    require(len(keys) == LAMBDA[n], f"{len(keys)} distinct records")


def check_census_records(stdout: str, n: int):
    """`resolutions census --records`: λ(n) distinct maximally-biconnected
    complexes; the projective ones are exactly as many as the chamber table
    says and each carries an integer witness inducing its complex."""
    keys = set()
    lines = stdout.splitlines()
    projective = 0
    for line in lines:
        rec = json.loads(line)
        cx = rec["complex"]
        require(cx.get("n") == n, "record for the wrong n")
        member = check_max_biconnected(cx["maximal_faces"], n)
        keys.add(_complex_key(cx["maximal_faces"]))
        if rec["kind"] == "projective":
            projective += 1
            require(rec["witness"] is not None, "projective without witness")
            check_witness([int(w) for w in rec["witness"]], member, n)
        else:
            require(rec["kind"] == "non-projective", f"kind {rec['kind']!r}")
            require(rec["witness"] is None, "non-projective with a witness")
    require(len(lines) == LAMBDA[n], f"{len(lines)} records, want {LAMBDA[n]}")
    require(len(keys) == LAMBDA[n], f"{len(keys)} distinct records")
    require(projective == projective_count(n),
            f"{projective} projective, want {projective_count(n)}")


def check_census_counts(obj: dict, n: int):
    require(obj.get("n") == n, "counts for the wrong n")
    require(obj["total"] == LAMBDA[n], f"total {obj['total']} != λ({n})")
    require(obj["projective"] == projective_count(n),
            f"projective {obj['projective']} != {projective_count(n)}")
    require(obj["nonprojective"] == obj["total"] - obj["projective"],
            "nonprojective != total - projective")


def check_oracle_reports(reports: list, n: int, max_k: int):
    suites = {r["suite"]: r for r in reports}
    require(sorted(suites) == ["hyper", "orbit-membership", "polygon", "psi"],
            f"suites {sorted(suites)}")
    for r in reports:
        require(r["mismatches"] == 0,
                f"suite {r['suite']}: {r['mismatches']} mismatches")
        require(r["checked"] > 0, f"suite {r['suite']} checked nothing")
    require(suites["polygon"]["checked"] == polygon_suite_size(n),
            f"polygon checked {suites['polygon']['checked']}")
    got = suites["orbit-membership"]["checked"]
    require(got == orbit_membership_suite_size(n, max_k),
            f"orbit-membership checked {got}")
