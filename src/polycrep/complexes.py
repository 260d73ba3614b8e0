"""Set-system combinatorics on [n].

Partitions, downward-closed complexes stored by their family masks,
enumeration of maximally-biconnected complexes, and their count λ(n) by
structure, through the bijection with biconnected complexes on [n-1], as a
sum over S_{n-3}-orbits of downsets.  The walks reach n = MAX_N = 7 and the
count n = MAX_COUNT_N = 8.  The tests check that count against the walk
and against the plain sum over every downset, and keep biconnectedness and
the bijection's two maps as second routes in tests/routes.py.  _orbits is
the one S_n-orbit walk on family masks: the count, the census witness bank
and `bunches classify` share it.  _maximal_face_ranks is the one
maximal-face kernel, and this module the one that knows the member-tuple
order of faces (_face_order): Complex, the NDJSON writer and the
projectivity witness all read maximal faces from it.  cone_rows, next to
v_I, writes the one H-form of the paper's cones, θ ≥ 0 and v_I ≥ 0 over a
list of subset masks: the orthant, C_0, ω_P, A(n) and Φ_Δ's common part.

Ground sets are {1..n}.  Inside the library a subset is a subset mask
(bit i-1 for element i): a Partition's parts, the I of v_I and the K of
hyper_cones' orbit data are all masks.  A whole family of subsets is a single
big int with bit s set when the subset with mask s belongs to the family.
Only Complex speaks element sets, through mask_of: from_faces, member and
maximal_faces are how a reader names a complex.  A maximally-biconnected
complex is exactly a downward-closed family containing precisely one of each
complementary pair {I, I^c} of nonempty proper subsets, which is what makes
the mask DFS below fast: each branch decision propagates in O(1) big-int ops.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from .values import Value

# the walks visit every complex; the counts sum over orbits of downsets
MAX_N = 7
MAX_COUNT_N = 8
# a family mask on [n] has 2^n bits: its kernel takes ms at n = 16, s at 20
MAX_FAMILY_N = 16


def _check_family_n(n: int):
    if not 0 <= n <= MAX_FAMILY_N:
        raise ValueError(f"n={n} outside 0..{MAX_FAMILY_N}: a family mask "
                         f"on [n] has 2^n bits")


def mask_of(members, n: int) -> int:
    m = 0
    for i in members:
        if not 1 <= i <= n:
            raise ValueError(f"element {i} outside [{n}]")
        m |= 1 << (i - 1)
    return m


class Partition(Value):
    """Set partition of a ground subset of [n], each part a subset mask,
    parts sorted by lowest bit."""

    __slots__ = ("n", "parts")

    def __init__(self, n: int, parts: tuple):
        parts = tuple(sorted(parts, key=lambda s: s & -s))
        seen = 0
        for p in parts:
            if p <= 0:
                raise ValueError("part is not a nonempty subset mask")
            if p & seen:
                raise ValueError("parts not disjoint")
            seen |= p
        if seen >> n:
            raise ValueError("part outside ground range")
        Value.__init__(self, n, parts)

    @property
    def ground(self) -> int:
        """The OR of the parts, which are disjoint: their sum."""
        return sum(self.parts)


class Complex(Value):
    """Downward-closed family of subsets of [n], stored as its family mask.

    Bit s of family is set when the subset with mask s is a face.  0 is the
    family with no faces and 1 is {∅}: the [n] <-> [n-1] bijection needs
    both on the biconnected side.
    """

    __slots__ = ("n", "family")

    def __init__(self, n: int, family: int):
        _check_family_n(n)
        if family < 0 or family >> (1 << n):
            raise ValueError("family mask outside the subsets of [n]")
        for i, lacking in enumerate(_lacking(n)):
            if family >> (1 << i) & lacking & ~family:
                raise ValueError("family mask is not downward closed")
        Value.__init__(self, n, family)

    @classmethod
    def from_faces(cls, n: int, faces) -> Complex:
        """The complex with the given maximal faces, each a set of elements
        of [n]; repeats collapse, and a face inside another is refused."""
        _check_family_n(n)
        masks = {mask_of(f, n) for f in faces}
        fam = _closure(n, masks)
        if set(_maximal_faces_of_mask(fam, n)) != masks:
            raise ValueError("maximal faces are not an antichain")
        return cls(n, fam)

    @property
    def maximal_faces(self) -> tuple:
        """The maximal faces as frozensets, sorted by member tuple."""
        n = self.n
        return tuple(frozenset(i + 1 for i in range(n) if s >> i & 1)
                     for s in _maximal_faces_of_mask(self.family, n))

    def member(self, face) -> bool:
        return bool(self.family >> mask_of(face, self.n) & 1)


def is_full(d: Complex) -> bool:
    return _mask_is_full(d.family, d.n)


def is_maximal_biconnected(d: Complex) -> bool:
    """Biconnected and containing exactly one of each pair {I, I^c}.

    The complementary-pair criterion is the implemented notion of maximality
    (it is what the classification results rely on); the add-a-face probing
    test is kept in the test suite as a debug oracle for small n.  A
    downward-closed family that splits every pair, ∅ and [n] included, is
    biconnected: faces f, g with f ∪ g = [n] would put [n] minus f in the
    family next to f.
    """
    return _splits_every_pair(d.family, d.n)


# ---------------------------------------------------------------------------
# enumeration of maximally-biconnected complexes

def _complement_image(family: int, n: int) -> int:
    """The family {[n] minus s : s in family}.  Subset mask s sits at bit s
    and its complement at bit 2^n - 1 - s, so this reverses the 2^n-bit
    word."""
    return int(format(family, f"0{1 << n}b")[::-1], 2)


def _splits_every_pair(family: int, n: int) -> bool:
    """Whether the family holds exactly one of each pair {s, [n] minus s},
    the pair {∅, [n]} included."""
    return family ^ _complement_image(family, n) == (1 << (1 << n)) - 1


@functools.lru_cache(maxsize=None)
def _tables(n: int):
    """Per subset mask s of [n]: the family masks of ↓s (every subset of s,
    ∅ included) and ↑s (every superset of s), and their complement images.
    ↑s is the complement image of ↓([n] minus s), and the complement image
    of ↓s is ↑([n] minus s): each table is another read backwards."""
    down = [_closure(n, (s,)) for s in range(1 << n)]
    up = [_complement_image(m, n) for m in reversed(down)]
    return down, up, up[::-1], down[::-1]


def _pair_reps(n: int):
    """One representative per complementary pair {I, I^c} of nonempty
    proper subsets: the side containing element 1, in member-tuple order."""
    full = (1 << n) - 1
    return [s for s in _face_order(n)[0] if s & 1 and s != full]


def _mask_dfs(items, first, second) -> Iterator[int]:
    """Yield each family mask that decides every subset in items, in DFS order.

    A subset s is decided by one of two branches, each an (in, out) pair of
    tables: the branch adds in[s] to the member mask and out[s] to the
    non-member mask.  A branch that makes some subset both is pruned, and a
    subset an earlier branch already decided is skipped.  The first branch
    is explored first.
    """
    in1, out1 = first
    in2, out2 = second
    nitems = len(items)
    stack = [(0, 0, 0)]
    while stack:
        idx, inm, outm = stack.pop()
        while idx < nitems and ((inm >> items[idx]) & 1 or (outm >> items[idx]) & 1):
            idx += 1
        if idx == nitems:
            yield inm
            continue
        s = items[idx]
        # the second branch is pushed first so that the first is popped first
        nin, nout = inm | in2[s], outm | out2[s]
        if not nin & nout:
            stack.append((idx + 1, nin, nout))
        nin, nout = inm | in1[s], outm | out1[s]
        if not nin & nout:
            stack.append((idx + 1, nin, nout))


def _check_range(n: int, limit: int = MAX_N):
    """Refuse n outside 4..limit before any work: MAX_N for the walks,
    which visit every complex, MAX_COUNT_N for the counts."""
    if not 4 <= n <= limit:
        if n < 4:
            why = ""
        elif limit == MAX_N:
            why = (" (walks visit every complex: λ(8) = 229 809 982 112 of "
                   "them at n=8, which the counts reach)")
        else:
            why = (" (λ(9) by the orbit sum needs about Dedekind(7)/720 "
                   "≈ 3·10⁹ terms)")
        raise ValueError(f"n={n} outside supported range 4..{limit}{why}")


def max_biconnected_masks(n: int, full_only: bool = False) -> Iterator[int]:
    """Each maximally-biconnected complex on [n] as a family bitmask (bit s
    set <=> subset-mask s is a face, ∅ always), deterministic order; with
    full_only, the full ones.  n is checked before the walk starts.  A
    representative in puts its ↓ in and the complements of its ↓ out; out
    puts its ↑ out and their complements in.  'In' is explored first."""
    _check_range(n)
    down, up, compdown, compup = _tables(n)
    masks = _mask_dfs(_pair_reps(n), (down, compdown), (compup, up))
    if full_only:
        return (m for m in masks if _mask_is_full(m, n))
    return masks


def _iter_downset_masks(n: int, inside: int = -1) -> Iterator[int]:
    """Every downset of 2^[n] inside the downset `inside` (all of 2^[n] by
    default) as a family bitmask, the empty family too."""
    down, up, _, _ = _tables(n)
    zero = [0] * len(down)
    items = [s for s in range(1 << n) if inside >> s & 1]
    return _mask_dfs(items, (down, zero), (zero, up))


def _mask_is_full(inm: int, n: int) -> bool:
    """Whether the family mask holds every singleton."""
    singletons = sum(1 << (1 << i) for i in range(n))
    return inm & singletons == singletons


def family_mask(theta, n: int) -> int:
    """The family {I : v_I(θ) > 0}, i.e. 2·Σ_{i∈I} θ_i < Σθ, as a bitmask
    with the empty face's bit 0 set (subset sums by DP).  At a generic θ in
    the open orthant this is a maximally-biconnected complex."""
    _check_family_n(n)
    if len(theta) != n:
        raise ValueError("theta must have n entries")
    sums = [0] * (1 << n)
    for bits in range(1, 1 << n):
        low = bits & -bits
        sums[bits] = sums[bits ^ low] + theta[low.bit_length() - 1]
    total = sums[-1]
    fam = 1
    for bits in range(1, 1 << n):
        if 2 * sums[bits] < total:
            fam |= 1 << bits
    return fam


def v_I(I: int, n: int) -> tuple:
    """The functional v_I = Σ_{j∉I} f_j − Σ_{i∈I} f_i of the subset mask I:
    -1 on I, 1 off it.  family_mask holds I exactly where v_I(θ) > 0."""
    return tuple(-1 if I >> j & 1 else 1 for j in range(n))


def cone_rows(n: int, subsets=()) -> list:
    """θ ≥ 0 and v_I ≥ 0 over the subset masks I: the orthant rows e_1..e_n,
    then v_I(subsets[k]) as row n + k.  The orthant F (no subsets), C_0
    (the singletons), ω_P (the parts of P), A(n) (every subset) and the
    common part of Φ_Δ's cones (the maximal faces of Δ) are all this form."""
    rows = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return rows + [v_I(s, n) for s in subsets]


@functools.lru_cache(maxsize=None)
def _lacking(n: int) -> tuple:
    """Per element index i: the family mask of every subset of [n] lacking
    it, runs of 2^i set bits alternating with runs of 2^i clear ones."""
    every = (1 << (1 << n)) - 1
    return tuple(((1 << (1 << i)) - 1) * (every // ((1 << (2 << i)) - 1))
                 for i in range(n))


@functools.lru_cache(maxsize=None)
def _swap_tables(n: int) -> tuple:
    """Per index i < n-1: the family masks of the subsets holding element
    i+1 but not i+2, and of those holding i+2 but not i+1."""
    lack = _lacking(n)
    return tuple((lack[i + 1] & ~lack[i], lack[i] & ~lack[i + 1])
                 for i in range(n - 1))


def _swap_adjacent(fam: int, n: int, i: int) -> int:
    """The family with elements i+1 and i+2 exchanged: a member holding
    only the first moves up 2^i bits, one holding only the second moves
    down as far."""
    first, second = _swap_tables(n)[i]
    step = 1 << i
    return (fam & ~(first | second) | (fam & first) << step
            | (fam & second) >> step)


def _orbits(masks, n: int) -> Iterator[tuple]:
    """(first member met, orbit) for each S_n-orbit the family masks on
    [n] meet, once.  orbit maps each member to a permutation p (0-based)
    with tuple(w[j] for j in p) carrying the first member's witness θ to
    that member's: the walk exchanges adjacent elements, which generate
    S_n, and swaps p[i], p[i+1] along with _swap_adjacent(f, n, i)."""
    seen = set()
    for fam in masks:
        if fam in seen:
            continue
        orbit = {fam: tuple(range(n))}
        todo = [fam]
        while todo:
            f = todo.pop()
            p = orbit[f]
            for i in range(n - 1):
                g = _swap_adjacent(f, n, i)
                if g not in orbit:
                    orbit[g] = (*p[:i], p[i + 1], p[i], *p[i + 2:])
                    todo.append(g)
        seen.update(orbit)
        yield fam, orbit


def _closure(n: int, masks) -> int:
    """The family mask of every subset of the given subset masks.

    The one kernel for family masks: per element i, fam >> 2^i & L_i moves
    each member holding i to the member without it (L_i: the subsets
    lacking i).  Folding that in for every i in turn closes downward."""
    fam = 0
    for s in masks:
        fam |= 1 << s
    for i, lacking in enumerate(_lacking(n)):
        fam |= fam >> (1 << i) & lacking
    return fam


@functools.lru_cache(maxsize=None)
def _face_order(n: int) -> tuple:
    """The subset masks of [n] in member-tuple order, ∅, {1}, {1, 2}, …,
    {n}, and per subset mask its rank in that order.  This is the one
    order of faces: Complex and the NDJSON writer take it from the
    maximal-face kernel, which gives ranks, and the mask DFS decides the
    pairs of _pair_reps in it.  In it the nonempty subsets of
    {i..n} are {i}, {i} joined to each nonempty subset of {i+1..n}, then
    those subsets."""
    tail = []
    for i in reversed(range(n)):
        bit = 1 << i
        tail = [bit, *[bit | s for s in tail], *tail]
    order = (0, *tail)
    rank = [0] * len(order)
    for r, s in enumerate(order):
        rank[s] = r
    return order, tuple(rank)


@functools.lru_cache(maxsize=None)
def _byte_ranks(n: int) -> list:
    """Per byte position p of a family mask on [n]: None until some mask
    has a nonzero byte there, then, per byte value, the ranks of the
    subset masks 8p … 8p+7 whose bits it sets (_fill_byte_ranks)."""
    return [None] * (((1 << n) + 7) >> 3)


def _fill_byte_ranks(n: int, p: int) -> list:
    """The byte table of position p, bit by bit: once it holds the
    values below 2^j, each of them joined to the rank of the subset at
    bit j gives the values from 2^j up."""
    rank = _face_order(n)[1]
    base = p << 3
    table = [()]
    for s in range(base, min(base + 8, 1 << n)):
        r = (rank[s],)
        table += [t + r for t in table]
    return table


def _maximal_face_ranks(inm: int, n: int) -> list:
    """The maximal faces of a downward-closed family bitmask, as ranks in
    _face_order, ascending: the one maximal-face kernel.  The members s
    with no member s ∪ {i}, i ∉ s, are found by the _closure step taken
    once per i without folding it in, and read one byte at a time through
    the byte tables, so a mask pays only for the positions it has."""
    covered = 0
    step = 1
    for lacking in _lacking(n):
        covered |= inm >> step & lacking
        step <<= 1
    tables = _byte_ranks(n)
    out = []
    for p, byte in enumerate((inm & ~covered).to_bytes(len(tables),
                                                        "little")):
        if byte:
            table = tables[p]
            if table is None:
                table = tables[p] = _fill_byte_ranks(n, p)
            out += table[byte]
    out.sort()
    return out


def _maximal_faces_of_mask(inm: int, n: int) -> list:
    """The maximal faces of a downward-closed family bitmask, as subset
    masks in member-tuple order."""
    order = _face_order(n)[0]
    return [order[r] for r in _maximal_face_ranks(inm, n)]


def _count_downsets(p: int, down, up, memo: dict) -> int:
    """Number of downsets of the subposet p (a family mask) of 2^[k].

    Split on the largest member x: a downset either leaves x out, and with
    it all of ↑x, or takes x in, and with it all of ↓x."""
    if not p:
        return 1
    c = memo.get(p)
    if c is None:
        x = p.bit_length() - 1
        c = (_count_downsets(p & ~up[x], down, up, memo)
             + _count_downsets(p & ~down[x], down, up, memo))
        memo[p] = c
    return c


def count_max_biconnected(n: int) -> int:
    """λ(n), the number of maximally-biconnected complexes on [n], by
    structure rather than by walking them, for 4 ≤ n ≤ MAX_COUNT_N.

    Through the [n] <-> [n-1] bijection λ(n) counts the biconnected complexes
    D on [n-1].  With k = n-2, split D by the element n-1 into D₁ ⊆ D₀, both
    downsets of 2^[k]: D₀ holds the faces without n-1, D₁ those with it, less
    n-1.  D is biconnected exactly when D₁ is a downset of
    T(D₀) = {B ∈ D₀ : [k] minus B ∉ D₀}, so λ(n) is the sum over D₀ of
    #downsets(T(D₀)).

    The sum runs over S_h-orbits, h = k-1.  Split D₀ in turn by the element
    k into E₁ ⊆ E₀, downsets of 2^[h], so that D₀ = E₀ | E₁ << 2^h.  S_h
    fixes k and commutes with complementation in [k], so σ carries the
    terms of E₀ onto those of σE₀: the terms of one E₀ per orbit, times the
    orbit size, cover the orbit (1568 terms at n=7 where the plain sum has
    7581, and 268 989 at n=8).
    """
    _check_range(n, MAX_COUNT_N)
    k, h = n - 2, n - 3
    down, up, _, _ = _tables(k)
    memo = {}
    total = 0
    for e0, orbit in _orbits(_iter_downset_masks(h), h):
        terms = 0
        for e1 in _iter_downset_masks(h, e0):
            d0 = e0 | e1 << (1 << h)
            terms += _count_downsets(d0 & ~_complement_image(d0, k),
                                     down, up, memo)
        total += len(orbit) * terms
    return total


# ---------------------------------------------------------------------------
# partitions

def refines(q: Partition, p: Partition) -> bool:
    """Every part of q contained in some part of p (same ground set)."""
    if q.n != p.n or q.ground != p.ground:
        raise ValueError("ground-set mismatch")
    return all(any(not a & ~b for b in p.parts) for a in q.parts)


def _partition_masks(ground: int, family: int, min_parts: int) -> list:
    """Every partition of the subset mask ground into >= min_parts parts,
    each part in the family mask, as a tuple of part masks ordered by
    lowest element (Partition's canonical order).

    The lowest unassigned element picks its part among the submasks of what
    is left, largest first."""
    found = []

    def rec(remaining, parts):
        if not remaining:
            if len(parts) >= min_parts:
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

    rec(ground, ())
    return found


def enumerate_partitions(ground: int, n: int,
                         min_parts: int = 1) -> Iterator[Partition]:
    """Set partitions of the subset mask ground of [n] with >= min_parts
    parts, the one-block partition first; ground is checked at the call."""
    if not 0 < ground < 1 << n:
        raise ValueError("ground must be a nonempty subset mask of [n]")
    # -1 has every bit set: the family of all subsets, whatever n is
    return (Partition(n, parts)
            for parts in _partition_masks(ground, -1, min_parts))
