"""Complex/partition combinatorics and the enumeration counts."""

import itertools
import json
import math
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polycrep import complexes as cx
from polycrep.complexes import Complex, Partition, mask_of

import routes


def elements(s):
    """The frozenset of elements of the subset mask s."""
    return frozenset(i + 1 for i in range(s.bit_length()) if s >> i & 1)


def subsets_leq(n, k):
    faces = [frozenset(c) for c in itertools.combinations(range(1, n + 1), k)]
    return Complex.from_faces(n, tuple(faces))


def subsets_avoiding(n, i):
    return Complex.from_faces(n, (frozenset(range(1, n + 1)) - {i},))


def test_is_biconnected():
    assert not routes.is_biconnected(
        Complex.from_faces(5, (frozenset({1, 2}), frozenset({3, 4, 5}))))
    assert routes.is_biconnected(subsets_avoiding(5, 1))
    assert routes.is_biconnected(subsets_leq(5, 1))


def test_is_maximal_biconnected():
    assert cx.is_maximal_biconnected(subsets_leq(5, 2))
    assert not cx.is_maximal_biconnected(subsets_leq(5, 1))
    for i in range(1, 6):
        assert cx.is_maximal_biconnected(subsets_avoiding(5, i))


def test_is_full():
    assert not cx.is_full(subsets_avoiding(5, 1))
    assert cx.is_full(subsets_leq(5, 1))
    assert cx.is_full(subsets_leq(5, 2))


def test_complex_antichain_enforced():
    with pytest.raises(ValueError):
        Complex.from_faces(4, (frozenset({1}), frozenset({1, 2})))


def test_complex_duplicate_faces_collapse():
    once = Complex.from_faces(5, ({1, 2},))
    twice = Complex.from_faces(5, ({1, 2}, {2, 1}))
    assert twice == once and hash(twice) == hash(once)
    assert twice.maximal_faces == (frozenset({1, 2}),)
    assert twice.family == once.family


def test_enumeration_counts():
    assert sum(1 for _ in cx.max_biconnected_masks(5)) == 81
    assert sum(1 for _ in cx.max_biconnected_masks(5, full_only=True)) == 76
    assert sum(1 for _ in cx.max_biconnected_masks(6)) == 2646


def test_enumeration_range_errors():
    with pytest.raises(ValueError):
        cx.max_biconnected_masks(3)
    with pytest.raises(ValueError):
        cx.max_biconnected_masks(10)


def test_hosten_morris():
    for n, lam in ((5, 81), (6, 2646)):
        assert cx.count_max_biconnected(n) == lam
        assert sum(1 for _ in cx.max_biconnected_masks(n)) == lam
    with pytest.raises(ValueError, match=r"λ\(9\)"):
        cx.count_max_biconnected(9)


def test_enumerated_complexes_are_maximal_biconnected():
    for m in cx.max_biconnected_masks(5):
        d = Complex(5, m)
        assert routes.is_biconnected(d)
        assert cx.is_maximal_biconnected(d)


def test_pair_membership_xor():
    full = set(range(1, 6))
    for m in cx.max_biconnected_masks(5):
        d = Complex(5, m)
        for k in range(1, 5):
            for I in itertools.combinations(full, k):
                I = set(I)
                assert d.member(I) != d.member(full - I)


def test_face_count():
    # one face per complementary pair of nonempty proper subsets
    for n in (5, 6):
        for m in cx.max_biconnected_masks(n):
            d = Complex(n, m)
            faces = sum(1 for k in range(1, n)
                        for I in itertools.combinations(range(1, n + 1), k)
                        if d.member(I))
            assert faces == 2 ** (n - 1) - 1
            break  # spot check the first; the xor test covers the rest at n=5


def test_maximality_by_probing_oracle():
    """Adding any absent subset (closed downward) breaks biconnectedness."""
    n = 5
    full = set(range(1, n + 1))
    for m in itertools.islice(cx.max_biconnected_masks(n), 20):
        d = Complex(n, m)
        for k in range(1, n):
            for I in itertools.combinations(full, k):
                if d.member(I):
                    continue
                bigger = Complex.from_faces(n, tuple(
                    {frozenset(I)} | {f for f in d.maximal_faces
                                      if not f <= frozenset(I)}))
                assert not routes.is_biconnected(bigger)


def test_nonfull_count_is_n():
    for n in (5, 6):
        every = [Complex(n, m) for m in cx.max_biconnected_masks(n)]
        nonfull = [d for d in every if not cx.is_full(d)]
        assert len(nonfull) == n
        assert {frozenset(d.maximal_faces[0]) for d in nonfull} == {
            frozenset(set(range(1, n + 1)) - {i}) for i in range(1, n + 1)}


def test_from_faces_round_trip():
    """Complex.from_faces of a complex's maximal faces, given in reverse, is
    that complex, maximal faces sorted by member tuple, for every
    maximally-biconnected mask at n = 4, 5, 6 and every downset at n = 3, 4
    (the empty family and {∅} among them)."""
    cases = [(m, n) for n in (4, 5, 6)
             for m in cx.max_biconnected_masks(n)]
    cases += [(m, n) for n in (3, 4) for m in cx._iter_downset_masks(n)]
    assert (0, 4) in cases and (1, 4) in cases
    for m, n in cases:
        d = Complex(n, m)
        again = Complex.from_faces(n, reversed(d.maximal_faces))
        assert again == d and hash(again) == hash(d) and again.family == m
        assert again.maximal_faces == d.maximal_faces
        tuples = [tuple(sorted(f)) for f in d.maximal_faces]
        assert tuples == sorted(tuples)


def test_complex_rejects_bad_masks():
    """A family mask is a downset of the subsets of [n]; member takes
    subsets of [n] only."""
    assert Complex(2, 0b1111).maximal_faces == (frozenset({1, 2}),)
    for n, fam in ((2, 0b1010),        # {1} and {1, 2} without ∅
                   (3, 1 | 1 << 7),    # ∅ and [3] only
                   (2, -1), (2, 1 << 4)):
        with pytest.raises(ValueError):
            Complex(n, fam)
    d = Complex(2, 0b0111)
    assert d.member({1}) and not d.member({1, 2})
    for outside in ({3}, {0}):
        with pytest.raises(ValueError):
            d.member(outside)


def test_family_masks_refuse_large_n():
    """n above MAX_FAMILY_N is refused before a 2^n-bit mask is built."""
    for build in (lambda: Complex(30, 1),
                  lambda: Complex.from_faces(30, [{1}]),
                  lambda: Complex(-1, 0),
                  lambda: cx.family_mask((1,) * 30, 30),
                  lambda: routes.bunch_from_theta((1,) * 30, 30)):
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="outside 0..16"):
            build()
        assert time.monotonic() - t0 < 1


def test_family_mask_needs_one_weight_per_element():
    with pytest.raises(ValueError, match="n entries"):
        cx.family_mask((1, 2, 3, 4), 5)
    with pytest.raises(ValueError, match="n entries"):
        cx.family_mask((1, 2, 3, 4, 5, 6), 5)


def test_swap_adjacent_permutes_family_masks():
    """Exchanging elements i+1, i+2 of the family mask of θ gives the
    family mask of θ with those two coordinates exchanged."""
    rng = random.Random(5)
    for n in (3, 5, 7):
        for _ in range(20):
            theta = [rng.randint(1, 40) for _ in range(n)]
            fam = cx.family_mask(theta, n)
            for i in range(n - 1):
                swapped = theta[:]
                swapped[i], swapped[i + 1] = theta[i + 1], theta[i]
                assert (cx._swap_adjacent(fam, n, i)
                        == cx.family_mask(swapped, n))


def test_bijection_of_nonfull_missing_n():
    d = subsets_avoiding(6, 6)
    b = routes.max_biconnected_to_biconnected(d)
    assert b.maximal_faces == ()  # the empty family on [5]


def test_downset_counter_matches_brute_force():
    """The memoized split count equals counting every sub-family of P that
    is closed downward in P, on seeded random downsets P of 2^[4]."""
    rng = random.Random(11)
    k = 4
    down, up, _, _ = cx._tables(k)
    for _ in range(40):
        p = 0
        for s in rng.sample(range(1 << k), rng.randint(0, 6)):
            p |= down[s]
        members = [s for s in range(1 << k) if p >> s & 1]
        brute = 0
        for bits in range(1 << len(members)):
            d = sum(1 << s for i, s in enumerate(members) if bits >> i & 1)
            brute += all(down[s] & p & ~d == 0
                         for s in members if d >> s & 1)
        assert cx._count_downsets(p, down, up, {}) == brute


@pytest.mark.parametrize("n", [4, 5, 6])
def test_structural_count_matches_mask_dfs(n):
    """The orbit sum equals the walk and the plain sum over every downset."""
    walked = sum(1 for _ in cx.max_biconnected_masks(n))
    assert (cx.count_max_biconnected(n) == walked
            == routes.count_max_biconnected_plain(n)
            == {4: 12, 5: 81, 6: 2646}[n])


def test_count_range_errors():
    with pytest.raises(ValueError):
        cx.count_max_biconnected(3)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=r"λ\(9\) .* Dedekind\(7\)/720"):
        cx.count_max_biconnected(9)
    assert time.monotonic() - t0 < 1


@pytest.mark.parametrize("h,orbits,downsets",
                         [(1, 3, 3), (2, 5, 6), (3, 10, 20), (4, 30, 168),
                          (5, 210, 7581)])
def test_downset_orbits(h, orbits, downsets):
    """The S_h-orbits of the downsets of 2^[h] that count_max_biconnected
    sums over at n = h+3: their number, and sizes that add up to the number
    of downsets."""
    found = list(cx._orbits(cx._iter_downset_masks(h), h))
    assert len(found) == orbits
    assert sum(len(orbit) for _, orbit in found) == downsets


def _relabel(fam, n, p):
    """The family {S : p(S) in fam}, subset by subset: the family mask of
    θ' = tuple(θ[j] for j in p) when fam is that of θ."""
    out = 0
    for t in range(1 << n):
        if fam >> t & 1:
            out |= 1 << sum(1 << k for k in range(n) if t >> p[k] & 1)
    return out


@pytest.mark.parametrize("n,orbits,full_orbits",
                         [(4, 3, 2), (5, 7, 6), (6, 30, 29)])
def test_orbits_against_brute_force_relabelling(n, orbits, full_orbits):
    """_orbits on the maximally-biconnected complexes: the number of
    orbits, orbit sizes against stabilisers counted over every permutation
    of [n], and each member's permutation, all by relabelling subset masks
    one by one rather than by adjacent exchanges."""
    found = list(cx._orbits(cx.max_biconnected_masks(n), n))
    full = list(cx._orbits(cx.max_biconnected_masks(n, full_only=True), n))
    assert (len(found), len(full)) == (orbits, full_orbits)
    assert sum(len(orbit) for _, orbit in found) == cx.count_max_biconnected(n)
    for first, orbit in found:
        stab = sum(1 for p in itertools.permutations(range(n))
                   if _relabel(first, n, p) == first)
        assert len(orbit) * stab == math.factorial(n)
        assert orbit[first] == tuple(range(n))
        for member, p in orbit.items():
            assert _relabel(first, n, p) == member


def test_refines():
    sing = Partition(5, tuple(mask_of({i}, 5) for i in range(1, 6)))
    p = Partition(5, (mask_of({1, 2, 3}, 5), mask_of({4, 5}, 5)))
    q = Partition(5, (mask_of({1, 2}, 5), mask_of({3}, 5), mask_of({4}, 5),
                      mask_of({5}, 5)))
    assert cx.refines(sing, p)
    assert cx.refines(p, p)
    assert cx.refines(q, p)
    with pytest.raises(ValueError):
        cx.refines(sing, Partition(5, (mask_of({1, 2}, 5),)))


def test_enumerate_partitions():
    all5 = list(cx.enumerate_partitions(0b11111, 5))
    assert len(all5) == 52
    assert len(list(cx.enumerate_partitions(0b11111, 5, min_parts=3))) == 36
    assert list(cx.enumerate_partitions(0b11, 5, min_parts=3)) == []
    # the one-block partition comes first
    assert all5[0].parts == (mask_of({1, 2, 3, 4, 5}, 5),)
    assert len(set(all5)) == 52


def test_partition_canonical_form():
    p = Partition(5, (mask_of({4, 5}, 5), mask_of({1, 2, 3}, 5)))
    assert p.parts[0] == mask_of({1, 2, 3}, 5)
    assert p.ground == 0b11111
    # parts given in any order build one value
    blocks = (0b00100, 0b10010, 0b01001)
    assert len({Partition(5, q) for q in itertools.permutations(blocks)}) == 1
    assert Partition(5, blocks).parts == (0b01001, 0b10010, 0b00100)
    for bad in ((mask_of({1}, 5), mask_of({1, 2}, 5)),  # overlapping
                (0,), (0b1, 0), (-1,), (0b10, -4),  # zero or negative
                (0b100000,), (0b1, 0b110000)):  # a bit at or above n
        with pytest.raises(ValueError):
            Partition(5, bad)


def faces_by_definition(d):
    """Every face of the complex, by member test over all subsets of [n]."""
    return [frozenset(I) for k in range(d.n + 1)
            for I in itertools.combinations(range(1, d.n + 1), k)
            if d.member(I)]


def sorted_maximal_sets(faces):
    """The maximal sets as sorted member tuples, in member-tuple order."""
    return sorted(tuple(sorted(f)) for f in maximal_sets(faces))


def test_json_encoding(capsys):
    """The NDJSON writer gives json.dumps(..., sort_keys=True) of the
    complex's maximal faces, sorted, and of the record around it.  The
    faces expected are found by definition, not by the library's kernel,
    which the writer uses."""
    from polycrep import cli
    cases = [subsets_leq(4, 2), subsets_avoiding(4, 1), Complex(4, 1),
             Complex(4, 0)]
    rows = [(d.family, w) for d in cases
            for w in (None, (3, 9, 27, 40))]
    cli._write_ndjson(4, rows, records=False)
    cli._write_ndjson(4, rows, records=True)
    lines = capsys.readouterr().out.splitlines()
    want = []
    for records in (False, True):
        for d in cases:
            for w in (None, (3, 9, 27, 40)):
                faces = sorted_maximal_sets(faces_by_definition(d))
                obj = {"n": 4, "maximal_faces": [list(f) for f in faces]}
                if records:
                    obj = {"complex": obj,
                           "kind": "non-projective" if w is None
                           else "projective",
                           "witness": w and [str(x) for x in w]}
                want.append(json.dumps(obj, sort_keys=True))
    assert lines == want
    assert lines[0] == ('{"maximal_faces": [[1, 2], [1, 3], [1, 4], [2, 3], '
                        '[2, 4], [3, 4]], "n": 4}')


def maximal_sets(faces):
    faces = set(faces)
    return tuple(f for f in faces if not any(f < g for g in faces))


def kernel_faces(fam, n):
    """The maximal-face kernel's output as member tuples, after checking
    that its ranks ascend and that _maximal_faces_of_mask reads the same."""
    ranks = cx._maximal_face_ranks(fam, n)
    assert ranks == sorted(set(ranks))
    order = cx._face_order(n)[0]
    masks = cx._maximal_faces_of_mask(fam, n)
    assert masks == [order[r] for r in ranks]
    return [tuple(i + 1 for i in range(n) if s >> i & 1) for s in masks]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_maximal_face_kernel_on_every_complex(n):
    """The kernel gives the maximal sets by definition, sorted by member
    tuple, on every maximally-biconnected complex at n = 4..6."""
    for m in cx.max_biconnected_masks(n):
        assert kernel_faces(m, n) == sorted_maximal_sets(
            faces_by_definition(Complex(n, m)))


def test_maximal_face_kernel_on_random_downsets():
    """The same on random downsets at n = 0..10, the families 0 and {∅}
    too; at n <= 2 the family mask is shorter than one byte.  Each family
    mask is built by setting the bit of every subset of the drawn sets."""
    rng = random.Random(22)
    for n in range(11):
        draws = [[], [frozenset()]]
        for _ in range(40):
            draws.append([frozenset(i for i in range(1, n + 1)
                                    if rng.random() < rng.random())
                          for _ in range(rng.randint(1, 6))])
        for drawn in draws:
            fam = 0
            for f in drawn:
                for k in range(len(f) + 1):
                    for sub in itertools.combinations(sorted(f), k):
                        fam |= 1 << sum(1 << (i - 1) for i in sub)
            assert kernel_faces(fam, n) == sorted_maximal_sets(drawn)


def test_maximal_faces_at_n16_fill_only_their_bytes():
    """A three-face complex on [16] round-trips through from_faces and
    maximal_faces.  The first call builds the face order (2^16 ranks) and
    byte tables only at the positions the maximal faces occupy: under
    0.1 s, and under 16 MB traced.  A table at every one of the 8192
    positions would hold about 2M tuples."""
    faces = (frozenset(range(1, 9)), frozenset(range(5, 17)),
             frozenset({1, 3, 9, 16}))

    def first_call():
        cx._face_order.cache_clear()
        cx._byte_ranks.cache_clear()
        return Complex.from_faces(16, faces).maximal_faces

    t0 = time.monotonic()
    got = first_call()
    assert time.monotonic() - t0 < 0.1
    assert got == tuple(sorted(faces, key=sorted))
    tracemalloc.start()
    try:
        first_call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert sum(t is not None for t in cx._byte_ranks(16)) <= len(faces)


def member_by_definition(faces, face):
    return any(face <= f for f in faces)


def biconnected_by_definition(faces, n):
    """No two faces (a face with itself included) union to [n], pair by
    pair over frozensets."""
    ground = frozenset(range(1, n + 1))
    return all(f | g != ground for f in faces for g in faces)


def max_biconnected_by_definition(faces, n):
    """Biconnected, and exactly one of each pair {I, I^c} of nonempty proper
    subsets of [n] a face, over frozensets."""
    ground = frozenset(range(1, n + 1))
    if not biconnected_by_definition(faces, n):
        return False
    return all(member_by_definition(faces, frozenset(I))
               != member_by_definition(faces, ground - frozenset(I))
               for k in range(1, n) for I in itertools.combinations(ground, k))


@st.composite
def downward_closed(draw):
    """A complex on [n], 4 <= n <= 6: random faces, or the faces of a
    threshold family {I : 2 Σ_I θ < Σθ} (maximally biconnected when θ is
    generic) with one maximal face dropped or one random face added."""
    n = draw(st.integers(4, 6))
    subset = st.frozensets(st.integers(1, n), max_size=n)
    kind = draw(st.sampled_from(("random", "threshold", "dropped", "added")))
    if kind == "random":
        faces = draw(st.lists(subset, max_size=6))
    else:
        theta = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
        faces = [frozenset(I) for k in range(n + 1)
                 for I in itertools.combinations(range(1, n + 1), k)
                 if 2 * sum(theta[i - 1] for i in I) < sum(theta)]
        faces = list(maximal_sets(faces))
        if kind == "dropped":
            faces.pop(draw(st.integers(0, len(faces) - 1)))
        elif kind == "added":
            faces.append(draw(subset))
    return Complex.from_faces(n, maximal_sets(faces))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(downward_closed())
@example(Complex.from_faces(5, ()))
@example(Complex.from_faces(5, (frozenset(),)))
@example(Complex.from_faces(4, (frozenset(range(1, 5)),)))
@example(Complex.from_faces(6, (frozenset({1, 2, 3}), frozenset({4, 5, 6}))))
@example(subsets_leq(6, 3))
@example(subsets_avoiding(6, 2))
def test_is_maximal_biconnected_matches_definition(d):
    assert cx.is_maximal_biconnected(d) == max_biconnected_by_definition(
        d.maximal_faces, d.n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.frozensets(st.integers(1, n)), max_size=6))))
@example((1, []))
@example((1, [frozenset()]))
@example((6, []))
@example((6, [frozenset()]))
@example((6, [frozenset({1, 2, 3}), frozenset({4, 5, 6})]))
def test_is_biconnected_matches_pairwise_definition(case):
    n, faces = case
    d = Complex.from_faces(n, maximal_sets(faces))
    assert routes.is_biconnected(d) == biconnected_by_definition(
        d.maximal_faces, n)


def test_family_masks_beyond_enumeration_range():
    """Closure and maximal faces take n shift-and-mask steps on the family
    mask, and maximal faces fill byte tables only where they lie: at
    n = 13 each check is quick."""
    d = Complex.from_faces(13, (frozenset(range(2, 14)),))
    assert d == Complex(13, cx._lacking(13)[0])
    t0 = time.monotonic()
    assert cx.is_maximal_biconnected(d)
    assert time.monotonic() - t0 < 1
    t0 = time.monotonic()
    b = routes.max_biconnected_to_biconnected(d)
    assert time.monotonic() - t0 < 1
    assert b == Complex.from_faces(12, (frozenset(range(2, 13)),))


def test_max_to_biconnected_membership_rule():
    """K is in the image exactly when K ∪ {n} is a face of d, K = ∅ too,
    for every maximally-biconnected complex at n = 4, 5, 6."""
    for n in (4, 5, 6):
        for m in cx.max_biconnected_masks(n):
            d = Complex(n, m)
            b = routes.max_biconnected_to_biconnected(d)
            assert b.n == n - 1
            for kmask in range(1 << (n - 1)):
                k = elements(kmask)
                assert b.member(k) == d.member(k | {n})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(3, 5).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.frozensets(st.integers(1, m), max_size=m - 1),
                         max_size=5))))
@example((4, []))
@example((4, [frozenset()]))
def test_biconnected_to_max_membership_rule(case):
    """On a biconnected complex d on [m], the image is maximally biconnected
    on [m+1] by the definition, and K ∪ {m+1} is a face of it exactly when
    K ∈ d."""
    m, faces = case
    assume(biconnected_by_definition(faces, m))
    d = Complex.from_faces(m, maximal_sets(faces))
    r = routes.biconnected_to_max_biconnected(d)
    assert r.n == m + 1
    assert max_biconnected_by_definition(r.maximal_faces, m + 1)
    for kmask in range(1 << m):
        k = elements(kmask)
        assert member_by_definition(r.maximal_faces, k | {m + 1}) == d.member(k)


def partitions_by_restricted_growth(elems):
    """Every set partition of the list elems, each an element's one-bit
    mask, from restricted-growth strings: a frozenset of part masks each."""
    if not elems:
        return []
    out = []

    def rec(i, rgs, top):
        if i == len(elems):
            blocks = [0] * (top + 1)
            for e, b in zip(elems, rgs):
                blocks[b] |= e
            out.append(frozenset(blocks))
            return
        for b in range(top + 2):
            rec(i + 1, rgs + [b], max(top, b))

    rec(1, [0], 0)
    return out


def test_enumerate_partitions_matches_restricted_growth():
    """Every nonempty ground subset of [6] and every min_parts: the same set
    of partitions as the restricted-growth reference, each once, Bell(#ground)
    of them without a bound, each with >= min_parts parts."""
    bell = [1, 1, 2, 5, 15, 52, 203]
    n = 6
    for gmask in range(1, 1 << n):
        ground = [1 << i for i in range(n) if gmask >> i & 1]
        reference = partitions_by_restricted_growth(ground)
        assert len(reference) == bell[len(ground)]
        for min_parts in range(1, len(ground) + 2):
            got = [frozenset(p.parts) for p in
                   cx.enumerate_partitions(gmask, n, min_parts=min_parts)]
            assert len(got) == len(set(got))
            assert all(len(p) >= min_parts for p in got)
            assert set(got) == {p for p in reference if len(p) >= min_parts}
    for ground in (0, 1 << n, (1 << n) + 1, 1 << (n + 3), -1):
        with pytest.raises(ValueError):  # at the call
            cx.enumerate_partitions(ground, n)
