"""Self-test of the benchmark's checkers; runs in seconds, without polycrep.

Run from the repository root: python3 -m pytest -q bench/test_checks.py

Correct outputs are faked from references computed here by brute force
(n = 5), then corrupted one at a time: each corruption must be rejected and
counted as exactly one failed operation of its workload.
"""

import itertools
import json
from pathlib import Path

import pytest

import checks
import run
import workloads
from checks import LAMBDA

N = 5


def brute_force_complexes(n: int) -> list:
    """Maximally-biconnected complexes on [n] as face-membership tables:
    decide subsets by increasing size, keeping the family downward closed
    and taking exactly one of each complementary pair."""
    full = (1 << n) - 1
    order = sorted(range(1, full), key=lambda s: bin(s).count("1"))
    out = []

    def closed(s, member):
        return all(member[s ^ (1 << i)] for i in range(n)
                   if s >> i & 1 and s != 1 << i)

    def rec(k, member):
        if k == len(order):
            out.append(member[:])
            return
        s = order[k]
        if member[s] is not None:
            if not member[s] or closed(s, member):
                rec(k + 1, member)
            return
        for choice in (True, False):
            if choice and not closed(s, member):
                continue
            member[s], member[full ^ s] = choice, not choice
            rec(k + 1, member)
            member[s] = member[full ^ s] = None

    rec(0, [None] * (full + 1))
    return out


def maximal_faces(member, n: int) -> list:
    faces = [s for s in range(1, 1 << n) if member[s]]
    return [sorted(i + 1 for i in range(n) if s >> i & 1) for s in faces
            if not any(t != s and t & s == s for t in faces)]


def witness_table(n: int, box: int = 7) -> dict:
    """Family (tuple of memberships) -> smallest-box integer witness θ."""
    out = {}
    for theta in itertools.product(range(1, box + 1), repeat=n):
        total = sum(theta)
        sums = [sum(theta[i] for i in range(n) if s >> i & 1)
                for s in range(1 << n)]
        if any(2 * v == total for v in sums[1:-1]):
            continue
        key = tuple(2 * v < total for v in sums[1:-1])
        out.setdefault(key, theta)
    return out


@pytest.fixture(scope="module")
def complexes5():
    return brute_force_complexes(N)


@pytest.fixture(scope="module")
def records5(complexes5):
    wit = witness_table(N)
    lines = []
    for member in complexes5:
        theta = wit[tuple(member[1:-1])]
        lines.append({"complex": {"n": N,
                                  "maximal_faces": maximal_faces(member, N)},
                      "kind": "projective",
                      "witness": [str(t) for t in theta]})
    return lines


def ndjson(objs) -> str:
    return "".join(json.dumps(o) + "\n" for o in objs)


def tally(procs, outputs):
    verdicts = workloads.judge_pass(procs, outputs)
    failed = [v for v in verdicts if not v.ok]
    return len(failed), all(v.ok or v.known_fault for v in verdicts)


def test_references(complexes5):
    assert len(complexes5) == LAMBDA[N]
    assert len(brute_force_complexes(4)) == LAMBDA[4]
    assert checks.bell(5) == 52
    assert [checks.stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert checks.polygon_suite_size(5) == 36 + 2 * 36 * 36
    assert checks.orbit_membership_suite_size(5, 3) == 51 * 26
    assert checks.polygon_suite_size(4) == 7 + 2 * 7 * 7
    assert checks.orbit_membership_suite_size(4, 3) == 14 * 15
    assert checks.generic_region_count(6, 3) == 32
    assert checks.det([[2, 0, 1], [1, 3, 2], [1, 1, 1]]) == 0
    assert checks.det([[0, 1], [1, 0]]) == -1
    assert not checks.is_generic([(1, 0, 0), (0, 1, 0), (1, 1, 0)], 3)
    for n in (5, 6, 7):
        assert checks.CHAMBERS_F[n] == checks.projective_count(n)


def test_census(monkeypatch, records5):
    monkeypatch.setattr(workloads, "RECORDS_N", N)
    procs = workloads.census(0)
    counts = {"n": N, "total": LAMBDA[N], "projective": LAMBDA[N],
              "nonprojective": 0}

    def outputs(counts=counts, records=records5, rc=0):
        return [(0, json.dumps(counts) + "\n"), (rc, ndjson(records))]

    assert tally(procs, outputs()) == (0, True)
    assert tally(procs, outputs(
        counts={**counts, "total": counts["total"] + 1})) == (1, False)
    assert tally(procs, outputs(rc=1)) == (1, False)
    swapped = [dict(r) for r in records5]
    swapped[3]["witness"], swapped[4]["witness"] = (swapped[4]["witness"],
                                                    swapped[3]["witness"])
    assert tally(procs, outputs(records=swapped)) == (1, False)
    # all subsets of size <= 2 plus {1,2,3}: {1,2,3} and {4,5} both faces
    broken = [dict(r) for r in records5]
    broken[0] = {**broken[0], "complex": {"n": N, "maximal_faces": [
        [1, 2, 3]] + [list(p) for p in itertools.combinations(range(1, 6), 2)
                      if not set(p) <= {1, 2, 3}]}}
    assert tally(procs, outputs(records=broken)) == (1, False)
    assert tally(procs, outputs(records=records5 + records5[:1])) == (1, False)


def test_complexes(monkeypatch, records5):
    monkeypatch.setattr(workloads, "RECORDS_N", N)
    procs = workloads.complexes(0)
    stream = [r["complex"] for r in records5]

    def outputs(count7=LAMBDA[7], full6=LAMBDA[6] - 6, stream=stream):
        c7 = json.dumps({"n": 7, "count": count7, "full_only": False})
        return [(0, c7), (0, c7), (0, ndjson(stream)),
                (0, json.dumps({"n": 6, "count": full6, "full_only": True}))]

    assert tally(procs, outputs()) == (0, True)
    assert tally(procs, outputs(count7=LAMBDA[7] - 1)) == (2, False)
    assert tally(procs, outputs(full6=LAMBDA[6])) == (1, False)
    assert tally(procs, outputs(stream=stream[1:] + stream[:1] * 2)) == (
        1, False)


def regions_outputs(procs, corrupt=None):
    """Correct answers for every regions process; corrupt maps a label to
    a function editing the answer (a dict, or the list of counts)."""
    values = {"A5 in F": 81, "A5 charpoly": 2592, "A5 enumerate": 2592,
              "A6 in F": 1684,
              "B6,3 enumerate": 332, "B6,3 charpoly": 332,
              "A6 at ray 1^6": 332}
    outputs = []
    for proc in procs:
        if proc.label in values:
            a = proc.argv[proc.argv.index("--arrangement") + 1]
            n = int(proc.argv[proc.argv.index("--n") + 1])
            obj = {"arrangement": a, "n": n, "m": None,
                   "method": "charpoly" if "charpoly" in proc.argv
                   else "enumerate", "regions": values[proc.label]}
            if corrupt and proc.label in corrupt:
                corrupt[proc.label](obj)
            outputs.append((0, json.dumps(obj)))
        else:
            spec = json.loads(proc.stdin)
            m = len(spec["arrangements"][0])
            counts = [checks.generic_region_count(m, spec["dim"])] * proc.ops
            if corrupt and proc.label in corrupt:
                corrupt[proc.label](counts)
            outputs.append((0, ndjson({"index": i, "regions": c}
                                      for i, c in enumerate(counts))))
    return outputs


def test_regions_inputs_are_generic_and_fixed():
    procs = workloads.regions(0)
    assert [p.stdin for p in procs] == [p.stdin for p in workloads.regions(9)]
    for p in procs:
        if p.stdin:
            spec = json.loads(p.stdin)
            for normals in spec["arrangements"]:
                assert checks.is_generic(normals, spec["dim"])
                assert max(abs(x) for v in normals for x in v) >= 1 << 30


def test_regions():
    procs = workloads.regions(0)
    assert tally(procs, regions_outputs(procs)) == (0, True)

    def bump(obj):
        obj["regions"] += 1

    def bump_first(counts):
        counts[0] += 1

    assert tally(procs, regions_outputs(
        procs, {"A5 charpoly": bump})) == (1, False)
    assert tally(procs, regions_outputs(
        procs, {"A6 at ray 1^6": bump})) == (1, False)
    assert tally(procs, regions_outputs(
        procs, {"A5 enumerate": bump})) == (1, False)
    assert tally(procs, regions_outputs(
        procs, {"large-entry enumerate dim=3": bump_first})) == (1, True)
    assert tally(procs, regions_outputs(
        procs, {"large-entry charpoly dim=4": bump_first})) == (1, False)
    verdicts = workloads.judge_pass(procs, regions_outputs(
        procs, {"large-entry enumerate dim=4": bump_first}))
    bad = [v for v in verdicts if not v.ok]
    assert [(v.op, v.detail) for v in bad] == [
        ("large-entry enumerate dim=4 index=0", "got=129 expected=128")]


def test_cones():
    procs = workloads.cones(3)
    reports = [
        {"suite": "polygon", "n": 4, "checked": 105, "mismatches": 0},
        {"suite": "hyper", "n": 4, "max_k": 3, "checked": 100,
         "mismatches": 0},
        {"suite": "psi", "n": 4, "max_k": 3, "checked": 100,
         "mismatches": 0},
        {"suite": "orbit-membership", "n": 4, "max_k": 3, "checked": 210,
         "mismatches": 0}]
    classify = {"n": 5, "total": 76, "projective": 76, "nonprojective": 0}
    cox = {"n": 8, "samples": 25, "failures": 0, "identities": "ok"}

    def outputs(c0=76, classify=classify, reports=reports, cox=cox):
        return [(0, json.dumps({"arrangement": "A", "n": 5, "m": None,
                                "method": "enumerate", "regions": c0})),
                (0, json.dumps(classify)), (0, ndjson(reports)),
                (0, json.dumps(cox))]

    assert "--seed" in procs[3].argv and "3" in procs[3].argv
    assert tally(procs, outputs()) == (0, True)
    assert tally(procs, outputs(c0=77)) == (1, False)
    assert tally(procs, outputs(classify={**classify, "projective": 75,
                                          "nonprojective": 1})) == (1, False)
    assert tally(procs, outputs(
        reports=[{**r, "mismatches": int(r["suite"] == "psi")}
                 for r in reports])) == (1, False)
    assert tally(procs, outputs(
        reports=[{**r, "checked": r["checked"] - (r["suite"] == "polygon")}
                 for r in reports])) == (1, False)
    assert tally(procs, outputs(cox={**cox, "failures": 1})) == (1, False)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.per_layer_names())
