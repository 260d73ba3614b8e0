"""The benchmark's four workloads: which processes a pass runs, with which
inputs, and how each operation's output is judged.

A pass is an ordered list of Procs.  A Proc is one fresh interpreter: a
`polycrep` CLI call, or `bench/libop.py` for what the CLI cannot express.
Each Proc judges its own stdout into one verdict per operation it performed
(one for a CLI call, one per arrangement for libop).  A verdict may use the
answer of an earlier operation of the same pass (ctx), so cross-route checks
("enumerate = charpoly") sit on the later operation.  ctx holds only answers
that passed their own checks; a comparison with a failed operation is skipped,
so one wrong answer is counted once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

import checks
from checks import (CHAMBERS_C0, CHAMBERS_F, LAMBDA, CheckError, full_count,
                    generic_region_count, is_generic, require)

# The large-entry arrangements are fixed, not drawn from --seed: their
# `enumerate` counts are wrong today (int64 overflow), and a failure count
# that moved with the seed could not be compared between runs.
LARGE_SEED = 2406
# (dimension, arrangements, random planes added to the coordinate planes)
LARGE_SETS = ((3, 100, 3), (4, 50, 4))
LARGE_ENTRY = (1 << 30, 1 << 45)


@dataclass
class Verdict:
    op: str
    ok: bool
    known_fault: bool = False
    detail: str = ""


@dataclass
class Proc:
    label: str
    argv: list  # after the interpreter: "-m polycrep.cli ..." or a script
    judge: Callable  # (stdout, ctx) -> list of Verdict; rc is checked first
    stdin: bytes = b""
    ops: int = 1  # operations this process performs, for failure accounting


def cli(*args) -> list:
    return ["-m", "polycrep.cli", *[str(a) for a in args]]


def chambers(arrangement: str, n: int, *rest) -> list:
    return cli("chambers", "count", "--arrangement", arrangement, "--n", n,
               *rest)


def single(label: str, check: Callable) -> Callable:
    """Judge of a one-operation process: check(stdout, ctx) raises on a
    wrong answer."""

    def judge(stdout: str, ctx: dict) -> list:
        try:
            check(stdout, ctx)
        except (CheckError, ValueError, KeyError, TypeError, IndexError) as e:
            return [Verdict(label, False, detail=f"{type(e).__name__}: {e}")]
        return [Verdict(label, True)]

    return judge


def one_json(stdout: str) -> dict:
    lines = stdout.splitlines()
    require(len(lines) == 1, f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def failed_all(proc: Proc, detail: str) -> list:
    return [Verdict(proc.label, False, detail=detail)] * proc.ops


# ---------------------------------------------------------------------------
# census

# n of the census and of the operations that stream one record per complex;
# every record is checked, so the self-test lowers it to keep its reference
# enumeration small.  The n = 7 census (40-50 s in one process) is left out:
# a run could time it only once, and one sample of it moves with the
# host's speed (README, *Noise*).
RECORDS_N = 6


def census(seed: int) -> list:
    def counts(out, ctx):
        checks.check_census_counts(one_json(out), RECORDS_N)

    def records(out, ctx):
        checks.check_census_records(out, RECORDS_N)

    return [
        Proc("census n=6", cli("resolutions", "census", "--n", RECORDS_N),
             single("census n=6", counts)),
        Proc("census n=6 records",
             cli("resolutions", "census", "--n", RECORDS_N, "--records"),
             single("census n=6 records", records)),
    ]


# ---------------------------------------------------------------------------
# complexes

def _complex_count(n: int, want: int, full_only: bool) -> Callable:
    def check(out, ctx):
        obj = one_json(out)
        require(obj["n"] == n and obj["full_only"] is full_only,
                f"answer for the wrong question: {obj}")
        require(obj["count"] == want, f"count {obj['count']}, want {want}")
    return check


def complexes(seed: int) -> list:
    return [
        Proc("count n=7", cli("complexes", "count", "--n", 7),
             single("count n=7", _complex_count(7, LAMBDA[7], False))),
        Proc("count n=7 parallelism 2",
             cli("--parallelism", 2, "complexes", "count", "--n", 7),
             single("count n=7 parallelism 2",
                    _complex_count(7, LAMBDA[7], False))),
        Proc("enumerate n=6", cli("complexes", "enumerate", "--n", RECORDS_N),
             single("enumerate n=6", lambda out, ctx:
                    checks.check_complex_stream(out, RECORDS_N))),
        Proc("count n=6 full-only",
             cli("complexes", "count", "--n", 6, "--full-only"),
             single("count n=6 full-only",
                    _complex_count(6, full_count(6), True))),
    ]


# ---------------------------------------------------------------------------
# regions

def _regions(label: str, arrangement: str, n: int, method: str,
             want: Optional[Callable] = None) -> Callable:
    """Check a `chambers count` answer; want(ctx) gives the values it must
    equal.  The count is stored in ctx under the label."""

    def check(out, ctx):
        obj = one_json(out)
        require(obj["arrangement"] == arrangement and obj["n"] == n
                and obj["method"] == method,
                f"answer for the wrong question: {obj}")
        got = obj["regions"]
        require(isinstance(got, int) and got > 0, f"regions {got!r}")
        for what, value in (want(ctx) if want else []):
            require(value is None or got == value,
                    f"regions {got} != {what} {value}")
        ctx[label] = got

    return single(label, check)


def large_entry_arrangements(dim: int, count: int, extra: int) -> list:
    """Coordinate planes plus `extra` planes with entries ±2³⁰…2⁴⁵, kept
    only when generic (every dim normals independent, by exact minors)."""
    rng = random.Random(LARGE_SEED * 10 + dim)
    coords = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    out = []
    while len(out) < count:
        planes = [tuple(rng.choice((-1, 1)) * rng.randint(*LARGE_ENTRY)
                        for _ in range(dim)) for _ in range(extra)]
        if is_generic(coords + planes, dim):
            out.append(coords + planes)
    return out


def _large_judge(dim: int, method: str, arrs: list) -> Callable:
    want = generic_region_count(len(arrs[0]), dim)

    def judge(stdout: str, ctx: dict) -> list:
        got = {}
        for line in stdout.splitlines():
            try:
                obj = json.loads(line)
                got[obj["index"]] = obj.get("regions", obj.get("error"))
            except (ValueError, KeyError, TypeError):
                continue
        verdicts = []
        for i in range(len(arrs)):
            op = f"large-entry {method} dim={dim} index={i}"
            value = got.get(i)
            if value == want:
                verdicts.append(Verdict(op, True))
            else:
                known = method == "enumerate" and isinstance(value, int)
                verdicts.append(Verdict(op, False, known_fault=known,
                                        detail=f"got={value} expected={want}"))
        return verdicts

    return judge


def regions(seed: int) -> list:
    f5 = ("2^5 x chambers in F", 2 ** 5 * CHAMBERS_F[5])
    procs = [
        Proc("A5 in F", chambers("A", 5, "--in-cone", "F"),
             _regions("A5 in F", "A", 5, "enumerate",
                      lambda ctx: [("chamber table F(5)", CHAMBERS_F[5])])),
        Proc("A5 charpoly", chambers("A", 5, "--method", "charpoly"),
             _regions("A5 charpoly", "A", 5, "charpoly",
                      lambda ctx: [f5])),
        Proc("A5 enumerate", chambers("A", 5),
             _regions("A5 enumerate", "A", 5, "enumerate",
                      lambda ctx: [f5, ("A5 charpoly",
                                        ctx.get("A5 charpoly"))])),
        Proc("A6 in F", chambers("A", 6, "--in-cone", "F"),
             _regions("A6 in F", "A", 6, "enumerate",
                      lambda ctx: [("chamber table F(6)", CHAMBERS_F[6])])),
        Proc("B6,3 enumerate", chambers("B", 6, "--m", 3),
             _regions("B6,3 enumerate", "B", 6, "enumerate")),
        Proc("B6,3 charpoly",
             chambers("B", 6, "--m", 3, "--method", "charpoly"),
             _regions("B6,3 charpoly", "B", 6, "charpoly",
                      lambda ctx: [("B6,3 enumerate",
                                    ctx.get("B6,3 enumerate"))])),
        Proc("A6 at ray 1^6", chambers("A", 6, "--at-ray", "1,1,1,1,1,1"),
             _regions("A6 at ray 1^6", "A", 6, "enumerate",
                      lambda ctx: [("B6,3 enumerate",
                                    ctx.get("B6,3 enumerate")),
                                   ("B6,3 charpoly",
                                    ctx.get("B6,3 charpoly"))])),
    ]
    for dim, count, extra in LARGE_SETS:
        arrs = large_entry_arrangements(dim, count, extra)
        payload = json.dumps({"dim": dim, "arrangements": arrs}).encode()
        for method in ("charpoly", "enumerate"):
            procs.append(Proc(f"large-entry {method} dim={dim}",
                              ["bench/libop.py", method],
                              _large_judge(dim, method, arrs),
                              stdin=payload, ops=count))
    return procs


# ---------------------------------------------------------------------------
# cones

def cones(seed: int) -> list:
    def classify(out, ctx):
        obj = one_json(out)
        require(obj["n"] == 5, "answer for the wrong n")
        require(obj["total"] == full_count(5),
                f"total {obj['total']} != λ(5) - 5")
        c0 = ctx.get("A5 in C0")
        require(c0 is None or obj["projective"] == c0,
                f"projective {obj['projective']} != chambers in C0 {c0}")
        require(obj["nonprojective"] == obj["total"] - obj["projective"],
                "nonprojective != total - projective")

    def oracle(out, ctx):
        reports = [json.loads(line) for line in out.splitlines()]
        checks.check_oracle_reports(reports, 4, 3)

    def cox(out, ctx):
        obj = one_json(out)
        require(obj == {"n": 8, "samples": 25, "failures": 0,
                        "identities": "ok"}, f"cox verify reported {obj}")

    return [
        Proc("A5 in C0", chambers("A", 5, "--in-cone", "C0"),
             _regions("A5 in C0", "A", 5, "enumerate",
                      lambda ctx: [("chamber table C0(5)", CHAMBERS_C0[5])])),
        Proc("classify n=5", cli("bunches", "classify", "--n", 5),
             single("classify n=5", classify)),
        Proc("oracle n=4", cli("oracle", "crosscheck", "--n", 4,
                               "--max-k", 3),
             single("oracle n=4", oracle)),
        Proc("cox n=8", cli("--seed", seed, "cox", "verify", "--n", 8,
                            "--samples", 25),
             single("cox n=8", cox)),
    ]


WORKLOADS = {"census": census, "regions": regions, "cones": cones,
             "complexes": complexes}


def judge_pass(procs: list, outputs: list) -> list:
    """Verdicts for one pass; outputs[i] is (returncode, stdout) of procs[i].
    A process that exited non-zero fails every operation it performed."""
    ctx = {}
    verdicts = []
    for proc, (rc, stdout) in zip(procs, outputs):
        if rc != 0:
            verdicts += failed_all(proc, f"exit code {rc}")
        else:
            verdicts += proc.judge(stdout, ctx)
    return verdicts
