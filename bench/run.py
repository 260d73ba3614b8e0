"""Benchmark of the polycrep exact calculator.

Usage (from the repository root):
  python3 bench/run.py --workload census|regions|cones|complexes \
      --seed N --seconds S --trace 0|1

Every operation runs the way a user runs it: one fresh process, one at a
time, never more than two workers.  A pass runs the workload's operations
once; untraced passes repeat, each after one set-up round, until S seconds
have gone by, and the end-to-end metrics are medians over the run.

Times are scaled to a machine of steady speed: after every timed process the
run times bench/reference.py, a fixed unit of work, and a process's wall
time is divided by the mean of the reference times just before and after
it, then multiplied by REF_S.  On 2 cores of a shared host the speed
drifted by up to 1.6x within minutes; the scaled times drift about a
quarter as much.  The raw times are printed and kept in the results file
too.

  wall_s       time of one pass: the sum over the pass's operations of each
               one's median scaled process wall time over the run's passes
  peak_rss_mb  largest peak resident set of any operation's process in a
               pass, pool workers included (wait4 rusage); median over passes
  setup_s      median over the run's set-up rounds (at least SETUPS) of
               input generation plus a cold interpreter importing
               polycrep.cli and building its parser, scaled

With --trace 1 the run makes one pass in which every operation runs once
untraced and right after once under bench/traced.py; it prints the
per-layer metrics and the tracing overhead (traced minus untraced wall
time), and writes every span to bench/results/.

Every output is checked against a computation made apart from the program
(bench/checks.py).  An operation fails when its process exits non-zero or
its output fails a check.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; "correct" is false when an
operation failed other than a large-entry `enumerate` count, which is
wrong today because of the int64 overflow in arrangements._ray_data.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench" / "results"
SETUPS = 5
# Scaled times are in seconds of a machine on which one reference run takes
# REF_S seconds, about its median on the host of the README's figures when
# that host is calm.
REF_S = 0.25
REF_ARGV = [sys.executable, "bench/reference.py"]
RUN_LIMIT_S = 170  # processes still running then are killed and fail

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# Per-layer metrics of the traced pass.  <name>.self_s, .calls, .items,
# .items_per_s and .records read the totals of the span <name>.
LAYER_SPANS = {
    "self_s": ("complexes.count_max_biconnected",
               "complexes.enumerate_max_biconnected",
               "hyper_cones.census_counts", "hyper_cones.census",
               "arrangements.chambers_in_cone",
               "arrangements.count_regions_in_cone",
               "arrangements.count_regions.enumerate",
               "arrangements.count_chambers_at_ray",
               "arrangements.count_regions.charpoly",
               "arrangements.char_poly", "ratgeom.primitive",
               "ratgeom.row_reduce", "ratgeom.in_rowspace",
               "ratgeom.kernel_basis", "ratgeom.h_to_v",
               "ratgeom.solve_eq_nonneg", "bunches.phi_from_complex",
               "bunches.is_projective", "polygon_cones.generators",
               "crosscheck.polygon_suite", "crosscheck.hyper_suite",
               "crosscheck.psi_suite", "crosscheck.orbit_membership_suite",
               "coxrelations.verify_relations_vanish",
               "coxrelations.sample_X_point",
               "coxrelations.iota_substitution_identities"),
    "calls": ("complexes.count_max_biconnected", "arrangements.char_poly",
              "ratgeom.primitive", "ratgeom.row_reduce",
              "ratgeom.in_rowspace", "ratgeom.kernel_basis",
              "ratgeom.h_to_v", "ratgeom.solve_eq_nonneg",
              "bunches.phi_from_complex", "bunches.is_projective",
              "polygon_cones.generators",
              "coxrelations.verify_relations_vanish"),
    "items": ("complexes.enumerate_max_biconnected",
              "arrangements.chambers_in_cone",
              "arrangements.count_regions_in_cone"),
    "items_per_s": ("complexes.enumerate_max_biconnected",
                    "arrangements.chambers_in_cone"),
    "records": ("hyper_cones.census",),
}
SUFFIX_UNIT = {"self_s": "s", "calls": "count", "items": "count",
               "items_per_s": "1/s", "records": "count"}
CHECKED_SUITES = ("crosscheck.polygon_suite", "crosscheck.hyper_suite",
                  "crosscheck.psi_suite", "crosscheck.orbit_membership_suite")
OTHER_LAYERS = (("cli.import_s", "s"), ("cli.cpu_s", "s"),
                ("cli.complexes_count.parallel_ratio", "ratio"),
                ("crosscheck.checked", "count"), ("trace.overhead_s", "s"))
PARALLEL_PAIR = ("count n=7 parallelism 2", "count n=7")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = [(name, unit) for name, unit in OTHER_LAYERS[:3]]
    for suffix, spans in LAYER_SPANS.items():
        out += [(f"{s}.{suffix}", SUFFIX_UNIT[suffix]) for s in spans]
    return out + list(OTHER_LAYERS[3:])


@dataclass
class ProcRun:
    label: str
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_kb: int
    cpu_s: float


def op_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("POLYCREP_WORKERS", None)  # would override --parallelism
    # Users' processes read compiled bytecode from __pycache__; without this
    # every operation would compile polycrep again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv: list, env: dict, deadline: float, stdin: bytes = b"",
                label: str = "") -> ProcRun:
    """Run one process to its end, or kill its process group at the
    deadline (time.monotonic()); wall time from spawn to reaping, and its
    rusage, which on Linux includes the children it waited for."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         start_new_session=True)
    err = []

    def feed():
        try:
            p.stdin.write(stdin)
            p.stdin.close()
        except BrokenPipeError:
            pass

    def drain():
        err.append(p.stderr.read())

    def kill():
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    threads = [threading.Thread(target=feed), threading.Thread(target=drain)]
    for t in threads:
        t.start()
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    out = p.stdout.read()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    for t in threads:
        t.join()
    p.stdout.close()
    p.stderr.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    return ProcRun(label, p.returncode, out.decode(), err[0].decode(), wall,
                   usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


IMPORT_ARGV = [sys.executable, "-c",
               "import polycrep.cli as c; c.build_parser()"]


def warm_import(env: dict, deadline: float):
    """Import once untimed, so that __pycache__ is filled before timing."""
    warm = run_process(IMPORT_ARGV, env, deadline)
    if warm.returncode != 0:
        raise SystemExit(f"cannot import polycrep.cli:\n{warm.stderr}")


def setup_round(name: str, seed: int, env: dict, deadline: float) -> float:
    """One round of input generation plus a cold import."""
    t0 = time.perf_counter()
    workloads.WORKLOADS[name](seed)
    gen = time.perf_counter() - t0
    return gen + run_process(IMPORT_ARGV, env, deadline).wall_s


def run_op(proc, env: dict, deadline: float,
           span_file: Path = None) -> ProcRun:
    argv = [sys.executable, *proc.argv]
    if span_file is not None:
        argv = [sys.executable, "bench/traced.py", str(span_file), *proc.argv]
    return run_process(argv, env, deadline, proc.stdin, proc.label)


def judge(procs: list, runs: list) -> list:
    return workloads.judge_pass(procs,
                                [(r.returncode, r.stdout) for r in runs])


class RefClock:
    """Scales wall times by reference runs made between the timed processes
    (the module docstring says why)."""

    def __init__(self, env: dict, deadline: float):
        self.env, self.deadline = env, deadline
        self.refs = [self._reference()]

    def _reference(self) -> float:
        r = run_process(REF_ARGV, self.env, self.deadline)
        if r.returncode != 0:
            raise SystemExit(f"bench/reference.py failed:\n{r.stderr}")
        return r.wall_s

    def scale(self, wall_s: float) -> float:
        """wall_s of the process that has just ended, scaled."""
        self.refs.append(self._reference())
        return wall_s * 2 * REF_S / (self.refs[-2] + self.refs[-1])


def pass_record(runs: list, scaled: list = None) -> list:
    """What the results file keeps of a pass: timings, and stderr of the
    processes that failed."""
    return [{"label": r.label, "returncode": r.returncode,
             "wall_s": r.wall_s, "peak_rss_kb": r.peak_rss_kb,
             "cpu_s": r.cpu_s,
             **({"scaled_s": scaled[i]} if scaled else {}),
             **({"stderr": r.stderr[-2000:]} if r.returncode else {})}
            for i, r in enumerate(runs)]


def layer_metrics(traces: list, untraced: list, traced: list) -> dict:
    """Per-layer metrics from the span totals of the traced runs; cpu time
    and the worker ratio come from the untraced runs of the same pass."""
    stats = {}
    for t in traces:
        for name, (calls, total, self_s, items) in t["stats"].items():
            s = stats.setdefault(name, [0, 0.0, 0.0, 0])
            s[0] += calls
            s[1] += total
            s[2] += self_s
            s[3] += items

    def get(name):
        return stats.get(name, [0, 0.0, 0.0, 0])

    walls = {r.label: r.wall_s for r in untraced}
    par, one = PARALLEL_PAIR
    m = {"cli.import_s": statistics.median(t["import_s"] for t in traces),
         "cli.cpu_s": sum(r.cpu_s for r in untraced),
         "cli.complexes_count.parallel_ratio":
             walls[par] / walls[one] if par in walls else 0.0}
    for suffix, spans in LAYER_SPANS.items():
        for s in spans:
            calls, total, self_s, items = get(s)
            m[f"{s}.{suffix}"] = {
                "self_s": self_s, "calls": calls, "items": items,
                "records": items,
                "items_per_s": items / total if total else 0.0}[suffix]
    m["crosscheck.checked"] = sum(get(s)[3] for s in CHECKED_SUITES)
    m["trace.overhead_s"] = (sum(r.wall_s for r in traced)
                             - sum(r.wall_s for r in untraced))
    return m


def traced_pass(procs: list, env: dict, deadline: float, stem: str):
    """Each operation untraced and then under bench/traced.py, back to back
    so that both see the machine in the same state.  The span files are
    merged into results/<stem>.trace.json."""
    trace_dir = RESULTS / f"{stem}.spans"
    trace_dir.mkdir(exist_ok=True)
    untraced, traced, traces = [], [], []
    for i, proc in enumerate(procs):
        untraced.append(run_op(proc, env, deadline))
        path = trace_dir / f"{i}.json"
        traced.append(run_op(proc, env, deadline, path))
        if path.is_file():  # absent when the process was killed
            traces.append({"op": proc.label, **json.loads(path.read_text())})
            path.unlink()
    trace_dir.rmdir()
    (RESULTS / f"{stem}.trace.json").write_text(json.dumps(traces))
    return untraced, traced, traces


def report_failures(name: str, verdicts: list):
    for v in verdicts:
        if not v.ok:
            kind = "known fault" if v.known_fault else "FAILED"
            print(f"{name}: {kind}: {v.op}: {v.detail}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "polycrep" / "cli.py").is_file():
        print(f"error: no polycrep sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = op_env()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    procs = workloads.WORKLOADS[args.workload](args.seed)
    passes, verdicts = [], []
    if args.trace:
        warm_import(env, deadline)
        untraced, traced, traces = traced_pass(procs, env, deadline, stem)
        passes = [pass_record(untraced), pass_record(traced)]
        verdicts = judge(procs, untraced) + judge(procs, traced)
        units = dict(per_layer_names())
        metrics = {k: (v, units[k]) for k, v in
                   layer_metrics(traces, untraced, traced).items()}
    else:
        # The set-up rounds are spread over the run, one before each pass,
        # so that their median and the passes' see the machine alike.
        warm_import(env, deadline)
        clock = RefClock(env, deadline)
        setups = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            setups.append(clock.scale(setup_round(args.workload, args.seed,
                                                  env, deadline)))
            runs, scaled = [], []
            for p in procs:
                runs.append(run_op(p, env, deadline))
                scaled.append(clock.scale(runs[-1].wall_s))
            passes.append(pass_record(runs, scaled))
            verdicts += judge(procs, runs)
        while len(setups) < SETUPS:
            setups.append(clock.scale(setup_round(args.workload, args.seed,
                                                  env, deadline)))

        # Each operation's median over the passes, summed: one slow stretch
        # of the machine costs one sample of one operation, not a pass.
        def pass_time(key):
            return sum(statistics.median(p[i][key] for p in passes)
                       for i in range(len(procs)))

        rss = [max(r["peak_rss_kb"] for r in p) / 1024 for p in passes]
        values = {"wall_s": pass_time("scaled_s"),
                  "peak_rss_mb": statistics.median(rss),
                  "setup_s": statistics.median(setups)}
        raw = {"unscaled wall_s": pass_time("wall_s"),
               "reference run median": statistics.median(clock.refs)}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END}

    report_failures(args.workload, verdicts)
    failed = sum(not v.ok for v in verdicts)
    correct = all(v.ok or v.known_fault for v in verdicts)
    result = {"correct": correct, "attempted": len(verdicts),
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (RESULTS / f"{stem}.json").write_text(json.dumps({
        **result, **({"raw": raw, "reference_s": clock.refs}
                     if not args.trace else {}), "passes": passes,
        "failures": [v.__dict__ for v in verdicts if not v.ok]}, indent=1))

    kind = "untraced and traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} "
          f"{kind} passes: {len(verdicts)} operations attempted, "
          f"{failed} failed")
    for k, (v, u) in metrics.items():
        print(f"  {k:48s} {v:14.6g} {u}")
    if not args.trace:
        for k, v in raw.items():
            print(f"  ({k:46s} {v:14.6g} s)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
