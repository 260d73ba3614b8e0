"""CLI dispatch, formats, exit codes, and golden outputs."""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from polycrep import cli, hyper_cones
from polycrep.complexes import Complex

GOLDEN = [
    (["complexes", "count", "--n", "5"],
     '{"count": 81, "full_only": false, "n": 5}'),
    (["complexes", "count", "--n", "6"],
     '{"count": 2646, "full_only": false, "n": 6}'),
    (["complexes", "count", "--n", "5", "--full-only"],
     '{"count": 76, "full_only": true, "n": 5}'),
    (["resolutions", "census", "--n", "4"],
     '{"n": 4, "nonprojective": 0, "projective": 12, "total": 12}'),
    (["resolutions", "census", "--n", "5"],
     '{"n": 5, "nonprojective": 0, "projective": 81, "total": 81}'),
    (["resolutions", "census", "--n", "6"],
     '{"n": 6, "nonprojective": 962, "projective": 1684, "total": 2646}'),
    (["chambers", "count", "--arrangement", "B", "--n", "6", "--m", "3"],
     '{"arrangement": "B", "m": 3, "method": "enumerate", "n": 6, '
     '"regions": 332}'),
    (["chambers", "count", "--arrangement", "B", "--n", "6", "--m", "3",
      "--method", "charpoly"],
     '{"arrangement": "B", "m": 3, "method": "charpoly", "n": 6, '
     '"regions": 332}'),
    (["chambers", "count", "--arrangement", "A", "--n", "5",
      "--in-cone", "F"],
     '{"arrangement": "A", "m": null, "method": "enumerate", "n": 5, '
     '"regions": 81}'),
    (["chambers", "count", "--arrangement", "A", "--n", "5",
      "--in-cone", "C0"],
     '{"arrangement": "A", "m": null, "method": "enumerate", "n": 5, '
     '"regions": 76}'),
    (["chambers", "count", "--arrangement", "A", "--n", "6",
      "--at-ray", "1,1,1,1,1,1"],
     '{"arrangement": "A", "m": null, "method": "enumerate", "n": 6, '
     '"regions": 332}'),
    (["bunches", "classify", "--n", "4"],
     '{"n": 4, "nonprojective": 0, "projective": 8, "total": 8}'),
    (["bunches", "classify", "--n", "5"],
     '{"n": 5, "nonprojective": 0, "projective": 76, "total": 76}'),
    (["bunches", "classify", "--n", "6"],
     '{"n": 6, "nonprojective": 962, "projective": 1678, "total": 2640}'),
    (["--seed", "3", "cox", "verify", "--n", "8", "--samples", "25"],
     '{"failures": 0, "identities": "ok", "n": 8, "samples": 25}'),
    (["cox", "verify", "--n", "40", "--samples", "1"],
     '{"failures": 0, "identities": "ok", "n": 40, "samples": 1}'),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_outputs(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.strip() == expected


# sha256 of the whole stdout and its line count, for the streamed outputs
STREAMED = [
    (["complexes", "enumerate", "--n", "5"], 81,
     "e1ee99bab7cf340f2054489e072d941cff2456022d9c81efaa0577fcb984bcbe"),
    (["complexes", "enumerate", "--n", "6"], 2646,
     "ba8271913ecb9101f282b068e7a301357b8d6f4ae8e6833859f5188bf65fe5c4"),
    (["resolutions", "census", "--n", "5", "--records"], 81,
     "a7f1bbd3ddc228c0116fb55dbfdcdb3e6ed44d9bc545dda46ed3a493f0c329e1"),
    (["resolutions", "census", "--n", "6", "--records"], 2646,
     "f8b8f245b1965ac23d1014821704e969d8245d56c5c57b1ea88a009ea92b6e13"),
    (["complexes", "enumerate", "--n", "6", "--full-only"], 2640,
     "e8ee5dacd683b0a1e94eb8dcebfe1e382ccac14b000a3e99aef3a36465825368"),
    # one report per suite: the digests pin every suite's checked count
    (["oracle", "crosscheck", "--n", "4", "--max-k", "3"], 4,
     "82d960c9fd1279b65be1faf0af62c0bfdedcc9ed17240c366a78623d5fd2c4bf"),
    (["oracle", "crosscheck", "--n", "5"], 4,
     "62eea03858aaa7c1ea9b03cb968940c53c0c2f4e409992fe3b63ef410ffe8c68"),
    # the largest n the oracle accepts, about 3.5 s
    (["oracle", "crosscheck", "--n", "6"], 4,
     "3be8a5cff2b9693959b311d74e771e64e1f0e32ee52308767c40947424d11225"),
]


@pytest.mark.parametrize("argv,lines,digest", STREAMED,
                         ids=[" ".join(g[0]) for g in STREAMED])
def test_streamed_outputs(argv, lines, digest, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cox_verify(capsys):
    assert cli.main(["cox", "verify", "--n", "5", "--samples", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"n": 5, "samples": 3, "failures": 0, "identities": "ok"}


def test_plain_and_csv_formats(capsys):
    assert cli.main(["--format", "plain", "complexes", "count",
                     "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "count=81" in out.splitlines()
    assert cli.main(["--format", "csv", "complexes", "count",
                     "--n", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == ["count", "full_only", "n"]
    assert lines[1].split(",") == ["81", "False", "5"]


def test_enumerate_streams_ndjson(capsys):
    assert cli.main(["complexes", "enumerate", "--n", "5",
                     "--full-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 76
    for line in lines[:5]:
        obj = json.loads(line)
        assert set(obj) == {"n", "maximal_faces"}


def test_census_records_stream(capsys):
    assert cli.main(["resolutions", "census", "--n", "5",
                     "--records"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 81
    kinds = {json.loads(line)["kind"] for line in lines}
    assert kinds == {"projective"}


@pytest.mark.parametrize("n", [5, 6])
def test_census_records_are_census_rendered(n, capsys):
    # the stream, which the writer makes from the walk's leaves, is
    # census(n), which yields plain family masks, rendered a row at a time
    # by json.dumps from Complex's maximal faces
    assert cli.main(["resolutions", "census", "--n", str(n),
                     "--records"]) == 0
    lines = capsys.readouterr().out.splitlines()
    want = []
    for fam, witness in hyper_cones.census(n):
        assert fam < 1 << (1 << n)
        faces = [sorted(f) for f in Complex(n, fam).maximal_faces]
        want.append(json.dumps({
            "complex": {"maximal_faces": faces, "n": n},
            "kind": "non-projective" if witness is None else "projective",
            "witness": witness and [str(x) for x in witness]},
            sort_keys=True))
    assert lines == want


def test_parallelism_does_not_change_output(capsys):
    outs = []
    for p in ("1", "4"):
        assert cli.main(["--parallelism", p, "complexes", "count",
                         "--n", "6"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("n", [5, 6])
def test_full_only_is_count_minus_n(n, capsys):
    counts = []
    for extra in ([], ["--full-only"]):
        assert cli.main(["complexes", "count", "--n", str(n)] + extra) == 0
        counts.append(json.loads(capsys.readouterr().out)["count"])
    assert counts[1] == counts[0] - n


@pytest.mark.parametrize("n", [5, 6])
def test_classify_projective_is_census_minus_n(n, capsys):
    """classify sees the full complexes by orbits of complexes, the census
    counts by orbits of chambers; only the n non-full ones differ."""
    assert cli.main(["bunches", "classify", "--n", str(n)]) == 0
    classify = json.loads(capsys.readouterr().out)
    census = hyper_cones.census_counts(n)
    assert classify["projective"] == census["projective"] - n


def test_global_options_after_the_command(capsys):
    tail = ["--n", "5", "--samples", "2"]
    outs = []
    for argv in (["--seed", "7", "--format", "plain", "cox", "verify"] + tail,
                 ["cox", "verify"] + tail + ["--seed", "7", "--format",
                                              "plain"]):
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
        assert cli.build_parser().parse_args(argv).seed == 7
    assert outs[0] == outs[1]
    assert "samples=2" in outs[0].splitlines()


def test_count_beyond_range_fails_fast(capsys):
    for argv in (["complexes", "count", "--n", "9"],
                 ["complexes", "count", "--n", "9", "--full-only"],
                 ["resolutions", "census", "--n", "9"],
                 ["complexes", "count", "--n", "3", "--full-only"]):
        t0 = time.monotonic()
        assert cli.main(argv) == 1
        assert time.monotonic() - t0 < 1
        out = capsys.readouterr()
        assert out.out == "" and "error:" in out.err
        # the λ(9) explanation only for an n above the range
        assert ("λ(9)" in out.err) == (argv[3] == "9")


def test_count_8_full_only_with_time_bound(capsys):
    """λ(8) less the 8 non-full complexes, by the orbit sum."""
    t0 = time.monotonic()
    assert cli.main(["complexes", "count", "--n", "8", "--full-only"]) == 0
    assert time.monotonic() - t0 < 10
    assert capsys.readouterr().out.strip() == (
        '{"count": 229809982104, "full_only": true, "n": 8}')


@pytest.mark.parametrize("argv", [
    ["chambers", "count", "--arrangement", "A", "--n", "22"],
    ["chambers", "count", "--arrangement", "A", "--n", "30", "--in-cone",
     "C0"],
    ["chambers", "count", "--arrangement", "B", "--n", "22", "--m", "11"]])
def test_oversized_arrangement_fails_fast(argv, capsys):
    # A(22) has 2^21 + 22 hyperplanes: refused before any is built
    t0 = time.monotonic()
    assert cli.main(argv) == 1
    assert time.monotonic() - t0 < 1
    out = capsys.readouterr()
    assert out.out == "" and "error: dimension bound" in out.err


@pytest.mark.parametrize("cone", ["C0", "F"])
def test_cone_split_beyond_bound_fails_fast(cone, capsys):
    # A(8) has 136 hyperplanes and 33 207 248 chambers in C0
    t0 = time.monotonic()
    assert cli.main(["chambers", "count", "--arrangement", "A", "--n", "8",
                     "--in-cone", cone]) == 1
    assert time.monotonic() - t0 < 1
    out = capsys.readouterr()
    assert out.out == "" and "error: hyperplane bound" in out.err


def test_charpoly_beyond_bound_fails_fast(capsys):
    # A(8)'s 136 hyperplanes are beyond charpoly's bound; A(7)'s 71 are not
    t0 = time.monotonic()
    assert cli.main(["chambers", "count", "--arrangement", "A", "--n", "8",
                     "--method", "charpoly"]) == 1
    assert time.monotonic() - t0 < 1
    out = capsys.readouterr()
    assert out.out == "" and "error: hyperplane bound" in out.err


@pytest.mark.parametrize("argv", [["complexes", "enumerate", "--n", "8"],
                                  ["bunches", "classify", "--n", "8"],
                                  ["oracle", "crosscheck", "--n", "8"],
                                  ["resolutions", "census", "--n", "8",
                                   "--records"],
                                  ["resolutions", "census", "--n", "30",
                                   "--records"],
                                  ["resolutions", "census", "--n", "-1",
                                   "--records"],
                                  ["oracle", "crosscheck", "--n", "7"],
                                  ["cox", "verify", "--n", "1000",
                                   "--samples", "1"]])
def test_enumeration_beyond_range_fails_fast(argv, capsys):
    # λ(8) = 229 809 982 112 complexes: the walk is refused before it
    # starts; the oracle's Ψ check, λ(7) × 6840 of them, already at n=7;
    # the C(1000, 4) Plücker relations before the first is built
    t0 = time.monotonic()
    assert cli.main(argv) == 1
    assert time.monotonic() - t0 < 3
    out = capsys.readouterr()
    assert out.out == "" and "error:" in out.err
    assert "supported range" in out.err
    assert "λ(9)" not in out.err  # that reason is the counts' alone


@pytest.mark.parametrize("argv", [["complexes", "enumerate", "--n", "6"],
                                  ["resolutions", "census", "--n", "6",
                                   "--records"]])
def test_closed_pipe_exits_1_without_traceback(argv):
    # the reader takes one line and closes the pipe, as `| head -1` does;
    # the rest of the stream is far more than a pipe buffer holds
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "polycrep", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert json.loads(first)
    assert b"Traceback" not in err, err.decode()


# what argparse loads: a command line that main reads itself loads none
NO_PARSER = {"argparse", "gettext", "locale"}


def _modules_added(argv) -> set:
    """The modules that importing polycrep.cli and running one command add
    to a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = ("import contextlib, io, sys\n"
             "before = set(sys.modules)\n"
             "from polycrep import cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = cli.main(sys.argv[1:])\n"
             "print(code, *sorted(set(sys.modules) - before))\n")
    res = subprocess.run([sys.executable, "-c", probe, *argv],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    code, *added = res.stdout.split()
    assert code == "0", res.stdout
    return set(added)


@pytest.mark.parametrize("command", ["count", "enumerate"])
def test_complexes_commands_load_only_complexes(command):
    # each CLI call is a fresh process, and at small n start-up is most of
    # its time: a command imports the layers it runs and no other
    added = _modules_added(["complexes", command, "--n", "4"])
    assert "polycrep.complexes" in added
    assert {m for m in added if m.startswith("polycrep")} <= {
        "polycrep", "polycrep.cli", "polycrep.complexes", "polycrep.values"}
    assert not added & ({"fractions", "csv", "json"} | NO_PARSER)


@pytest.mark.parametrize("argv", [
    ["resolutions", "census", "--n", "5"],
    ["resolutions", "census", "--n", "5", "--records"],
    ["chambers", "count", "--arrangement", "A", "--n", "5", "--in-cone", "F"],
    ["chambers", "count", "--arrangement", "A", "--n", "5",
     "--at-ray", "1,1,1,1,1"],
    ["chambers", "count", "--arrangement", "A", "--n", "5",
     "--method", "charpoly"],
    ["bunches", "classify", "--n", "5"],
    ["oracle", "crosscheck", "--n", "4", "--max-k", "3"],
    ["cox", "verify", "--n", "8", "--samples", "25"]],
    ids=["census", "census-records", "in-cone", "at-ray", "charpoly",
         "classify", "oracle", "cox"])
def test_exact_commands_build_no_fraction(argv):
    # every number here is an integer: fractions, and the decimal module
    # it imports, load only where a Fraction is built, and no command
    # builds one (the oracle's LPs read only the phase-1 verdict, and the
    # Cox sample points are ints); nor does json, since the CLI writes its
    # JSON lines itself; nor argparse, since main reads these argvs itself
    assert not _modules_added(argv) & ({"fractions", "decimal", "json"}
                                       | NO_PARSER)


@pytest.mark.parametrize("argv", [
    ["resolutions", "census", "--n", "5"],
    ["resolutions", "census", "--n", "5", "--records"]],
    ids=["census", "census-records"])
def test_census_loads_no_bunches(argv):
    # the census builds its witnesses from the chamber split's rays, with
    # no projectivity certificate per complex
    added = _modules_added(argv)
    assert "polycrep.hyper_cones" in added
    assert "polycrep.bunches" not in added


def test_chambers_count_loads_no_other_layer():
    added = _modules_added(["chambers", "count", "--arrangement", "A",
                            "--n", "4"])
    assert "polycrep.arrangements" in added
    assert not added & {f"polycrep.{m}" for m in (
        "bunches", "coxrelations", "crosscheck", "hyper_cones",
        "polygon_cones")}


def _modules_imported() -> str:
    """The modules importing polycrep.cli adds to a fresh interpreter."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; before = set(sys.modules); import polycrep.cli; "
             "print(sorted(set(sys.modules) - before))")
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True).stdout


def test_cli_import_does_not_load_json():
    imported = _modules_imported()
    assert "'json'" not in imported, imported


def test_cli_import_does_not_load_argparse():
    # argparse loads only when main hands an argv to it: help, a usage
    # error or an unusual form
    imported = _modules_imported()
    assert "'argparse'" not in imported, imported


# polycrep.cli loads each layer in the command that runs it; crosscheck
# imports every layer but coxrelations
EVERY_LAYER = "polycrep.cli, polycrep.crosscheck, polycrep.coxrelations"


def test_cli_import_does_not_load_numpy():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = f"import sys, {EVERY_LAYER}; print('numpy' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True)
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["polycrep.cli", "polycrep.arrangements",
                                    EVERY_LAYER])
def test_import_loads_neither_dataclasses_nor_inspect(module):
    # every CLI call pays its imports: dataclasses and the inspect chain it
    # pulls in cost about 16 ms of a start-up of about 85 ms
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = (f"import sys, {module}; "
             f"print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True)
    assert res.stdout.strip() == "[]"


def test_import_leaves_typing_out():
    # annotations are strings, so no module needs typing at run time; -S
    # keeps site's path hooks, which may import typing themselves, away
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = f"import sys, {EVERY_LAYER}; print('typing' in sys.modules)"
    res = subprocess.run([sys.executable, "-S", "-c", probe],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert res.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["polycrep", "polycrep.cli"])
def test_python_dash_m_polycrep(module):
    # both process entries go through cli.run: the answer, a computation
    # error and a usage error keep their exit codes
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-m", module, "complexes",
                          "count", "--n", "5"], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0
    assert res.stdout.strip() == GOLDEN[0][1]
    res = subprocess.run([sys.executable, "-m", module, "complexes",
                          "count", "--n", "99"], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 1 and "error:" in res.stderr
    res = subprocess.run([sys.executable, "-m", module, "complexes",
                          "count"], capture_output=True, text=True, env=env)
    assert res.returncode == 2 and "usage:" in res.stderr


@pytest.mark.parametrize("module", ["polycrep", "polycrep.cli"])
def test_process_entry_runs_atexit_then_exits(module):
    # run ends the process with os._exit once the answer is flushed: an
    # atexit handler registered before the module ran still runs, the whole
    # answer reaches the pipe, and the exit codes 0 (an answer), 1 (a
    # computation error) and 2 (a usage error, through argparse's
    # SystemExit) are kept
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = ("import atexit, runpy, sys\n"
             "atexit.register(lambda: print('atexit', flush=True))\n"
             "sys.argv[1:] = sys.argv[2:]\n"
             f"runpy.run_module({module!r}, run_name='__main__')\n")
    env = {**os.environ, "PYTHONPATH": src}

    def ran(*argv):
        return subprocess.run([sys.executable, "-c", probe, "-", *argv],
                              capture_output=True, text=True, env=env)

    res = ran("complexes", "count", "--n", "5")
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [GOLDEN[0][1], "atexit"]
    res = ran("complexes", "enumerate", "--n", "6")
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert len(lines) == 2647 and lines[-1] == "atexit"
    assert hashlib.sha256("".join(f"{line}\n" for line in lines[:-1])
                          .encode()).hexdigest() == STREAMED[1][2]
    res = ran("complexes", "count", "--n", "99")
    assert res.returncode == 1 and "error:" in res.stderr
    assert res.stdout.splitlines() == ["atexit"]
    res = ran("complexes", "count")
    assert res.returncode == 2 and "usage:" in res.stderr
    assert res.stdout.splitlines() == ["atexit"]


def test_main_leaves_the_collector_unfrozen(capsys):
    # tests and library callers run main in their own process: main must
    # return to them and not pin their objects
    before = gc.get_freeze_count()
    assert cli.main(["complexes", "count", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == GOLDEN[0][1]
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [
    ["--format", "csv", "complexes", "enumerate", "--n", "5"],
    ["complexes", "enumerate", "--n", "5", "--format", "plain"],
    ["resolutions", "census", "--n", "5", "--records", "--format", "csv"]],
    ids=["enumerate-csv", "enumerate-plain", "census-records-csv"])
def test_streams_refuse_other_formats(argv, capsys):
    # the NDJSON streams have one encoding: a --format they would ignore is
    # refused, not silently answered in JSON
    assert cli.main(argv) == 1
    out = capsys.readouterr()
    assert out.out == "" and "error: --format" in out.err


def test_cox_verify_minimum_and_large_n(capsys):
    # the sampler and the relations share one minimum n, and the sampler
    # finds n pairwise independent pairs however large n is
    assert cli.main(["cox", "verify", "--n", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 0
    assert cli.main(["cox", "verify", "--n", "3", "--samples", "0"]) == 1
    assert ("error: n=3 outside supported range 4..40"
            in capsys.readouterr().err)
    assert cli.main(["cox", "verify", "--n", "20", "--samples", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 20, "samples": 3, "failures": 0, "identities": "ok"}


def test_computation_error_exit_1(capsys):
    assert cli.main(["chambers", "count", "--arrangement", "B",
                     "--n", "7", "--m", "3"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["chambers", "count", "--arrangement", "Z", "--n", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["cox", "verify", "--n", "5", "--samples", "-3"],
    ["oracle", "crosscheck", "--n", "5", "--max-k", "-1"]])
def test_negative_counts_are_usage_errors(argv, capsys):
    # a negative count would check nothing and still exit 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "below 0" in out.err


@pytest.mark.parametrize("argv", [
    ["cox", "verify", "--n", "5", "--samples", "x"],
    ["oracle", "crosscheck", "--n", "5", "--max-k", "x"]])
def test_non_integer_counts_are_usage_errors(argv, capsys):
    # the message names the value, not the helper that parsed it
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "'x' is not an integer" in out.err
    assert "_nonnegative" not in out.err


@pytest.mark.parametrize("ray", ["1,x", "1,,1", ""])
def test_malformed_ray_is_usage_error(ray, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chambers", "count", "--arrangement", "A", "--n", "5",
                  "--at-ray", ray])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "comma-separated list of integers" in out.err


def test_mutually_exclusive_cone_and_ray(capsys):
    assert cli.main(["chambers", "count", "--arrangement", "A", "--n", "5",
                     "--in-cone", "F", "--at-ray", "1,1,1,1,1"]) == 1


@pytest.mark.parametrize("where", [["--in-cone", "F"],
                                   ["--at-ray", "1,1,1,1,1"]],
                         ids=["in-cone", "at-ray"])
def test_charpoly_in_cone_or_at_ray_is_refused(where, capsys):
    # both are counted by enumerate, which a charpoly request must not
    # silently run instead
    assert cli.main(["chambers", "count", "--arrangement", "A", "--n", "5",
                     "--method", "charpoly"] + where) == 1
    out = capsys.readouterr()
    assert out.out == "" and "error: --method charpoly" in out.err


def test_m_with_arrangement_A_is_refused(capsys):
    # A(n) takes no m: the answer must not print one it ignored
    assert cli.main(["chambers", "count", "--arrangement", "A", "--n", "5",
                     "--m", "3", "--in-cone", "C0"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "error: --m" in out.err


def test_oracle_crosscheck_cli(capsys):
    assert cli.main(["oracle", "crosscheck", "--n", "5",
                     "--max-k", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        assert json.loads(line)["mismatches"] == 0


# every dict shape a command emits, with None, both bools, 0, a negative
# int and λ(8)
EMITTED = [
    {"arrangement": "A", "m": None, "method": "enumerate", "n": 5,
     "regions": 81},
    {"count": 229809982112, "full_only": False, "n": 8},
    {"count": 229809982104, "full_only": True, "n": 8},
    {"n": 4, "nonprojective": 0, "projective": -12, "total": -12},
    {"failures": 0, "identities": "ok", "n": 8, "samples": 25},
    {"checked": 70, "max_k": 1, "mismatches": 0, "n": 4,
     "suite": "orbit-membership"},
    {},
]


@pytest.mark.parametrize("obj", EMITTED)
def test_emit_writes_what_json_dumps_writes(obj, capsys):
    cli._emit(obj, "json")
    assert capsys.readouterr().out == json.dumps(obj, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [{"n": 1.5}, {"s": 'a"b'}, {"s": "a\\b"},
                                 {"s": "é"}, {"s": "a\nb"}, {1: 2}])
def test_emit_refuses_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        cli._emit(obj, "json")


@pytest.mark.parametrize("line", [g[1] for g in GOLDEN])
def test_golden_lines_are_what_json_dumps_writes(line, capsys):
    obj = json.loads(line)
    assert json.dumps(obj, sort_keys=True) == line
    cli._emit(obj, "json")
    assert capsys.readouterr().out == line + "\n"


def _subcommands(parser):
    """The parsers of parser's subcommands by name."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


HELP = [["--help"]] + [
    [group, *leaf, "--help"]
    for group, gp in _subcommands(cli.build_parser()).items()
    for leaf in [[]] + [[name] for name in _subcommands(gp)]]


def _exit(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return out.out, out.err, exc.value.code


@pytest.mark.parametrize("argv", HELP + [
    ["nonsense"],
    ["complexes"],
    ["chambers", "count", "--arrangement", "Z", "--n", "5"],
    ["--seed", "chambers", "count"],
    ["--format", "xml", "complexes", "count", "--n", "5"]],
    ids=" ".join)
def test_main_parses_as_the_full_parser(argv, capsys):
    # help, usage and every error read as the full parser writes them
    assert (_exit(cli.main, argv, capsys)
            == _exit(cli.build_parser().parse_args, argv, capsys))


@pytest.mark.parametrize("argv,filled", [
    (["complexes", "count", "--n", "5"], []),
    (["--seed", "3", "cox", "verify", "--n", "5", "--samples", "1"], []),
    (["--help"], [list(cli.COMMANDS)]),
    (["complexes", "count", "--n", "5", "--full"], [list(cli.COMMANDS)])])
def test_main_fills_only_the_named_group(argv, filled, monkeypatch, capsys):
    # filled: for each parser main builds, the groups it has the commands
    # of.  An argv main reads itself builds none; one it hands to argparse
    # (help, or the abbreviation --full) builds one, with every group's
    seen = []
    build = cli.build_parser

    def spy():
        parser = build()
        seen.append([group for group, gp in _subcommands(parser).items()
                     if _subcommands(gp).keys() == cli.COMMANDS[group].keys()
                     ])
        return parser

    monkeypatch.setattr(cli, "build_parser", spy)
    try:
        assert cli.main(argv) == 0
    except SystemExit as exc:
        assert exc.code == 0
    assert seen == filled


# sha256 of repr((stdout, stderr, exit code)) of main, in an 80-column
# terminal, as taken before main read any argv itself; argparse's wording
# differs between Python versions, so they hold for 3.11 only
PINNED = [(argv, digest) for argv, digest in zip(HELP, [
    "877c3bf21c156ceafa97a3ac1e07f086ea928bb2456636f02295c58085cb0f85",
    "c52045e8eb28243dee9388154aa1ae1a21849458a730eb775ba8e4b51146a5ae",
    "ee77c08d0a6a2d47e31fa80afc798eced2f502db2dc3fc2dc9816c9cfca73ba2",
    "8abbba4b02a9903230b8b6234b6f287bb5f1c996fc9b2beffa8a5c21240e5f3f",
    "b9eaedf01a1df79fa6b4730f6e85fbd3430e027b317d5e8d46cc64b0a3c2d844",
    "64733fc499594c2e3c3c13c142246877eb4a771a83ae47d44a020e9c8a4f5ddc",
    "da0c116cdcb4486a836a5fe49e3ec9e3fc603807b261793dd204d059b7534796",
    "8dcecede014a6de8f2656c601de2467f09be6dca9de1d624cd4d5696791c67ca",
    "c14b88072717387354998eb5fd71d948a5059467ad5f21705201ac8afebf0bb2",
    "80edce778af6f7df8ec80ef83ec365240be90db826ed7b3cf6b05b69432d32b2",
    "196194faa95a934310cc317add6e5a2d67aeda3fece30fb866d575dffa268104",
    "09315a9bd50dcf9842d13f1c7bd0d280f8d23eaa719880976aa1f599febcdc18",
    "bedd0ca57901f7671e84f402db84004afde51225c82b0f3f6c6ba97a17436079",
    "4ffddc02d3e597e9e6bad24a650df99f14e235c0db6dcf1544d586a0c862e1c7",
], strict=True)] + [
    (["nonsense"],
     "7aa172675477874c67ae7b689938293265db97ccc63db2fe41e3485514464ca6"),
    (["complexes"],
     "a3214a0dbef63b8c663ed048c969271687cc0cb5e5d4e67c53eaab3cfb75b134"),
    (["chambers", "count", "--arrangement", "Z", "--n", "5"],
     "8dec454eda113a0e69e2ee803824d0c44838c1a1b6ea0cbf9dcf44ed030ecc4f"),
    (["--seed", "chambers", "count"],
     "092c73403e3b2790230dd0ca8b1c4b69cc96f003b39199e788e5aa78cbf7ace0"),
    (["--format", "xml", "complexes", "count", "--n", "5"],
     "1e75f137823a5c479c6fc9d63eabaccfd7478be195ee13bf3828828b0548ba24"),
    (["cox", "verify", "--n", "5", "--samples", "-3"],
     "6a95a504a9e5dd907a3d70a04dcdae49744e56049a5082b28985401f76d8e261"),
    (["oracle", "crosscheck", "--n", "5", "--max-k", "-1"],
     "dc379b23e0e6f88f76e6c6d4a37499b0f545b67bf8a8d278ef9cd3e9454ee44e"),
    (["cox", "verify", "--n", "5", "--samples", "x"],
     "a394dbed37061e04d66278ea3c47f944488a5ce765a221efff7b6dbee5ccde5c"),
    (["oracle", "crosscheck", "--n", "5", "--max-k", "x"],
     "23da2b704500460f578729b2a87121093baaee67f8690677bbc99356fe387b4a"),
    (["chambers", "count", "--arrangement", "A", "--n", "5",
      "--at-ray", "1,x"],
     "dd0e7150af669b6f705830dd0d855a42b1394ea0a88112d7db56b96ad25a4cfc"),
    (["chambers", "count", "--arrangement", "A", "--n", "5",
      "--at-ray", "1,,1"],
     "f01db6ccbfb6f1de15a30b6b5fc37ec1f81c6e694deb792eafc8752e7ae4f96b"),
    (["chambers", "count", "--arrangement", "A", "--n", "5", "--at-ray", ""],
     "24fb09b9bfd017c1cefd35b0ad9da246e82a542589f2bdb0a07801208c62cf95"),
    # forms main hands to argparse: a missing required option, --flag=value,
    # an option the command does not take, a global option between group
    # and command, the end of options, -h before the command
    (["complexes", "count"],
     "d55599cb967cf5e2b38b9285e535b174ceee1d6d189d94580238da1ad5a57a5f"),
    (["complexes", "count", "--n=x"],
     "d19890ce724d53c12246e9c5191e337bce48580309c1fbb8f91ec41be3063a03"),
    (["complexes", "count", "--n", "5", "--records"],
     "65a9e30442eea1bb872e321adc7874ac7dce956037a15a74e15ba2912b485eef"),
    (["complexes", "--seed", "3", "count", "--n", "5"],
     "b7e8a80e147490cbf4b1ee2bdf34d5d43c37b7e52eac1e7bd2ed9173fb0eb58d"),
    (["complexes", "count", "--n", "5", "--", "6"],
     "327c0d76abc62c848264580eea0845613d03cf9895b0662e7c9fb9e4693e61c5"),
    (["-h", "cox", "verify"],
     "877c3bf21c156ceafa97a3ac1e07f086ea928bb2456636f02295c58085cb0f85"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="digests of Python 3.11's argparse text")
@pytest.mark.parametrize("argv,digest", PINNED,
                         ids=[repr(" ".join(p[0])) for p in PINNED])
def test_help_and_usage_errors_are_pinned(argv, digest, monkeypatch,
                                          capsys):
    monkeypatch.setenv("COLUMNS", "80")
    written = _exit(cli.main, argv, capsys)
    assert hashlib.sha256(repr(written).encode()).hexdigest() == digest, (
        written)


def _parsed(parser, argv):
    """vars() of what parser makes of argv; None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def _typed(values):
    """values with each value's type beside it: True == 1, but a switch
    must be True."""
    if values is None:
        return None
    return {k: (type(v), v) for k, v in values.items()}


FULL_PARSER = cli.build_parser()
# every option of the table by its flag
OPTIONS = {o[0]: o for o in cli.GLOBAL_OPTIONS} | {
    o[0]: o for commands in cli.COMMANDS.values()
    for _, options in commands.values() for o in options}
# values argparse converts or refuses as int() does, or that it does not
# take as values at all
VALUES = ["5", "0", "-5", "1_000", "-1_000", " 5", "\u0663", "", "x", "1,1,1",
          "-1,1", "1,,1", "A", "B", "C0", "F", "json", "plain", "xml",
          "charpoly", "cox"]
HOSTILE = ["--ar", "--full", "--n=5", "-h", "--help", "--", "--nn",
           "nonsense"]
TOKENS = (sorted(OPTIONS) + list(cli.COMMANDS) + sorted(
    {name for commands in cli.COMMANDS.values() for name in commands})
    + VALUES + HOSTILE)


def _good_value(draw, flag):
    """A value the flag takes; int() takes " 5", "1_000" and "\u0663" too."""
    kind = OPTIONS[flag][1]
    return draw(st.sampled_from(
        list(kind) if type(kind) is tuple else
        ["1,1,1", "1,-1,0"] if kind is cli._integers else
        ["5", "0", " 5", "1_000", "\u0663"]))


# kinds of fault a command line is given at most one of; most have none
FAULTS = ["none"] * 4 + ["value", "token", "between", "required", "names",
                         "switch"]


@st.composite
def command_lines(draw):
    """`[global options] group command [options]` with repeats, each value
    one its flag takes, or that with one fault: any value for a flag, a
    table or hostile token anywhere, a global option between group and
    command, the required options left out, an unknown group or command,
    a switch given a value or a last flag given none."""
    def options(flags):
        out = []
        for flag in draw(st.lists(st.sampled_from(flags), max_size=3)):
            out.append(flag)
            if OPTIONS[flag][1] is not None:
                out.append(_good_value(draw, flag))
        return out

    fault = draw(st.sampled_from(FAULTS))
    globals_ = [o[0] for o in cli.GLOBAL_OPTIONS]
    group = draw(st.sampled_from(list(cli.COMMANDS)))
    name = draw(st.sampled_from(list(cli.COMMANDS[group])))
    own = cli.COMMANDS[group][name][1]
    required = [] if fault == "required" else [
        t for o in own if o[3] for t in (o[0], _good_value(draw, o[0]))]
    head = options(globals_)
    argv = (head + [group] + (options(globals_) if fault == "between" else [])
            + [name] + required + options([o[0] for o in own] + globals_))
    valued = [i for i in range(1, len(argv))
              if argv[i - 1] in OPTIONS and OPTIONS[argv[i - 1]][1]]
    if fault == "value" and valued:
        argv[draw(st.sampled_from(valued))] = draw(st.sampled_from(VALUES))
    elif fault == "token":
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(TOKENS)))
    elif fault == "names":
        argv[len(head) + draw(st.integers(0, 1))] = draw(
            st.sampled_from(TOKENS))
    elif fault == "switch":
        argv += draw(st.sampled_from([["--full-only", "5"], ["--records", "x"],
                                      ["--n"], ["--format"], ["--at-ray"]]))
    return argv


@settings(max_examples=300, deadline=None)
@given(st.one_of(command_lines(),
                 st.lists(st.sampled_from(TOKENS), max_size=10)))
@example(["complexes", "count", "--n", " 5", "--n", "\u0663"])
@example(["complexes", "count", "--n", "1_000", "--full-only",
          "--full-only", "--seed", "2"])
@example(["--seed", "1", "cox", "verify", "--n", "5", "--seed", "2"])
@example(["complexes", "--seed", "1", "count", "--n", "5"])
@example(["complexes", "count", "--n", "-5"])
@example(["complexes", "count", "--n", "-1_000"])
@example(["chambers", "count", "--arrangement", "A", "--n", "5", "--at-ray",
          "-1,1"])
@example(["complexes", "count", "--n", ""])
def test_reader_agrees_with_argparse(argv):
    # main reads an argv itself only where argparse reads it the same way
    read = cli._read(argv)
    assert read is None or _typed(vars(read)) == _typed(
        _parsed(FULL_PARSER, argv))


def _bench_command_lines() -> list:
    """The CLI argvs the benchmark's workloads run (bench/workloads.py)."""
    root = pathlib.Path(cli.__file__).resolve().parents[2]
    probe = ("import json, workloads\n"
             "print(json.dumps([p.argv[2:] for w in workloads.WORKLOADS"
             ".values() for p in w(0) if p.argv[:2] == ['-m', 'polycrep.cli']"
             "]))\n")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, cwd=root / "bench", check=True)
    return json.loads(res.stdout)


def test_reader_takes_every_documented_command_line():
    bench = _bench_command_lines()
    assert len(bench) == 17
    for argv in [g[0] for g in GOLDEN] + [s[0] for s in STREAMED] + bench:
        read = cli._read(argv)
        assert read is not None, argv
        assert _typed(vars(read)) == _typed(_parsed(FULL_PARSER, argv))


def test_negative_ray_is_a_value(capsys):
    # a ray whose first coordinate is negative is a value, whether it
    # follows --at-ray as the next token, which main reads itself, or after
    # "=", which argparse reads; 8 chambers of A(4) meet at (-1, 1, 1, 1)
    base = ["chambers", "count", "--arrangement", "A", "--n", "4"]
    assert cli._read(base + ["--at-ray", "-1,1,1,1"]).at_ray == [-1, 1, 1, 1]
    for ray in (["--at-ray", "-1,1,1,1"], ["--at-ray=-1,1,1,1"]):
        assert _parsed(FULL_PARSER, base + ray)["at_ray"] == [-1, 1, 1, 1]
        assert cli.main(base + ray) == 0
        assert json.loads(capsys.readouterr().out)["regions"] == 8
