"""CLI dispatch, formats, exit codes, and golden outputs."""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from polycrep import cli, hyper_cones

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
                                  ["oracle", "crosscheck", "--n", "7"]])
def test_enumeration_beyond_range_fails_fast(argv, capsys):
    # λ(8) = 229 809 982 112 complexes: the walk is refused before it
    # starts; the oracle's Ψ check, λ(7) × 6840 of them, already at n=7
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
    assert not added & {"fractions", "csv", "json"}


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
    # JSON lines itself
    assert not _modules_added(argv) & {"fractions", "decimal", "json"}


def test_chambers_count_loads_no_other_layer():
    added = _modules_added(["chambers", "count", "--arrangement", "A",
                            "--n", "4"])
    assert "polycrep.arrangements" in added
    assert not added & {f"polycrep.{m}" for m in (
        "bunches", "coxrelations", "crosscheck", "hyper_cones",
        "polygon_cones")}


def test_cli_import_does_not_load_json():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; before = set(sys.modules); import polycrep.cli; "
             "print(sorted(set(sys.modules) - before))")
    res = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src},
                         check=True)
    assert "'json'" not in res.stdout, res.stdout


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


def test_python_dash_m_polycrep():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-m", "polycrep", "complexes",
                          "count", "--n", "5"], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0
    assert res.stdout.strip() == GOLDEN[0][1]
    res = subprocess.run([sys.executable, "-m", "polycrep", "complexes",
                          "count", "--n", "99"], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 1 and "error:" in res.stderr


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
    assert "error: n >= 4" in capsys.readouterr().err
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
    # main fills only the named group's commands; help, usage and every
    # error still read as the full parser writes them
    assert (_exit(cli.main, argv, capsys)
            == _exit(cli.build_parser().parse_args, argv, capsys))


@pytest.mark.parametrize("argv,filled", [
    (["complexes", "count", "--n", "5"], ["complexes"]),
    (["--seed", "3", "cox", "verify", "--n", "5", "--samples", "1"], ["cox"]),
    (["--help"], [])])
def test_main_fills_only_the_named_group(argv, filled, monkeypatch, capsys):
    seen = []

    def spy(name, filler):
        def fill(sub, common):
            seen.append(name)
            filler(sub, common)
        return fill

    for name, filler in cli.GROUPS.items():
        monkeypatch.setitem(cli.GROUPS, name, spy(name, filler))
    try:
        assert cli.main(argv) == 0
    except SystemExit as exc:
        assert exc.code == 0
    assert seen == filled
