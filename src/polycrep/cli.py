"""Command-line interface.

Subcommands are thin shells over the library; every numeric answer is the
exact library result.  Output formats: json (default), csv, plain.  Long
enumerations stream NDJSON, one record per line, written CHUNK_LINES lines
at a time rather than one write per line.  Each line maps the ranks that
complexes' maximal-face kernel gives to text made once per stream, with no
sort of its own.  Exit codes: 0 success, 1 computation error or a reader
that closed the pipe, 2 usage error.

Every call is a fresh process, and at small n start-up is most of its
time, so each command imports the library layer it runs in its own
function, and `--format csv` imports csv: `complexes count` and
`complexes enumerate` load complexes; `bunches classify` bunches and
complexes; `chambers count` arrangements; `resolutions census`
hyper_cones; `cox verify` coxrelations; `oracle crosscheck` crosscheck.
Each layer brings in the modules it imports in turn.  fractions (with
decimal) loads only where a Fraction is built, and no command builds
one: every LP they run reads only the phase-1 verdict, and the Cox
sample points are ints.  json never loads: the one-line answers and the
streams are written here, as json.dumps(obj, sort_keys=True) would write
them.  Besides the command's layers, a process loads only what cli
imports at its top: os, sys and types.

One table, COMMANDS with GLOBAL_OPTIONS, declares every command and its
options.  main reads a command line of the form `[global options] group
command [options]` itself, each option a long flag written out in full
and its value, if it takes one, the next token, which does not start
with "-"; it builds no parser, and argparse (with gettext and locale)
never loads.  Every other command line (help, a usage error, a bad or
missing value, an abbreviation, `--flag=value`) goes to the one whole
argparse parser that build_parser makes from the same table.
"""

from __future__ import annotations

import os
import sys
import types


def _json_text(s) -> str:
    """Text as json.dumps writes it, for text that needs no escape."""
    if (type(s) is str and s.isascii() and s.isprintable()
            and '"' not in s and "\\" not in s):
        return f'"{s}"'
    raise TypeError(f"no JSON encoding here for {s!r}")


def _json(v) -> str:
    """A value as json.dumps writes it, for the values commands emit: an
    int, a bool, None, or text that needs no escape."""
    if v is None:
        return "null"
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is int:
        return str(v)
    return _json_text(v)


def _emit(obj: dict, fmt: str):
    if fmt == "json":  # as json.dumps(obj, sort_keys=True) writes it
        print("{" + ", ".join(f"{_json_text(k)}: {_json(v)}"
                              for k, v in sorted(obj.items())) + "}")
    elif fmt == "csv":
        import csv
        keys = sorted(obj)
        csv.writer(sys.stdout).writerows([keys, [obj[k] for k in keys]])
    else:
        for k in sorted(obj):
            print(f"{k}={obj[k]}")


def cmd_complexes_count(args) -> int:
    from . import complexes
    count = complexes.count_max_biconnected(args.n)
    if args.full_only:  # less the n non-full ones, ↓([n] minus {i})
        count -= args.n
    _emit({"n": args.n, "count": count, "full_only": args.full_only},
          args.format)
    return 0


def _check_ndjson(args):
    """A stream has one encoding: refuse a --format it would ignore."""
    if args.format != "json":
        raise ValueError(f"--format {args.format} does not apply: this "
                         f"command streams NDJSON, one JSON record a line")


# lines a stream gathers before one write: the stream stays a stream, and
# a reader that closes the pipe stops it within one chunk
CHUNK_LINES = 512


def _write_ndjson(n: int, rows, records: bool):
    """One line per (family mask, witness) row, as json.dumps(obj,
    sort_keys=True) writes it: the complex's maximal faces in member-tuple
    order and, for records, its kind and witness.  The maximal-face kernel
    gives each face's rank in that order, and the text of every rank is
    made once per stream."""
    from . import complexes
    text = [str([i + 1 for i in range(n) if s >> i & 1])
            for s in complexes._face_order(n)[0]]
    ranks = complexes._maximal_face_ranks
    tail = '], "n": %d}' % n
    write = sys.stdout.write
    chunk = []
    for fam, witness in rows:
        line = ('{"maximal_faces": [' + ", ".join([text[r] for r in
                                                   ranks(fam, n)]) + tail)
        if records:
            line = '{"complex": %s, "kind": %s}' % (line, (
                '"non-projective", "witness": null' if witness is None else
                '"projective", "witness": ["%s"]'
                % '", "'.join(map(str, witness))))
        chunk.append(line)
        if len(chunk) == CHUNK_LINES:
            chunk.append("")
            write("\n".join(chunk))
            chunk.clear()
    if chunk:
        chunk.append("")
        write("\n".join(chunk))


def cmd_complexes_enumerate(args) -> int:
    from . import complexes
    _check_ndjson(args)
    masks = complexes.max_biconnected_masks(args.n, args.full_only)
    _write_ndjson(args.n, ((m, None) for m in masks), records=False)
    return 0


def cmd_resolutions_census(args) -> int:
    from . import hyper_cones
    if args.records:
        _check_ndjson(args)
        _write_ndjson(args.n, hyper_cones.census(args.n), records=True)
        return 0
    _emit(hyper_cones.census_counts(args.n), args.format)
    return 0


def cmd_chambers_count(args) -> int:
    from . import arrangements
    if args.arrangement == "A":
        if args.m is not None:
            raise ValueError("--m applies only to arrangement B")
        a = arrangements.build_A(args.n)
    else:
        if args.m is None:
            raise ValueError("--m is required for arrangement B")
        a = arrangements.build_B(args.n, args.m)
    if args.in_cone and args.at_ray:
        raise ValueError("--in-cone and --at-ray are mutually exclusive")
    if args.method == "charpoly" and (args.in_cone or args.at_ray):
        raise ValueError("--method charpoly counts every region; "
                         "--in-cone and --at-ray split by enumerate")
    if args.in_cone:
        cone = (arrangements.cone_F(a.dim) if args.in_cone == "F"
                else arrangements.cone_C0(a.dim))
        regions = arrangements.count_regions_in_cone(a, cone)
    elif args.at_ray:
        regions = arrangements.count_chambers_at_ray(a, args.at_ray)
    else:
        regions = arrangements.count_regions(a, args.method)
    _emit({"arrangement": args.arrangement, "n": args.n, "m": args.m,
           "regions": regions, "method": args.method}, args.format)
    return 0


def cmd_bunches_classify(args) -> int:
    from . import bunches, complexes
    # projectivity is S_n-invariant: one is_projective per orbit
    total = proj = 0
    masks = complexes.max_biconnected_masks(args.n, full_only=True)
    for fam, orbit in complexes._orbits(masks, args.n):
        total += len(orbit)
        if bunches.is_projective(complexes.Complex(args.n, fam)):
            proj += len(orbit)
    _emit({"n": args.n, "total": total, "projective": proj,
           "nonprojective": total - proj}, args.format)
    return 0


def cmd_cox_verify(args) -> int:
    from . import coxrelations
    identities = coxrelations.iota_substitution_identities(args.n)
    failures = 0
    for s in range(args.samples):
        pt = coxrelations.sample_X_point(args.n, args.seed + s)
        if not coxrelations.verify_relations_vanish(pt):
            failures += 1
    _emit({"n": args.n, "samples": args.samples, "failures": failures,
           "identities": "ok" if identities else "failed"}, args.format)
    return 0 if identities and failures == 0 else 1


def cmd_oracle_crosscheck(args) -> int:
    from . import crosscheck
    bad = 0
    for report in crosscheck.run_all(args.n, args.max_k):
        _emit(report, args.format)
        bad += report["mismatches"]
    return 0 if bad == 0 else 1


def _usage_error(message: str):
    """argparse's error for a bad option value: argparse loads only here,
    on the way to its usage message."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _nonnegative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _usage_error(f"{text!r} is not an integer") from None
    if value < 0:
        raise _usage_error(f"{text} is below 0")
    return value


def _integers(text: str) -> list:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise _usage_error(
            f"{text!r} is not a comma-separated list of integers") from None


# An option: (flag, kind, default, required, help).  kind is the converter
# of its value, the tuple of its choices, or None for a switch, which takes
# no value and is False unless given.
GLOBAL_OPTIONS = (
    ("--format", ("json", "csv", "plain"), "json", False, None),
    ("--seed", int, 0, False, None),
    ("--parallelism", int, 1, False,
     "accepted; no command uses worker processes"),
)
_N = ("--n", int, None, True, None)
_FULL_ONLY = ("--full-only", None, False, False, None)

# Each command group, in the order usage lists them, and its commands: the
# function that runs each and the options it takes besides the global
# ones, which every command takes before or after its name.
COMMANDS = {
    "complexes": {"count": (cmd_complexes_count, (_N, _FULL_ONLY)),
                  "enumerate": (cmd_complexes_enumerate, (_N, _FULL_ONLY))},
    "resolutions": {"census": (cmd_resolutions_census, (_N, (
        "--records", None, False, False,
        "stream one NDJSON record per complex")))},
    "chambers": {"count": (cmd_chambers_count, (
        ("--arrangement", ("A", "B"), None, True, None),
        _N,
        ("--m", int, None, False, None),
        ("--in-cone", ("F", "C0"), None, False, None),
        ("--at-ray", _integers, None, False,
         "comma-separated integer coordinates"),
        ("--method", ("enumerate", "charpoly"), "enumerate", False, None)))},
    "bunches": {"classify": (cmd_bunches_classify, (_N,))},
    "cox": {"verify": (cmd_cox_verify, (
        _N, ("--samples", _nonnegative, 100, False, None)))},
    "oracle": {"crosscheck": (cmd_oracle_crosscheck, (
        _N, ("--max-k", _nonnegative, 3, False, None)))},
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_options(parser, options, defaults=True):
    """Add options, declared as in COMMANDS, to an argparse parser."""
    import argparse
    for flag, kind, default, required, help in options:
        kw = ({"action": "store_true"} if kind is None else
              {"choices": kind} if type(kind) is tuple else {"type": kind})
        parser.add_argument(
            flag, default=default if defaults else argparse.SUPPRESS,
            required=required, help=help, **kw)


def build_parser():
    """The argparse parser of COMMANDS.  The global options' command-level
    copies have no defaults, so one not given after the command leaves the
    top-level value in place."""
    import argparse
    p = argparse.ArgumentParser(prog="polycrep")
    _add_options(p, GLOBAL_OPTIONS)
    sub = p.add_subparsers(dest="command", required=True)
    for group, commands in COMMANDS.items():
        leaves = sub.add_parser(group).add_subparsers(dest="sub",
                                                      required=True)
        for name, (func, options) in commands.items():
            c = leaves.add_parser(name)
            _add_options(c, GLOBAL_OPTIONS, defaults=False)
            _add_options(c, options)
            c.set_defaults(func=func)
    return p


def _read(argv):
    """The namespace build_parser().parse_args(argv) gives, for an argv of
    the form `[global options] group command [options]` in which every
    option is a long flag written out in full, with its value, if it takes
    one, in the next token, a token that does not start with "-".  None for
    any other argv, and for one whose value fails its converter or choices
    or that lacks a required option: argparse parses those, and writes
    their help or usage error.  Needs no argparse."""
    values = {_dest(o[0]): o[2] for o in GLOBAL_OPTIONS}
    options = {o[0]: o for o in GLOBAL_OPTIONS}
    path = []  # the group and the command, as read
    func, own = None, ()  # the command's function and its own options
    tokens = iter(argv)
    for token in tokens:
        option = options.get(token)
        if option is None:  # the group, then the command
            if not path and token in COMMANDS:
                options = {}  # no option comes between the two
            elif len(path) == 1 and token in COMMANDS[path[0]]:
                func, own = COMMANDS[path[0]][token]
                values.update((_dest(o[0]), o[2]) for o in own)
                options = {o[0]: o for o in GLOBAL_OPTIONS + own}
            else:
                return None
            path.append(token)
            continue
        flag, kind = option[:2]
        if kind is None:
            values[_dest(flag)] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if type(kind) is tuple:
            if value not in kind:
                return None
        else:
            try:
                value = kind(value)
            except Exception:
                # argparse calls the converter again, and writes the usage
                # error or raises what it raises
                return None
        values[_dest(flag)] = value
    # a required option has no default
    if len(path) < 2 or any(o[3] and values[_dest(o[0])] is None
                            for o in own):
        return None
    group, name = path
    return types.SimpleNamespace(command=group, sub=name, func=func,
                                 **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:  # help, a usage error or an unusual form
        args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone (`| head`).  Point stdout at devnull so the
        # flush at exit writes nowhere instead of failing again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
