"""Command-line driver: construction, enumeration, and verification jobs.

Commands: params, wdist, verify, decompose, strings; verify and strings
refuse a proper Schubert ``--alpha``.  All integer values are serialized
as strings in JSON output (counts overflow 53-bit floats at modest
parameters).

``verify --suite strings`` and ``--suite zanella`` check the functional
given with ``-f``; without it, every scalar class of the coefficients
they support, one report per class from one batched call per suite.
``-f`` is a usage error with any other suite but ``all``.  Each suite
states once which parameters it applies to and what work it prices:
``verify`` prices the work of the suites that will run in one
``codes.check_work`` call before any of them starts.  ``wdist`` and the
``second`` suite price nothing here: ``codes.weight_distribution``
picks the engine and prices it before it starts.

Exit codes: 0 success / all assertions pass, 1 usage or domain error
(and failed verification), 2 work refused by ``codes.check_work`` before
it starts: a sweep, a split, or the strings/zanella suites over every
class, over the operation budget; a sweep, a split, a point table (also
the echelon matrices that ``strings`` reads), the ``strings`` listing or
the reports of those suites over the fixed memory ceiling.
The PLUCKER_BUDGET environment variable, an integer >= 1 like
``--budget``, overrides the default operation budget.

Each call pays only for its own command.  ``main`` builds the parser of
the command that ``argv`` starts with, once per process; the top parser,
with every command, is built only to report a missing or unknown command
and for the ``-h`` listing.  ``GF.from_string`` keeps one field per
spelling, so a field built once serves every later call.  JSON is
written as it is made (``_json_chunks``): the text of
``json.dumps(_jsonify(obj), indent=2)``, a few thousand pieces at a
time, with no stringified copy and never the whole document in memory.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator

from .codes import (BudgetExceeded, Code, CodeSpec, DEFAULT_BUDGET,
                    check_work, verify_attained_family, verify_l2_dichotomy,
                    verify_nogin, verify_second_weight, verify_string_section,
                    verify_string_sections, verify_zanella_incidence,
                    verify_zanella_incidences, weight_distribution,
                    min_distance, second_min_weight, schubert_min_distance,
                    string_partition)
from .exterior import annihilator_basis, annihilator_dimension, \
    functional_to_wedge, parse_functional
from .gf import GF
from .qcombin import (e_bound, e_prime_bound, parse_index_tuple,
                      verify_e_inequalities, verify_gaussian_identities)


def _middle(spec: CodeSpec) -> bool:
    return 2 <= spec.ell <= spec.m - 2


def _any(spec: CodeSpec) -> bool:
    return True


# Every suite of ``--suite all``, in run order: the codes it applies to,
# the work ``check_work`` prices before any suite runs, and its reports
# from (code, the -f functional or None, args, budget).  With -f, strings
# and zanella check one functional and price nothing up front.  Nor does
# second: its ``weight_distribution`` prices the engine it picks.
_SUITE_RUNS = {
    "nogin": (_any, ["sweep"], lambda code, func, args, budget:
              [verify_nogin(code)]),
    "second": (_middle, [], lambda code, func, args, budget:
               [verify_second_weight(code, budget=budget)]),
    "strings": (_any, ["table", "strings"], lambda code, func, args, budget:
                [verify_string_section(code, func)] if func
                else verify_string_sections(code)),
    "zanella": (_any, ["table", "zanella"], lambda code, func, args, budget:
                [verify_zanella_incidence(code, func)] if func
                else verify_zanella_incidences(code)),
    "identities": (_any, [], lambda code, func, args, budget:
                   _suite_identities(code.spec)),
    "l2": (lambda spec: (spec.ell, spec.m) == (2, 4), ["sweep"],
           lambda code, func, args, budget: [verify_l2_dichotomy(code)]),
    "attained": (_middle, [], lambda code, func, args, budget:
                 [verify_attained_family(code, max_samples=args.samples)]),
}
_TAKES_FUNCTIONAL = ("strings", "zanella", "all")
SUITES = (*_SUITE_RUNS, "all")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    # str.isdigit also accepts digits int() rejects, such as "²"
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_arguments(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("-q", "--field", required=True,
                   help='field order, "q" or "p^e" (4 = 2^2)')
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--alpha", help='Schubert pivot tuple, e.g. "1,4"')
    for flags, options in _COMMANDS[command][2]:
        p.add_argument(*flags, **options)


@functools.cache
def _build_parser(command: str | None = None) -> _Parser:
    """The parser of one command, built on its first call and shared by
    every later ``main`` call of the process.

    Without a command it is the top parser with every command as a
    subparser: ``main`` uses it only when ``argv`` does not start with a
    command, to give argparse's own text for a missing or unknown command
    (or for a command after a bad first argument), and its help listing.
    """
    if command is not None:
        parser = _Parser(prog=f"grasscodes {command}")
        parser.set_defaults(command=command)
        _add_arguments(parser, command)
        return parser
    parser = _Parser(prog="grasscodes")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return parser


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    text = os.environ.get("PLUCKER_BUDGET")
    if text is None:
        return DEFAULT_BUDGET
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"PLUCKER_BUDGET {exc}") from None


def _spec(args) -> CodeSpec:
    field = GF.from_string(args.field)
    alpha = parse_index_tuple(args.alpha, args.m) if args.alpha else None
    return CodeSpec(field, args.ell, args.m, alpha)


def _grassmann_spec(args, what: str) -> CodeSpec:
    spec = _spec(args)
    if spec.is_schubert:
        raise UsageError(f"{what} applies to Grassmann codes, "
                         f"not to the Schubert code {spec.describe()}")
    return CodeSpec(spec.field, spec.ell, spec.m)  # drops a top-cell alpha


def _emit(chunks: Iterable[str], path: str | None) -> None:
    """Write the text, piece by piece, to the ``-o`` file (opened only
    now, once the work is done) or to stdout, ending in a newline."""
    if path:
        with open(path, "w") as fh:
            fh.writelines(chunks)
        return
    last = ""
    for last in chunks:
        sys.stdout.write(last)
    if not last.endswith("\n"):
        sys.stdout.write("\n")


_escape = json.encoder.encode_basestring_ascii
# pieces of text joined into one write: a bounded amount of text is held,
# not the whole document
_PIECES = 4096


def _scalar(obj) -> str | None:
    """The JSON text of ``_jsonify(obj)`` for a scalar, None for a list,
    tuple or dict."""
    kind = type(obj)
    if kind is int:
        return f'"{obj}"'
    if kind is str:
        return _escape(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if isinstance(obj, (list, tuple, dict)):
        return None
    if isinstance(obj, int):
        obj = str(obj)
    if isinstance(obj, (str, float)):
        return json.dumps(obj)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(_jsonify(obj), indent=2)``, in chunks of
    about ``_PIECES`` pieces.  Ints are written as quoted decimals where
    they are met and strings escaped by json's C encoder, so neither the
    stringified copy nor the whole text is built."""
    out: list[str] = []

    def walk(obj, pad: str) -> Iterator[str]:
        if not obj:
            out.append("{}" if isinstance(obj, dict) else "[]")
            return
        inner = pad + "  "
        if isinstance(obj, dict):
            obj = {str(k): v for k, v in obj.items()}  # as _jsonify keys it
            heads = [f"{inner}{_escape(k)}: " for k in obj]
            values, brackets = obj.values(), "{}"
        else:
            texts = list(map(_scalar, obj))
            if None not in texts:  # no container inside: one piece
                out.append(f"[{inner}{f',{inner}'.join(texts)}{pad}]")
                return
            heads, values, brackets = itertools.repeat(inner), obj, "[]"
        out.append(brackets[0])
        comma = ""
        for head, value in zip(heads, values):
            text = _scalar(value)
            if text is None:
                out.append(comma + head)
                yield from walk(value, inner)
            else:
                out.append(comma + head + text)
            comma = ","
            if len(out) >= _PIECES:
                yield "".join(out)
                out.clear()
        out.append(pad + brackets[1])

    text = _scalar(obj)
    if text is not None:
        yield text
        return
    yield from walk(obj, "\n")
    yield "".join(out)


def _jsonify(obj):
    """Stringify all ints (counts exceed 53-bit float precision); what
    ``_json_chunks`` writes is ``json.dumps`` of this, indented by 2."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def cmd_params(args) -> int:
    spec = _spec(args)
    q = spec.field.q
    ell, m = spec.ell, spec.m
    out = {"q": q, "ell": ell, "m": m}
    if spec.alpha is None:
        out["n"] = spec.n
        out["k"] = spec.k
        out["d"] = min_distance(spec)
        if 2 <= ell <= m - 2:
            out["d2"] = second_min_weight(spec)
        out["e"] = e_bound(ell, m, q)
        if ell * (m - ell) >= 2:
            out["e_prime"] = e_prime_bound(ell, m, q)
    else:
        out["alpha"] = ",".join(map(str, spec.alpha))
        out["n_alpha"] = spec.n
        out["k_alpha"] = spec.k
        out["d"] = schubert_min_distance(spec.alpha, m, q)
    _emit(_json_chunks(out), None)
    return 0


def cmd_wdist(args) -> int:
    dist = weight_distribution(Code(_spec(args)), budget=_budget(args))
    if args.format == "csv":
        _emit([dist.to_csv()], args.output)
    else:
        _emit(_json_chunks(dist.to_json_dict()), args.output)
    return 0


def _suite_identities(spec: CodeSpec) -> list[dict]:
    q, ell, m = spec.field.q, spec.ell, spec.m
    checks = verify_gaussian_identities(m, ell, q)
    if ell <= m - 1:
        checks += verify_e_inequalities(ell, m, q)
    return [{"suite": "identities", "checks": checks,
             "pass": all(c["pass"] for c in checks)}]


def cmd_verify(args) -> int:
    suite = args.suite
    if args.functional is not None and suite not in _TAKES_FUNCTIONAL:
        raise UsageError("-f applies to --suite strings, zanella and all, "
                         f"not to --suite {suite}")
    spec = _grassmann_spec(args, f"--suite {suite}")
    budget = _budget(args)
    runs = [name for name, (applies, _, _) in _SUITE_RUNS.items()
            if suite in (name, "all") and applies(spec)]
    if not runs:
        raise UsageError(f"suite {suite!r} not applicable to these parameters")
    check_work(spec, list(dict.fromkeys(
        work for name in runs for work in _SUITE_RUNS[name][1]
        if not (args.functional and name in _TAKES_FUNCTIONAL))), budget)
    func = parse_functional(args.functional, spec.ell, spec.m, spec.field) \
        if args.functional else None
    code = Code(spec)
    reports = [report for name in runs
               for report in _SUITE_RUNS[name][2](code, func, args, budget)]
    ok = all(r["pass"] for r in reports)
    _emit(_json_chunks({"pass": ok, "reports": reports}), args.output)
    return 0 if ok else 1


def cmd_decompose(args) -> int:
    spec = _spec(args)
    func = parse_functional(args.functional, spec.ell, spec.m, spec.field)
    z = functional_to_wedge(func)
    dim = annihilator_dimension(z)
    out = {"functional": func.to_json_dict(),
           "wedge": str(z),
           "annihilator_dimension": dim,
           "decomposable": dim == z.degree}
    if dim == z.degree:
        fmt = spec.field.format_element
        out["annihilator_basis"] = [[fmt(c) for c in vec]
                                    for vec in annihilator_basis(z)]
    _emit(_json_chunks(out), None)
    return 0


def cmd_strings(args) -> int:
    spec = _grassmann_spec(args, "the string partition")
    out = string_partition(Code(spec), args.full)
    _emit(_json_chunks(out), None)
    return 0


# name -> (handler, help, the arguments after -q, -l, -m and --alpha)
_OUTPUT = ("-o", "--output")
_WORKERS = (("-j", "--workers"), {
    "type": int, "default": 1,
    "help": "accepted and ignored: sweeps run in one process"})
_BUDGET = (("--budget",), {"type": _positive_int, "default": None})
_COMMANDS = {
    "params": (cmd_params, "closed-form code parameters", []),
    "wdist": (cmd_wdist, "complete weight distribution", [
        (_OUTPUT, {"help": "output path (default stdout)"}),
        (("--format",), {"choices": ("json", "csv"), "default": "json"}),
        _WORKERS, _BUDGET]),
    "verify": (cmd_verify, "run a verification suite", [
        (("--suite",), {"choices": SUITES, "required": True}),
        (("-f", "--functional"),
         {"help": "restrict zanella/strings to one functional"}),
        (_OUTPUT, {"help": "report path (default stdout)"}),
        _WORKERS, _BUDGET,
        (("--samples",), {
            "type": _positive_int, "default": 200,
            "help": "sample cap for the attained-family suite"})]),
    "decompose": (cmd_decompose, "decomposability of a hyperplane", [
        (("-f", "--functional"), {"required": True})]),
    "strings": (cmd_strings, "dump the string partition", [
        (("--full",), {"action": "store_true",
                       "help": "list the echelon matrices of every fiber"})]),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = _build_parser(command).parse_args(
            argv[1:] if command else argv)
        return _COMMANDS[args.command][0](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
