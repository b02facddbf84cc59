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
``codes.check_work`` call before any of them starts.

Exit codes: 0 success / all assertions pass, 1 usage or domain error
(and failed verification), 2 work refused by ``codes.check_work`` before
it starts: a sweep, or the strings/zanella suites over every class, over
the operation budget; a sweep, a point table (also the echelon matrices
that ``strings`` reads), the ``strings`` listing or the reports of those
suites over the fixed memory ceiling.
The PLUCKER_BUDGET environment variable, an integer >= 1 like
``--budget``, overrides the default operation budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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
# and zanella check one functional and price nothing up front.
_SUITE_RUNS = {
    "nogin": (_any, ["sweep"], lambda code, func, args, budget:
              [verify_nogin(code)]),
    "second": (_middle, ["sweep"], lambda code, func, args, budget:
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-q", "--field", required=True,
                   help='field order, "q" or "p^e" (4 = 2^2)')
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--alpha", help='Schubert pivot tuple, e.g. "1,4"')


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and shared by every
    later ``main`` call of the process."""
    parser = _Parser(prog="grasscodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="closed-form code parameters")
    _add_common(p)

    p = sub.add_parser("wdist", help="complete weight distribution sweep")
    _add_common(p)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-j", "--workers", type=int, default=1,
                   help="accepted and ignored: sweeps run in one process")
    p.add_argument("--budget", type=_positive_int, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("-f", "--functional",
                   help="restrict zanella/strings to one functional")
    p.add_argument("-o", "--output", help="report path (default stdout)")
    p.add_argument("-j", "--workers", type=int, default=1,
                   help="accepted and ignored: sweeps run in one process")
    p.add_argument("--budget", type=_positive_int, default=None)
    p.add_argument("--samples", type=_positive_int, default=200,
                   help="sample cap for the attained-family suite")

    p = sub.add_parser("decompose", help="decomposability of a hyperplane")
    _add_common(p)
    p.add_argument("-f", "--functional", required=True)

    p = sub.add_parser("strings", help="dump the string partition")
    _add_common(p)
    p.add_argument("--full", action="store_true",
                   help="list the echelon matrices of every fiber")
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


def _emit(payload: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _jsonify(obj):
    """Stringify all ints (counts exceed 53-bit float precision)."""
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
    _emit(json.dumps(_jsonify(out), indent=2), None)
    return 0


def cmd_wdist(args) -> int:
    dist = weight_distribution(Code(_spec(args)), budget=_budget(args))
    if args.format == "csv":
        _emit(dist.to_csv(), args.output)
    else:
        _emit(json.dumps(dist.to_json_dict(), indent=2), args.output)
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
    payload = json.dumps(_jsonify({"pass": ok, "reports": reports}), indent=2)
    _emit(payload, args.output)
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
    _emit(json.dumps(_jsonify(out), indent=2), None)
    return 0


def cmd_strings(args) -> int:
    spec = _grassmann_spec(args, "the string partition")
    out = string_partition(Code(spec), args.full)
    _emit(json.dumps(_jsonify(out), indent=2), None)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"params": cmd_params, "wdist": cmd_wdist,
                   "verify": cmd_verify, "decompose": cmd_decompose,
                   "strings": cmd_strings}[args.command]
        return handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
