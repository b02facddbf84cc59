"""Command-line driver: construction, enumeration, and verification jobs.

Commands: params, wdist, verify, decompose, strings.  All integer values
are serialized as strings in JSON output (counts overflow 53-bit floats
at modest parameters).  Exit codes: 0 success / all assertions pass,
1 usage or domain error (and failed verification), 2 a sweep over the
operation budget or the fixed memory ceiling.  The PLUCKER_BUDGET
environment variable overrides the default operation budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .codes import (BudgetExceeded, CodeSpec, DEFAULT_BUDGET, check_budget,
                    verify_attained_family, verify_l2_dichotomy,
                    verify_nogin, verify_second_weight, verify_string_section,
                    verify_zanella_incidence, weight_distribution,
                    min_distance, second_min_weight, schubert_min_distance,
                    class_representatives)
from .exterior import DualFunctional, annihilator_basis, annihilator_dimension, \
    functional_to_wedge, parse_functional
from .gf import GF
from .grassmann import enumerate_grassmannian, in_last_column_locus, \
    string_label
from .qcombin import (e_bound, e_prime_bound, parse_index_tuple,
                      verify_e_inequalities, verify_gaussian_identities)

SUITES = ("nogin", "second", "strings", "zanella", "identities", "l2",
          "attained", "all")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-q", "--field", required=True,
                   help='field order, "q" or "p^e" (4 = 2^2)')
    p.add_argument("-l", "--ell", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--alpha", help='Schubert pivot tuple, e.g. "1,4"')


def _build_parser() -> _Parser:
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
    p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    _add_common(p)
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("-f", "--functional",
                   help="restrict zanella/strings to one functional")
    p.add_argument("-o", "--output", help="report path (default stdout)")
    p.add_argument("-j", "--workers", type=int, default=1,
                   help="accepted and ignored: sweeps run in one process")
    p.add_argument("--budget", type=int, default=None)
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
    return int(os.environ.get("PLUCKER_BUDGET", DEFAULT_BUDGET))


def _spec(args) -> CodeSpec:
    field = GF.from_string(args.field)
    alpha = parse_index_tuple(args.alpha, args.m) if args.alpha else None
    return CodeSpec(field, args.ell, args.m, alpha)


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
    spec = _spec(args)
    dist = weight_distribution(spec, budget=_budget(args))
    if args.format == "csv":
        _emit(dist.to_csv(), args.output)
    else:
        _emit(json.dumps(dist.to_json_dict(), indent=2), args.output)
    return 0


def _functionals(spec: CodeSpec, functional: str | None,
                 support: list[tuple[int, ...]]) -> list[DualFunctional]:
    """The ``-f`` functional, or one per scalar class supported on support."""
    field, ell, m = spec.field, spec.ell, spec.m
    if functional:
        return [parse_functional(functional, ell, m, field)]
    return [DualFunctional.from_vector(vec, ell, m, field, support)
            for vec in class_representatives(field.q, len(support))]


def _suite_identities(spec: CodeSpec) -> list[dict]:
    q, ell, m = spec.field.q, spec.ell, spec.m
    checks = verify_gaussian_identities(m, ell, q)
    if ell <= m - 1:
        checks += verify_e_inequalities(ell, m, q)
    return [{"suite": "identities", "checks": checks,
             "pass": all(c["pass"] for c in checks)}]


def cmd_verify(args) -> int:
    spec = _spec(args)
    budget = _budget(args)
    suite = args.suite
    if suite in ("nogin", "second", "l2", "all"):
        # only these suites sweep every codeword class
        check_budget(spec, budget)
    reports: list[dict] = []
    if suite in ("nogin", "all"):
        reports.append(verify_nogin(spec))
    if suite in ("second", "all") and 2 <= spec.ell <= spec.m - 2:
        reports.append(verify_second_weight(spec, budget=budget))
    if suite in ("strings", "all"):
        last = [a for a in spec.support if a[-1] == spec.m]
        reports += [verify_string_section(f)
                    for f in _functionals(spec, args.functional, last)]
    if suite in ("zanella", "all"):
        reports += [verify_zanella_incidence(f)
                    for f in _functionals(spec, args.functional, spec.support)]
    if suite in ("identities", "all"):
        reports.extend(_suite_identities(spec))
    if suite in ("l2", "all") and (spec.ell, spec.m) == (2, 4):
        reports.append(verify_l2_dichotomy(spec.field))
    if suite in ("attained", "all") and 2 <= spec.ell <= spec.m - 2:
        reports.append(verify_attained_family(spec.ell, spec.m, spec.field,
                                              max_samples=args.samples))
    if not reports:
        raise UsageError(f"suite {suite!r} not applicable to these parameters")
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
    spec = _spec(args)
    field, ell, m = spec.field, spec.ell, spec.m
    sub = 0
    fibers: dict[str, list[str] | int] = {}
    for mat in enumerate_grassmannian(ell, m, field):
        if not in_last_column_locus(mat):
            sub += 1
            continue
        nu = ",".join(str(v) for v in string_label(mat))
        if args.full:
            fibers.setdefault(nu, []).append(str(mat))
        else:
            fibers[nu] = fibers.get(nu, 0) + 1
    out = {"sub_grassmannian_points": sub, "fibers": dict(sorted(fibers.items()))}
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
