"""Job lists of the three benchmark workloads, generated from a seed.

A job is one call a user makes: ``grasscodes.cli.main(argv)`` with stdout
captured, or one public library function.  Jobs come in units that run
back to back (a sweep and the MacWilliams check of its output; a
generator and its rank test).  The seed sets the unit order, the random
functionals handed to the program and the oracle sample the checks use.
It hardly changes the load: a job's cost depends on the code, not on the
functional, except that a zanella job scans the points on the hyperplane
(a few percent of that job between functionals).

Extension fields are spelled ``p^e``; the CLI refuses ``-q 4``.
This module uses only the standard library, so that it can be imported
before the program is.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("sweep", "classify", "geometry")

# (field, ell, m, alpha, run MacWilliams on the result)
SWEEP_CODES = [
    ("2", 3, 6, None, True),
    ("2", 2, 7, None, False),  # MacWilliams alone takes ~13 s at n = 2667
    ("3", 2, 5, None, True),
    ("5", 2, 4, None, True),
    ("2^2", 2, 4, None, True),
    ("2", 3, 6, (2, 4, 6), True),
    ("3", 2, 5, (2, 5), True),
    ("2^2", 2, 5, (2, 4), True),
    ("2^3", 2, 5, (1, 4), True),
    ("3^2", 2, 5, (1, 4), True),
    ("3^2", 2, 4, (2, 4), True),
]

# (field, ell, m, suite)
CLASSIFY_SUITES = [
    ("3", 2, 5, "nogin"),
    ("2", 3, 5, "nogin"),
    ("2^2", 2, 4, "nogin"),
    ("5", 2, 4, "l2"),
    ("3", 2, 4, "l2"),
    ("2", 2, 4, "all"),
]
DECOMPOSE_CODE = ("3", 2, 5)
DECOMPOSE_CALLS = 4

GENERATOR_CODE = ("3", 3, 6)
STRINGS_CODES = [("3", 2, 5), ("2", 3, 6), ("2", 3, 6)]
ZANELLA_CODES = [("2", 2, 5), ("3", 2, 5), ("2", 3, 6)]
ATTAINED_CODES = [("5", 2, 5), ("2", 3, 6), ("7", 2, 4)]
STRINGS_FULL_CODE = ("3", 2, 5)

ORACLE_SAMPLES = 3  # codeword_weight oracle values per swept code


def field_order(field: str) -> int:
    p, _, e = field.partition("^")
    return int(p) ** int(e or 1)


def index_tuples(ell: int, m: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(1, m + 1), ell))


def support(ell: int, m: int, alpha) -> list[tuple[int, ...]]:
    """Coordinates a code carries: all of I(ell, m), or the down-set of alpha."""
    tuples = index_tuples(ell, m)
    if alpha is None:
        return tuples
    return [b for b in tuples if all(x <= y for x, y in zip(b, alpha))]


def _code_args(field: str, ell: int, m: int, alpha=None) -> list[str]:
    args = ["-q", field, "-l", str(ell), "-m", str(m)]
    if alpha is not None:
        args += ["--alpha", ",".join(map(str, alpha))]
    return args


def _random_vector(rng: random.Random, q: int, k: int) -> list[int]:
    while True:
        vec = [rng.randrange(q) for _ in range(k)]
        if any(vec):
            return vec


def _functional_text(tuples, vec) -> str:
    terms = []
    for a, c in zip(tuples, vec):
        if c:
            x = "X:" + ",".join(map(str, a))
            terms.append(x if c == 1 else f"{c}*{x}")
    return " + ".join(terms)


def _code(field, ell, m, alpha=None) -> dict:
    return {"field": field, "ell": ell, "m": m, "alpha": alpha}


def _sweep_units(rng: random.Random) -> list[list[dict]]:
    units = []
    for field, ell, m, alpha, mw in SWEEP_CODES:
        q, k = field_order(field), len(support(ell, m, alpha))
        code = _code(field, ell, m, alpha)
        oracle = [_random_vector(rng, q, k) for _ in range(ORACLE_SAMPLES)]
        name = "wdist " + " ".join(_code_args(field, ell, m, alpha))
        unit = [{"name": name, "kind": "cli", "check": "wdist", "code": code,
                 "oracle": oracle,
                 "argv": ["wdist", *_code_args(field, ell, m, alpha),
                          "-j", "1"]}]
        if mw:
            unit.append({"name": "check_macwilliams " + name[6:],
                         "kind": "macwilliams", "check": "macwilliams",
                         "code": code, "input": 0})
        units.append(unit)
    return units


def _classify_units(rng: random.Random) -> list[list[dict]]:
    units = []
    for field, ell, m, suite in CLASSIFY_SUITES:
        argv = ["verify", *_code_args(field, ell, m), "--suite", suite]
        units.append([{"name": " ".join(argv), "kind": "cli",
                       "check": "verify", "code": _code(field, ell, m),
                       "argv": argv}])
    field, ell, m = DECOMPOSE_CODE
    q, tuples = field_order(field), index_tuples(ell, m)
    for _ in range(DECOMPOSE_CALLS):
        # small supports are often decomposable, full ones rarely: both
        # verdicts get exercised
        size = rng.randint(1, len(tuples))
        chosen = set(rng.sample(range(len(tuples)), size))
        vec = [rng.randrange(1, q) if i in chosen else 0
               for i in range(len(tuples))]
        text = _functional_text(tuples, vec)
        argv = ["decompose", *_code_args(field, ell, m), "-f", text]
        units.append([{"name": " ".join(argv), "kind": "cli",
                       "check": "decompose", "code": _code(field, ell, m),
                       "vector": vec, "argv": argv}])
    return units


def _geometry_units(rng: random.Random) -> list[list[dict]]:
    field, ell, m = GENERATOR_CODE
    code = _code(field, ell, m)
    units = [[{"name": f"build_generator C({ell},{m})/F_{field}",
               "kind": "generator", "check": "generator", "code": code},
              {"name": f"full_rank C({ell},{m})/F_{field}",
               "kind": "full_rank", "check": "full_rank", "code": code,
               "input": 0}]]
    for suite, codes in (("strings", STRINGS_CODES),
                         ("zanella", ZANELLA_CODES)):
        for field, ell, m in codes:
            tuples = index_tuples(ell, m)
            if suite == "strings":
                # the strings suite needs the hyperplane to contain the
                # sub-Grassmannian: support on tuples ending at m
                tuples = [a for a in tuples if a[-1] == m]
            vec = _random_vector(rng, field_order(field), len(tuples))
            full = [dict(zip(tuples, vec)).get(a, 0)
                    for a in index_tuples(ell, m)]
            argv = ["verify", *_code_args(field, ell, m), "--suite", suite,
                    "-f", _functional_text(tuples, vec)]
            units.append([{"name": " ".join(argv), "kind": "cli",
                           "check": suite, "code": _code(field, ell, m),
                           "vector": full, "argv": argv}])
    for field, ell, m in ATTAINED_CODES:
        argv = ["verify", *_code_args(field, ell, m), "--suite", "attained"]
        units.append([{"name": " ".join(argv), "kind": "cli",
                       "check": "verify", "code": _code(field, ell, m),
                       "argv": argv}])
    field, ell, m = STRINGS_FULL_CODE
    argv = ["strings", *_code_args(field, ell, m), "--full"]
    units.append([{"name": " ".join(argv), "kind": "cli",
                   "check": "strings_full", "code": _code(field, ell, m),
                   "argv": argv}])
    return units


_BUILDERS = {"sweep": _sweep_units, "classify": _classify_units,
             "geometry": _geometry_units}


def build(workload: str, seed: int) -> list[dict]:
    """The seeded job list of one pass, units shuffled, jobs numbered.

    A job's ``input`` names, by position in the returned list, the earlier
    job whose output it consumes.
    """
    rng = random.Random(f"{workload}:{seed}")
    units = _BUILDERS[workload](rng)
    rng.shuffle(units)
    jobs = []
    for unit in units:
        base = len(jobs)
        for job in unit:
            job = dict(job, id=len(jobs))
            if "input" in job:
                job["input"] += base
            jobs.append(job)
    return jobs


def fields(workload: str) -> list[str]:
    """Every field a workload's jobs use, built once during set-up."""
    codes = {"sweep": [c[0] for c in SWEEP_CODES],
             "classify": [c[0] for c in CLASSIFY_SUITES] + [DECOMPOSE_CODE[0]],
             "geometry": [c[0] for c in (GENERATOR_CODE, *STRINGS_CODES,
                                         *ZANELLA_CODES, *ATTAINED_CODES,
                                         STRINGS_FULL_CODE)]}[workload]
    return sorted(set(codes))
