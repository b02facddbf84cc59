import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grasscodes import cli, codes, exterior, grassmann, linalg
from grasscodes.cli import main
from grasscodes.gf import GF
from grasscodes.grassmann import (enumerate_grassmannian,
                                  in_last_column_locus, string_label)

from test_codes import _nogin_distribution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_params_grassmann(capsys):
    code, out, _ = run(capsys, "params", "-q", "2", "-l", "2", "-m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == "35" and data["k"] == "6"
    assert data["d"] == "16" and data["d2"] == "20"
    assert data["e"] == "19" and data["e_prime"] == "15"


def test_params_schubert(capsys):
    code, out, _ = run(capsys, "params", "-q", "2", "-l", "2", "-m", "4",
                       "--alpha", "1,4")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == "1,4"
    assert data["n_alpha"] == "7" and data["k_alpha"] == "3"
    assert data["d"] == "4"


def test_wdist_json(capsys):
    code, out, _ = run(capsys, "wdist", "-q", "2", "-l", "2", "-m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"0": "1", "16": "35", "20": "28"}
    assert data["complete"] is True


def test_wdist_csv_to_file(capsys, tmp_path):
    out_path = tmp_path / "dist.csv"
    code, _, _ = run(capsys, "wdist", "-q", "3", "-l", "2", "-m", "4",
                     "--format", "csv", "-o", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines == ["weight,count", "0,1", "81,260", "90,468"]


def test_wdist_simplex(capsys):
    code, out, _ = run(capsys, "wdist", "-q", "2", "-l", "1", "-m", "4")
    assert code == 0
    assert json.loads(out)["counts"] == {"0": "1", "8": "15"}


def test_decompose_common_factor(capsys):
    code, out, _ = run(capsys, "decompose", "-q", "3", "-l", "2", "-m", "4",
                       "-f", "X:1,2 + 2*X:1,3")
    assert code == 0
    assert json.loads(out)["decomposable"] is True


def test_wdist_deterministic(capsys):
    _, out1, _ = run(capsys, "wdist", "-q", "3", "-l", "2", "-m", "4")
    _, out2, _ = run(capsys, "wdist", "-q", "3", "-l", "2", "-m", "4", "-j", "2")
    assert out1 == out2


def test_verify_nogin_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "-q", "2", "-l", "2", "-m", "4",
                       "--suite", "nogin")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "-q", "2", "-l", "2", "-m", "4",
                       "--suite", "all", "--samples", "10")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    suites = {r["suite"] for r in data["reports"]}
    assert {"nogin", "second", "identities", "l2", "attained"} <= suites


def test_verify_identities(capsys):
    code, out, _ = run(capsys, "verify", "-q", "5", "-l", "3", "-m", "7",
                       "--suite", "identities")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "-q", "2", "-l", "2", "-m", "4",
                       "-f", "X:1,2 + X:3,4")
    assert code == 0
    data = json.loads(out)
    assert data["decomposable"] is False
    assert data["annihilator_dimension"] == "0"

    code, out, _ = run(capsys, "decompose", "-q", "2", "-l", "2", "-m", "4",
                       "-f", "X:3,4")
    data = json.loads(out)
    assert data["decomposable"] is True
    assert len(data["annihilator_basis"]) == 2


def test_decompose_ell_equals_m(capsys):
    # G(3,3) is one point, and a functional is a scalar times X:1,2,3;
    # its wedge has degree 0 and prints as that scalar
    for text, wedge in (("2*X:1,2,3", "2"), ("X:1,2,3", "1")):
        code, out, _ = run(capsys, "decompose", "-q", "3", "-l", "3",
                           "-m", "3", "-f", text)
        assert code == 0
        data = json.loads(out)
        assert data["wedge"] == wedge
        assert data["decomposable"] is True
        assert data["annihilator_dimension"] == "0"


@pytest.mark.parametrize("q", [2, 3])
def test_decompose_every_class_matches_dual_grassmannian(capsys, monkeypatch, q):
    # every scalar class of C(2,4): the verdict against the dual
    # Grassmannian (Nogin 1996), the dimension against the batched rank,
    # and each listed basis row against the wedge product
    field, ell, m = GF(q), 2, 4
    spec = codes.CodeSpec(field, ell, m)
    decomposable = set(map(tuple, codes.decomposable_table(
        codes.Code(spec)).tolist()))
    reps = list(codes.class_representatives(q, spec.k))
    dims = m - exterior.annihilator_ranks(field, ell, m, np.array(reps))
    calls = {"basis": 0, "other": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(cli, "annihilator_basis",
                        counted("basis", exterior.annihilator_basis))
    # every binding of the rank reduction and of the dimension
    for mod in (cli, exterior, linalg):
        for name, value in list(vars(mod).items()):
            if value is linalg.rank or value is exterior.annihilator_dimension:
                monkeypatch.setattr(mod, name, counted("other", value))
    element = {field.format_element(c): c for c in range(q)}
    for rep, dim in zip(reps, dims.tolist()):
        func = exterior.DualFunctional.from_vector(rep, ell, m, field)
        code, out, err = run(capsys, "decompose", "-q", str(q), "-l",
                             str(ell), "-m", str(m), "-f", str(func))
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["decomposable"] is (rep in decomposable)
        assert data["annihilator_dimension"] == str(dim)
        if rep in decomposable:
            z = exterior.functional_to_wedge(func)
            basis = [[element[c] for c in row]
                     for row in data["annihilator_basis"]]
            assert len(basis) == m - ell
            assert all(exterior.wedge_with_vector(z, x).is_zero()
                       for x in basis)
        else:
            assert "annihilator_basis" not in data
    assert calls == {"basis": len(reps), "other": 0}


def test_strings_partition(capsys):
    code, out, _ = run(capsys, "strings", "-q", "2", "-l", "2", "-m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["sub_grassmannian_points"] == "7"
    assert len(data["fibers"]) == 4
    assert all(v == "7" for v in data["fibers"].values())


@pytest.mark.parametrize("field,ell,m", [("3", 2, 4), ("2^2", 2, 4),
                                         ("2", 1, 3), ("2", 3, 3),
                                         ("2", 3, 5), ("11", 1, 3),
                                         ("2^4", 1, 3)])
def test_strings_matches_point_enumeration(capsys, field, ell, m):
    # the partition read off the echelon matrices against a walk over every
    # point; labels up to 10..15 sort as text, "10" before "2"
    gf = GF.from_string(field)
    sub, counts, full = 0, {}, {}
    for mat in enumerate_grassmannian(ell, m, gf):
        if not in_last_column_locus(mat):
            sub += 1
            continue
        nu = ",".join(map(str, string_label(mat)))
        counts[nu] = counts.get(nu, 0) + 1
        full.setdefault(nu, []).append(str(mat))
    for flag, fibers in (([], counts), (["--full"], full)):
        code, out, _ = run(capsys, "strings", "-q", field, "-l", str(ell),
                           "-m", str(m), *flag)
        expected = {"sub_grassmannian_points": sub,
                    "fibers": dict(sorted(fibers.items()))}
        assert code == 0
        assert out == json.dumps(cli._jsonify(expected), indent=2) + "\n"


def test_strings_builds_no_minors(capsys, monkeypatch):
    # the partition reads the echelon matrices alone
    def no_minors(*args):
        raise AssertionError("Pluecker minors built for the string partition")
    for module in (codes, grassmann):
        monkeypatch.setattr(module, "schubert_minors", no_minors)
    for flag in ([], ["--full"]):
        code, out, err = run(capsys, "strings", "-q", "3", "-l", "2",
                             "-m", "4", *flag)
        assert (code, err) == (0, "")
        assert json.loads(out)["sub_grassmannian_points"] == "13"


def test_plain_strings_builds_no_matrices(capsys, monkeypatch):
    # the fiber sizes come from the cell sizes; --full lists the same
    # number of matrices per fiber
    def no_matrices(*args):
        raise AssertionError("echelon matrices built for plain strings")
    cases = [("3", 2, 4), ("2", 3, 5), ("11", 1, 3), ("2", 3, 3)]
    plain = []
    with monkeypatch.context() as patch:
        for module in (codes, grassmann):
            for name in ("cell_matrices", "schubert_minors"):
                patch.setattr(module, name, no_matrices)
        for field, ell, m in cases:
            code, out, err = run(capsys, "strings", "-q", field, "-l",
                                 str(ell), "-m", str(m))
            assert (code, err) == (0, "")
            plain.append(json.loads(out))
    for (field, ell, m), sizes in zip(cases, plain):
        _, out, _ = run(capsys, "strings", "-q", field, "-l", str(ell),
                        "-m", str(m), "--full")
        full = json.loads(out)
        assert sizes["sub_grassmannian_points"] == \
            full["sub_grassmannian_points"]
        assert sizes["fibers"] == {nu: str(len(mats))
                                   for nu, mats in full["fibers"].items()}


def test_strings_table_byte_ceiling_exit_two(capsys, monkeypatch):
    for module in (codes, grassmann):
        for name in ("cell_matrices", "schubert_minors"):
            monkeypatch.setattr(module, name, None)  # must not be reached
    code, out, err = run(capsys, "strings", "-q", "16", "-l", "2", "-m", "6")
    assert (code, out, err) == (2, "", "error: point table requires"
                                " ~545999683070 bytes, budget is 2147483648\n")


def test_strings_listing_byte_ceiling_exit_two(capsys, monkeypatch):
    # C(1,7)/F_16 passes the table price, but its listing of 16^6 fibers
    # needs several GiB: both forms are refused before any fiber is built
    def no_listing(*args):
        raise AssertionError("string partition listed past its price")
    for name in ("_fiber_labels", "cell_matrices", "schubert_minors"):
        monkeypatch.setattr(codes, name, no_listing)
    for name in ("cell_matrices", "schubert_minors"):
        monkeypatch.setattr(grassmann, name, no_listing)
    codes.check_work(codes.CodeSpec(GF(2, 4), 1, 7), ["table"])
    for flag, what in (([], "string partition"),
                       (["--full"], "string partition --full")):
        code, out, err = run(capsys, "strings", "-q", "16", "-l", "1",
                             "-m", "7", *flag)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {what} requires ~")


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "params", "-q", "2", "-l", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "params", "-q", "six", "-l", "2", "-m", "4")
    assert code == 1
    code, _, err = run(capsys, "params", "-q", "2", "-l", "5", "-m", "4")
    assert code == 1


def test_parser_reused_across_calls(capsys):
    # one parser per command serves every call of the process; a usage
    # error between two commands leaves it as a fresh one would be
    calls = [["params", "-q", "3", "-l", "2", "-m", "5"],
             ["decompose", "-q", "2", "-l", "2", "-m"],
             ["decompose", "-q", "2", "-l", "2", "-m", "4", "-f", "X:1,2"]]
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser("decompose") is cli._build_parser("decompose")
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 1, 0]


def test_command_errors_are_argparse_texts(capsys):
    # without a command first, the top parser gives argparse's own texts
    choices = "'params', 'wdist', 'verify', 'decompose', 'strings'"
    for argv, message in (
            ([], "the following arguments are required: command"),
            (["x"], f"argument command: invalid choice: 'x' (choose from"
                    f" {choices})"),
            (["-q", "2", "wdist"], "argument command: invalid choice: '2'"
                                   f" (choose from {choices})"),
            # the command's own parser runs before the first argument is
            # refused
            (["-x", "params", "-q", "2"],
             "the following arguments are required: -l/--ell, -m"),
            (["-x", "params", "-q", "2", "-l", "2", "-m", "4"],
             "unrecognized arguments: -x")):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: grasscodes [-h]"
                          " {params,wdist,verify,decompose,strings} ...\n")
    for name in ("params", "wdist", "verify", "decompose", "strings"):
        assert f"\n    {name} " in out


def test_budget_exit_two(capsys):
    code, _, err = run(capsys, "wdist", "-q", "2", "-l", "3", "-m", "6",
                       "--budget", "1000")
    assert code == 2 and "budget" in err


def test_prime_power_field_order(capsys):
    _, out1, _ = run(capsys, "wdist", "-q", "4", "-l", "2", "-m", "4")
    _, out2, _ = run(capsys, "wdist", "-q", "2^2", "-l", "2", "-m", "4")
    assert json.loads(out1)["spec"]["q"] == "4"
    assert out1 == out2
    for bad in ("6", "1", "six"):
        code, _, err = run(capsys, "params", "-q", bad, "-l", "2", "-m", "4")
        assert code == 1 and "error" in err


def test_memory_ceiling_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(codes, "minors_table", None)  # must not be reached
    tracemalloc.start()
    try:
        # the Schubert code C_(4,6)(2,6) sweeps 4^14 codewords, and the
        # Nogin suite sweeps C(2,6): 4^15
        for argv in (["wdist", "--alpha", "4,6"],
                     ["verify", "--suite", "nogin"]):
            code, _, err = run(capsys, *argv, "-q", "4", "-l", "2", "-m", "6",
                               "--budget", str(10**20))
            assert code == 2 and "bytes" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_table_byte_ceiling_exit_two(capsys, monkeypatch):
    # C(2,6) over F_16: its largest cell alone needs about 48 GiB
    for module in (codes, grassmann):
        for name in ("cell_matrices", "schubert_minors"):
            monkeypatch.setattr(module, name, None)  # must not be reached
    tracemalloc.start()
    try:
        for argv in (["--suite", "zanella", "-f", "X:1,2"],
                     ["--suite", "zanella"],
                     ["--suite", "strings", "-f", "X:1,6"],
                     ["--suite", "attained"]):
            code, out, err = run(capsys, "verify", "-q", "16", "-l", "2",
                                 "-m", "6", *argv)
            assert code == 2 and "bytes" in err and out == ""
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_verify_nogin_roadmap_target(capsys):
    code, out, _ = run(capsys, "verify", "-q", "2", "-l", "3", "-m", "6",
                       "--suite", "nogin")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["pass"] is True
    assert report["checks"][1]["lhs"] == report["checks"][1]["rhs"] == "1395"


def test_budget_env_var(capsys, monkeypatch):
    # the Schubert code C_(2,5)(2,5) sweeps at a price of 5461
    code_args = ("-q", "2", "-l", "2", "-m", "5", "--alpha", "2,5")
    monkeypatch.setenv("PLUCKER_BUDGET", "1000")
    code, _, err = run(capsys, "wdist", *code_args)
    assert code == 2
    monkeypatch.setenv("PLUCKER_BUDGET", "100000")
    code, out, _ = run(capsys, "wdist", *code_args)
    assert code == 0
    # explicit flag beats the environment
    monkeypatch.setenv("PLUCKER_BUDGET", "1000")
    code, _, _ = run(capsys, "wdist", *code_args, "--budget", "100000")
    assert code == 0


def test_refusal_names_refused_work(capsys):
    cases = [(["wdist", "-q", "2", "-l", "2", "-m", "5", "--alpha", "2,5",
               "--budget", "1000"],
              "sweep requires ~5461 operations, budget is 1000"),
             (["wdist", "-q", "4", "-l", "2", "-m", "6", "--alpha", "4,6",
               "--budget", str(10**20)],
              "sweep requires ~4294967296 bytes, budget is 2147483648"),
             (["verify", "-q", "16", "-l", "2", "-m", "6", "--suite",
               "zanella", "-f", "X:1,2"],
              "point table requires ~545999683070 bytes, budget is 2147483648"),
             # a command of several pieces of work names the first refused
             (["verify", "-q", "2", "-l", "3", "-m", "6", "--suite", "all",
               "--budget", "1000"],
              "sweep requires ~1462762125 operations, budget is 1000"),
             (["verify", "-q", "2", "-l", "3", "-m", "6", "--suite", "all"],
              "--suite zanella requires ~21273489600 bytes,"
              " budget is 2147483648"),
             (["verify", "-q", "2^2", "-l", "2", "-m", "6", "--suite", "all",
               "--budget", str(10**20)],
              "sweep requires ~17179869184 bytes, budget is 2147483648")]
    for argv, message in cases:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_split_refusal_names_the_split(capsys):
    # C(3,6) over F_2 splits on side 3: 3 rank classes, each one sweep of
    # C(2,5), 1023 classes of 155 points
    for argv in (["wdist"], ["verify", "--suite", "second"]):
        code, out, err = run(capsys, *argv, "-q", "2", "-l", "3", "-m", "6",
                             "--budget", "1000")
        assert (code, out, err) == (
            2, "", "error: split requires ~475695 operations, budget is"
            " 1000\n")


def test_split_over_memory_ceiling_refused_before_tables(capsys,
                                                         monkeypatch):
    # C(3,7) over F_3 needs a 3^20 transform on its side, C(3,8) over F_2
    # a 2^35 one: refused on bytes under any budget
    monkeypatch.setattr(codes, "minors_table", None)  # must not be reached
    for argv, nbytes in ((["-q", "3", "-l", "3", "-m", "7"], 139471376040),
                         (["-q", "2", "-l", "3", "-m", "8"], 549755813888)):
        code, out, err = run(capsys, "wdist", *argv, "--budget",
                             str(10**17))
        assert (code, out, err) == (
            2, "", f"error: split requires ~{nbytes} bytes, budget is"
            " 2147483648\n")


@pytest.mark.parametrize("q,m", [("16", 4), ("3", 6)])
def test_split_reaches_north_star_codes(capsys, q, m):
    # refused at the price of a sweep (~7.8 10^10 and ~7.9 10^10
    # operations), these run at the price of the split
    expected = _nogin_distribution(m, int(q))
    argv = ("-q", q, "-l", "2", "-m", str(m))
    code, out, _ = run(capsys, "wdist", *argv)
    assert code == 0
    counts = json.loads(out)["counts"]
    assert {int(w): int(c) for w, c in counts.items()} == expected
    code, out, _ = run(capsys, "verify", *argv, "--suite", "second")
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["pass"] is True
    counts = report["distribution"]["counts"]
    assert {int(w): int(c) for w, c in counts.items()} == expected


def test_suite_not_applicable_prices_nothing(capsys):
    # neither command would sweep, so neither is refused for a sweep
    for argv, suite in (
            (["-l", "3", "-m", "7", "--suite", "l2"], "l2"),
            (["-l", "1", "-m", "9", "--suite", "second", "--budget", "10"],
             "second")):
        code, out, err = run(capsys, "verify", "-q", "2", *argv)
        assert (code, out, err) == (
            1, "", f"error: suite '{suite}' not applicable to these"
            " parameters\n")


def test_functional_with_other_suite_is_usage_error(capsys):
    for suite in ("nogin", "second", "identities", "l2", "attained"):
        code, out, err = run(capsys, "verify", "-q", "2", "-l", "2", "-m",
                             "4", "--suite", suite, "-f", "nonsense")
        assert (code, out) == (1, "")
        assert err == ("error: -f applies to --suite strings, zanella and"
                       f" all, not to --suite {suite}\n")


def test_per_class_suites_budget_exit_two(capsys, monkeypatch, tmp_path):
    # C(2,5) over F_4: 349 525 Zanella suites of 5797 points each; one
    # functional given with -f is not priced
    code, _, _ = run(capsys, "verify", "-q", "4", "-l", "2", "-m", "5",
                     "--suite", "zanella", "-f", "X:1,2", "--budget", "1000")
    assert code == 0
    for name in ("verify_zanella_incidence", "verify_string_section",
                 "verify_zanella_incidences", "verify_string_sections"):
        monkeypatch.setattr(cli, name, None)
    report = tmp_path / "report.json"
    for suite, price in (("zanella", 349525 * 5797), ("strings", 85 * 5797)):
        code, out, err = run(capsys, "verify", "-q", "4", "-l", "2", "-m", "5",
                             "--suite", suite, "--budget", "100000",
                             "-o", str(report))
        assert code == 2 and out == "" and not report.exists()
        assert err == (f"error: --suite {suite} requires ~{price} operations,"
                       " budget is 100000\n")


def test_all_class_report_bytes_exit_two(capsys, monkeypatch, tmp_path):
    # within the default operation budget, but 1 048 575 Zanella reports of
    # 63 counts for C(3,6)/F_2 and 349 525 of 341 for C(2,5)/F_4
    for module in (codes, grassmann):
        for name in ("cell_matrices", "schubert_minors"):
            monkeypatch.setattr(module, name, None)  # must not be reached
    report = tmp_path / "report.json"
    for field, ell, m, price in (("2", 3, 6, 1048575 * (8192 + 63 * 192)),
                                 ("2^2", 2, 5, 349525 * (8192 + 341 * 192))):
        code, out, err = run(capsys, "verify", "-q", field, "-l", str(ell),
                             "-m", str(m), "--suite", "zanella",
                             "-o", str(report))
        assert code == 2 and out == "" and not report.exists()
        assert err == (f"error: --suite zanella requires ~{price} bytes,"
                       " budget is 2147483648\n")


def test_verify_strings_with_functional(capsys):
    code, out, _ = run(capsys, "verify", "-q", "2", "-l", "2", "-m", "4",
                       "--suite", "strings", "-f", "X:3,4")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_zanella_with_functional(capsys):
    code, out, _ = run(capsys, "verify", "-q", "2", "-l", "2", "-m", "4",
                       "--suite", "zanella", "-f", "X:1,2 + X:3,4")
    assert code == 0


def test_samples_below_one_is_usage_error(capsys):
    for bad in ("0", "-1", "x"):
        code, out, err = run(capsys, "verify", "-q", "2", "-l", "2", "-m", "4",
                             "--suite", "attained", "--samples", bad)
        assert code == 1 and out == ""
        assert "--samples" in err


def test_budget_below_one_is_usage_error(capsys):
    for command in (["wdist"], ["verify", "--suite", "nogin"]):
        for bad in ("0", "-5", "x", "²"):
            code, out, err = run(capsys, *command, "-q", "2", "-l", "2",
                                 "-m", "4", "--budget", bad)
            assert (code, out) == (1, "")
            assert err == ("error: argument --budget: must be an integer"
                           f" >= 1, got {bad!r}\n")


def test_budget_env_var_below_one_is_usage_error(capsys, monkeypatch):
    for bad in ("0", "-5", "abc", "²"):
        monkeypatch.setenv("PLUCKER_BUDGET", bad)
        for command in (["wdist"], ["verify", "--suite", "nogin"]):
            code, out, err = run(capsys, *command, "-q", "2", "-l", "2",
                                 "-m", "4")
            assert (code, out) == (1, "")
            assert err == ("error: PLUCKER_BUDGET must be an integer >= 1,"
                           f" got {bad!r}\n")


def test_unwritable_output_path(capsys, tmp_path):
    code, _, err = run(capsys, "wdist", "-q", "2", "-l", "2", "-m", "4",
                       "-o", str(tmp_path / "missing" / "x.json"))
    assert code == 1
    assert err.startswith("error: ")


def test_verify_all_builds_each_array_once(capsys, monkeypatch):
    # one command, one Code: each table of minors and the weight array are
    # built once, each table of C(2,4) and C(1,3) by one walk over its
    # pivot prefixes, and the echelon matrices of each cell of C(2,4) at
    # most once
    log = []
    for name in ("minors_table", "weight_array", "cell_matrices",
                 "schubert_minors"):
        def counted(*args, _name=name, _fn=getattr(codes, name)):
            log.append((_name, args[0]))
            return _fn(*args)
        monkeypatch.setattr(codes, name, counted)
    code, out, _ = run(capsys, "verify", "-q", "2", "-l", "2", "-m", "4",
                       "--suite", "all")
    assert code == 0 and json.loads(out)["pass"] is True
    tables = sorted((s.ell, s.m) for name, s in log if name == "minors_table")
    assert tables == [(1, 3), (2, 4)]
    assert [name for name, _ in log].count("weight_array") == 1
    walks = sorted(alpha for name, alpha in log if name == "schubert_minors")
    assert walks == [(3,), (3, 4)]
    assert [name for name, _ in log].count("cell_matrices") <= 6


def test_schubert_alpha_refused_before_work(capsys, monkeypatch):
    for name in ("point_table", "cell_matrices", "schubert_minors",
                 "weight_array"):
        monkeypatch.setattr(codes, name, None)  # must not be reached
    for name in ("cell_matrices", "schubert_minors"):
        monkeypatch.setattr(grassmann, name, None)
    schubert = ["-q", "2", "-l", "2", "-m", "4", "--alpha", "2,4"]
    for suite in cli.SUITES:
        code, out, err = run(capsys, "verify", *schubert, "--suite", suite)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: --suite {suite} applies to Grassmann")
    code, out, err = run(capsys, "strings", *schubert)
    assert (code, out) == (1, "")
    assert err.startswith("error: the string partition applies to Grassmann")


def test_top_cell_alpha_is_the_grassmann_code(capsys):
    grassmann = ["-q", "2", "-l", "2", "-m", "4"]
    for argv in (["verify", "--suite", "all"], ["strings"]):
        _, plain, _ = run(capsys, *argv, *grassmann)
        code, out, _ = run(capsys, *argv, *grassmann, "--alpha", "3,4")
        assert code == 0 and out == plain


@pytest.mark.parametrize("field,ell,m", [("2", 3, 6), ("2", 2, 7),
                                         ("3", 2, 5), ("5", 2, 4),
                                         ("2^2", 2, 4), ("2", 1, 4),
                                         ("3", 3, 4), ("2", 4, 6),
                                         ("2^3", 1, 3)])
def test_wdist_output_is_the_sweep_histogram(capsys, field, ell, m):
    # the split route prints, byte for byte, what the sweep's histogram
    # gives in JSON and CSV
    spec = codes.CodeSpec(GF.from_string(field), ell, m)
    weights, hist = np.unique(codes.weight_array(codes.Code(spec)),
                              return_counts=True)
    swept = codes.WeightDistribution(spec, dict(zip(weights.tolist(),
                                                    hist.tolist())))
    argv = ["wdist", "-q", field, "-l", str(ell), "-m", str(m)]
    assert run(capsys, *argv) == (
        0, json.dumps(swept.to_json_dict(), indent=2) + "\n", "")
    assert run(capsys, *argv, "--format", "csv") == (0, swept.to_csv(), "")


# strings with the characters json escapes: quote, backslash, controls,
# non-ASCII and lone surrogates
_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é'),
                          st.characters(blacklist_categories=())))
_SCALARS = st.one_of(st.none(), st.booleans(), st.floats(), _TEXT,
                     st.integers(), st.integers(-2**80, 2**80))
# int, bool and None keys stringify, so {1: .., "1": ..} keeps one key
_KEYS = st.one_of(_TEXT, st.integers(-5, 5), st.booleans(), st.none(),
                  st.sampled_from(["1", "True", "None"]))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=5), st.lists(inner, max_size=5).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=5)), max_leaves=30))
def test_json_chunks_match_the_oracle(obj):
    text = "".join(cli._json_chunks(obj))
    assert text == json.dumps(cli._jsonify(obj), indent=2)


def test_json_chunks_hold_a_bounded_text():
    # a report list is written in pieces, none of them the whole document
    obj = {"pass": True, "reports": [{"suite": "zanella", "n": i,
                                      "counts": list(range(i % 7))}
                                     for i in range(5000)]}
    chunks = list(cli._json_chunks(obj))
    text = "".join(chunks)
    assert text == json.dumps(cli._jsonify(obj), indent=2)
    assert max(map(len, chunks)) < len(text) / 4
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        "".join(cli._json_chunks({"x": [np.int64(1)]}))


@pytest.mark.parametrize("argv", [
    ["params", "-q", "3", "-l", "2", "-m", "5"],
    ["params", "-q", "2", "-l", "2", "-m", "4", "--alpha", "1,4"],
    ["wdist", "-q", "3", "-l", "2", "-m", "4"],
    ["wdist", "-q", "2", "-l", "2", "-m", "4", "--alpha", "2,4"],
    ["verify", "-q", "2", "-l", "2", "-m", "4", "--suite", "all"],
    ["verify", "-q", "2", "-l", "2", "-m", "5", "--suite", "zanella"],
    ["verify", "-q", "3", "-l", "2", "-m", "4", "--suite", "strings"],
    ["decompose", "-q", "3", "-l", "2", "-m", "4", "-f", "X:1,2 + 2*X:1,3"],
    ["decompose", "-q", "2", "-l", "2", "-m", "4", "-f", "X:1,2 + X:3,4"],
    ["strings", "-q", "2^2", "-l", "2", "-m", "4"],
    ["strings", "-q", "3", "-l", "2", "-m", "4", "--full"]],
    ids=" ".join)
def test_json_output_is_the_oracle(capsys, monkeypatch, tmp_path, argv):
    # stdout, and the -o file where the command takes one, are
    # json.dumps(_jsonify(...), indent=2) of what the command wrote
    written = []

    def recorded(obj, _chunks=cli._json_chunks):
        written.append(obj)
        return _chunks(obj)
    monkeypatch.setattr(cli, "_json_chunks", recorded)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and len(written) == 1
    oracle = json.dumps(cli._jsonify(written[0]), indent=2)
    assert out == oracle + "\n"
    if argv[0] in ("wdist", "verify"):
        path = tmp_path / "out.json"
        assert run(capsys, *argv, "-o", str(path)) == (0, "", "")
        assert path.read_text() == oracle


def test_all_class_report_written_as_it_is_made(capsys):
    # 1023 Zanella reports, 0.75 MB of JSON: holding the stringified copy
    # and the whole text peaked at 8.4 MiB (stdout captured)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "-q", "2", "-l", "2", "-m", "5",
                           "--suite", "zanella")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(json.loads(out)["reports"]) == 1023
    assert peak < 4.2 * 2**20
