import json
import tracemalloc

from grasscodes import codes
from grasscodes.cli import main


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


def test_strings_partition(capsys):
    code, out, _ = run(capsys, "strings", "-q", "2", "-l", "2", "-m", "4")
    assert code == 0
    data = json.loads(out)
    assert data["sub_grassmannian_points"] == "7"
    assert len(data["fibers"]) == 4
    assert all(v == "7" for v in data["fibers"].values())


def test_usage_error_exit_one(capsys):
    code, _, err = run(capsys, "params", "-q", "2", "-l", "2")
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "params", "-q", "six", "-l", "2", "-m", "4")
    assert code == 1
    code, _, err = run(capsys, "params", "-q", "2", "-l", "5", "-m", "4")
    assert code == 1


def test_budget_exit_two(capsys):
    code, _, err = run(capsys, "wdist", "-q", "2", "-l", "3", "-m", "6",
                       "--budget", "1000")
    assert code == 2 and "budget" in err


def test_prime_power_field_order(capsys):
    _, out1, _ = run(capsys, "wdist", "-q", "4", "-l", "2", "-m", "4")
    _, out2, _ = run(capsys, "wdist", "-q", "2^2", "-l", "2", "-m", "4")
    assert json.loads(out1)["spec"]["q"] == 4
    assert out1 == out2
    for bad in ("6", "1", "six"):
        code, _, err = run(capsys, "params", "-q", bad, "-l", "2", "-m", "4")
        assert code == 1 and "error" in err


def test_memory_ceiling_exit_two(capsys, monkeypatch):
    monkeypatch.setattr(codes, "point_table", None)  # must not be reached
    tracemalloc.start()
    try:
        for argv in (["wdist"], ["verify", "--suite", "nogin"]):
            code, _, err = run(capsys, *argv, "-q", "4", "-l", "2", "-m", "6",
                               "--budget", str(10**20))
            assert code == 2 and "bytes" in err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PLUCKER_BUDGET", "1000")
    code, _, err = run(capsys, "wdist", "-q", "2", "-l", "2", "-m", "4")
    assert code == 2
    monkeypatch.setenv("PLUCKER_BUDGET", "100000")
    code, out, _ = run(capsys, "wdist", "-q", "2", "-l", "2", "-m", "4")
    assert code == 0
    # explicit flag beats the environment
    monkeypatch.setenv("PLUCKER_BUDGET", "1000")
    code, _, _ = run(capsys, "wdist", "-q", "2", "-l", "2", "-m", "4",
                     "--budget", "100000")
    assert code == 0


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


def test_unwritable_output_path(capsys, tmp_path):
    code, _, err = run(capsys, "wdist", "-q", "2", "-l", "2", "-m", "4",
                       "-o", str(tmp_path / "missing" / "x.json"))
    assert code == 1
    assert err.startswith("error: ")
