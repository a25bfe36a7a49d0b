import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msnlib.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out.rstrip("\n")


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"P": [["1/2", "1/2"], ["2/3", "1/3"]], "M": [1]}))
    return str(path)


@pytest.fixture
def absorbing_file(tmp_path):
    """State 2, the complement of M, is absorbing: I - P_N is singular."""
    path = tmp_path / "absorbing.json"
    path.write_text(json.dumps({"P": [["1/2", "1/2"], ["0", "1"]], "M": [1]}))
    return str(path)


@pytest.fixture
def absorbing_m_file(tmp_path):
    """State 1, all of M, is absorbing: I - P_M is singular."""
    path = tmp_path / "absorbing_m.json"
    path.write_text(json.dumps({"P": [["1", "0"], ["1/2", "1/2"]], "M": [1]}))
    return str(path)


class TestScalarCommands:
    def test_msn(self, capsys):
        assert invoke(capsys, "msn", "3", "2", "1") == (0, "12")

    def test_msn_diagonal_factorial(self, capsys):
        assert invoke(capsys, "msn", "4", "4", "7") == (0, "24")

    def test_msn_rational_k(self, capsys):
        code, out = invoke(capsys, "msn", "2", "1", "-1/2")
        assert code == 0 and out == "0"

    def test_msn1(self, capsys):
        assert invoke(capsys, "msn1", "2", "1", "1") == (0, "-3")

    def test_json_envelope(self, capsys):
        code, out = invoke(capsys, "msn", "3", "2", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "msn"
        assert doc["result"]["value"] == "12"
        assert doc["status"] == {"code": "ok", "message": ""}
        assert doc["inputs"] == {"i": 3, "j": 2, "k": "1"}

    def test_value_beyond_the_int_digit_limit_is_printed(self, capsys):
        # b(30000, 2, 1) = 3^30000 - 2^30001 + 1 has 14314 digits, more than
        # Python's default limit of 4300 for int <-> str conversion
        limit = sys.get_int_max_str_digits()
        code, out = invoke(capsys, "msn", "30000", "2", "1")
        assert code == 0
        assert len(out) == 14314
        value = 0
        for start in range(0, len(out), 1000):
            chunk = out[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == 3**30000 - 2**30001 + 1
        assert sys.get_int_max_str_digits() == limit

    def test_literal_beyond_the_int_digit_limit_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["msn", "1", "1", "1" * 5000])
        assert exc.value.code == 2
        assert "Exceeds the limit" in capsys.readouterr().err


class TestTable:
    def test_text(self, capsys):
        code, out = invoke(capsys, "table", "2", "0")
        assert code == 0
        assert out.splitlines() == ["i=0: 1", "i=1: 0 1", "i=2: 0 1 2"]

    def test_csv(self, capsys):
        code, out = invoke(capsys, "table", "2", "1/2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,j0,j1,j2"
        assert lines[1] == "0,1"

    def test_json_round_trip(self, capsys):
        code, out = invoke(capsys, "table", "3", "1/3", "--format", "json")
        doc = json.loads(out)
        assert doc["result"]["k"] == "1/3"
        assert doc["result"]["rows"][3][0] == "1/27"

    def test_csv_header_stops_at_the_last_row(self, capsys):
        code, out = invoke(capsys, "table", "3", "1", "--jmax", "10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i,j0,j1,j2,j3"
        assert lines[-1] == "3,1,7,12,6"

    def test_json_jmax_is_clamped_to_imax(self, capsys):
        argv = ("table", "3", "1", "--jmax", "10", "--format", "json")
        code, out = invoke(capsys, *argv)
        doc = json.loads(out)
        assert doc["result"]["j_max"] == 3
        assert len(doc["result"]["rows"]) == 4


class TestInvcheck:
    def test_pass_verdict(self, capsys):
        code, out = invoke(capsys, "invcheck", "6", "1", "1/2")
        assert code == 0
        assert out.endswith("PASS")

    def test_json(self, capsys):
        code, out = invoke(capsys, "invcheck", "4", "2", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["result"]["pass"] is True
        # product at equal shifts is the identity
        assert doc["result"]["product"][2][2] == "1"
        assert doc["result"]["product"][3][1] == "0"


class TestGfCheck:
    def test_all(self, capsys):
        code, out = invoke(
            capsys, "gf-check", "--jmax", "3", "--kset=-1,0,1/2,2", "--order", "8"
        )
        assert code == 0
        lines = out.splitlines()
        assert [l.split(":")[0] for l in lines] == ["ogf", "egf", "bgf"]
        assert all("PASS" in l for l in lines)

    def test_single(self, capsys):
        code, out = invoke(
            capsys, "gf-check", "--which", "egf", "--jmax", "2", "--kset=0,1", "--order", "6"
        )
        assert code == 0 and out.startswith("egf: PASS")


class TestIdentitySuite:
    def test_small_run_all_pass(self, capsys):
        code, out = invoke(capsys, "identity-suite", "--imax", "5", "--order", "5")
        assert code == 0
        assert out.endswith("ALL PASS")
        assert "a17" in out

    def test_json(self, capsys):
        code, out = invoke(
            capsys, "identity-suite", "--imax", "4", "--order", "4", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["result"]["all_pass"] is True
        labels = {entry["label"] for entry in doc["result"]["identities"]}
        assert {"a8", "a17", "a46", "ogf", "comb"} <= labels


    @pytest.mark.parametrize(
        "argv",
        [["--imax", "4"], ["--imax", "12", "--order", "20"]],
        ids=["imax4", "imax12-order20"],
    )
    def test_order_beyond_imax(self, capsys, argv):
        code, out = invoke(capsys, "identity-suite", *argv)
        assert code == 0
        assert out.endswith("ALL PASS")


class TestMarkov:
    def test_methods_agree(self, capsys, chain_file):
        outs = {}
        for method in ("recursive", "closed", "convolved", "commutable"):
            code, out = invoke(
                capsys,
                "markov", "--chain", chain_file, "--var", "R", "--k", "1",
                "--m", "2", "--method", method,
            )
            assert code == 0
            outs[method] = out
        assert len(set(outs.values())) == 1

    @pytest.mark.parametrize("var", ["N", "R"])
    def test_commutable_k1_on_noncommutable_chain(self, capsys, tmp_path, var):
        """At --k 1 the commutable forms are the closed forms, which hold on
        every chain; at --k 2 the same chain still fails the precondition."""
        path = tmp_path / "noncommutable.json"
        path.write_text(json.dumps({
            "P": [["1/2", "1/4", "1/4"], ["1/3", "1/3", "1/3"], ["1/5", "3/5", "1/5"]],
            "M": [1, 2],
        }))
        argv = ["markov", "--chain", str(path), "--var", var, "--m", "3"]
        closed = invoke(capsys, *argv, "--k", "1", "--method", "closed")
        assert invoke(capsys, *argv, "--k", "1", "--method", "commutable") == closed
        assert closed[0] == 0
        if var == "N":
            assert closed[1] == "1837/9\n1598/9"
        code, out = invoke(capsys, *argv, "--k", "2", "--method", "commutable")
        assert code == 3 and "not M-commutable" in out

    def test_convolved_k2(self, capsys, chain_file):
        code, out = invoke(
            capsys,
            "markov", "--chain", chain_file, "--var", "N", "--k", "2", "--m", "1",
        )
        assert code == 0 and out == "13/3"

    def test_barred_variable(self, capsys, chain_file):
        code, out = invoke(
            capsys,
            "markov", "--chain", chain_file, "--var", "Rbar", "--k", "1",
            "--m", "1", "--method", "closed",
        )
        assert code == 0 and out == "7/3"

    def test_recursive_rejects_higher_k(self, capsys, chain_file):
        code, out = invoke(
            capsys,
            "markov", "--chain", chain_file, "--var", "N", "--k", "2", "--m", "1",
            "--method", "recursive",
        )
        assert code == 3 and "precondition" in out

    def test_absorbing_chain_exits_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"P": [["1", "0"], ["0", "1"]], "M": [1]}))
        code, out = invoke(
            capsys, "markov", "--chain", str(path), "--var", "N", "--k", "1", "--m", "1"
        )
        assert code == 3

    def test_json_status_on_precondition(self, capsys, chain_file):
        code, out = invoke(
            capsys,
            "markov", "--chain", chain_file, "--var", "N", "--k", "3", "--m", "1",
            "--method", "recursive", "--format", "json",
        )
        assert code == 3
        doc = json.loads(out)
        assert doc["status"]["code"] == "precondition-failed"

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["--var", "N", "--k", "3", "--m", "1"], "4"),
            (["--var", "N", "--k", "3", "--m", "2"], "18"),
            (["--var", "Rbar", "--k", "1", "--m", "1", "--method", "recursive"],
             "1"),
            (["--var", "Rbar", "--k", "2", "--m", "2"], "4"),
        ],
    )
    def test_absorbing_complement_accepted(self, capsys, absorbing_file, argv, want):
        # N_k = N_1 + (k - 1) with N_1 geometric(1/2), and Rbar_k = k surely
        assert invoke(capsys, "markov", "--chain", absorbing_file, *argv) == (0, want)

    @pytest.mark.parametrize("var", ["R", "Nbar"])
    def test_absorbing_complement_needs_its_resolvent(
        self, capsys, absorbing_file, var
    ):
        code, out = invoke(
            capsys,
            "markov", "--chain", absorbing_file, "--var", var, "--k", "1", "--m", "1",
        )
        assert code == 3
        assert out.startswith("precondition failed: I - P_N is singular")

    @pytest.mark.parametrize("method", ["convolved", "closed", "recursive"])
    @pytest.mark.parametrize("m, want", [("1", "2"), ("2", "6")])
    def test_absorbing_m_accepted(self, capsys, absorbing_m_file, method, m, want):
        # Nbar_1 is geometric(1/2): mean 2, second moment 6
        argv = ["--var", "Nbar", "--k", "1", "--m", m, "--method", method]
        assert invoke(capsys, "markov", "--chain", absorbing_m_file, *argv) == (0, want)

    def test_absorbing_m_second_passage(self, capsys, absorbing_m_file):
        # Nbar_2 = Nbar_1 + 1 surely, so E[Nbar_2^2] = 6 + 2 * 2 + 1
        argv = ["--var", "Nbar", "--k", "2", "--m", "2"]
        assert invoke(capsys, "markov", "--chain", absorbing_m_file, *argv) == (0, "11")

    @pytest.mark.parametrize("var", ["N", "Rbar"])
    def test_absorbing_m_needs_its_resolvent(self, capsys, absorbing_m_file, var):
        code, out = invoke(
            capsys,
            "markov", "--chain", absorbing_m_file, "--var", var, "--k", "1", "--m", "1",
        )
        assert code == 3
        assert out.startswith("precondition failed: I - P_M is singular")

    @pytest.mark.parametrize(
        "chain, field",
        [
            ({"P": [[0.5, 0.5], ["1/2", "1/2"]], "M": [1]}, "'P' must be an exact rational"),
            ({"P": [["1/2", "1/2"], ["1", "0"]], "M": [1.9]}, "'M' must be an integer"),
            ({"P": [["1/2", "1/2"], ["1", "0"]], "M": [True]}, "'M' must be an integer"),
        ],
    )
    def test_inexact_chain_field_exits_3_naming_it(self, capsys, tmp_path, chain, field):
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(chain))
        code, out = self._markov_on(capsys, path)
        assert code == 3
        assert out.startswith(f"precondition failed: field {field}, got ")

    @pytest.mark.parametrize(
        "chain, message",
        [
            ({"P": [["1/2", "1/2"], ["1/3", "2/3"]], "M": 1}, "'M' must be a list, got 1"),
            (
                {"P": [["1/2", "1/2"], ["1/3", "2/3"]], "M": [[1]]},
                "'M' must be an integer, got [1]",
            ),
            ({"P": [1, 2], "M": [1]}, "'P' must be a list, got 1"),
            ({"P": [[["1"]]], "M": [1]}, "'P' must be an exact rational, got ['1']"),
        ],
    )
    def test_misshapen_chain_field_exits_3_naming_it(self, capsys, tmp_path, chain, message):
        path = tmp_path / "misshapen.json"
        path.write_text(json.dumps(chain))
        assert self._markov_on(capsys, path) == (3, f"precondition failed: field {message}")

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([], "matrix must have positive dimensions"),
            ([[]], "matrix must have positive dimensions"),
            ([["1/2", "1/2"], ["1"]], "rows have inconsistent lengths"),
        ],
    )
    def test_misshapen_matrix_exits_3(self, capsys, tmp_path, matrix, message):
        path = tmp_path / "misshapen.json"
        path.write_text(json.dumps({"P": matrix, "M": [1]}))
        assert self._markov_on(capsys, path) == (3, f"precondition failed: {message}")

    def _markov_on(self, capsys, path):
        return invoke(
            capsys, "markov", "--chain", str(path), "--var", "N", "--k", "1", "--m", "1"
        )

    def test_missing_chain_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out = self._markov_on(capsys, path)
        assert code == 3
        assert str(path) in out and "No such file" in out

    def test_unreadable_chain_file_exits_3(self, capsys, tmp_path):
        # a directory cannot be opened as a file, whatever the user's rights
        code, out = self._markov_on(capsys, tmp_path)
        assert code == 3
        assert str(tmp_path) in out and "cannot read chain file" in out

    def test_invalid_json_chain_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"P": [["1/2", "1/2"]')
        code, out = self._markov_on(capsys, path)
        assert code == 3
        assert str(path) in out and "not valid JSON" in out


class TestDist:
    def test_negbinomial_raw(self, capsys):
        code, out = invoke(
            capsys, "dist", "--spec", '{"type":"negbinomial","p":"1/2","k":3}', "--m", "2"
        )
        assert code == 0
        assert out.splitlines() == ["m=0: 1", "m=1: 6", "m=2: 42"]

    def test_poisson_central_json(self, capsys):
        code, out = invoke(
            capsys,
            "dist", "--spec", '{"type":"poisson","lambda":"3/2"}',
            "--m", "3", "--central", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["result"]["moments"] == ["1", "0", "3/2", "3/2"]

    def test_bad_spec_exits_3(self, capsys):
        code, _ = invoke(
            capsys, "dist", "--spec", '{"type":"poisson","lambda":"0"}', "--m", "1"
        )
        assert code == 3


    def test_missing_field_exits_3_naming_it(self, capsys):
        code, out = invoke(
            capsys, "dist", "--spec", '{"type":"binomial","p":"1/3"}', "--m", "2"
        )
        assert code == 3
        assert out == "precondition failed: binomial spec needs field 'n'"


    @pytest.mark.parametrize(
        "spec, field",
        [
            ('{"type":"binomial","n":8,"p":0.5}', "'p' must be an exact rational"),
            ('{"type":"poisson","lambda":true}', "'lambda' must be an exact rational"),
            ('{"type":"binomial","n":3.9,"p":"1/2"}', "'n' must be an integer"),
            ('{"type":"binomial","n":"7/2","p":"1/2"}', "'n' must be an integer"),
            ('{"type":"negbinomial","p":"1/2","k":2.0}', "'k' must be an integer"),
            ('{"type":"uniform","N":true}', "'N' must be an integer"),
            ('{"type":"phasetype","a":[0.5],"A":[["1/2"]]}', "'a' must be an exact rational"),
            (
                '{"type":"recurrence","P":[["1/2","1/2"],["1","0"]],"M":[1.9]}',
                "'M' must be an integer",
            ),
        ],
    )
    def test_inexact_field_exits_3_naming_it(self, capsys, spec, field):
        code, out = invoke(capsys, "dist", "--spec", spec, "--m", "1")
        assert code == 3
        assert out.startswith(f"precondition failed: field {field}, got ")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"type":"phasetype","a":"1/2","A":[["1/2"]]}', "'a' must be a list, got '1/2'"),
            (
                '{"type":"phasetype","a":[["1/2"]],"A":[["1/2"]]}',
                "'a' must be an exact rational, got ['1/2']",
            ),
            ('{"type":"phasetype","a":["1/2"],"A":["1/2"]}', "'A' must be a list, got '1/2'"),
            (
                '{"type":"recurrence","P":[["1/2","1/2"],["1","0"]],"M":1}',
                "'M' must be a list, got 1",
            ),
        ],
    )
    def test_misshapen_field_exits_3_naming_it(self, capsys, spec, message):
        code, out = invoke(capsys, "dist", "--spec", spec, "--m", "1")
        assert (code, out) == (3, f"precondition failed: field {message}")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"type":"phasetype","a":[],"A":[]}', "matrix must have positive dimensions"),
            (
                '{"type":"phasetype","a":["1/2","1/2"],"A":[["1/2"]]}',
                "matrix must be square with the same dimension as a",
            ),
            (
                '{"type":"recurrence","P":[["1/2","1/2"],["2/3","1/3"]],"M":[1,2]}',
                "complement of M must be nonempty",
            ),
            ('{"type":"negbinomial","p":"1/3","k":0}', "k must be >= 1"),
            ('{"type":"nope"}', "unknown distribution type: 'nope'"),
        ],
    )
    def test_law_outside_its_domain_exits_3(self, capsys, spec, message):
        code, out = invoke(capsys, "dist", "--spec", spec, "--m", "1")
        assert (code, out) == (3, f"precondition failed: {message}")

    def test_integer_string_field_accepted(self, capsys):
        spec = '{"type":"binomial","n":"3","p":"1/2"}'
        assert invoke(capsys, "dist", "--spec", spec, "--m", "1") == (0, "m=0: 1\nm=1: 3/2")

    @pytest.mark.parametrize("spec", ["[1]", '"x"'])
    def test_non_object_spec_exits_3(self, capsys, spec):
        code, out = invoke(capsys, "dist", "--spec", spec, "--m", "2")
        assert code == 3
        assert out == "precondition failed: distribution spec must be a JSON object"


class TestSimulate:
    def test_runs_and_reports(self, capsys, chain_file):
        code, out = invoke(
            capsys,
            "simulate", "--chain", chain_file, "--var", "N", "--k", "1",
            "--reps", "5000", "--seed", "42",
        )
        assert code == 0
        assert "backend=numpy" in out

    def test_json(self, capsys, chain_file):
        code, out = invoke(
            capsys,
            "simulate", "--chain", chain_file, "--var", "N", "--k", "1",
            "--reps", "2000", "--seed", "1", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["result"]["completed"] == 2000
        assert len(doc["result"]["estimates"]) == 4

    @pytest.mark.parametrize(
        "chain, var, k, exact",
        [
            # M absorbing: Nbar_1 is geometric(1/2)
            ("absorbing_m_file", "Nbar", "1", (2, 6)),
            # complement absorbing: N_3 = N_1 + 2 with N_1 geometric(1/2)
            ("absorbing_file", "N", "3", (4, 18)),
        ],
    )
    def test_absorbing_chain_within_five_standard_errors(
        self, capsys, request, chain, var, k, exact
    ):
        code, out = invoke(
            capsys,
            "simulate", "--chain", request.getfixturevalue(chain), "--var", var,
            "--k", k, "--reps", "20000", "--seed", "7", "--format", "json",
        )
        assert code == 0
        estimates = json.loads(out)["result"]["estimates"]
        for est, want in zip(estimates, exact):
            assert abs(est["mean"] - want) <= 5 * est["std_error"]


@pytest.mark.parametrize(
    "start, message",
    [
        ("1/2,1/2", "start vector length 2 != side size 1"),
        ("1/2", "start must be a probability vector"),
    ],
)
def test_bad_start_vector_exits_3(capsys, chain_file, start, message):
    code, out = invoke(
        capsys, "simulate", "--chain", chain_file, "--var", "N", "--k", "1",
        "--reps", "10", "--seed", "1", "--start", start,
    )
    assert (code, out) == (3, f"precondition failed: {message}")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["msn", "3", "2", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["msn", "3", "2", "1/0"],
        ["table", "4", "1/0"],
        ["identity-suite", "--kset", "1/0"],
        ["identity-suite", "--imax", "-1"],
        ["identity-suite", "--order", "-3"],
        ["gf-check", "--jmax", "-1"],
        ["gf-check", "--order", "-1"],
        ["table", "4", "1", "--jmax", "-1"],
        ["msn", "-1", "2", "1"],
        ["msn", "3", "-2", "1"],
        ["msn1", "-2", "1", "1"],
        ["msn1", "2", "-1", "1"],
        ["table", "-1", "1"],
        ["invcheck", "-1", "1", "1"],
        ["markov", "--chain", "c.json", "--var", "N", "--k", "1", "--m", "-1"],
        ["dist", "--spec", '{"type":"poisson","lambda":"1"}', "--m", "-1"],
        ["identity-suite", "--imax", "2", "--order", "2", "--kset", ","],
        ["gf-check", "--kset", ","],
    ],
)
def test_bad_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert any(
        reason in err
        for reason in ("zero denominator", "must be nonnegative", "needs at least one value")
    )
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["markov", "--chain", "c.json", "--var", "N", "--k", "0", "--m", "1"],
         "--k: must be positive, got 0"),
        (["simulate", "--chain", "c.json", "--var", "N", "--k", "0", "--reps", "9",
          "--seed", "1"], "--k: must be positive, got 0"),
        (["simulate", "--chain", "c.json", "--var", "N", "--k", "1", "--reps", "0",
          "--seed", "1"], "--reps: must be positive, got 0"),
        (["simulate", "--chain", "c.json", "--var", "N", "--k", "1", "--reps", "9",
          "--seed", "1", "--max-steps", "0"], "--max-steps: must be positive, got 0"),
        (["simulate", "--chain", "c.json", "--var", "N", "--k", "1", "--reps", "9",
          "--seed", "-1"], "--seed: must be nonnegative, got -1"),
    ],
)
def test_out_of_range_count_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_zero_denominator_in_chain_file_exits_3(capsys, tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"P": [["1/0", "1/2"], ["1/2", "1/2"]], "M": [1]}))
    code, out = invoke(
        capsys, "markov", "--chain", str(path), "--var", "N", "--k", "1", "--m", "1"
    )
    assert code == 3
    assert out == "precondition failed: zero denominator in rational literal: '1/0'"


def test_zero_denominator_in_spec_exits_3(capsys):
    code, out = invoke(
        capsys, "dist", "--spec", '{"type":"poisson","lambda":"3/0"}', "--m", "1"
    )
    assert code == 3
    assert out == "precondition failed: zero denominator in rational literal: '3/0'"


def _child(*args):
    """A fresh interpreter running ``python *args`` on this checkout's src."""
    import os
    import subprocess
    from pathlib import Path

    # the child does not see pytest's pythonpath setting, so hand it src
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point(capsys):
    """``main`` freezes the heap and exits; the frozen heap drops no output
    and changes no exit code against the same argv through ``run``."""
    proc = _child("-m", "msnlib.cli", "msn", "5", "3", "0")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "150"
    for argv, code in [
        (["msn", "5", "3", "1/2", "--format", "json"], 0),
        (["msn", "3", "2", "0.5"], 2),
        (["dist", "--spec", '{"type":"poisson","lambda":"3/0"}', "--m", "1"], 3),
    ]:
        proc = _child("-m", "msnlib.cli", *argv)
        try:
            in_process = run(argv)
        except SystemExit as exc:  # argparse's usage error
            in_process = exc.code
        assert (proc.returncode, proc.stdout) == (in_process, capsys.readouterr().out)
        assert proc.returncode == code


def test_main_freezes_the_import_time_heap():
    """``main`` owns its process, so it moves the heap that the imports made
    out of every later collection; importing ``cli`` freezes nothing."""
    proc = _child(
        "-c",
        "import gc, sys\n"
        "from msnlib import cli\n"
        "print(gc.get_freeze_count())\n"
        "sys.argv = ['msnlib', 'msn', '3', '2', '1']\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count())\n",
    )
    before, value, code, after = proc.stdout.split()
    assert (before, value, code) == ("0", "12", "0")
    assert int(after) > 0


def test_run_freezes_nothing(capsys):
    """``run`` is the in-process API: the caller's heap stays collectable."""
    import gc

    before = gc.get_freeze_count()
    assert invoke(capsys, "msn", "3", "2", "1") == (0, "12")
    assert gc.get_freeze_count() == before


def test_exit_3_errors_share_one_base():
    """Exit 3 is one class: every error CLI input can cause derives from it."""
    import msnlib
    from msnlib import ChainError, SingularMatrixError, exact, markov
    from msnlib.simulate import TruncationError

    assert msnlib.PreconditionError is markov.PreconditionError is exact.PreconditionError
    for cls in (ChainError, SingularMatrixError, markov.CommutabilityError, TruncationError):
        assert issubclass(cls, exact.PreconditionError)
    assert issubclass(TruncationError, RuntimeError)


def test_internal_value_error_exits_1(capsys, chain_file, monkeypatch):
    """A ValueError that is no PreconditionError is a fault of the library,
    not of the input, so it exits 1."""
    from msnlib import markov

    def broken(*args):
        raise ValueError("shape mismatch")

    monkeypatch.setattr(markov, "_passage_sum", broken)
    code, out = invoke(
        capsys, "markov", "--chain", chain_file, "--var", "N", "--k", "1", "--m", "2",
        "--method", "closed",
    )
    assert (code, out) == (1, "error: shape mismatch")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_invcheck_exits_1_and_keeps_its_payload(capsys, monkeypatch, fmt):
    from msnlib import cli

    real = cli.inversion_matrix
    monkeypatch.setattr(cli, "inversion_matrix", lambda b, c, n: real(b, c, n) * 2)
    code, out = invoke(capsys, "invcheck", "3", "1", "1/2", "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[-1] == "FAIL"
        return
    doc = json.loads(out)
    assert doc["status"] == {"code": "error", "message": "verification failed"}
    assert doc["result"]["pass"] is False
    assert doc["result"]["product"][0][0] == "2"
    assert doc["result"]["expected"][0][0] == "1"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_failed_identity_exits_1_and_keeps_its_payload(capsys, monkeypatch, fmt):
    from msnlib import identities

    def planted(ctx):
        raise identities.IdentityFailure("a8: planted failure")

    checks = [
        (label, planted if label == "a8" else fn) for label, fn in identities.IDENTITY_CHECKS
    ]
    monkeypatch.setattr(identities, "IDENTITY_CHECKS", checks)
    code, out = invoke(capsys, "identity-suite", "--imax", "2", "--order", "2", "--format", fmt)
    assert code == 1
    if fmt == "text":
        lines = out.splitlines()
        assert lines[-1] == "FAILURES PRESENT"
        assert [line.split()[:2] for line in lines if "FAIL " in line] == [["a8", "FAIL"]]
        return
    doc = json.loads(out)
    assert doc["status"] == {"code": "error", "message": "verification failed"}
    assert doc["result"]["all_pass"] is False
    entries = doc["result"]["identities"]
    assert len(entries) == len(checks)
    failed = [entry for entry in entries if not entry["ok"]]
    assert failed == [{"label": "a8", "ok": False, "cases": 0, "detail": "a8: planted failure"}]


def test_invalid_json_spec_exits_3(capsys):
    code, out = invoke(capsys, "dist", "--spec", '{"type":', "--m", "1")
    assert (code, out) == (3, "precondition failed: Expecting value: line 1 column 9 (char 8)")


# Chain files for the exit-code property: well-formed chains, and one of
# each way a file can be malformed or degenerate.
_PROPERTY_CHAINS = {
    "two-state": {"P": [["1/2", "1/2"], ["2/3", "1/3"]], "M": [1]},
    "three-state": {
        "P": [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], ["0", "1/2", "1/2"]],
        "M": [1, 2],
    },
    "periodic": {"P": [["0", "1"], ["1", "0"]], "M": [1]},
    "empty-object": {},
    "empty-matrix": {"P": [], "M": [1]},
    "empty-row": {"P": [[]], "M": [1]},
    "ragged": {"P": [["1/2", "1/2"], ["1"]], "M": [1]},
    "non-square": {"P": [["1/2", "1/2"]], "M": [1]},
    "negative-entry": {"P": [["3/2", "-1/2"], ["1/2", "1/2"]], "M": [1]},
    "row-sum": {"P": [["1/2", "1/3"], ["2/3", "1/3"]], "M": [1]},
    "duplicate-M": {"P": [["1/3"] * 3] * 3, "M": [1, 1]},
    "out-of-range-M": {"P": [["1/2", "1/2"], ["2/3", "1/3"]], "M": [3]},
    "all-M": {"P": [["1/2", "1/2"], ["2/3", "1/3"]], "M": [1, 2]},
    "absorbing-N": {"P": [["1/2", "1/2"], ["0", "1"]], "M": [1]},
    "absorbing-M": {"P": [["1", "0"], ["1/2", "1/2"]], "M": [1]},
    "float-entry": {"P": [[0.5, 0.5], [0.5, 0.5]], "M": [1]},
    "zero-denominator": {"P": [["1/0", "1/2"], ["2/3", "1/3"]], "M": [1]},
}
_PROPERTY_TEXTS = {"empty-file": "", "invalid-json": "{"}
_SPECS = [
    '{"type":"binomial","n":3,"p":"1/2"}',
    '{"type":"binomial","p":"1/2"}',
    '{"type":"binomial","n":-1,"p":"1/2"}',
    '{"type":"binomial","n":3,"p":"3/2"}',
    '{"type":"poisson","lambda":"0"}',
    '{"type":"poisson","lambda":"5/2"}',
    '{"type":"negbinomial","p":"1/3","k":0}',
    '{"type":"altnegbinomial","p":"1/2","q":"1","k":2}',
    '{"type":"uniform","N":0}',
    '{"type":"uniform","N":1.5}',
    '{"type":"phasetype","a":[],"A":[]}',
    '{"type":"phasetype","a":["1"],"A":[["1"]]}',
    '{"type":"phasetype","a":["1/2","1/2"],"A":[["1/2"]]}',
    '{"type":"phasetype","a":["1"],"A":[["1/2"],["1/2"]]}',
    '{"type":"recurrence","P":[["1/2","1/2"],["2/3","1/3"]],"M":[1]}',
    '{"type":"recurrence","P":[["1/2","1/2"],["2/3","1/3"]],"M":[1,2]}',
    '{"type":"recurrence","P":[["1","0"],["1/2","1/2"]],"M":[1]}',
    '{"type":"recurrence","P":[["1/3","1/3","1/3"],["1/2","1/2","0"],["0","0","1"]],"M":[1,2]}',
    '{"type":"nope"}',
    "[]",
    "null",
    "{",
    "",
]
_RATIONALS = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2/3", "7", "1/0", "0.5"])
_VARIABLES = st.sampled_from(["N", "R", "Nbar", "Rbar"])


def _small(high):
    return st.integers(0, high).map(str)


def _option(name, values):
    return st.one_of(values.map(lambda v: [name, v]), st.just([]))


@st.composite
def _cli_argv(draw, command):
    """Arguments for ``command``, with the chain file given by its name or
    as the JSON object to write."""
    if command in ("msn", "msn1"):
        args = [draw(_small(6)), draw(_small(6)), draw(_RATIONALS)]
    elif command == "table":
        args = [draw(_small(6)), draw(_RATIONALS), *draw(_option("--jmax", _small(8)))]
    elif command == "invcheck":
        args = [draw(_small(4)), draw(_RATIONALS), draw(_RATIONALS)]
    elif command == "gf-check":
        which = st.sampled_from(["ogf", "egf", "bgf", "all"])
        kset = st.lists(_RATIONALS, min_size=1, max_size=3).map(",".join)
        args = ["--which", draw(which), "--jmax", draw(_small(3)),
                "--order", draw(_small(4)), *draw(_option("--kset", kset))]
    elif command == "identity-suite":
        args = ["--imax", draw(_small(4)), "--order", draw(_small(4)),
                "--kset", draw(_RATIONALS)]
    elif command == "dist":
        args = ["--spec", draw(st.sampled_from(_SPECS)), "--m", draw(_small(4))]
        args += draw(st.sampled_from([[], ["--central"]]))
    else:
        # a third of the draws read a well-formed chain, so the runs succeed
        # too; the generated files are mostly ragged, non-square or not
        # stochastic, with M anywhere in -1..4
        good = ["two-state", "three-state", "periodic"]
        bad = sorted({*_PROPERTY_CHAINS, *_PROPERTY_TEXTS, "missing-file"} - {*good})
        entries = st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "-1/2", "3/2", 0.5])
        generated = st.fixed_dictionaries(
            {
                "P": st.lists(st.lists(entries, max_size=3), max_size=3),
                "M": st.lists(st.integers(-1, 4), max_size=3),
            }
        )
        chain = draw(st.one_of(st.sampled_from(good), st.sampled_from(bad), generated))
        args = ["--chain", chain, "--var", draw(_VARIABLES)]
        if command == "markov":
            methods = st.sampled_from(["recursive", "closed", "commutable", "convolved"])
            args += ["--k", str(draw(st.integers(1, 3))), "--m", draw(_small(3)),
                     "--method", draw(methods)]
        else:
            # --start must match the side of the chain the walks start on,
            # so a list of one to three entries is often of the wrong length
            start = st.lists(_RATIONALS, min_size=1, max_size=3).map(",".join)
            args += ["--k", str(draw(st.integers(1, 2))),
                     "--reps", str(draw(st.integers(1, 200))), "--seed", draw(_small(9)),
                     "--max-steps", str(draw(st.integers(1, 500))),
                     *draw(_option("--start", start))]
    formats = ["text", "json", "csv"] if command == "table" else ["text", "json"]
    return [command, *args, "--format", draw(st.sampled_from(formats))]


@pytest.fixture(scope="module")
def property_chains(tmp_path_factory):
    folder = tmp_path_factory.mktemp("chains")
    for name, obj in _PROPERTY_CHAINS.items():
        (folder / f"{name}.json").write_text(json.dumps(obj))
    for name, text in _PROPERTY_TEXTS.items():
        (folder / f"{name}.json").write_text(text)
    return folder


def _verdict(out: str) -> bool:
    """Whether ``out`` reports a verification that ran and failed."""
    if out.startswith("{"):
        return json.loads(out)["status"]["message"] == "verification failed"
    return out.endswith(("\nFAIL", "FAILURES PRESENT"))


# The commands that read a file or a spec have the most ways to fail, so
# they get the most examples.  The identity battery's fixed-size checks cost
# about 0.3 s a run whatever --imax is, so it gets few, each with one k.
_EXAMPLES = {
    "msn": 20, "msn1": 20, "table": 20, "invcheck": 20, "gf-check": 20,
    "identity-suite": 4, "markov": 80, "dist": 50, "simulate": 80,
}


@pytest.mark.parametrize("command", list(_EXAMPLES))
def test_exit_code_contract(property_chains, command):
    """Exit 0 ok, 2 usage, 3 precondition, 1 only a failed verification, and
    never a traceback, over every subcommand and malformed input."""

    @settings(max_examples=_EXAMPLES[command], deadline=None, derandomize=True)
    @given(argv=_cli_argv(command))
    def check(argv):
        argv = list(argv)
        if "--chain" in argv:
            at = argv.index("--chain") + 1
            if isinstance(argv[at], dict):
                (property_chains / "generated.json").write_text(json.dumps(argv[at]))
                argv[at] = "generated"
            argv[at] = str(property_chains / f"{argv[at]}.json")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        out, err = out.getvalue().rstrip("\n"), err.getvalue()
        assert "Traceback" not in out + err
        assert code in (0, 2, 3) or (code == 1 and _verdict(out)), (code, out, err)
        if code == 3 and argv[-1] == "text":
            assert out.startswith("precondition failed: ")

    check()
