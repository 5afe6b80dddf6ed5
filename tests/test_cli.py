import json

import pytest

from nilgo import algebra_from_dict, algebra_to_dict, validate
from nilgo.cli import main

FAMILY_ARGS = [
    ("heisenberg", ["--k", "2"]),
    ("quaternionic_heisenberg", ["--k", "1"]),
    ("h_type_clifford", ["--m", "5"]),
    ("n10", ["--t", "2"]),
    ("n10", ["--t", "3/2"]),
    ("n10_second", []),
    ("thm2", ["--ts", "2,3"]),
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestFamilyValidate:
    @pytest.mark.parametrize("kind,extra", FAMILY_ARGS)
    def test_round_trip(self, capsys, tmp_path, kind, extra):
        path = tmp_path / "alg.json"
        code, _ = run(capsys, "family", kind, *extra, "-o", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        L = algebra_from_dict(doc)
        assert validate(L).passed
        code, out = run(capsys, "validate", str(path))
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_metric_flag(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        code, _ = run(capsys, "family", "n10", "--t", "2", "--metric", "2,1,3", "-o", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["gram"][0][:2] == [2, 1]


class TestGoCheck:
    def test_verified_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(path))
        code, out = run(capsys, "go-check", str(path), "--samples", "10")
        assert code == 0
        assert json.loads(out)["status"] == "verified_sampled"

    def test_refuted_exit_one_with_witness(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "h_type_clifford", "--m", "4", "-o", str(path))
        code, out = run(capsys, "go-check", str(path), "--samples", "5")
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "refuted"
        assert doc["witness"] is not None

    def test_kv_criterion(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "heisenberg", "--k", "1", "-o", str(path))
        code, out = run(capsys, "go-check", str(path), "--criterion", "kv", "--samples", "10")
        assert code == 0


class TestAnalysis:
    def test_pfaffian(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(path))
        code, out = run(capsys, "pfaffian", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True
        assert doc["coeffs"] == ["1", "0", "5", "0", "4"]

    def test_invariant_distinct(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(a))
        run(capsys, "family", "n10", "--t", "3", "-o", str(b))
        code, out = run(capsys, "invariant", str(a), str(b))
        assert code == 0
        assert json.loads(out)["verdict"] == "distinct"

    def test_derivations(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "heisenberg", "--k", "1", "-o", str(path))
        code, out = run(capsys, "derivations", str(path))
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_tnc_from_algebra(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(path))
        code, out = run(capsys, "tnc", str(path), "--nprime", "centralizer", "--samples", "5")
        assert code == 0
        assert json.loads(out)["status"] == "verified_sampled"

    def test_tnc_from_subspace_document(self, capsys, tmp_path):
        doc = {"n": 2, "basis": [[[0.0, 1.0], [-1.0, 0.0]]]}
        path = tmp_path / "sub.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "tnc", str(path), "--nprime", "self", "--samples", "5")
        assert code == 0

    def test_geodesic_compare_json(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "heisenberg", "--k", "1", "-o", str(path))
        code, out = run(capsys, "geodesic-compare", str(path), "--x0", "1,1,1", "--step", "0.05")
        assert code == 0
        doc = json.loads(out)
        assert doc["sup_deviation"] < 1e-6

    def test_geodesic_compare_csv(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "heisenberg", "--k", "1", "-o", str(path))
        code, out = run(capsys, "geodesic-compare", str(path), "--x0", "1,0,0",
                        "--step", "0.25", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,deviation"
        assert len(lines) == 6


class TestErrors:
    def test_malformed_json_exit_64(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _ = run(capsys, "validate", str(path))
        assert code == 64

    def test_missing_fields_exit_64(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 2}))
        code, _ = run(capsys, "validate", str(path))
        assert code == 64

    def test_bad_family_parameter(self, capsys):
        code, _ = run(capsys, "family", "n10", "--t", "1/2")
        assert code == 64

    def test_internal_error_exit_70_with_traceback(self, capsys, tmp_path, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("nilgo.cli.cmd_validate", broken)
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 1, "brackets": [], "gram": [[1]]}))
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert code == 70
        assert captured.out == ""
        assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err

    def test_stdin_input(self, capsys, tmp_path, monkeypatch):
        import io

        doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1}}],
               "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, out = run(capsys, "validate", "-")
        assert code == 0
        assert json.loads(out)["nilpotency_class"] == 2


# Gram entries that make the n10(2) metric indefinite or singular
BAD_GRAMS = {
    "indefinite": {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): 1},
    "singular": {(0, 0): 0},
}


class TestInputGates:
    @staticmethod
    def _n10_with_gram(capsys, tmp_path, kind):
        path = tmp_path / "alg.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(path))
        doc = json.loads(path.read_text())
        for (i, j), v in BAD_GRAMS[kind].items():
            doc["gram"][i][j] = v
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("criterion", ["gordon", "kv"])
    @pytest.mark.parametrize("kind", sorted(BAD_GRAMS))
    def test_non_spd_gram_go_check_exit_64(self, capsys, tmp_path, criterion, kind):
        path = self._n10_with_gram(capsys, tmp_path, kind)
        code, out = run(capsys, "go-check", path, "--criterion", criterion, "--samples", "5")
        assert code == 64
        assert out == ""

    @pytest.mark.parametrize("kind", sorted(BAD_GRAMS))
    def test_non_spd_gram_tnc_exit_64(self, capsys, tmp_path, kind):
        path = self._n10_with_gram(capsys, tmp_path, kind)
        code, _ = run(capsys, "tnc", path, "--nprime", "centralizer", "--samples", "5")
        assert code == 64

    def test_validate_still_reports_bad_gram(self, capsys, tmp_path):
        path = self._n10_with_gram(capsys, tmp_path, "indefinite")
        code, out = run(capsys, "validate", path)
        assert code == 1
        doc = json.loads(out)
        assert doc["passed"] is False
        assert doc["gram_min_eigenvalue"] < 0

    def test_kv_rejects_non_nilpotent_exit_64(self, capsys, tmp_path, so3):
        path = tmp_path / "so3.json"
        path.write_text(json.dumps(algebra_to_dict(so3)))
        code, out = run(capsys, "go-check", str(path), "--criterion", "kv", "--samples", "5")
        assert code == 64
        assert out == ""

    def test_validate_reports_non_nilpotent(self, capsys, tmp_path, so3):
        path = tmp_path / "so3.json"
        path.write_text(json.dumps(algebra_to_dict(so3)))
        code, out = run(capsys, "validate", str(path))
        doc = json.loads(out)
        assert code == 0
        assert doc["passed"] is True
        assert doc["nilpotency_class"] is None

    @pytest.mark.parametrize("command", ["go-check", "tnc"])
    def test_negative_samples_exit_64(self, capsys, tmp_path, command):
        path = tmp_path / "alg.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(path))
        code, out = run(capsys, command, str(path), "--samples", "-5")
        assert code == 64
        assert out == ""


HEIS_GRAM = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
# algebra documents outside the JSON contract
BAD_DOCUMENTS = {
    "dim_zero": {"dim": 0, "brackets": [], "gram": []},
    "fractional_index": {"dim": 3, "brackets": [{"i": 0.5, "j": 1, "coeffs": {"2": 1}}], "gram": HEIS_GRAM},
    "duplicate_bracket": {
        "dim": 3,
        "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1}}, {"i": 0, "j": 1, "coeffs": {"2": 2}}],
        "gram": HEIS_GRAM,
    },
}


class TestDocumentContract:
    @pytest.mark.parametrize(
        "kind,command",
        [
            ("dim_zero", "validate"),
            ("dim_zero", "go-check"),
            ("dim_zero", "pfaffian"),
            ("fractional_index", "validate"),
            ("fractional_index", "go-check"),
            ("duplicate_bracket", "validate"),
            ("duplicate_bracket", "go-check"),
        ],
    )
    def test_rejected_with_exit_64(self, capsys, tmp_path, kind, command):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(BAD_DOCUMENTS[kind]))
        code, out = run(capsys, command, str(path))
        assert code == 64
        assert out == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"dim": 3, "brackets": 5, "gram": HEIS_GRAM},
            {"dim": 3, "brackets": [], "gram": [1, 0, 0]},
        ],
        ids=["brackets_not_a_list", "gram_rows_not_lists"],
    )
    def test_malformed_arrays_exit_64(self, capsys, tmp_path, doc):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 64
        assert out == ""

    def test_integer_string_indices_still_accepted(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps({"dim": 3, "brackets": [{"i": "0", "j": 1, "coeffs": {"2": 1}}], "gram": HEIS_GRAM}))
        code, _ = run(capsys, "validate", str(path))
        assert code == 0


class TestNonFiniteCertificates:
    """Finite documents whose residuals overflow exit 64, never 0 or 1."""

    @pytest.mark.parametrize("criterion", ["gordon", "kv"])
    def test_go_check_huge_bracket_exit_64(self, capsys, tmp_path, criterion):
        path = tmp_path / "alg.json"
        doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1e308}}], "gram": HEIS_GRAM}
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "go-check", str(path), "--criterion", criterion, "--samples", "5")
        assert code == 64
        assert out == ""

    def test_tnc_overflowing_scale_exit_64(self, capsys, tmp_path):
        a = 5e153  # |B1|^2 + |B2|^2 fits in a float, |B1 + B2|^2 does not
        B1 = [[0, a, 0, 0], [-a, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        B2 = [[0, a, 0, 0], [-a, 0, 0, 0], [0, 0, 0, a], [0, 0, -a, 0]]
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({"n": 4, "basis": [B1, B2]}))
        code, out = run(capsys, "tnc", str(path), "--nprime", "self", "--samples", "5")
        assert code == 64
        assert out == ""


class TestOverflowingCoefficients:
    """Coefficients whose float view or products overflow exit 64, never 1."""

    def test_validate_huge_bracket_exit_64(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 1e308}}], "gram": HEIS_GRAM}
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 64
        assert out == ""

    @pytest.mark.parametrize("command", ["validate", "go-check", "pfaffian", "derivations"])
    @pytest.mark.parametrize("value", [10**400, f"{10**400}/3"], ids=["integer", "fraction"])
    def test_coefficient_past_float_range_exit_64(self, capsys, tmp_path, command, value):
        path = tmp_path / "alg.json"
        doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "coeffs": {"2": value}}], "gram": HEIS_GRAM}
        path.write_text(json.dumps(doc))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "too large for a float" in captured.err


class TestGeodesicCompareContract:
    @pytest.fixture
    def heis(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "heisenberg", "--k", "1", "-o", str(path))
        return str(path)

    def test_wrong_length_x0_exit_64(self, capsys, heis):
        code, out = run(capsys, "geodesic-compare", heis, "--x0", "1,0", "--step", "0.25")
        assert code == 64
        assert out == ""

    @pytest.mark.parametrize(
        "schedule",
        [["--step", "inf"], ["--horizon", "nan"], ["--horizon", "0.04", "--step", "0.1"]],
        ids=["infinite_step", "nan_horizon", "horizon_below_half_step"],
    )
    def test_schedule_without_steps_exit_64(self, capsys, heis, schedule):
        code, out = run(capsys, "geodesic-compare", heis, "--x0", "1,1,1", *schedule)
        assert code == 64
        assert out == ""

    def test_horizon_not_whole_steps_exit_64(self, capsys, heis):
        # three steps of 0.3 would cover [0, 0.9], not the horizon
        code = main(["geodesic-compare", heis, "--x0", "1,1,1", "--horizon", "1", "--step", "0.3"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "whole number of steps" in captured.err

    def test_non_finite_deviation_exit_64(self, capsys, heis):
        code, out = run(capsys, "geodesic-compare", heis, "--x0=1e200,1e200,1e200", "--step", "0.25")
        assert code == 64
        assert out == ""

    def test_too_many_steps_exit_64(self, capsys, heis):
        code, out = run(capsys, "geodesic-compare", heis, "--x0", "1,0,0", "--step", "1e-300")
        assert code == 64
        assert out == ""

    def test_three_step_exit_64(self, capsys, tmp_path, three_step):
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(algebra_to_dict(three_step)))
        code, out = run(capsys, "geodesic-compare", str(path), "--x0", "1,0,0,0,0", "--step", "0.25")
        assert code == 64
        assert out == ""


class TestUsageErrors:
    @pytest.fixture
    def heis(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "heisenberg", "--k", "1", "-o", str(path))
        return str(path)

    def test_leading_minus_x0_is_a_usage_error(self, capsys, heis):
        with pytest.raises(SystemExit) as exc:
            main(["geodesic-compare", heis, "--x0", "-0.3,1,0", "--step", "0.25"])
        assert exc.value.code == 64
        assert "--x0" in capsys.readouterr().err

    def test_leading_minus_x0_with_equals(self, capsys, heis):
        code, out = run(capsys, "geodesic-compare", heis, "--x0=-0.3,1,0", "--step", "0.25")
        assert code == 0
        assert json.loads(out)["steps"] == 4

    def test_unknown_choice_exit_64(self, capsys, heis):
        with pytest.raises(SystemExit) as exc:
            main(["go-check", heis, "--criterion", "bogus"])
        assert exc.value.code == 64


class TestMalformedNumbers:
    """A token that looks like a decimal but is not one is bad input, not an internal error."""

    @pytest.fixture
    def heis(self, capsys, tmp_path):
        path = tmp_path / "alg.json"
        run(capsys, "family", "heisenberg", "--k", "1", "-o", str(path))
        return str(path)

    @pytest.mark.parametrize("x0", ["--x0=1.5.2,1,1", "--x0=1e5x,1,1"])
    def test_geodesic_compare_x0_exit_64(self, capsys, heis, x0):
        code = main(["geodesic-compare", heis, x0, "--step", "0.25"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "cannot parse number" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["n10", "--t", "1.5.2"],
            ["thm2", "--ts", "2,1e5x"],
            ["n10", "--t", "2", "--metric", "1.5.2,0,1"],
        ],
        ids=["t", "ts", "metric"],
    )
    def test_family_parameters_exit_64(self, capsys, argv):
        code = main(["family", *argv])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "cannot parse number" in captured.err


class TestFamilyContract:
    @pytest.mark.parametrize(
        "kind,flag",
        [
            ("heisenberg", "--k"),
            ("quaternionic_heisenberg", "--k"),
            ("h_type_clifford", "--m"),
            ("n10", "--t"),
            ("thm2", "--ts"),
        ],
    )
    def test_missing_parameter_exit_64(self, capsys, kind, flag):
        code = main(["family", kind])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert flag in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("metric", ["2", "1/3", "0.7"])
    def test_heisenberg_metric_exit_64(self, capsys, metric):
        code = main(["family", "heisenberg", "--k", "1", "--metric", metric])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "metric" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["n10", "--t", "2", "--metric", "1"],
            ["n10", "--t", "2", "--metric", "1,0"],
            ["n10", "--t", "2", "--metric", "1,0,0,1,0,1"],
            ["h_type_clifford", "--m", "3", "--metric", "1,0,1"],
            ["n10", "--t", "2", "--metric", "1,2,1"],
        ],
        ids=["too_small", "not_triangular", "too_large", "h_type_too_small", "not_spd"],
    )
    def test_bad_metric_exit_64(self, capsys, argv):
        code = main(["family", *argv])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "metric" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["n10", "--t", "2", "--metric", "2,1,3"],
            ["h_type_clifford", "--m", "3", "--metric", "2,0,1/2,1,0,1"],
            ["thm2", "--ts", "2,3", "--metric", "1.5,0.25,1"],
        ],
    )
    def test_metric_builds_the_family_once(self, capsys, monkeypatch, argv):
        import nilgo.cli as cli

        calls = []
        real = cli.families.build_family
        monkeypatch.setattr(cli.families, "build_family", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(cli.algebra, "split_two_step", None)  # m comes from the metric itself
        assert main(["family", *argv]) == 0
        assert len(calls) == 1 and calls[0][2] is not None
        capsys.readouterr()


class TestFamilyFlags:
    """Each kind takes its required parameters and its optional ones, nothing else."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["n10", "--t", "2", "--k", "5"], "--k"),
            (["quaternionic_heisenberg", "--k", "1", "--copies", "3"], "--copies"),
            (["heisenberg", "--k", "1", "--m", "3"], "--m"),
            (["n10_second", "--t", "2"], "--t"),
            (["thm2", "--ts", "2,3", "--t", "2"], "--t"),
            (["h_type_clifford", "--m", "3", "--ts", "2,3"], "--ts"),
        ],
    )
    def test_foreign_flag_exit_64(self, capsys, argv, flag):
        code = main(["family", *argv])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert flag in captured.err and "Traceback" not in captured.err

    def test_h_type_copies_is_optional(self, capsys):
        one, out_one = run(capsys, "family", "h_type_clifford", "--m", "2")
        two, out_two = run(capsys, "family", "h_type_clifford", "--m", "2", "--copies", "2")
        assert one == two == 0
        assert json.loads(out_two)["dim"] == json.loads(out_one)["dim"] + 4


class TestSeedEnvironment:
    @pytest.fixture
    def heis(self, tmp_path):
        path = tmp_path / "heis.json"
        assert main(["family", "heisenberg", "--k", "1", "-o", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    @pytest.mark.parametrize("command", ["family", "validate", "go-check", "tnc", "geodesic-compare"])
    def test_malformed_seed_exit_64(self, capsys, monkeypatch, heis, value, command):
        argv = {
            "family": ["family", "heisenberg", "--k", "1"],
            "validate": ["validate", heis],
            "go-check": ["go-check", heis, "--samples", "3"],
            "tnc": ["tnc", heis, "--samples", "3"],
            "geodesic-compare": ["geodesic-compare", heis, "--x0", "1,0,0", "--step", "0.1"],
        }[command]
        capsys.readouterr()
        monkeypatch.setenv("NILGO_SEED", value)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "NILGO_SEED" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["go-check", "tnc"])
    @pytest.mark.parametrize("from_env", [False, True])
    def test_negative_seed_exit_64(self, capsys, monkeypatch, heis, command, from_env):
        capsys.readouterr()
        argv = [command, heis, "--samples", "3"]
        if from_env:
            monkeypatch.setenv("NILGO_SEED", "-1")
        else:
            argv += ["--seed", "-1"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "seed" in captured.err and "Traceback" not in captured.err

    def test_seed_read_when_the_arguments_are_parsed(self, capsys, monkeypatch, heis):
        capsys.readouterr()
        argv = ["go-check", heis, "--samples", "3"]
        monkeypatch.delenv("NILGO_SEED", raising=False)
        assert json.loads(run(capsys, *argv)[1])["seed"] == 0
        monkeypatch.setenv("NILGO_SEED", "17")  # after the parser exists
        assert json.loads(run(capsys, *argv)[1])["seed"] == 17
        assert json.loads(run(capsys, *argv, "--seed", "4")[1])["seed"] == 4

    def test_parser_built_once(self, capsys, monkeypatch, heis):
        import nilgo.cli as cli

        calls = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["validate", heis]) == 0
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert len(calls) == 1
