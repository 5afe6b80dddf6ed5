import json

import pytest

from nilgo import algebra_from_dict, validate
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

    @pytest.mark.parametrize("command", ["go-check", "tnc"])
    def test_negative_samples_exit_64(self, capsys, tmp_path, command):
        path = tmp_path / "alg.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(path))
        code, out = run(capsys, command, str(path), "--samples", "-5")
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
