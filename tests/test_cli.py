import json

import pytest

from nilgo import SkewOperatorSubspace, algebra_from_dict, algebra_to_dict, validate
from nilgo.cli import main
from nilgo.families import algebra_from_jmaps, l_matrix
from nilgo.operator_subspaces import is_subalgebra, skew_basis

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


    @pytest.mark.parametrize("criterion", ["gordon", "kv"])
    def test_uniformly_small_gram_keeps_its_center(self, capsys, tmp_path, criterion):
        # every eigenvalue of the Gram is 1e-13: the orthonormalization cut is relative
        path = tmp_path / "alg.json"
        run(capsys, "family", "n10", "--t", "2", "-o", str(path))
        doc = json.loads(path.read_text())
        doc["gram"] = [[1e-13 if i == j else 0 for j in range(10)] for i in range(10)]
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "go-check", str(path), "--criterion", criterion, "--samples", "10")
        assert code == 0
        assert json.loads(out)["status"] == "verified_sampled"

    @pytest.mark.parametrize(
        "criterion,family,mib",
        [
            ("gordon", ["thm2", "--ts", "2,3,5,7"], 2.7),
            ("kv", ["thm2", "--ts", "2,3,5,7"], 2.7),
            ("gordon", ["h_type_clifford", "--m", "7"], 2.4),
            ("kv", ["h_type_clifford", "--m", "7"], 2.4),
        ],
        ids=["gordon-thm2-dim22", "kv-thm2-dim22", "gordon-h_type7", "kv-h_type7"],
    )
    def test_gordon_working_set_thm2_dim22(self, capsys, tmp_path, criterion, family, mib):
        # a sweep chunk holds its system, the mixed copy that R overwrites
        # slice by slice, and one buffer that becomes R11^-1 in place:
        # 2.35, 2.28, 2.00 and 1.91 MiB traced
        import tracemalloc

        path = str(tmp_path / "alg.json")
        argv = ["go-check", path, "--criterion", criterion]
        assert main(["family", *family, "-o", path]) == 0
        assert main(argv) == 0  # warm-up: the per-size caches
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < mib * 2**20


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

    @pytest.mark.parametrize("exact,approx", [("3/2,2,3", "1.5,2.0,3.0"), ("2,3,5,7", "2.0,3.0,5.0,7.0")])
    def test_invariant_float_and_exact_documents_agree(self, capsys, tmp_path, exact, approx):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "family", "thm2", "--ts", exact, "-o", str(a))
        run(capsys, "family", "thm2", "--ts", approx, "-o", str(b))
        code, out = run(capsys, "invariant", str(a), str(b))
        assert code == 0
        assert json.loads(out)["verdict"] == "equivalent_invariants"

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

    def test_tnc_so3_normalizer_verified(self, capsys, tmp_path):
        # so(3) normalizes itself: the normalizer is so(3), not {0}
        e = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
        for M, (i, j) in zip(e, [(0, 1), (0, 2), (1, 2)]):
            M[i][j], M[j][i] = 1.0, -1.0
        path = tmp_path / "so3.json"
        path.write_text(json.dumps({"n": 3, "basis": e}))
        for nprime in ("normalizer", "self"):
            code, out = run(capsys, "tnc", str(path), "--nprime", nprime)
            assert code == 0
            assert json.loads(out)["status"] == "verified_sampled"

    def test_tnc_self_rejects_a_perturbed_so3(self, capsys, tmp_path):
        # span{L1, L2, L3 + 1e-8 E23} is not a subalgebra, so it is not in its own normalizer
        basis = [l_matrix(1, 0, 0), l_matrix(0, 1, 0), l_matrix(0, 0, 1) + 1e-8 * skew_basis(4)[5]]
        assert not is_subalgebra(SkewOperatorSubspace(4, basis))
        path = tmp_path / "so3.json"
        path.write_text(json.dumps({"n": 4, "basis": [B.tolist() for B in basis]}))
        code, _ = run(capsys, "tnc", str(path), "--nprime", "self", "--samples", "5")
        assert code == 64

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

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000], ids=["not-utf8", "nested-past-recursion-limit"]
    )
    def test_unreadable_document_exit_64(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert code == 64
        assert "Traceback" not in err and "cannot read JSON" in err

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-directory", "a-directory"])
    def test_unwritable_output_exit_64(self, capsys, tmp_path, target):
        code = main(["family", "heisenberg", "--k", "1", "-o", str(tmp_path / target)])
        err = capsys.readouterr().err
        assert code == 64
        assert "Traceback" not in err and "cannot write" in err

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


def _scaled_family(capsys, tmp_path, s, *family):
    """The document of ``nilgo family`` with every bracket coefficient times s."""
    code, out = run(capsys, "family", *family)
    assert code == 0
    doc = json.loads(out)
    for bracket in doc["brackets"]:
        bracket["coeffs"] = {k: s * float(v) for k, v in bracket["coeffs"].items()}
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    return path


UNDERFLOW_COMMANDS = {
    "gordon": ["go-check", "--criterion", "gordon"],
    "kv": ["go-check", "--criterion", "kv"],
    "tnc": ["tnc", "--nprime", "centralizer"],
}
SCALED_FAMILIES = {"h4": (["h_type_clifford", "--m", "4"], 1), "n10(2)": (["n10", "--t", "2"], 0)}


class TestUnderflowingCertificates:
    """Documents whose residual scales underflow exit 64, never 0 or 1."""

    @pytest.mark.parametrize("family", sorted(SCALED_FAMILIES))
    @pytest.mark.parametrize("command", sorted(UNDERFLOW_COMMANDS))
    def test_tiny_brackets_exit_64(self, capsys, tmp_path, command, family):
        path = _scaled_family(capsys, tmp_path, 1e-170, *SCALED_FAMILIES[family][0])
        code, out = run(capsys, *UNDERFLOW_COMMANDS[command], str(path), "--samples", "5")
        assert code == 64
        assert out == ""

    @pytest.mark.parametrize("family", sorted(SCALED_FAMILIES))
    @pytest.mark.parametrize("command", sorted(UNDERFLOW_COMMANDS))
    def test_decided_at_1e_150(self, capsys, tmp_path, command, family):
        args, expected = SCALED_FAMILIES[family]
        path = _scaled_family(capsys, tmp_path, 1e-150, *args)
        code, _ = run(capsys, *UNDERFLOW_COMMANDS[command], str(path), "--samples", "5")
        assert code == expected


class TestSubspaceDocumentContract:
    """Malformed {n, basis} documents for ``nilgo tnc`` exit 64, never 0 or 70."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2.5, "basis": [[[0, 1], [-1, 0]]]}',
            '{"n": 0, "basis": []}',
            '{"n": -1, "basis": []}',
            '{"n": 65, "basis": []}',
            '{"n": 2, "basis": [[[0, NaN], [-1, 0]]]}',
            "5",
            '{"n": 2, "basis": [[[0, 1], [-1]]]}',
            '{"n": 2, "basis": [[[0, 1], [-1, 0]], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]}',
            '{"n": 2, "basis": [[[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]}',
        ],
        ids=[
            "fractional_n",
            "zero_n",
            "negative_n",
            "n_past_max_dim",
            "nan_entry",
            "non_object_document",
            "ragged_rows",
            "ragged_matrices",
            "matrix_larger_than_n",
        ],
    )
    def test_malformed_subspace_exit_64(self, capsys, tmp_path, text):
        path = tmp_path / "sub.json"
        path.write_text(text)
        code, out = run(capsys, "tnc", str(path), "--nprime", "self", "--samples", "3")
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

    def test_pfaffian_form_past_float_range_exit_64(self, capsys, tmp_path):
        # finite generators 1e200 (E01 + E23), 1e200 (E02 - E13): the form 1e400 (x^2 + y^2) has no float
        a = 1e200
        G1 = [[0, a, 0, 0], [-a, 0, 0, 0], [0, 0, 0, a], [0, 0, -a, 0]]
        G2 = [[0, 0, a, 0], [0, 0, 0, -a], [-a, 0, 0, 0], [0, a, 0, 0]]
        path = tmp_path / "alg.json"
        path.write_text(json.dumps(algebra_to_dict(algebra_from_jmaps([G1, G2]))))
        code = main(["pfaffian", str(path)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err.startswith("input error:")


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

    def test_non_go_algebra_is_not_certified_under_a_nan_tolerance(self, capsys, tmp_path):
        # the thresholds are constants: a nan one used to certify the KV check of h_type_clifford(4)
        path = tmp_path / "h4.json"
        run(capsys, "family", "h_type_clifford", "--m", "4", "-o", str(path))
        with pytest.raises(SystemExit) as exc:
            main(["go-check", str(path), "--criterion", "kv", "--tol-feas", "nan"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--tol-feas", "--tol-refute"])
    @pytest.mark.parametrize("command", ["go-check", "tnc"])
    def test_tolerance_flags_are_usage_errors(self, capsys, heis, flag, command):
        with pytest.raises(SystemExit) as exc:
            main([command, heis, "--samples", "3", flag, "1e-8"])
        assert exc.value.code == 64
        assert capsys.readouterr().out == ""


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


class TestFamilySize:
    """A family past MAX_DIM exits 64 before any of its tensors is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["heisenberg", "--k", "1000000"],
            ["heisenberg", "--k", "60"],
            ["heisenberg", "--k", "32"],
            ["quaternionic_heisenberg", "--k", "16"],
            ["h_type_clifford", "--m", "7", "--copies", "9"],
            ["h_type_clifford", "--m", "1", "--copies", "1000000"],
            ["thm2", "--ts", ",".join(str(t) for t in range(2, 17))],
        ],
    )
    def test_too_large_exit_64(self, capsys, argv):
        import tracemalloc

        tracemalloc.start()
        try:
            code = main(["family", *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == "" and "outside supported envelope" in captured.err
        assert peak < 5 * 2**20

    @pytest.mark.parametrize(
        "argv,dim",
        [
            (["heisenberg", "--k", "31"], 63),
            (["quaternionic_heisenberg", "--k", "15"], 63),
            (["h_type_clifford", "--m", "7", "--copies", "7"], 63),
            (["thm2", "--ts", ",".join(str(t) for t in range(2, 16))], 62),
        ],
    )
    def test_largest_families_still_built(self, capsys, argv, dim):
        code, out = run(capsys, "family", *argv)
        assert code == 0
        assert json.loads(out)["dim"] == dim


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

    @pytest.mark.parametrize("command", ["family", "validate", "go-check"])
    def test_seed_environment_ignored(self, capsys, monkeypatch, heis, command):
        # every command is a function of its arguments and files
        argv = {
            "family": ["family", "heisenberg", "--k", "1"],
            "validate": ["validate", heis],
            "go-check": ["go-check", heis, "--samples", "3"],
        }[command]
        capsys.readouterr()
        monkeypatch.delenv("NILGO_SEED", raising=False)
        without = run(capsys, *argv)
        monkeypatch.setenv("NILGO_SEED", "abc")
        assert run(capsys, *argv) == without
        assert without[0] == 0

    @pytest.mark.parametrize("command", ["go-check", "tnc"])
    def test_negative_seed_exit_64(self, capsys, heis, command):
        capsys.readouterr()
        code = main([command, heis, "--samples", "3", "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "seed" in captured.err and "Traceback" not in captured.err

    def test_seed_read_when_the_arguments_are_parsed(self, capsys, heis):
        capsys.readouterr()
        argv = ["go-check", heis, "--samples", "3"]
        assert json.loads(run(capsys, *argv)[1])["seed"] == 0
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
