"""Tests for meta-experiment bias arithmetic."""

import pytest

from interference_lab import MetaExperimentInput, compare
from interference_lab.metaexp import read_inputs


class TestCompare:
    def test_first_reference_pair(self):
        # 0.41 clustered vs 0.61 article-randomized, +/-0.05 as a 95% CI
        cmp = compare(MetaExperimentInput("a", 0.41, 0.05, 0.61))
        assert cmp.relative_bias == pytest.approx(0.20 / 0.41, rel=1e-12)
        assert cmp.sigma_distance == pytest.approx(0.20 / (0.05 / 1.96), rel=1e-12)

    def test_second_reference_pair(self):
        cmp = compare(MetaExperimentInput("b", 0.35, 0.08, 0.62))
        assert cmp.relative_bias == pytest.approx(0.27 / 0.35, rel=1e-12)
        assert cmp.sigma_distance == pytest.approx(0.27 / (0.08 / 1.96), rel=1e-12)

    def test_custom_ci_divisor(self):
        # reading the half-width as one standard error instead of a 95% CI
        cmp = compare(MetaExperimentInput("c", 0.41, 0.05, 0.61), ci_divisor=1.0)
        assert cmp.sigma_distance == pytest.approx(0.20 / 0.05, rel=1e-12)

    def test_negative_direction(self):
        cmp = compare(MetaExperimentInput("d", 0.5, 0.1, 0.4))
        assert cmp.relative_bias == pytest.approx(-0.2, rel=1e-12)
        assert cmp.sigma_distance < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MetaExperimentInput("e", 0.4, 0.0, 0.6)
        with pytest.raises(ValueError):
            compare(MetaExperimentInput("f", 0.0, 0.05, 0.6))
        with pytest.raises(ValueError):
            compare(MetaExperimentInput("g", 0.4, 0.05, 0.6), ci_divisor=0.0)

    @pytest.mark.parametrize("fields", [(float("nan"), 0.05, 0.6), (0.4, float("inf"), 0.6),
                                        (0.4, 0.05, -float("inf"))])
    def test_non_finite_fields_rejected(self, fields):
        with pytest.raises(ValueError, match="must be finite"):
            MetaExperimentInput("h", *fields)

    @pytest.mark.parametrize("divisor", [float("nan"), float("inf")])
    def test_non_finite_ci_divisor_rejected(self, divisor):
        with pytest.raises(ValueError, match="ci_divisor must be finite"):
            compare(MetaExperimentInput("i", 0.4, 0.05, 0.6), ci_divisor=divisor)

    @pytest.mark.parametrize("fields,divisor", [((0.4, 1e-320, 0.6), 1.96),
                                                ((0.4, 1e-300, 0.6), 1e300),
                                                ((1e-320, 0.05, 0.6), 1.96)])
    def test_overflowing_comparison_rejected(self, fields, divisor):
        with pytest.raises(ValueError, match="overflows"):
            compare(MetaExperimentInput("j", *fields), ci_divisor=divisor)


class TestReadInputs:
    def test_reads_rows(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("label,est_clustered,ci_halfwidth,est_article\n"
                        "a,0.41,0.05,0.61\n"
                        "b,0.35,0.08,0.62\n")
        rows = read_inputs(path)
        assert rows == [MetaExperimentInput("a", 0.41, 0.05, 0.61),
                        MetaExperimentInput("b", 0.35, 0.08, 0.62)]

    def test_rejects_a_header_only_table(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("label,est_clustered,ci_halfwidth,est_article\n\n")
        with pytest.raises(ValueError, match=r"meta\.csv: no rows$"):
            read_inputs(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("a,b,c,d\nx,1,1,1\n")
        with pytest.raises(ValueError, match="header"):
            read_inputs(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("label,est_clustered,ci_halfwidth,est_article\nx,1,2\n")
        with pytest.raises(ValueError, match="line 2"):
            read_inputs(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("label,est_clustered,ci_halfwidth,est_article\n"
                        "x,oops,0.05,0.6\n")
        with pytest.raises(ValueError, match="line 2"):
            read_inputs(path)

    @pytest.mark.parametrize("row,field", [("q3,0.4_1,0.05,0.6_1", "0.4_1"),
                                           ("q3,0.41,0.05,٠.٦", "٠.٦")])
    def test_rejects_python_number_syntax(self, tmp_path, row, field):
        path = tmp_path / "meta.csv"
        path.write_text(f"label,est_clustered,ci_halfwidth,est_article\n{row}\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match=rf"meta\.csv: line 2: could not convert "
                                             rf"string to float: '{field}'$"):
            read_inputs(path)

    def test_reads_exponents_signs_and_padding(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("label,est_clustered,ci_halfwidth,est_article\nq3,4.1e-1, 5E-2 ,+0.61\n")
        assert read_inputs(path) == [MetaExperimentInput("q3", 0.41, 0.05, 0.61)]

    @pytest.mark.parametrize("row", ["x,nan,0.05,0.6", "x,0.4,inf,0.6", "x,0.4,0.05,-inf"])
    def test_rejects_non_finite(self, tmp_path, row):
        path = tmp_path / "meta.csv"
        path.write_text("label,est_clustered,ci_halfwidth,est_article\n"
                        f"a,0.41,0.05,0.61\n{row}\n")
        with pytest.raises(ValueError, match="line 3: .* must be finite"):
            read_inputs(path)

    def test_header_message_names_the_expected_header(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("label,est\nx,1\n")
        with pytest.raises(ValueError, match=r"meta\.csv: expected header "
                           r"'label,est_clustered,ci_halfwidth,est_article'$"):
            read_inputs(path)
