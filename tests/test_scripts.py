import importlib.util
from pathlib import Path

import pytest

from cnifkit.reference import bundled_fixture_path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunReproduction:
    def test_bundled_table_passes_with_known_divergences(self, tmp_path, capsys):
        assert load_script("run_reproduction").run(tmp_path, None) == 0
        assert "reproduce-table4: ok (7 known divergences)" in capsys.readouterr().out

    def test_altered_printed_p_fails_table1_only(self, tmp_path, capsys):
        text = Path(bundled_fixture_path()).read_text(encoding="utf-8")
        s1 = "S1,ACOUSTICS,science,87001,110560,11626,12872,0.51,29.14,0.79,"
        assert s1 in text
        fixture = tmp_path / "altered.csv"
        fixture.write_text(text.replace(s1, s1.replace(",0.79,", ",0.81,")), encoding="utf-8")
        assert load_script("run_reproduction").run(tmp_path / "out", str(fixture)) == 1
        assert "reproduce-table1: MISMATCH" in capsys.readouterr().out

    def test_empty_fixture_path_fails_every_table(self, tmp_path, capsys):
        assert load_script("run_reproduction").run(tmp_path, "") == 3
        assert capsys.readouterr().err == "error: file not found: \n" * 3
        assert list(tmp_path.iterdir()) == []


class TestRunCategoryAnalysis:
    @pytest.mark.parametrize("edition", ["science", "social", "all"])
    def test_writes_its_five_reports(self, edition, tmp_path, capsys):
        assert load_script("run_category_analysis").run(edition, 6, tmp_path) == 0
        capsys.readouterr()
        reports = ["correlations.csv", "eigen.json", "normality.json", "histograms.json", "merges.csv"]
        for name in reports:
            assert (tmp_path / name).stat().st_size > 0, name
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(reports + ["merges.csv.clusters"])
