"""Tests for the experiment report generator and the CLI entry point."""

import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.context import ExperimentContext, get_context
from repro.experiments.registry import ExperimentResult
from repro.experiments.report import generate_report, render_result_markdown, write_report


class TestExperimentContext:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentContext(scale="huge")

    def test_context_cache_returns_same_object(self):
        assert get_context("small") is get_context("small")

    def test_scales_have_increasing_targets(self):
        small = ExperimentContext(scale="small").pipeline_config()
        default = ExperimentContext(scale="default").pipeline_config()
        large = ExperimentContext(scale="large").pipeline_config()
        assert small.target_tables < default.target_tables < large.target_tables

    def test_small_scale_has_generator_override(self):
        assert ExperimentContext(scale="small").generator_config() is not None
        assert ExperimentContext(scale="default").generator_config() is None


class TestRenderMarkdown:
    def _result(self):
        return ExperimentResult(
            experiment_id="tableX",
            title="Example",
            rows=[{"metric": "f1", "value": 0.9}],
            paper_reference=[{"metric": "f1", "value": 0.86}],
            notes="shape matches",
        )

    def test_contains_measured_and_reference_tables(self):
        text = render_result_markdown("Table X — Example", self._result())
        assert "## Table X — Example" in text
        assert "Measured (this reproduction)" in text
        assert "Paper reference" in text
        assert "| f1 | 0.9 |" in text
        assert "shape matches" in text

    def test_row_truncation(self):
        result = ExperimentResult(
            experiment_id="y", title="Y", rows=[{"i": i} for i in range(50)]
        )
        text = render_result_markdown("Y", result, max_rows=10)
        assert "more rows" in text

    def test_empty_rows_render_placeholder(self):
        result = ExperimentResult(experiment_id="z", title="Z")
        assert "_(no rows)_" in render_result_markdown("Z", result)


class TestReportGeneration:
    def test_generate_report_covers_all_paper_artifacts(self, context):
        report = generate_report(scale="small")
        for heading in ("Table 1", "Table 7", "Table 8", "Figure 4a", "Figure 6a",
                        "Section 4.2", "Section 4.3"):
            assert heading in report

    def test_write_report_creates_file(self, tmp_path, context):
        path = tmp_path / "EXPERIMENTS.md"
        text = write_report(path, scale="small")
        assert path.read_text(encoding="utf-8") == text


class TestCLI:
    def test_only_flag_prints_selected_experiments(self, capsys, context):
        exit_code = cli_main(["--scale", "small", "--only", "table1"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "table1" in captured.out

    def test_unknown_experiment_id_fails(self, capsys, context):
        exit_code = cli_main(["--scale", "small", "--only", "table99"])
        assert exit_code == 2

    def test_output_flag_writes_file(self, tmp_path, capsys, context):
        path = tmp_path / "report.md"
        exit_code = cli_main(["--scale", "small", "--output", str(path)])
        assert exit_code == 0
        assert path.exists()


class TestBenchScript:
    def test_help_exits_cleanly(self, capsys):
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
        spec = importlib.util.spec_from_file_location("bench_script", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        with pytest.raises(SystemExit) as exit_info:
            bench.main(["--help"])
        assert exit_info.value.code == 0
        assert "% below the committed baseline" in " ".join(capsys.readouterr().out.split())
