"""Tests for the command-line interface."""

import io
import json

import pytest

from repro import cli
from repro.cli import build_parser, main

FAST = ["--workers", "4", "--duration", "0.5", "--warmup", "0.1",
        "--silos", "1", "--cores", "2", "--sellers", "2",
        "--customers", "8", "--products", "3"]


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "orleans-eventual"
        assert args.workers == 32
        assert args.drop == 0.0

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "mystery"])

    def test_audit_accepts_drop(self):
        args = build_parser().parse_args(
            ["audit", "--app", "statefun", "--drop", "0.05"])
        assert args.drop == 0.05

    @pytest.mark.parametrize("argv", [
        ["run", "--workers", "0"], ["run", "--duration", "-1"],
        ["run", "--silos", "0"], ["audit", "--drop", "1.5"],
        ["scenario", "baseline", "--silos", "0"],
        ["matrix", "--workers", "-2"]], ids=" ".join)
    def test_out_of_range_number_is_a_usage_error(self, argv):
        """Exit 2 with argparse's usage error, before anything runs —
        not a traceback and exit 1, which ``audit`` uses for a failed
        criterion."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv, stream=io.StringIO())
        assert exit_info.value.code == 2


class TestRunCommand:
    def test_run_prints_metrics_and_criteria(self):
        stream = io.StringIO()
        code = main(["run", "--app", "orleans-eventual"] + FAST,
                    stream=stream)
        output = stream.getvalue()
        assert code == 0
        assert "total committed throughput" in output
        assert "checkout" in output
        assert "C1-atomicity" in output

    def test_run_statefun(self):
        stream = io.StringIO()
        code = main(["run", "--app", "statefun"] + FAST, stream=stream)
        assert code == 0
        assert "statefun" in stream.getvalue()

    def test_seed_reaches_the_dataset(self, monkeypatch):
        """``--seed`` is documented as "simulation + dataset RNG seed":
        two seeds must generate two different worlds."""
        built = []

        class Recording(cli.BenchmarkDriver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "BenchmarkDriver", Recording)
        for seed in ("1", "2"):
            assert main(["run", "--seed", seed] + FAST,
                        stream=io.StringIO()) == 0
        first, second = ([product.price_cents
                          for product in driver.dataset.products]
                         for driver in built)
        assert first != second


class TestAuditCommand:
    def test_audit_clean_run_exits_zero_for_customized(self):
        stream = io.StringIO()
        code = main(["audit", "--app", "customized-orleans"] + FAST,
                    stream=stream)
        assert code == 0
        assert "per 10k tx" in stream.getvalue()

    def test_audit_eventual_under_loss_exits_nonzero(self):
        stream = io.StringIO()
        code = main(["audit", "--app", "orleans-eventual",
                     "--drop", "0.05"] + FAST, stream=stream)
        assert code == 1


class TestCompareCommand:
    def test_compare_prints_all_apps(self):
        stream = io.StringIO()
        code = main(["compare"] + FAST, stream=stream)
        output = stream.getvalue()
        assert code == 0
        for name in ("orleans-eventual", "orleans-transactions",
                     "statefun", "customized-orleans"):
            assert name in output
        assert "criteria matrix" in output


class TestScenarioCommand:
    def test_list_prints_catalogue(self):
        stream = io.StringIO()
        code = main(["scenario", "--list"], stream=stream)
        output = stream.getvalue()
        assert code == 0
        for name in ("baseline", "flash-sale", "overload-ramp"):
            assert name in output

    def test_bare_scenario_defaults_to_catalogue(self):
        stream = io.StringIO()
        assert main(["scenario"], stream=stream) == 0
        assert "available scenarios" in stream.getvalue()

    def test_unknown_scenario_rejected(self):
        stream = io.StringIO()
        code = main(["scenario", "mystery"], stream=stream)
        assert code == 2
        assert "unknown scenario" in stream.getvalue()

    def test_scenario_run_reports_queueing_separately(self):
        stream = io.StringIO()
        code = main(["scenario", "flash-sale",
                     "--app", "orleans-eventual",
                     "--rate-scale", "0.4", "--duration-scale", "0.4",
                     "--silos", "1", "--cores", "2"], stream=stream)
        output = stream.getvalue()
        assert code == 0
        assert "service latency vs queueing delay" in output
        assert "queue p99" in output
        assert "offered rate" in output
        assert "throughput timeline" in output
        assert "C1-atomicity" in output

    def test_autoscaled_scenario_prints_controller_timeline(self):
        stream = io.StringIO()
        code = main(["scenario", "autoscale-flash-sale",
                     "--app", "orleans-eventual",
                     "--rate-scale", "0.4", "--duration-scale", "0.4"],
                    stream=stream)
        output = stream.getvalue()
        assert code == 0
        assert "autoscaler timeline" in output
        assert "SLO violation time" in output
        assert "provisioning vs ideal curve" in output


class TestMatrixCommand:
    def test_dry_run_lists_cells_without_running(self):
        stream = io.StringIO()
        code = main(["matrix", "--scenario", "baseline,flash-sale",
                     "--app", "orleans-eventual", "--seeds", "1,2",
                     "--dry-run"], stream=stream)
        output = stream.getvalue()
        assert code == 0
        assert "matrix: 4 cells" in output
        assert "baseline/orleans-eventual/s1/r1" in output
        assert "flash-sale/orleans-eventual/s2/r1" in output

    def test_matrix_defaults_cover_full_catalogue(self):
        stream = io.StringIO()
        code = main(["matrix", "--dry-run"], stream=stream)
        output = stream.getvalue()
        assert code == 0
        # 15 scenarios x 4 apps x 1 seed x 1 rate scale.
        assert "matrix: 60 cells" in output

    def test_unknown_scenario_filter_rejected(self):
        stream = io.StringIO()
        code = main(["matrix", "--scenario", "mystery", "--dry-run"],
                    stream=stream)
        assert code == 2
        assert "unknown scenario" in stream.getvalue()

    def test_matrix_runs_and_prints_merged_report(self, tmp_path):
        out = tmp_path / "matrix.json"
        stream = io.StringIO()
        code = main(["matrix", "--scenario", "baseline",
                     "--app", "orleans-eventual,statefun",
                     "--seeds", "1", "--duration-scale", "0.05",
                     "--workers", "1", "--json", str(out)],
                    stream=stream)
        output = stream.getvalue()
        assert code == 0
        assert "scenario: baseline" in output
        assert "ok: 2" in output
        assert "checkout p50 ms" in output
        blob = json.loads(out.read_text())
        assert blob["ok"] == 2
        assert blob["tables"]["baseline"][0]["seeds"] == 1

    def test_matrix_parallel_progress_lines(self):
        stream = io.StringIO()
        code = main(["matrix", "--scenario", "baseline",
                     "--app", "orleans-eventual", "--seeds", "1,2",
                     "--duration-scale", "0.05", "--workers", "2"],
                    stream=stream)
        output = stream.getvalue()
        assert code == 0
        assert "start baseline/orleans-eventual/s1/r1" in output
        assert output.count("] ok") == 2
