"""Command line interface: argument handling, files, exit codes."""

import pytest

import divga.cli
from divga.bench import _OPTIONS, BenchmarkReport
from divga.cli import main


class TestMain:
    def test_success_writes_files(self, tmp_path, capsys):
        code = main(["circle", "--repetitions", "1", "--generations", "3",
                     "--population", "12", "--seed", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "circle_runs.csv").exists()
        assert (tmp_path / "circle_summary.txt").exists()
        out = capsys.readouterr().out
        assert "experiment: circle" in out
        assert "wrote runs:" in out

    def test_unknown_experiment_is_bad_args(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_missing_experiment_is_bad_args(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_flag_value_is_bad_args(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["circle", "--crossover", "blend"])
        assert excinfo.value.code == 2

    def test_experiment_failure_returns_one(self, tmp_path, capsys):
        code = main(["circle", "--population", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_selection_and_penalty_flags(self, tmp_path):
        code = main(["circle", "--repetitions", "1", "--generations", "3",
                     "--population", "12", "--d0", "0",
                     "--out", str(tmp_path)])
        assert code == 0
        code = main(["circle", "--repetitions", "1", "--generations", "3",
                     "--population", "12", "--d0", "2.0", "--r0", "0.5",
                     "--pairing", "all", "--crossover", "midpoint",
                     "--workers", "0",
                     "--out", str(tmp_path)])
        assert code == 0

    def test_crossover_sweep_with_a_crossover_fails(self, tmp_path, capsys):
        code = main(["crossover-sweep", "--crossover", "none",
                     "--repetitions", "1", "--generations", "2",
                     "--population", "8", "--out", str(tmp_path)])
        assert code == 1
        assert "takes no crossover option" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestOptions:
    """Each override flag comes from bench._OPTIONS and reaches
    run_experiment as its flag types it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def record(name, overrides=None, seed=0, output_directory=None):
            calls.append((name, overrides, seed, output_directory))
            return BenchmarkReport(experiment=name, summary="stub")

        monkeypatch.setattr(divga.cli, "run_experiment", record)
        return calls

    def test_every_override_flag_passes_its_typed_value(self, calls):
        code = main(["scd", "--population", "12", "--generations", "3",
                     "--repetitions", "2", "--crossover", "midpoint",
                     "--pairing", "all", "--d0", "0.5", "--r0", "2",
                     "--workers", "1", "--seed", "7", "--out", "results"])
        assert code == 0
        [(name, overrides, seed, out)] = calls
        assert (name, seed, out) == ("scd", 7, "results")
        assert list(overrides) == list(_OPTIONS)
        assert overrides == {"population": 12, "generations": 3,
                             "repetitions": 2, "crossover": "midpoint",
                             "pairing": "all", "d0": 0.5, "r0": 2.0,
                             "workers": 1}
        assert [type(value) for value in overrides.values()] == [
            int, int, int, str, str, float, float, int]

    def test_no_override_flag_overrides_nothing(self, calls):
        assert main(["circle"]) == 0
        [(name, overrides, seed, out)] = calls
        assert (name, seed, out) == ("circle", 0, ".")
        assert overrides == dict.fromkeys(_OPTIONS)
