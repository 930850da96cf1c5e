"""Command line interface: argument handling, files, exit codes."""

import pytest

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
