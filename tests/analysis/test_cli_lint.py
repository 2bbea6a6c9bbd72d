"""The ``repro lint`` CLI subcommand and ``python -m repro.analysis`` runner."""

import textwrap

from repro.analysis import main as analysis_main
from repro.cli import main as cli_main


def write(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestAnalysisMain:
    def test_exit_one_and_report_on_violation(self, tmp_path, capsys):
        path = write(tmp_path / "bad.py", """\
            import numpy as np
            rng = np.random.default_rng()
        """)
        status = analysis_main([str(path), "--no-coverage"])
        out = capsys.readouterr().out
        assert status == 1
        assert f"{path}:2: DET001" in out
        assert "1 violation" in out

    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        path = write(tmp_path / "good.py", """\
            import numpy as np
            rng = np.random.default_rng(0)
        """)
        status = analysis_main([str(path), "--no-coverage"])
        assert status == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_select_runs_only_requested_rules(self, tmp_path, capsys):
        path = write(tmp_path / "nn" / "bad.py", """\
            import numpy as np

            def f(param):
                param.data = np.zeros(3)
                return np.random.default_rng()
        """)
        status = analysis_main([str(path), "--select", "AD001", "--no-coverage"])
        out = capsys.readouterr().out
        assert status == 1
        assert "AD001" in out and "DET001" not in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        status = analysis_main([str(tmp_path / "missing"), "--no-coverage"])
        assert status == 2
        assert "error:" in capsys.readouterr().out

    def test_coverage_gap_fails_run(self, tmp_path, capsys):
        # A minimal package whose only primitive has no gradcheck test.
        write(tmp_path / "pkg" / "tensor" / "ops.py", """\
            def lonely(x):
                return apply("lonely", x)
        """)
        write(tmp_path / "pkg" / "tensor" / "tensor.py", """\
            class Tensor:
                pass
        """)
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        status = analysis_main([str(tmp_path / "pkg"), "--tests", str(tests_dir)])
        out = capsys.readouterr().out
        assert status == 1
        assert "UNCOVERED ops.lonely" in out


class TestCliSubcommand:
    def test_repro_lint_clean_file(self, tmp_path, capsys):
        path = write(tmp_path / "good.py", "import numpy as np\nr = np.random.default_rng(1)\n")
        status = cli_main(["lint", str(path), "--no-coverage"])
        assert status == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_repro_lint_violation_propagates_exit(self, tmp_path, capsys):
        path = write(tmp_path / "bad.py", "import numpy as np\nr = np.random.rand()\n")
        status = cli_main(["lint", str(path), "--no-coverage"])
        assert status == 1
        assert "DET001" in capsys.readouterr().out

    def test_repro_lint_select_forwarded(self, tmp_path, capsys):
        path = write(tmp_path / "bad.py", "import numpy as np\nr = np.random.rand()\n")
        status = cli_main(["lint", str(path), "--select", "API001", "--no-coverage"])
        assert status == 0  # DET001 not selected, so the file is clean
        assert "lint: clean" in capsys.readouterr().out
