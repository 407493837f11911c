"""Tests for the command-line interface."""

import subprocess
import sys
from pathlib import Path

import pytest

from cli_helpers import run_cli

from repro.cli import main


def test_list_names_every_experiment():
    code, out = run_cli("list")
    assert code == 0
    for name in ("table1", "fig12", "fig17", "fig18b", "mape"):
        assert name in out


def test_run_single_experiment():
    code, out = run_cli("run", "table2")
    assert code == 0
    assert "SimCXL" in out


def test_run_multiple_experiments():
    code, out = run_cli("run", "table1", "table2")
    assert code == 0
    assert "Xeon" in out
    assert "SimCXL" in out


def test_run_unknown_experiment():
    code, out = run_cli("run", "fig99")
    assert code == 2
    assert "unknown experiment" in out


def test_run_validates_all_names_before_running_any():
    code, out = run_cli("run", "table1", "fig99")
    assert code == 2
    assert "Xeon" not in out  # nothing executed


def test_list_aligns_long_ids():
    code, out = run_cli("list")
    assert code == 0
    # Doc columns line up even for the longest id (e.g. 'headline').
    starts = {
        line.index(line.split(maxsplit=1)[1])
        for line in out.splitlines()[1:]
        if line.strip()
    }
    assert len(starts) == 1


def test_run_writes_to_file(tmp_path):
    target = tmp_path / "result.txt"
    code, _out = run_cli("run", "table1", "--out", str(target))
    assert code == 0
    assert "Xeon" in target.read_text()


def test_info_shows_profiles():
    code, out = run_cli("info")
    assert code == 0
    assert "CXL-FPGA@400MHz" in out
    assert "CXL-ASIC@1.5GHz" in out
    assert "115.0 ns" in out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_paper_experiments_import_no_numpy():
    """The model of record runs on the standard library: a fresh
    interpreter that imports ``repro`` and ``repro.cli`` and runs every
    paper experiment has loaded no numpy module."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import repro\n"
        "from repro.cli import main\n"
        "from repro.harness.experiments import PAPER_EXPERIMENT_IDS\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['run', *PAPER_EXPERIMENT_IDS])\n"
        "print(code, sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 []\n"
