"""The timing harness (``tools/timing.py``): its row table, its arguments,
the base-tree extraction of its paired mode, and one in-process row."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def timing():
    path = ROOT / "tools" / "timing.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_documented_row_is_in_the_table_once(timing):
    # the docstring's row list: items "- ``name``, ``name``: ...", whose
    # names may run onto the next line
    heads = re.findall(r"^- ((?:``\w+``,?\s*)+):", timing.__doc__, re.M)
    documented = [name for head in heads for name in re.findall(r"``(\w+)``", head)]
    names = [row.name for row in timing.ROWS]
    assert len(set(names)) == len(names)
    assert sorted(documented) == sorted(names)
    # the rows the ROADMAP's timing bars are stated on keep their names
    bar_rows = ["n14_enumeration", "corpus_enumeration", "corpus_setup", "corpus_pass"]
    assert set(bar_rows + ["tight14_cold_s0", "tight14_cold_s1"]) <= set(names)


@pytest.mark.parametrize(
    "argv, problem",
    [
        (["--rows", "no_such_row"], "invalid choice: 'no_such_row'"),
        (["--base", "HEAD"], "--base needs --rows"),
    ],
)
def test_bad_arguments_exit_2_and_name_the_problem(timing, capsys, argv, problem):
    with pytest.raises(SystemExit) as exc:
        timing.main(argv)
    assert exc.value.code == 2
    assert problem in capsys.readouterr().err


def test_extracting_head_gives_the_tracked_src_files(timing, tmp_path):
    try:
        listed = subprocess.run(
            ["git", "-C", str(ROOT), "ls-files", "src"], capture_output=True, text=True, check=True
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    timing.extract("HEAD", tmp_path)
    extracted = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
    assert extracted == sorted(listed)


def test_a_row_runs_in_process_and_prints_one_table_line(timing, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # main puts --src and perfbench first
    timing.main(["--src", str(ROOT / "src"), "--rows", "double_wheel_1000"])
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["row", "median_s", "min_s", "max_s"]
    assert len(lines) == 1
    name, median, low, high = lines[0].split()
    assert name == "double_wheel_1000"
    assert 0 < float(low) <= float(median) <= float(high)
