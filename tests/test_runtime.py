"""The installed runtime: what ``import catens`` loads, that every command
runs with numpy alone (scipy is a test-only oracle), and how a run that
runs out of memory ends."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import catens

SRC = str(Path(catens.__file__).resolve().parent.parent)

# a meta-path finder that refuses every scipy module, as if it were not installed
NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"No module named {name!r}")

sys.meta_path.insert(0, NoScipy())
"""

RUN_MAIN = """
import sys
from catens.cli import main
sys.exit(main(sys.argv[1:]))
"""


def python(code: str, *argv: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    path = [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, cwd=cwd, env=env, timeout=300,
    )


def test_import_loads_no_scipy_and_no_process_pool():
    done = python(
        "import sys, catens, catens.cli\n"
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m == 'concurrent.futures.process'))"
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.decode().strip() == "[]"


def test_import_loads_core_alone_and_binds_two_names():
    done = python(
        "import sys, types, catens\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'catens'))\n"
        "print(sorted(k for k, v in vars(catens).items()"
        " if not k.startswith('_') and not isinstance(v, types.ModuleType)))"
    )
    assert done.returncode == 0, done.stderr.decode()
    loaded, names = done.stdout.decode().splitlines()
    assert loaded == "['catens', 'catens.core']"
    assert names == "['DataError', 'hamming']"


def test_blocked_scipy_cannot_be_imported():
    done = python(NO_SCIPY + "import scipy.optimize")
    assert done.returncode != 0
    assert b"ImportError" in done.stderr


def _table(path: Path) -> None:
    rows = [f"{'ab'[i % 2]},{'xy'[i % 2]},{'pqr'[i % 3]},{i % 2}" for i in range(12)]
    path.write_text("v0,v1,v2,truth\n" + "\n".join(rows) + "\n", encoding="utf-8")


COMMANDS = {
    "cluster-truth": [
        "cluster", "table.csv", "--header", "--truth-column", "truth", "--method", "ENAL",
        "--k", "2", "--ensemble-size", "6", "--output", "out.csv",
    ],
    "experiment": [
        "experiment", "--design", "D10", "--methods", "HCAL,ENAL", "--replicates", "2",
        "--ensemble-size", "6", "--seed", "4", "--output", "out.tsv",
    ],
    "simulate": ["simulate", "--design", "D11", "--seed", "2", "--output", "out.csv"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_run_without_scipy(command, tmp_path):
    results = []
    for prelude in ("", NO_SCIPY):
        work = tmp_path / ("blocked" if prelude else "normal")
        work.mkdir()
        _table(work / "table.csv")
        done = python(prelude + RUN_MAIN, *COMMANDS[command], cwd=work)
        assert done.returncode == 0, done.stderr.decode()
        results.append((done.stdout, done.stderr, (work / Path(COMMANDS[command][-1])).read_bytes()))
    assert results[0] == results[1]
    if command == "cluster-truth":
        assert results[0][1].startswith(b"classification rate: ")


# caps this process's address space (3 GB), so a huge allocation fails at once
# instead of being overcommitted; only the child process is limited
LIMIT_MEMORY = """
import resource
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 3 * 2**30 if hard == resource.RLIM_INFINITY else min(hard, 3 * 2**30)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
"""


@pytest.mark.parametrize("method", ["ENAL", "ENKM"])
def test_a_size_flag_past_memory_ends_in_one_line(method, tmp_path):
    (tmp_path / "four.csv").write_text("a,x\na,y\nb,x\nb,y\n", encoding="utf-8")
    argv = ["cluster", "four.csv", "--method", method, "--k", "2", "--ensemble-size", "100000000000"]
    done = python(LIMIT_MEMORY + RUN_MAIN, *argv, cwd=tmp_path)
    err = done.stderr.decode()
    assert done.returncode == 1, err
    assert err.startswith("catens: out of memory: ") and err.count("\n") == 1, err
    assert done.stdout == b""
