"""Each command imports only the layers it runs.

The ``projdiff`` namespace is lazy, and the command line imports a layer
inside the command that runs it, so start-up time is paid only for what a
command uses.  The module sets are read from ``python -X importtime``.
"""

import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

import projdiff as pd

LRGMM_CONFIG = """\
[prior]
kind = lrgmm
d = 12
r = 2
k = 3
seed = 5
[sensing]
m = 8
seed = 6
[schedule.geometric]
sigma_max = 0.5
sigma_min = 1e-3
horizon = 20
[run]
n_iters = 20
trials = 2
base_seed = 7
"""


def _imported(env, *args):
    """The names of the modules that ``python -X importtime *args`` imports."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def _projdiff_modules(names):
    return {name for name in names if name == "projdiff" or name.startswith("projdiff.")}


def test_each_command_imports_only_the_layers_it_runs(tmp_path, package_env):
    assert _projdiff_modules(_imported(package_env, "-c", "import projdiff")) == {"projdiff"}

    cfg = tmp_path / "lrgmm.cfg"
    cfg.write_text(LRGMM_CONFIG)
    sim = str(tmp_path / "sim")
    simulated = _projdiff_modules(_imported(package_env, "-m", "projdiff", "simulate", str(cfg),
                                            "--out", sim))
    assert "projdiff.sensing_analysis" in simulated
    assert not simulated & {"projdiff.checks", "projdiff.diagnostics", "projdiff.modelio"}

    analyzed = _imported(package_env, "-m", "projdiff", "analyze", sim)
    assert _projdiff_modules(analyzed) == {"projdiff", "projdiff.cli", "projdiff.errors",
                                           "projdiff.traces", "projdiff.diagnostics"}
    assert {name for name in analyzed if name.split(".")[0] == "numpy"} == set()
    assert "hashlib" not in analyzed

    # Every name of the namespace is the object that its submodule defines.
    assert set(pd.__all__) <= set(dir(pd))
    for name in pd.__all__:
        module = importlib.import_module(f"projdiff.{pd._SUBMODULE[name]}")
        assert getattr(pd, name) is getattr(module, name), name
        assert getattr(pd, name).__module__ == module.__name__, name
    with pytest.raises(AttributeError, match="no_such_name"):
        pd.no_such_name


def test_analyze_runs_where_numpy_cannot_be_imported(flagship_traces, tmp_path, package_env):
    """``analyze`` with numpy blocked writes the same reports, byte for byte, as without."""
    blocked = ("import sys\n"
               "sys.modules['numpy'] = None  # any import of numpy raises ImportError\n"
               "from projdiff import cli\n"
               "sys.exit(cli.main(sys.argv[1:]))\n")
    for argv, out in (([sys.executable, "-m", "projdiff"], tmp_path / "free"),
                      ([sys.executable, "-c", blocked], tmp_path / "blocked")):
        proc = subprocess.run([*argv, "analyze", flagship_traces.out, "--out", str(out)],
                              capture_output=True, text=True, env=package_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("analyzed 80 traces")
    for name in ("rates.csv", "summary.csv"):
        assert (tmp_path / "blocked" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()


def test_traces_are_read_and_written_where_numpy_cannot_be_imported(flagship_traces, tmp_path,
                                                                   package_env):
    """``projdiff.RecoveryTrace`` reads a simulate trace and writes its bytes back without numpy."""
    assert pd._SUBMODULE["RecoveryTrace"] == "traces"
    code = ("import os, sys\n"
            "sys.modules['numpy'] = None  # any import of numpy raises ImportError\n"
            "import projdiff\n"
            "source, target = sys.argv[1:]\n"
            "for name in sorted(os.listdir(source)):\n"
            "    if name.startswith('trace_'):\n"
            "        trace = projdiff.RecoveryTrace.read_csv(os.path.join(source, name))\n"
            "        trace.write_csv(os.path.join(target, name))\n")
    proc = subprocess.run([sys.executable, "-c", code, flagship_traces.out, str(tmp_path)],
                          capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    written = sorted(path.name for path in tmp_path.iterdir())
    assert len(written) == 80
    for name in written:
        source = pathlib.Path(flagship_traces.out, name)
        assert (tmp_path / name).read_bytes() == source.read_bytes(), name


def test_a_simulate_worker_imports_nothing(tmp_path, package_env):
    """Every module a run uses is loaded before simulate forks its workers."""
    code = (
        "import json, sys\n"
        "from projdiff import cli\n"
        "real = cli._run_forked\n"
        "def run_forked(tasks):\n"
        "    loaded = set(sys.modules)\n"
        "    def watched(task):\n"
        "        def run():\n"
        "            return dict(task(), new=sorted(set(sys.modules) - loaded))\n"
        "        return run\n"
        "    results = real([watched(task) for task in tasks])\n"
        "    print(json.dumps([result['new'] for result in results]))\n"
        "    return results\n"
        "cli._run_forked = run_forked\n"
        "cli._worker_count = lambda n_runs: 2\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    cfg = tmp_path / "lrgmm.cfg"
    cfg.write_text(LRGMM_CONFIG)
    proc = subprocess.run([sys.executable, "-c", code, "simulate", str(cfg),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=package_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0]) == [[], []]


def test_only_config_reads_its_private_names():
    """``config`` alone knows what a prior kind is and how to build one.

    No other package module imports a ``_`` name from it or reads one as
    ``config._name``; tests may.
    """
    uses = []
    for path in sorted(pathlib.Path(pd.__file__).parent.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("config", "projdiff.config"):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "config":
                names = [node.attr]
            else:
                continue
            uses += [f"{path.name}:{node.lineno} {name}" for name in names if name.startswith("_")]
    assert uses == []
