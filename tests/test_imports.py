"""Import budget: which scipy modules a fresh interpreter loads, and which
package modules each module imports.

``import elspec`` pulls in numpy only, and not ``numpy.random``; each
subcommand loads the scipy modules it calls (``fit`` none at all), and
nothing loads ``scipy.stats`` or, outside ``coverage`` of models with an AR
part, ``scipy.signal`` (pure-MA series are filtered by a numpy lag sum);
``interval_1d`` and an adjusted k = 3 statistic load no ``scipy.optimize``;
``import elspec`` and ``fit`` load no ``concurrent.futures`` and ``region``
not its thread pool.
These checks read ``sys.modules`` in a child process rather than timing it,
so they do not depend on host load.  The module layers are read from the source with
``ast``: ``el`` imports only ``errors``, and ``arma`` none of the modules
built on the solver.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import elspec

SRC = str(Path(elspec.__file__).resolve().parents[1])

# Prints the modules loaded after the child's code has run; exits with
# ``code`` when the child sets it.
REPORT = """
import json, sys
print("MODULES " + json.dumps(sorted(sys.modules)))
sys.exit(globals().get("code", 0))
"""


def modules_after(code, *argv):
    """Modules loaded by a fresh interpreter that runs ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code + REPORT, *argv], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = [ln for ln in proc.stdout.splitlines() if ln.startswith("MODULES ")][-1]
    return set(json.loads(line.split(" ", 1)[1]))


def scipy_after(code, *argv):
    """scipy modules loaded by a fresh interpreter that runs ``code``."""
    return {m for m in modules_after(code, *argv) if m == "scipy" or m.startswith("scipy.")}


def scipy_modules(*argv):
    """scipy modules loaded by ``elspec <argv>`` in a fresh interpreter."""
    return scipy_after("import sys\nfrom elspec.cli import main\ncode = main(sys.argv[1:])\n", *argv)


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "series.txt"
    values = np.random.default_rng(5).standard_normal(120)
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    return str(path)


def test_import_loads_no_scipy():
    assert scipy_after("import elspec, elspec.cli\n") == set()


def test_import_loads_no_numpy_random():
    # simulate_stack imports numpy.random on its first call
    assert "numpy.random" not in modules_after("import elspec, elspec.cli\n")


def test_periodogram_loads_no_scipy(series_file, tmp_path):
    assert scipy_modules("periodogram", series_file, "--out", str(tmp_path / "pg.csv")) == set()


@pytest.mark.parametrize("argv", [
    ("fit", "--order", "1,1"),
    ("fit", "--order", "1,0", "--no-profile"),
])
def test_fit_loads_no_scipy(series_file, tmp_path, argv):
    command, *options = argv
    assert scipy_modules(command, series_file, *options, "--out", str(tmp_path / "fit.json")) == set()


@pytest.mark.parametrize("argv", [
    ("fit", "--order", "1,0"),
    ("region", "--order", "1,1", "--box", "0:1,0:1", "--steps", "6"),
])
def test_fit_and_region_skip_stats_and_signal(series_file, tmp_path, argv):
    command, *options = argv
    out = ["--out", str(tmp_path / "out.csv")]
    loaded = scipy_modules(command, series_file, *options, *out)
    assert "scipy.stats" not in loaded
    assert "scipy.signal" not in loaded


@pytest.mark.parametrize("model, param, signal", [("ma1", 0.5, False), ("ar1", 0.5, True)])
def test_coverage_loads_signal_only_for_ar_models(tmp_path, model, param, signal):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"model": model, "params": [param], "sample_sizes": [20],
                                "replications": 5, "methods": ["el", "ael"]}))
    loaded = scipy_modules("coverage", "--plan", str(plan), "--out", str(tmp_path / "c.csv"))
    assert "scipy.special" in loaded
    assert ("scipy.signal" in loaded) == signal
    if not signal:  # scipy.signal itself imports scipy.stats
        assert "scipy.stats" not in loaded


def test_import_fit_and_region_load_no_thread_pool(series_file, tmp_path):
    # simulate_stack starts its helper threads on first use, so only
    # coverage pays for the pool; region's scipy.special loads the
    # concurrent.futures package itself (through numpy.testing), but not
    # its thread pool module
    def pool_modules(loaded):
        return {m for m in loaded if m.split(".")[0] == "concurrent"}

    assert pool_modules(modules_after("import elspec, elspec.cli\n")) == set()
    main = "import sys\nfrom elspec.cli import main\ncode = main(sys.argv[1:])\n"
    out = ["--out", str(tmp_path / "out.csv")]
    fit = modules_after(main, "fit", series_file, "--order", "1,1", *out)
    assert pool_modules(fit) == set()
    region = modules_after(main, "region", series_file, "--order", "1,1", "--box", "0:1,0:1",
                           "--steps", "6", *out)
    assert "concurrent.futures.thread" not in region


def test_interval_loads_no_optimize():
    # an MA(1) series built with numpy, so that simulate's scipy.signal stays out
    code = (
        "import numpy as np\n"
        "from elspec import TimeSeries, compute_periodogram, interval_1d\n"
        "e = np.random.default_rng(3).standard_normal(201)\n"
        "pg = compute_periodogram(TimeSeries(e[1:] + 0.5 * e[:-1]))\n"
        "for method in ('el', 'ael', 'eb'):\n"
        "    interval_1d(pg, (0, 1), method=method)\n"
    )
    assert not {m for m in scipy_after(code) if m.startswith("scipy.optimize")}



def test_adjusted_k3_statistic_loads_no_optimize():
    # adjusted rows always have a solution, so no rank >= 3 hull LP runs;
    # the unadjusted statistic of the same model may still load linprog
    code = (
        "import numpy as np\n"
        "from elspec import ArmaSpec, TimeSeries, adjust_rows, compute_periodogram\n"
        "from elspec import psi_profile, solve_dual\n"
        "e = np.random.default_rng(3).standard_normal(201)\n"
        "pg = compute_periodogram(TimeSeries(e[1:] + 0.5 * e[:-1]))\n"
        "psi = psi_profile(pg, ArmaSpec(ar=[0.3, 0.1], ma=[0.4]))\n"
        "solve_dual(adjust_rows(psi), adjusted=True)\n"
    )
    assert not {m for m in scipy_after(code) if m.startswith("scipy.optimize")}

def package_imports():
    """The sibling modules each ``src/elspec`` module imports, read from its
    relative imports (``from .x import ...`` and ``from . import x``)."""
    found = {}
    for path in Path(elspec.__file__).parent.glob("*.py"):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names |= {node.module} if node.module else {a.name for a in node.names}
        found[path.stem] = names
    return found


def test_module_layers():
    # el is the kernel under every path; arma sits below the modules that
    # fit, solve and scan, so neither can close an import cycle
    imports = package_imports()
    assert imports["el"] == {"errors"}
    assert not imports["arma"] & {"el", "whittle", "confidence", "mc"}
