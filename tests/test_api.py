"""The public surface: the stacked kernels are the API, and the two
one-problem helpers, ``psi_profile`` and ``solve_dual``, are their N = 1
calls."""

import importlib
import pkgutil

import numpy as np
import pytest

import elspec
from elspec import (
    ArmaSpec,
    ConvergenceError,
    NoSolutionError,
    adjust_rows,
    psi_profile,
    psi_profile_rows,
    solve_dual,
    solve_duals,
)
from elspec.arma import lag_table

# The N = 1 object layer these kernels replaced.
REMOVED = ("PsiMatrix", "adjust", "el_stat", "psi_full", "estimate_bartlett", "derive_seed",
           "all_fourier_ordinates")


def _modules():
    yield elspec
    for info in pkgutil.iter_modules(elspec.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"elspec.{info.name}")


def test_every_public_name_resolves():
    assert len(set(elspec.__all__)) == len(elspec.__all__)
    for name in elspec.__all__:
        assert getattr(elspec, name) is not None, name
    assert {"solve_duals", "DualBatch", "adjust_rows", "psi_profile_rows",
            "bartlett_constants"} <= set(elspec.__all__)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_absent(name):
    assert name not in elspec.__all__
    for module in _modules():
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("spec", [ArmaSpec(ma=[0.4]), ArmaSpec(ar=[0.6], ma=[-0.3]),
                                  ArmaSpec(ar=[0.5, 0.2], ma=[0.4])], ids=str)
def test_psi_profile_is_the_single_problem_row_stack(arma11_pg_t60, spec):
    pg = arma11_pg_t60
    want = psi_profile_rows(lag_table(pg.freqs, max(spec.order)), pg.ords,
                            spec.ar[None], spec.ma[None])[0]
    got = psi_profile(pg, spec)
    assert got.shape == want.shape == (pg.n, sum(spec.order))
    assert got.strides == want.strides
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("adjusted", [False, True])
def test_solve_dual_matches_the_single_problem_stack(arma11_pg_t60, adjusted):
    rows = psi_profile(arma11_pg_t60, ArmaSpec(ar=[0.45], ma=[0.35]))
    if adjusted:
        rows = adjust_rows(rows)
    sol = solve_dual(rows, adjusted=adjusted)
    res = solve_duals(rows[None], adjusted=adjusted)
    assert res.status[0] == 0
    assert sol.stat == res.stat[0] and sol.inner_iterations == res.iterations[0]
    np.testing.assert_array_equal(sol.xi, res.xi[0])
    assert np.all(sol.weights > 0.0) and abs(sol.weights.sum() - 1.0) < 1e-12
    assert np.linalg.norm(sol.weights @ rows) < 1e-10


def test_solve_dual_raises_on_no_solution_and_failure():
    # status 1: every row on one side of zero; status 2: a Newton matrix
    # with an exactly zero pivot (one row a trillion times the others)
    one_sided = np.random.default_rng(1).uniform(0.5, 2.0, size=(6, 2))
    singular = np.array([[1.0, 0.0], [-1.0, 0.5], [0.2, -1.0], [-0.3, -0.4], [0.5, 0.9],
                         [1e12, 1e9]])
    assert list(solve_duals(np.stack([one_sided, singular])).status) == [1, 2]
    with pytest.raises(NoSolutionError):
        solve_dual(one_sided)
    with pytest.raises(ConvergenceError) as info:
        solve_dual(singular)
    res = solve_duals(singular[None])
    assert info.value.iterations == res.iterations[0]
