"""Monte Carlo coverage-probability experiments for the EL statistic family.

For each cell (sample size, noise kind, true parameter) the harness draws R
series at the true parameter, evaluates every requested statistic at that
same true value on the same series (paired comparison), and records the
fraction of replications whose statistic stays below its threshold.  An EL
replication whose inner problem has no solution counts as non-coverage (the
value-assigning convention that motivates the adjusted statistic) and is
also tallied separately so its frequency can be audited.
"""

from __future__ import annotations

import json
import logging
import numbers
from dataclasses import dataclass

import numpy as np

from .arma import ArmaSpec, NoiseKind, _seed_states, batch_slices, lag_table, simulate_stack
from .bartlett import bartlett_scale
from .confidence import METHODS, method_stats, method_threshold
from .el import STATUS_FAILED, STATUS_NO_SOLUTION, AdjustmentPolicy
from .errors import InputError, InvalidModelError
from .periodogram import _fft_slices, _retained_freqs, periodogram_stack
from .whittle import psi_profile_rows

MODEL_ORDERS = {"ma1": (0, 1), "ar1": (1, 0), "arma11": (1, 1)}
NOISE_BY_NAME = {
    "normal": NoiseKind.STANDARD_NORMAL,
    "chi2_5": NoiseKind.CENTERED_CHI2_5,
}

_log = logging.getLogger(__name__)


def _as_param_tuple(model: str, value) -> tuple[float, ...]:
    k = sum(MODEL_ORDERS[model])
    if np.isscalar(value):
        value = (value,)
    out = tuple(float(v) for v in value)
    if len(out) != k:
        raise InputError(f"model {model!r} takes {k} parameter(s), got {value!r}")
    return out


def _read_field(name: str, convert, value):
    """``convert(value)`` for plan field ``name``; a value it cannot read
    raises an InputError that names the field."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:  # InputError is a ValueError too
        raise InputError(f"{name}: cannot read {value!r} ({exc})") from exc


def _param_label(param: tuple[float, ...]) -> str:
    return ";".join(f"{v:g}" for v in param)


@dataclass(frozen=True)
class ExperimentPlan:
    """Declarative description of a coverage sweep.

    ``params`` are true parameter points (scalars for ma1/ar1, (phi, theta)
    pairs for arma11); ``tb_constants`` maps a parameter point (or all of
    them, when given as a single number) to a supplied theoretical Bartlett
    constant, required whenever "tb" is among the methods.
    """

    model: str
    params: tuple
    sample_sizes: tuple
    noises: tuple = ("normal",)
    replications: int = 1000
    level: float = 0.90
    methods: tuple = ("el", "ael")
    seed: int = 0
    a_n: str = "half_log"
    noise_centering: str = "exact"
    tb_constants: tuple = ()  # ((param_tuple, b), ...)

    def __post_init__(self):
        if self.model not in MODEL_ORDERS:
            raise InputError(f"unknown model {self.model!r}; choose from {tuple(MODEL_ORDERS)}")
        object.__setattr__(self, "params", _read_field(
            "params", lambda vs: tuple(_as_param_tuple(self.model, v) for v in vs), self.params))
        if not self.params:
            raise InputError("params must be non-empty")
        for param in self.params:
            try:
                ArmaSpec.from_beta1(MODEL_ORDERS[self.model], param)
            except InvalidModelError as exc:
                raise InputError(f"params: {param} is outside the valid region ({exc})")
        sizes = _read_field("sample_sizes", lambda ts: tuple(int(t) for t in ts), self.sample_sizes)
        if not sizes or any(t < 4 for t in sizes):
            raise InputError(f"sample_sizes must all be >= 4, got {self.sample_sizes!r}")
        object.__setattr__(self, "sample_sizes", sizes)
        noises = tuple(self.noises)
        for nz in noises:
            if nz not in NOISE_BY_NAME:
                raise InputError(f"unknown noise {nz!r}; choose from {tuple(NOISE_BY_NAME)}")
        object.__setattr__(self, "noises", noises)
        replications = _read_field("replications", int, self.replications)
        if replications < 1:
            raise InputError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "replications", replications)
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise InputError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        level = _read_field("level", float, self.level)
        if not 0.0 < level < 1.0:
            raise InputError(f"level must be in (0, 1), got {self.level}")
        object.__setattr__(self, "level", level)
        methods = tuple(self.methods)
        for m in methods:
            if m not in METHODS:
                raise InputError(f"unknown method {m!r}; choose from {METHODS}")
        object.__setattr__(self, "methods", methods)
        if self.noise_centering not in ("exact", "empirical"):
            raise InputError(f"noise_centering must be 'exact' or 'empirical', got {self.noise_centering!r}")
        try:
            AdjustmentPolicy(self.a_n)
        except InputError as exc:
            raise InputError(f"a_n: {exc}")

        def read_tb(raw):
            if isinstance(raw, dict):
                raw = raw.items()
            elif np.isscalar(raw):
                raw = [(p, raw) for p in self.params]
            return {_as_param_tuple(self.model, key): float(b) for key, b in raw}

        tb = _read_field("tb_constants", read_tb, self.tb_constants)
        for param, b in tb.items():
            try:  # a negative b shrinks 1 + b/n most at the smallest n
                bartlett_scale(b, (min(sizes) - 1) // 2)
            except InputError as exc:
                raise InputError(f"tb_constants for {param}: {exc}")
        object.__setattr__(self, "tb_constants", tuple(sorted(tb.items())))
        if "tb" in methods:
            missing = [p for p in self.params if p not in dict(self.tb_constants)]
            if missing:
                raise InputError(
                    f"method 'tb' requires tb_constants for every parameter; missing {missing}"
                )

    @property
    def order(self) -> tuple[int, int]:
        return MODEL_ORDERS[self.model]

    @property
    def policy(self) -> AdjustmentPolicy:
        return AdjustmentPolicy(self.a_n)


@dataclass(frozen=True)
class CoverageCell:
    model: str
    sample_size: int
    noise: str
    param: tuple
    method: str
    coverage: float
    se: float
    nosolution: int
    failures: int
    replications: int

    @property
    def param_label(self) -> str:
        return _param_label(self.param)


@dataclass(frozen=True)
class CoverageReport:
    plan: ExperimentPlan
    cells: tuple

    def cell(self, sample_size, noise, param, method) -> CoverageCell:
        param = _as_param_tuple(self.plan.model, param)
        for c in self.cells:
            if (c.sample_size, c.noise, c.param, c.method) == (sample_size, noise, param, method):
                return c
        raise KeyError((sample_size, noise, param, method))


def derive_seeds(base_seed: int, cell_index: int, reps) -> np.ndarray:
    """Deterministic per-replication seeds of replications ``reps`` of a cell,
    as a uint64 array: entry i is
    ``np.random.SeedSequence((base_seed, cell_index, reps[i])).generate_state(1, np.uint64)[0]``,
    all from one vectorized hash.  Every argument must be a non-negative
    integer (InputError otherwise)."""
    return _seed_states((base_seed, cell_index), reps, 1, np.uint64)[:, 0]


def run_coverage(plan: ExperimentPlan) -> CoverageReport:
    """Execute the sweep; deterministic given the plan (including its seed).

    Within one replication every method sees the same simulated series and
    the same estimating-function rows at the true parameter, so method
    comparisons are paired.  Replication r of cell c draws its series from
    ``np.random.default_rng(derive_seeds(plan.seed, c, [r])[0])``.  The
    replications of a cell run in dual batches of at most about 32k psi
    entries (:func:`elspec.arma.batch_slices` of (n + 1) k entries each; 218
    replications at T = 300 with k = 1): a batch's seeds come from one
    :func:`derive_seeds` hash, its series from one
    :func:`elspec.arma.simulate_stack` call as one (R, T) array, its
    ordinates from one :func:`elspec.periodogram.periodogram_stack` call,
    and it has one psi construction and one dual solve per method.  The
    simulation and the FFT chunk their own buffers.  No replication builds a
    TimeSeries or a SeedSequence.  A problem's rows and statistic do not
    depend on its batch, so neither does the report.  ``simulate_stack``
    draws a batch's series on up to one thread per allowed CPU, and the
    rows, so the report too, do not depend on that count; everything after
    the simulation runs in the calling thread (two threads per dual batch
    were slower, from GIL contention on small arrays).  One DEBUG record on
    the ``elspec`` logger per cell gives its replications, dual batches, FFT
    chunks, and each method's Newton steps, no-solution and failed counts.
    """
    order = plan.order
    k = sum(order)
    policy = plan.policy
    tb_map = dict(plan.tb_constants)
    cells = []
    cell_index = 0
    for T in plan.sample_sizes:
        n = (T - 1) // 2
        for noise_name in plan.noises:
            noise = NOISE_BY_NAME[noise_name]
            for param in plan.params:
                spec_true = ArmaSpec.from_beta1(order, param)
                limit = {m: method_threshold(m, k, plan.level, n, tb_map.get(param))
                         for m in plan.methods}
                hits = {m: 0 for m in plan.methods}
                nosol = {m: 0 for m in plan.methods}
                fails = {m: 0 for m in plan.methods}
                table = lag_table(_retained_freqs(T), max(order))
                parts = batch_slices(plan.replications, (n + 1) * k)
                chunks = 0
                steps = {m: 0 for m in plan.methods}
                for part in parts:
                    seeds = derive_seeds(plan.seed, cell_index, range(part.start, part.stop))
                    ords = periodogram_stack(
                        simulate_stack(spec_true, T, seeds, noise, plan.noise_centering))[1]
                    chunks += len(_fft_slices(len(seeds), T))
                    rows = psi_profile_rows(table, ords, spec_true.ar[None], spec_true.ma[None])
                    stats = method_stats(rows, plan.methods, policy)
                    for m in plan.methods:
                        res = stats[m]
                        # stat is NaN unless solved: an unsolved replication
                        # counts as non-coverage.
                        hits[m] += int(np.count_nonzero(res.stat <= limit[m]))
                        nosol[m] += int(np.count_nonzero(res.status == STATUS_NO_SOLUTION))
                        fails[m] += int(np.count_nonzero(res.status == STATUS_FAILED))
                        steps[m] += int(res.iterations.sum())
                _log.debug("%s coverage cell %d (T=%d, %s noise, param %s): %d replications, "
                           "%d dual batches, %d FFT chunks, Newton steps %s, no solution %s, "
                           "failed %s", plan.model, cell_index, T, noise_name, _param_label(param),
                           plan.replications, len(parts), chunks, steps, nosol, fails)
                for m in plan.methods:
                    phat = hits[m] / plan.replications
                    se = float(np.sqrt(phat * (1.0 - phat) / plan.replications))
                    cells.append(
                        CoverageCell(
                            model=plan.model, sample_size=T, noise=noise_name, param=param,
                            method=m, coverage=phat, se=se, nosolution=nosol[m],
                            failures=fails[m], replications=plan.replications,
                        )
                    )
                cell_index += 1
    return CoverageReport(plan=plan, cells=tuple(cells))


@dataclass(frozen=True)
class PairedRow:
    sample_size: int
    noise: str
    param: tuple
    el: float | None
    ael: float | None
    diff: float | None  # ael - el
    ael_closer: bool | None


@dataclass(frozen=True)
class PairedSummary:
    rows: tuple
    n_cells: int
    n_ael_closer: int
    n_gaps: int


def paired_summary(report: CoverageReport) -> PairedSummary:
    """Per-cell AEL-minus-EL coverage differences and how often AEL lands
    closer to the nominal level.  Cells missing one of the two methods are
    kept as gap rows."""
    nominal = report.plan.level
    by_key = {}
    for c in report.cells:
        by_key.setdefault((c.sample_size, c.noise, c.param), {})[c.method] = c.coverage
    rows = []
    closer = gaps = 0
    for key in sorted(by_key):
        el = by_key[key].get("el")
        ael = by_key[key].get("ael")
        if el is None or ael is None:
            rows.append(PairedRow(*key, el=el, ael=ael, diff=None, ael_closer=None))
            gaps += 1
            continue
        is_closer = abs(ael - nominal) < abs(el - nominal)
        closer += is_closer
        rows.append(PairedRow(*key, el=el, ael=ael, diff=ael - el, ael_closer=is_closer))
    return PairedSummary(rows=tuple(rows), n_cells=len(rows), n_ael_closer=closer, n_gaps=gaps)


_PLAN_KEYS = {
    "model", "params", "sample_sizes", "noises", "replications", "level",
    "methods", "seed", "a_n", "noise_centering", "tb_constants",
}


def load_plan(path) -> ExperimentPlan:
    """Read an ExperimentPlan from a JSON plan file (schema in the README)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read plan file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"plan file {path}: not {exc.encoding} text ({exc.reason} at byte {exc.start})")
    except json.JSONDecodeError as exc:
        raise InputError(f"plan file {path}: invalid JSON ({exc})")
    if not isinstance(raw, dict):
        raise InputError(f"plan file {path}: top level must be an object")
    unknown = set(raw) - _PLAN_KEYS
    if unknown:
        raise InputError(f"plan file {path}: unknown field(s) {sorted(unknown)}")
    for required in ("model", "params", "sample_sizes"):
        if required not in raw:
            raise InputError(f"plan file {path}: missing required field {required!r}")
    try:
        kwargs = dict(raw)
        if "tb_constants" in kwargs and isinstance(kwargs["tb_constants"], dict):
            kwargs["tb_constants"] = _read_field("tb_constants", lambda tb: tuple(
                (tuple(float(x) for x in str(key).replace(";", ",").split(",")), b)
                for key, b in tb.items()), kwargs["tb_constants"])
        for tuple_key in ("params", "sample_sizes", "noises", "methods"):
            if tuple_key in kwargs:
                val = kwargs[tuple_key]
                if not isinstance(val, (list, tuple)):
                    raise InputError(f"field {tuple_key!r} must be a list")
                kwargs[tuple_key] = tuple(tuple(v) if isinstance(v, list) else v for v in val)
        return ExperimentPlan(**kwargs)
    except (TypeError, ValueError) as exc:  # InputError is a ValueError too
        raise InputError(f"plan file {path}: {exc}") from exc
