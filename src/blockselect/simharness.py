"""Simulation studies over parameter grids with reproducible seeding.

A study runs community detection (mislabel rate against planted truth) or
one of the bootstrap tests (rejection indicator) over a grid of generator
settings, replicated with per-(point, replicate, method) derived seeds so
any single cell value can be recomputed in isolation. Failed replicates
are recorded, never redrawn: here the failure rate is itself data.
"""

from __future__ import annotations

import configparser
import enum
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._seeds import derive_seed
from .blockmodels import (
    Beta,
    Constant,
    PowerLaw,
    ThetaLaw,
    _pabm_labels,
    _planted_setting,
    _sbm_params,
    beta_ratio_omega,
    gen_dcbm,
    gen_pabm,
    gen_sbm,
)
from .cluster import _require_pabm_embedding, mislabel_rate, osc, rsc_l, sc_l
from .errors import ConfigError
from .modelselect import ModelKind, detect, test_dcbm_vs_pabm, test_sbm_vs_dcbm
from .netcore import Graph


class Study(enum.Enum):
    COMM_DET_SBM = "comm_det_sbm"
    COMM_DET_DCBM = "comm_det_dcbm"
    COMM_DET_PABM = "comm_det_pabm"
    TEST_SBM_VS_DCBM = "test_sbm_vs_dcbm"
    TEST_DCBM_VS_PABM = "test_dcbm_vs_pabm"


# detection studies and the model that draws their graphs
_COMM_DET_STUDIES = {
    Study.COMM_DET_SBM: "sbm", Study.COMM_DET_DCBM: "dcbm", Study.COMM_DET_PABM: "pabm",
}
# the degree law of a DCBM grid point that sets none
_DEFAULT_THETA_LAW = "beta:1,5"
# the optional grid keys the generator of each model reads
_MODEL_KEYS = {
    "sbm": {"beta", "omega", "fractions", "density", "avg_degree"},
    "dcbm": {"beta", "omega", "fractions", "density", "avg_degree", "theta_law"},
    "pabm": {"density"},
}
# detection methods: the model whose loss ``detect`` minimizes, or a
# spectral-clustering baseline
_DETECTORS = {"q1": ModelKind.SBM, "q2": ModelKind.DCBM, "q3": ModelKind.PABM}
_BASELINES = {"sc_l": sc_l, "rsc_l": rsc_l, "osc": osc}
_METHODS = _DETECTORS.keys() | _BASELINES.keys()


@dataclass(frozen=True)
class GridPoint:
    """One generator configuration.

    ``omega`` (explicit base matrix) and ``beta`` (ratio of between- to
    within-block probability) are alternative ways to specify the block
    matrix for SBM/DCBM settings. Exactly one of ``density`` /
    ``avg_degree`` sets the expected scale; for the popularity model
    ``density`` is an optional rescale target and both may be absent.
    """

    n: int
    k: int
    beta: float | None = None
    omega: tuple[tuple[float, ...], ...] | None = None
    fractions: tuple[float, ...] | None = None
    density: float | None = None
    avg_degree: float | None = None
    theta_law: ThetaLaw | None = None
    true_model: str | None = None

    def base_omega(self) -> np.ndarray:
        if self.omega is not None:
            return np.asarray(self.omega, dtype=np.float64)
        if self.beta is not None:
            return beta_ratio_omega(self.k, self.beta)
        raise ConfigError("needs omega or beta")

    def block_fractions(self) -> np.ndarray:
        if self.fractions is not None:
            return np.asarray(self.fractions, dtype=np.float64)
        return np.full(self.k, 1.0 / self.k)


@dataclass(frozen=True)
class ExperimentSpec:
    study: Study
    grid: tuple[GridPoint, ...]
    methods: tuple[str, ...]
    n_replicates: int = 20
    n_boot: int = 100
    alpha: float = 0.05
    restarts: int | None = None
    base_seed: int = 0

    def validate(self) -> None:
        if self.n_replicates < 1:
            raise ConfigError("n_replicates must be >= 1")
        if not self.grid:
            raise ConfigError("grid must contain at least one point")
        if self.study in _COMM_DET_STUDIES:
            bad = set(self.methods) - _METHODS
            if bad or not self.methods:
                raise ConfigError(f"invalid methods {sorted(bad)} for {self.study.value}")
            # a method's cells are keyed by its name, so each runs once
            repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
            if repeated:
                raise ConfigError(f"methods listed more than once: {repeated}")
        if self.restarts is not None and self.restarts < 1:
            raise ConfigError("restarts must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.study not in _COMM_DET_STUDIES and self.n_boot < 1:
            raise ConfigError("n_boot must be >= 1")
        # a table has one header, which the first point's truth decides
        first = _drawn_model(self.study, self.grid[0])
        for i, pt in enumerate(self.grid):
            if pt.n < 2 or pt.k < 1 or pt.k > pt.n:
                raise ConfigError(f"grid point {i + 1}: bad (n, k) = ({pt.n}, {pt.k})")
            if pt.true_model is not None and pt.true_model not in ("sbm", "dcbm", "pabm"):
                raise ConfigError(
                    f"grid point {i + 1}: true_model must be sbm/dcbm/pabm"
                )
            model = _drawn_model(self.study, pt)
            if model is None:
                raise ConfigError(f"grid point {i + 1}: test study needs true_model")
            if (model == "pabm") != (first == "pabm"):
                raise ConfigError(
                    f"grid point {i + 1}: {model} truth cannot share a table with "
                    f"grid point 1's {first} truth"
                )
            # the generator's own code up to its first random draw
            try:
                if model == "pabm":
                    _pabm_labels(pt.n, pt.k, pt.density)
                else:
                    setting = _sbm_params if model == "sbm" else _planted_setting
                    setting(pt.n, pt.k, pt.block_fractions(), pt.base_omega(),
                            pt.density, pt.avg_degree)
                # q3 and osc embed into K^2 dimensions
                if self.study in _COMM_DET_STUDIES and {"q3", "osc"} & set(self.methods):
                    _require_pabm_embedding(pt.n, pt.k)
            except ValueError as exc:
                raise ConfigError(f"grid point {i + 1}: {exc}") from exc
            _refuse_unread(model, pt, f"grid point {i + 1}: ")
        if self.study not in _COMM_DET_STUDIES and self.methods:
            # a test study runs its one test per replicate, whatever is listed
            raise ConfigError(f"{self.study.value} runs no methods, got {list(self.methods)}")


@dataclass
class CellResult:
    """Replicate-level metric values for one (grid point, method) cell."""

    values: list[float] = field(default_factory=list)
    seeds: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    metric: str = "mislabel"

    @property
    def ok_values(self) -> np.ndarray:
        return np.asarray(
            [v for v in self.values if not math.isnan(v)], dtype=np.float64
        )

    @property
    def mean(self) -> float:
        vals = self.ok_values
        return float(vals.mean()) if vals.size else float("nan")

    @property
    def se(self) -> float:
        vals = self.ok_values
        if vals.size <= 1:
            return 0.0
        return float(vals.std(ddof=1) / np.sqrt(vals.size))

    @property
    def n_failed(self) -> int:
        return len(self.errors)

    def failed(self, n_replicates: int) -> bool:
        return self.n_failed > 0.1 * n_replicates


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    cells: dict[tuple[int, str], CellResult]


def _drawn_model(study: Study | None, pt: GridPoint) -> str | None:
    """The model that draws a grid point's graphs: a detection study's own,
    else the point's ``true_model`` (test studies, and ``generate``, which
    has no study)."""
    return _COMM_DET_STUDIES.get(study, pt.true_model)


def _refuse_unread(model: str, pt: GridPoint, where: str) -> None:
    """Refuse a grid point that sets a key the generator of ``model`` never
    reads: the draw would silently differ from what the point says."""
    unread = [key for key in _GRID_KEYS
              if key != "true_model" and key not in _MODEL_KEYS[model]
              and getattr(pt, key) is not None]
    if unread:
        raise ConfigError(f"{where}the {model} generator reads no {', '.join(unread)}")


def _generate(study: Study | None, pt: GridPoint, seed: int):
    """Graph plus planted parameters for one draw at a grid point."""
    model = _drawn_model(study, pt)
    if model == "pabm":
        return gen_pabm(pt.n, pt.k, density_scale=pt.density, seed=seed)
    scale = dict(target_density=pt.density, target_avg_degree=pt.avg_degree, seed=seed)
    if model == "sbm":
        return gen_sbm(pt.n, pt.k, pt.block_fractions(), pt.base_omega(), **scale)
    if model == "dcbm":
        law = pt.theta_law if pt.theta_law is not None else _parse_theta_law(_DEFAULT_THETA_LAW)
        return gen_dcbm(pt.n, pt.k, pt.block_fractions(), pt.base_omega(), law, **scale)
    raise ConfigError(f"unknown true_model {model!r}")


def _run_method(method: str, g: Graph, k: int, restarts: int | None, seed: int):
    if method in _DETECTORS:
        return detect(g, k, _DETECTORS[method], restarts, seed=seed)
    if method in _BASELINES:
        # the baselines keep their own restart default
        extra = {} if restarts is None else {"n_restarts": restarts}
        return _BASELINES[method](g, k, seed=seed, **extra)
    raise ConfigError(f"unknown method {method!r}")


def replicate_seed(spec: ExperimentSpec, point_idx: int, rep_idx: int, method: str) -> int:
    return derive_seed(spec.base_seed, point_idx, rep_idx, method)


def run_single_replicate(
    spec: ExperimentSpec, point_idx: int, rep_idx: int, method: str
) -> float:
    """Metric for one replicate; re-runnable in isolation from its seed."""
    pt = spec.grid[point_idx]
    seed = replicate_seed(spec, point_idx, rep_idx, method)
    g, params = _generate(spec.study, pt, derive_seed(seed, "gen"))
    if spec.study in _COMM_DET_STUDIES:
        sol = _run_method(method, g, pt.k, spec.restarts, derive_seed(seed, "method"))
        return mislabel_rate(sol.labels, params.labels, pt.k)
    test = test_sbm_vs_dcbm if spec.study is Study.TEST_SBM_VS_DCBM else test_dcbm_vs_pabm
    result, _ = test(
        g, pt.k, n_boot=spec.n_boot, alpha=spec.alpha, restarts=spec.restarts,
        seed=derive_seed(seed, "test"),
    )
    return 1.0 if result.rejected else 0.0


def _cell_methods(spec: ExperimentSpec) -> tuple[str, ...]:
    """The methods a study runs at each grid point: one cell each."""
    return tuple(spec.methods) if spec.study in _COMM_DET_STUDIES else ("test",)


def run_experiment(spec: ExperimentSpec, progress=None) -> ExperimentReport:
    """Run the full grid; deterministic given the experiment settings.

    ``progress`` is an optional callable(point_idx, method, rep_idx) used
    by the CLI for status output.
    """
    spec.validate()
    methods = _cell_methods(spec)
    metric = "mislabel" if spec.study in _COMM_DET_STUDIES else "rejection"
    cells: dict[tuple[int, str], CellResult] = {}
    for point_idx in range(len(spec.grid)):
        for method in methods:
            cell = CellResult(metric=metric)
            for rep_idx in range(spec.n_replicates):
                if progress is not None:
                    progress(point_idx, method, rep_idx)
                cell.seeds.append(replicate_seed(spec, point_idx, rep_idx, method))
                try:
                    value = run_single_replicate(spec, point_idx, rep_idx, method)
                except Exception as exc:  # failures are data here
                    cell.values.append(float("nan"))
                    cell.errors.append(f"replicate {rep_idx}: {exc}")
                else:
                    cell.values.append(value)
            cells[(point_idx, method)] = cell
    return ExperimentReport(spec=spec, cells=cells)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_METHOD_HEADER = {
    "q1": "Q1", "q2": "Q2", "q3": "Q3",
    "sc_l": "SC-L", "rsc_l": "RSC-L", "osc": "OSC", "test": "rejection",
}


def _point_columns(density_column: bool, pt: GridPoint) -> list[tuple[str, str]]:
    def text(value: float | None) -> str:
        return "" if value is None else f"{value:g}"

    if density_column:
        return [("n", str(pt.n)), ("K", str(pt.k)), ("delta", text(pt.density))]
    return [("n", str(pt.n)), ("K", str(pt.k)),
            ("beta", text(pt.beta)), ("avg.degree", text(pt.avg_degree))]


def emit_table(report: ExperimentReport) -> tuple[str, str]:
    """(csv, aligned_text) rendering of the report, one column per cell of
    a grid point.

    A detection study shows mean +/- se of the mislabel rate, a test study
    the rejection proportion. A detection study, or a test study under PABM
    truth (which only a density sets), shows the density column; a test
    study under SBM or DCBM truth shows beta and average degree. The first
    grid point's truth decides, since a table has one header; ``validate``
    rejects a test study that mixes PABM truth with SBM or DCBM truth.
    Cells without data render as NA; failed cells are marked with '!'.
    """
    spec = report.spec
    detection = spec.study in _COMM_DET_STUDIES
    density_column = detection or _drawn_model(spec.study, spec.grid[0]) == "pabm"
    methods = _cell_methods(spec)
    header = [name for name, _ in _point_columns(density_column, spec.grid[0])]
    header += [_METHOD_HEADER[m] for m in methods]
    rows = [[value for _, value in _point_columns(density_column, pt)] for pt in spec.grid]
    for point_idx, row in enumerate(rows):
        for method in methods:
            cell = report.cells.get((point_idx, method))
            if cell is None or not cell.ok_values.size:
                row.append("NA")
                continue
            text = f"{cell.mean:.2f} +/- {cell.se:.3f}" if detection else f"{cell.mean:.2f}"
            if cell.failed(spec.n_replicates):
                text += " !"
            row.append(text)
    lines = [header, *rows]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    csv_text = "".join(",".join(line) + "\n" for line in lines)
    aligned = "".join(
        "  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n" for line in lines
    )
    return csv_text, aligned


def report_provenance(report: ExperimentReport) -> dict:
    """JSON-ready record sufficient to recompute every cell: every field of
    the spec and of its grid points, and each cell's replicates. Only the
    study and a degree law, which JSON cannot hold, are converted."""
    spec = report.spec
    record = {f.name: getattr(spec, f.name) for f in fields(spec)}
    record["study"] = spec.study.value
    record["grid"] = [
        {**asdict(pt), "theta_law": None if pt.theta_law is None else repr(pt.theta_law)}
        for pt in spec.grid
    ]
    record["cells"] = {
        f"{point_idx}:{method}": {
            "metric": cell.metric,
            "values": cell.values,
            "seeds": cell.seeds,
            "errors": cell.errors,
            "mean": cell.mean,
            "se": cell.se,
        }
        for (point_idx, method), cell in report.cells.items()
    }
    return record


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _parse_theta_law(text: str) -> ThetaLaw:
    name, _, args = text.partition(":")
    parts = [float(tok) for tok in args.split(",")] if args else []
    name = name.strip().lower()
    if name == "beta" and len(parts) == 2:
        return Beta(parts[0], parts[1])
    if name == "powerlaw" and len(parts) == 2:
        return PowerLaw(parts[0], parts[1])
    if name == "constant" and len(parts) == 1:
        return Constant(parts[0])
    raise ConfigError(f"bad theta_law {text!r} (want beta:a,b | powerlaw:xmin,alpha | constant:v)")


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _parse_matrix(text: str) -> tuple[tuple[float, ...], ...]:
    rows = tuple(_parse_floats(row) for row in text.split(";"))
    if len({len(row) for row in rows}) > 1:
        raise ConfigError(f"rows of unequal length {[len(row) for row in rows]}")
    return rows


def _get(section, key, conv, *, where=""):
    raw = section.get(key)
    if raw is None:
        return None
    try:
        return conv(raw)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}{key} = {raw!r}: {exc}") from exc


# the optional keys of a [grid.N] section, each named as its GridPoint field
_GRID_KEYS = {
    "beta": float, "omega": _parse_matrix, "fractions": _parse_floats, "density": float,
    "avg_degree": float, "theta_law": _parse_theta_law, "true_model": str,
}
# the optional keys of [experiment]: (ExperimentSpec field, key, parser)
_EXPERIMENT_KEYS = (
    ("n_replicates", "replicates", int), ("n_boot", "bootstrap", int),
    ("alpha", "alpha", float), ("restarts", "restarts", int), ("base_seed", "base_seed", int),
)


def _grid_point(keys, where: str) -> GridPoint:
    """A grid point from its ``[grid.N]`` keys: the text of a config
    section, or the flags of ``blockselect generate``."""
    n = _get(keys, "n", int, where=where)
    k = _get(keys, "k", int, where=where)
    if n is None or k is None:
        raise ConfigError(f"{where}requires n and k")
    return GridPoint(n=n, k=k, **{
        key: _get(keys, key, conv, where=where) for key, conv in _GRID_KEYS.items()
    })


def _check_keys(section, known) -> None:
    """Reject the keys of a config section that no setting reads."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"[{section.name}]: unknown key(s) {unknown}")


def load_experiment_config(stream) -> ExperimentSpec:
    """Parse an INI-style experiment file: one [experiment] section plus
    [grid.N] sections, numbered 1, 2, ... without gaps.

    A key that no setting of its section reads is an error, as is any key
    in [DEFAULT]: configparser would copy it into [experiment] and every
    [grid.N] alike, and no key is read by both."""
    parser = configparser.ConfigParser()
    try:
        parser.read_file(stream)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    if parser.defaults():
        raise ConfigError(f"[DEFAULT]: unknown key(s) {sorted(parser.defaults())}")
    if "experiment" not in parser:
        raise ConfigError("missing [experiment] section")
    exp = parser["experiment"]
    _check_keys(exp, ["study", "methods", *(key for _, key, _ in _EXPERIMENT_KEYS)])
    try:
        study = Study(exp.get("study", ""))
    except ValueError:
        valid = ", ".join(s.value for s in Study)
        raise ConfigError(f"study must be one of: {valid}") from None
    methods_raw = exp.get("methods", "")
    methods = tuple(m.strip() for m in methods_raw.split(",") if m.strip())
    # keys the file leaves out keep the ExperimentSpec defaults
    settings = {
        name: _get(exp, key, conv, where="[experiment] ")
        for name, key, conv in _EXPERIMENT_KEYS
        if key in exp
    }
    grid: list[GridPoint] = []
    idx = 1
    while f"grid.{idx}" in parser:
        _check_keys(parser[f"grid.{idx}"], ["n", "k", *_GRID_KEYS])
        grid.append(_grid_point(parser[f"grid.{idx}"], f"grid point {idx}: "))
        idx += 1
    known = {"experiment", *(f"grid.{i}" for i in range(1, idx))}
    stray = [s for s in parser.sections() if s not in known]
    if stray:
        raise ConfigError(f"unknown section(s): {stray}")
    if not grid:
        raise ConfigError("no [grid.N] sections found")
    spec = ExperimentSpec(study=study, grid=tuple(grid), methods=methods, **settings)
    spec.validate()
    return spec
