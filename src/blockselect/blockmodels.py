"""Blockmodel parameters, probability matrices, random generation, and
plug-in fits for the bootstrap null.

Three nested models over labels tau in [1..K]:

* SBM:  P_ij = omega[tau_i, tau_j]
* DCBM: P_ij = theta_i * omega[tau_i, tau_j] * theta_j, block-wise
  max theta = 1 for identifiability
* PABM: P_ij = lam[i, tau_j] * lam[j, tau_i] with an n x K popularity
  matrix lam; the DCBM is the PABM with lam[i, b] = theta_i *
  sqrt(omega[tau_i, b]), and the SBM is the DCBM at theta = 1

Generators target an expected density (or average degree) by solving for a
single multiplicative scalar on omega; the SBM generator is the DCBM
scaling at theta = 1. A target that would push any probability above 1 is
an error, except that ``gen_dcbm`` clamps up to 1% of its pair products at
1, with a warning.

One rule, ``_entries``, checks every parameter array where it enters:
each entry must be finite and in its array's range. Nothing re-checks it.

Edge probabilities of all three models are held in that PABM form,
``FactoredProb``: P_ij = min(1, lam[i, tau_j] * lam[j, tau_i]) with one
n x K factor, in O(nK). Generators, plug-in fits and the sampler never
build the n x n matrix; ``prob_matrix`` does, for small n and tests. On
graphs of at most 724 nodes, a caller that draws many graphs from one form,
as a bootstrap does from its fit, can ask the sampler to draw against the
triangle of pair products instead, cached on the factored form
(``FactoredProb.triangle``, at most 2 MiB), so the draws pay for it once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import IO, Union

import numpy as np

from ._seeds import derive_seed
from .errors import DegenerateModelError, InfeasibleModelError
from .netcore import Graph, degrees

_EPS = 1e-12


# ---------------------------------------------------------------------------
# degree-parameter sampling laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Beta:
    """Beta(a, b) draws in (0, 1)."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError(f"Beta needs a, b > 0 and finite, got a = {self.a}, b = {self.b}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.beta(self.a, self.b, size)


@dataclass(frozen=True)
class PowerLaw:
    """Pareto draws on [xmin, inf) with density proportional to x^-alpha.

    Inverse-CDF sampling: x = xmin * u^{-1/(alpha-1)}. Mean is
    xmin * (alpha-1)/(alpha-2) for alpha > 2. A law whose largest draw,
    at the smallest u = 2^-53, overflows is refused.
    """

    xmin: float = 1.0
    alpha: float = 5.0

    def __post_init__(self):
        if not (0 < self.xmin < math.inf and 1 < self.alpha < math.inf):
            raise ValueError(
                f"PowerLaw needs xmin > 0 and alpha > 1, both finite, got xmin = {self.xmin}, "
                f"alpha = {self.alpha}"
            )
        with np.errstate(over="ignore"):
            top = self._draws(np.full(1, 2.0**-53))[0]
        if not math.isfinite(top):
            raise ValueError(
                f"PowerLaw's largest draw overflows: xmin = {self.xmin}, alpha = {self.alpha}"
            )

    def _draws(self, u: np.ndarray) -> np.ndarray:
        return self.xmin * u ** (-1.0 / (self.alpha - 1.0))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._draws(1.0 - rng.random(size))  # u in (0, 1]; avoids u = 0


@dataclass(frozen=True)
class Constant:
    """Degenerate law; every draw equals ``value``."""

    value: float = 1.0

    def __post_init__(self):
        if not 0 < self.value < math.inf:
            raise ValueError(f"Constant needs value > 0 and finite, got {self.value}")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)


ThetaLaw = Union[Beta, PowerLaw, Constant]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

def _entries(values, name: str, limit: float | None = None, low: float = 0.0) -> np.ndarray:
    """``values`` as float64, refusing an entry that is not finite, below
    ``low`` (0, or -_EPS where such entries are read as 0) or above
    ``limit`` + _EPS; no upper bound when ``limit`` is None."""
    values = np.asarray(values, dtype=np.float64)
    lo, hi = values.min(initial=0.0), values.max(initial=0.0)  # NaN propagates
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} entries must be finite")
    if limit is not None and (lo < low or hi > limit + _EPS):
        raise ValueError(f"{name} entries must lie in [0, {limit:g}]")
    if lo < low:
        raise ValueError(f"{name} entries must be nonnegative")
    return values


def _validate_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """The checks of ``_validate_factor_labels``, plus a nonempty vector
    that gives every one of the k communities a node."""
    labels = _validate_factor_labels(labels, k)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    counts = np.bincount(labels, minlength=k + 1)[1:]
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0]) + 1
        raise ValueError(f"community {missing} is empty")
    return labels


def _validate_omega(
    omega, k: int, limit: float | None = None, name: str = "omega"
) -> np.ndarray:
    """K x K block matrix of ``_entries`` in [-_EPS, limit + _EPS],
    symmetric to within _EPS (relative to the largest entry past 1);
    returns the symmetrized matrix clipped to [0, limit]. Under
    max-theta-1 normalization a DCBM's omega may exceed 1: only the
    products theta_i omega theta_j are probabilities."""
    omega = _entries(omega, name, limit, low=-_EPS)
    if omega.shape != (k, k):
        raise ValueError(f"{name} must be {k}x{k}")
    scale = max(1.0, np.abs(omega).max(initial=0.0))
    if np.max(np.abs(omega - omega.T), initial=0.0) > _EPS * scale:
        raise ValueError(f"{name} must be symmetric")
    return np.clip((omega + omega.T) / 2.0, 0.0, limit)


@dataclass(frozen=True)
class SbmParams:
    k: int
    omega: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", _validate_labels(self.labels, self.k))
        object.__setattr__(self, "omega", _validate_omega(self.omega, self.k, limit=1.0))

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class DcbmParams:
    """Degree-corrected parameters, canonicalized at construction.

    The identifiability constraint max theta = 1 within every community is
    applied by rescaling theta block-wise and absorbing the scale into
    omega (omega_kl <- s_k * s_l * omega_kl), which leaves the edge
    probability matrix unchanged.
    """

    k: int
    omega: np.ndarray = field(repr=False)
    theta: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = _validate_labels(self.labels, self.k)
        omega = _validate_omega(self.omega, self.k)
        theta = _entries(self.theta, "theta", limit=1.0)
        if theta.shape != labels.shape:
            raise ValueError("theta must have one entry per node")
        scale = np.ones(self.k)
        for k in range(1, self.k + 1):
            block_max = theta[labels == k].max()
            if block_max <= 0.0:
                raise ValueError(f"community {k} has all-zero theta")
            scale[k - 1] = block_max
        theta = theta / scale[labels - 1]
        # symmetric and nonnegative to the last bit, as omega is
        omega = omega * np.outer(scale, scale)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class PabmParams:
    k: int
    lam: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = _validate_labels(self.labels, self.k)
        lam = _entries(self.lam, "lambda", limit=1.0)
        if lam.shape != (labels.size, self.k):
            raise ValueError(f"lambda must be n x {self.k}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "lam", np.clip(lam, 0.0, 1.0))

    @property
    def n(self) -> int:
        return self.labels.size


ModelParams = Union[SbmParams, DcbmParams, PabmParams]


@dataclass(frozen=True)
class ProbMatrix:
    """Symmetric edge-probability matrix with zero diagonal.

    The dense form takes n^2 floats, for small n and tests; the generators,
    fits and sampler use ``FactoredProb`` below, which holds O(nK).
    """

    p: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = _entries(self.p, "probability", limit=1.0, low=-_EPS)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("probability matrix must be square")
        if np.max(np.abs(p - p.T), initial=0.0) > _EPS:
            raise ValueError("probability matrix must be symmetric")
        if np.max(np.abs(np.diag(p)), initial=0.0) > 0.0:
            raise ValueError("diagonal must be zero")
        object.__setattr__(self, "p", np.clip(p, 0.0, 1.0))

    @property
    def n(self) -> int:
        return self.p.shape[0]


# ---------------------------------------------------------------------------
# factored edge probabilities
# ---------------------------------------------------------------------------

def _integer_labels(labels, name: str = "labels") -> np.ndarray:
    """``labels`` as int64, refusing values that are not whole numbers
    rather than truncating them; integer arrays pass unchecked."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "biu" and not (
        np.isfinite(labels).all() and (labels == np.trunc(labels)).all()
    ):
        raise ValueError(f"{name} must be integers")
    return labels.astype(np.int64, copy=False)


def _validate_factor_labels(labels, k: int) -> np.ndarray:
    labels = _integer_labels(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-d vector")
    if labels.size and (labels.min() < 1 or labels.max() > k):
        raise ValueError(f"labels must lie in [1, {k}]")
    return labels


@dataclass(frozen=True, eq=False)
class FactoredProb:
    """P_ij = min(1, lam[i, tau_j] * lam[j, tau_i]) for i < j, in O(nK).

    One form holds all three models, as the PABM holds the other two: the
    PABM passes its lambda, the SBM and DCBM lam[i, b] = theta_i *
    sqrt(block[tau_i, b]), with theta = 1 for the SBM. ``block`` may exceed
    1 (plug-in endpoint counts, or omega under max-theta-1 normalization);
    products past 1 are clamped. Rounding puts P_ij within 7 ulp of
    theta_i * block[tau_i, tau_j] * theta_j (1-2 ulp is typical), so a
    product of exactly 1 may read 1 plus an ulp, and then counts as clamped.

    The sampler asks two questions: an upper bound on each row's
    probabilities, and the exact P_ij of given pairs. The bound takes the
    same floating-point product as P_ij with the factor lam[j, tau_i]
    raised to its block maximum; rounding is monotone, so bound_i >= P_ij
    holds exactly, not just up to rounding. At n <= 724, a sampler asked to
    cache reads ``triangle`` instead: every pair's product, cached on first
    use, at most 261,726 floats (2 MiB). ``gen_pabm`` sums the same
    triangle for its density target.
    """

    lam: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        lam = _entries(self.lam, "factor")
        if lam.ndim != 2:
            raise ValueError("the factor must be an n x K matrix")
        labels = _validate_factor_labels(self.labels, lam.shape[1])
        if lam.shape[0] != labels.size:
            raise ValueError("the factor must have one row per node")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.labels.size

    def _raw(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        t = self.labels - 1
        return self.lam[i, t[j]] * self.lam[j, t[i]]

    @cached_property
    def row_bounds(self) -> np.ndarray:
        t = self.labels - 1
        # top[b, a] = max of lam[j, a] over the nodes j of community b
        k = self.lam.shape[1]
        top = np.zeros((k, k))
        np.maximum.at(top, t, self.lam)
        return (self.lam * top[:, t].T).max(axis=1, initial=0.0)

    @cached_property
    def triangle(self) -> np.ndarray:
        """The unclamped product of every pair i < j, in row-major order, 8
        bytes a pair; built in chunks of whole rows, so no pair index is held."""
        t, nodes = self.labels - 1, np.arange(self.n)
        step = max(1, _CHUNK_PAIRS // max(self.n, 1))
        parts = [np.empty(0)]
        for rows in (nodes[start:start + step] for start in range(0, self.n, step)):
            block = self.lam[rows][:, t] * self.lam[:, t[rows]].T  # [r, j]: the pair (rows[r], j)
            parts.append(block[rows[:, None] < nodes])
        return np.concatenate(parts)

    def clamped_pairs(self) -> int:
        """Number of pairs i < j whose product exceeds 1 before the clamp;
        only rows whose bound exceeds 1 are scanned."""
        count = 0
        for i in np.flatnonzero(self.row_bounds > 1.0):
            count += int((self._raw(i, np.arange(i + 1, self.n)) > 1.0).sum())
        return count

    def dense(self) -> np.ndarray:
        toward = self.lam[:, self.labels - 1]  # [i, j] = lam[i, tau_j]
        p = toward * toward.T
        return np.minimum(p, 1.0, out=p)


def _degree_corrected(theta, block, labels) -> FactoredProb:
    """The SBM/DCBM as a PABM, lam[i, b] = theta_i sqrt(block[tau_i, b]), of
    theta, a symmetric nonnegative block matrix and labels, checked by the caller."""
    return FactoredProb(theta[:, None] * np.sqrt(block[labels - 1]), labels)


def edge_probs(params: ModelParams) -> FactoredProb:
    """Factored edge probabilities of the model parameters; an SBM is the
    DCBM form with theta = 1."""
    if isinstance(params, SbmParams):
        return _degree_corrected(np.ones(params.n), params.omega, params.labels)
    if isinstance(params, DcbmParams):
        return _degree_corrected(params.theta, params.omega, params.labels)
    if isinstance(params, PabmParams):
        return FactoredProb(params.lam, params.labels)
    raise TypeError(f"unsupported params type {type(params).__name__}")


def prob_matrix(params: ModelParams | FactoredProb) -> ProbMatrix:
    """Dense edge-probability matrix of model parameters or of a factored
    form (a plug-in fit, say); n^2 floats, for small n and tests.

    Degree-corrected products theta_i omega theta_j are clamped at 1: with
    block-wise max theta = 1, heavy-tailed degree draws can push a few
    top pairs past 1 at realistic density targets.
    """
    factored = params if isinstance(params, FactoredProb) else edge_probs(params)
    p = factored.dense()
    np.fill_diagonal(p, 0.0)
    return ProbMatrix(p)


# pairs per chunk of whole rows in ``sample_graph``: small enough that one
# chunk's uniforms and candidates stay cache-sized, large enough that the
# per-chunk calls cost little at n = 6000 (2^16 drew about 15% slower
# there, on one core of a 2-vCPU VM)
_CHUNK_PAIRS = 1 << 17
# with ``cache``, a triangle of at most 2^18 pairs (n <= 724) is drawn whole
_TRIANGLE_PAIRS = 1 << 18


def _chunk_hits(p: FactoredProb, rng: np.random.Generator, offsets: np.ndarray):
    """Yield, for each chunk of whole rows in turn, the flat indices into
    the row-major triangle (pair (i, j) at offsets[i] + j - i - 1) of the
    chunk's edges. The uniform buffer and the last chunk's scratch arrays
    are freed when the generator is done, before the edge array is built."""
    n = p.n
    bound = p.row_bounds
    t, k = p.labels - 1, p.lam.shape[1]
    # the flat factor, read with two ``take``s: P_ij = lam[i * k + t_j] *
    # lam[j * k + t_i], the product ``_raw`` takes. The clamp at 1 is
    # dropped, because u < 1 makes u < min(x, 1) the same test as u < x.
    lam = p.lam.ravel()
    row_pairs = np.diff(offsets)
    buf = np.empty(min(offsets[-1], max(_CHUNK_PAIRS, n - 1)))
    start = 0
    while start < n - 1:
        stop = int(np.searchsorted(offsets, offsets[start] + _CHUNK_PAIRS, side="right")) - 1
        stop = min(max(stop, start + 1), n - 1)
        local = offsets[start:stop + 1] - offsets[start]
        u = rng.random(out=buf[:local[-1]])
        row_bound, pairs = bound[start:stop], row_pairs[start:stop]
        top = row_bound.max()
        # one chunk-wide bound is a cheaper test per pair than the per-row
        # bounds, unless it admits more than 1/16 of the pairs as extra
        # candidates
        if (top * local[-1] - row_bound @ pairs) * 16 < local[-1]:
            cand = np.flatnonzero(u < top)
        else:
            cand = np.flatnonzero(u < np.repeat(row_bound, pairs))
        # the candidates' rows i and columns j, worked out in place
        row = np.searchsorted(local[1:], cand, side="right")
        col = local.take(row)
        np.subtract(cand, col, out=col)
        col += row
        col += start + 1
        row += start
        at = t.take(col)
        at += k * row
        prob = lam.take(at)
        np.multiply(col, k, out=at)
        at += t.take(row)
        prob *= lam.take(at)
        cand = cand[u.take(cand) < prob]
        cand += offsets[start]
        yield cand
        start = stop


def sample_graph(p: FactoredProb, seed: int, *, cache: bool = False) -> Graph:
    """Independent Bernoulli draws on the upper triangle.

    One uniform per pair i < j in row-major order, drawn in chunks of
    whole rows of about 131k (2^17) pairs; pair (i, j) is an edge when
    its uniform is below P_ij. A chunk's uniforms and candidate arrays
    then take a few MiB, and each chunk keeps only its edges, as flat
    pair indices, which become the (m, 2) edge array once at the end: on
    a dense PABM at n = 900 the traced peak is 5.8 MiB, where 1M-pair
    chunks peaked at 18.7 MiB. Only uniforms below row i's bound are
    candidates, and P_ij is evaluated for the candidates alone, so ``p``
    is sampled in O(nK + m) memory plus one chunk, and the graph is the
    same for every chunk size.

    With ``cache``, for callers that draw many graphs from one ``p``, a
    triangle of at most 2^18 pairs (n <= 724) is drawn whole: the same
    uniforms against ``p.triangle``, every pair's product, built on the
    first such draw and kept on ``p``, so later draws skip the candidate
    step and give the same graphs. That costs up to 2 MiB per
    ``FactoredProb`` at n = 724, kept as long as it lives. Building it
    evaluates every pair, so a single draw is cheaper without ``cache``.
    """
    n = p.n
    rng = np.random.default_rng(seed)
    if n < 2:
        return Graph(n=n, edges=np.empty((0, 2), dtype=np.int64))
    # row i holds pairs (i, i+1..n-1), from flat index offsets[i] on
    offsets = np.concatenate([[0], np.cumsum(np.arange(n - 1, -1, -1))])
    if cache and offsets[-1] <= _TRIANGLE_PAIRS:
        # u < min(x, 1) is u < x for u < 1, as in the candidate step
        flat = np.flatnonzero(rng.random(offsets[-1]) < p.triangle)
    else:
        flat = np.concatenate(list(_chunk_hits(p, rng, offsets)))
    i = np.searchsorted(offsets, flat, side="right")
    i -= 1
    edges = np.empty((flat.size, 2), dtype=np.int64)
    edges[:, 0] = i
    edges[:, 1] = flat - offsets.take(i) + i + 1
    return Graph(n=n, edges=edges)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _block_sizes(n: int, k: int, fractions) -> np.ndarray:
    f = _entries(fractions, "block fraction")
    if f.ndim != 1:
        raise ValueError("block fractions must be a vector")
    if f.size != k:
        raise ValueError("block_fractions length must equal k")
    if abs(f.sum() - 1.0) > 1e-9:
        raise ValueError(f"block fractions must sum to 1, got {f.sum()}")
    bounds = np.rint(np.cumsum(f) * n).astype(np.int64)
    sizes = np.diff(np.concatenate([[0], bounds]))
    if np.any(sizes <= 0):
        raise ValueError("every block must receive at least one node")
    return sizes


def _contiguous_labels(sizes: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(1, sizes.size + 1), sizes)


def _require_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _planted_setting(n: int, k: int, fractions, base_omega, density, avg_degree):
    """Contiguous labels, validated base omega and target expected edge
    count of an SBM or DCBM setting: all that both generators compute
    before their first random draw."""
    _require_k(k)
    sizes = _block_sizes(n, k, fractions)
    base = _validate_omega(base_omega, k, name="base omega")
    if (density is None) == (avg_degree is None):
        raise ValueError("specify exactly one of target_density / target_avg_degree")
    if density is not None:
        target = float(density) * n * (n - 1) / 2.0
    else:
        target = float(avg_degree) * n / 2.0
    if not target >= 0.0:
        raise ValueError("density target must be nonnegative")
    if target > n * (n - 1) / 2.0:
        raise InfeasibleModelError("density target exceeds 1")
    return _contiguous_labels(sizes), base, target


def _scaled_omega(base, theta, labels, target: float) -> np.ndarray:
    """``base`` times the scalar that makes the expected edge count, the sum
    over pairs i < j of theta_i base[tau_i, tau_j] theta_j, equal ``target``;
    from the per-block sums of theta and theta^2. At theta = 1 (the SBM)
    these are the block sizes s, and (s^2 - s)/2 is each block's pair count."""
    blocks = range(1, base.shape[0] + 1)
    sums = np.array([theta[labels == b].sum() for b in blocks])
    squares = np.array([(theta[labels == b] ** 2).sum() for b in blocks])
    pair_sum = float((np.diag(base) * ((sums**2 - squares) / 2.0)).sum())
    iu = np.triu_indices(base.shape[0], 1)
    pair_sum += float((base[iu] * np.outer(sums, sums)[iu]).sum())
    if pair_sum <= 0.0:
        raise InfeasibleModelError("base parameters give zero expected edges")
    return base * (target / pair_sum)


def _sbm_params(n: int, k: int, fractions, base_omega, density, avg_degree) -> SbmParams:
    """The parameters ``gen_sbm`` samples from, with no random draw: the
    DCBM scaling at theta = 1, and no omega entry may exceed 1."""
    labels, base, target = _planted_setting(n, k, fractions, base_omega, density, avg_degree)
    omega = _scaled_omega(base, np.ones(n), labels, target)
    if omega.max() > 1.0 + _EPS:
        raise InfeasibleModelError(f"density target needs omega entry {omega.max():.4g} > 1")
    return SbmParams(k=k, omega=omega, labels=labels)


def gen_sbm(
    n: int,
    k: int,
    block_fractions,
    base_omega,
    *,
    target_density: float | None = None,
    target_avg_degree: float | None = None,
    seed: int,
) -> tuple[Graph, SbmParams]:
    """Sample an SBM with omega proportional to ``base_omega``, scaled so
    the expected density (or expected average degree) hits the target."""
    params = _sbm_params(n, k, block_fractions, base_omega, target_density, target_avg_degree)
    g = sample_graph(edge_probs(params), derive_seed(seed, "graph"))
    return g, params


def beta_ratio_omega(k: int, beta: float) -> np.ndarray:
    """Base matrix proportional to (1-beta) I + beta 11^T: ``beta`` is the
    ratio of between-block to within-block edge probability."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    return (1.0 - beta) * np.eye(k) + beta * np.ones((k, k))


def gen_dcbm(
    n: int,
    k: int,
    block_fractions,
    base_omega,
    theta_law: ThetaLaw,
    *,
    target_density: float | None = None,
    target_avg_degree: float | None = None,
    seed: int,
) -> tuple[Graph, DcbmParams]:
    """Sample a DCBM: theta drawn i.i.d. from ``theta_law`` and rescaled
    block-wise to max 1, then omega scaled to the density/degree target
    given the realized theta."""
    labels, base, target = _planted_setting(n, k, block_fractions, base_omega,
                                            target_density, target_avg_degree)
    rng = np.random.default_rng(derive_seed(seed, "theta"))
    theta = theta_law.sample(rng, n)
    if not np.all((theta > 0) & (theta < np.inf)):
        raise ValueError("theta draws must be positive and finite")
    for block in range(1, k + 1):
        mask = labels == block
        theta[mask] /= theta[mask].max()
    omega = _scaled_omega(base, theta, labels, target)
    params = DcbmParams(k=k, omega=omega, theta=theta, labels=labels)
    probs = edge_probs(params)
    # heavy-tailed theta can push the very top pair products past 1; those
    # pairs become deterministic edges. A target that clamps more than 1%
    # of pairs is treated as infeasible rather than a changed model.
    n_clamped = probs.clamped_pairs()
    if n_clamped > 0.01 * n * (n - 1) / 2.0:
        raise InfeasibleModelError(
            f"density target clamps {n_clamped} pair probabilities (> 1% of pairs)"
        )
    if n_clamped:
        warnings.warn(
            f"degree target clamped {n_clamped} pair probabilit"
            f"{'y' if n_clamped == 1 else 'ies'} at 1",
            stacklevel=2,
        )
    g = sample_graph(probs, derive_seed(seed, "graph"))
    return g, params


def _pabm_labels(n: int, k: int, density_scale: float | None) -> np.ndarray:
    """Contiguous labels of a PABM setting, after every check ``gen_pabm``
    makes before its first random draw."""
    _require_k(k)
    if n % k != 0:
        raise InfeasibleModelError(f"n={n} not divisible by K={k}")
    if density_scale is not None:
        if not density_scale >= 0.0:
            raise ValueError("density target must be nonnegative")
        if density_scale > 1.0:
            raise InfeasibleModelError("density target exceeds 1")
    return _contiguous_labels(np.full(k, n // k))


def gen_pabm(
    n: int,
    k: int,
    diag_law: Beta = Beta(2, 1),
    offdiag_law: Beta = Beta(1, 2),
    *,
    density_scale: float | None = None,
    seed: int,
) -> tuple[Graph, PabmParams]:
    """Sample a PABM with K equal-sized communities.

    Within-community popularity entries come from ``diag_law``, cross ones
    from ``offdiag_law``. When ``density_scale`` is set, lambda is
    multiplied by sqrt(s) with s chosen so the expected density equals the
    target; a target above 1 is an error before any draw, and an s that
    would push entries above 1 is an error. The expected density is the
    sum of ``FactoredProb.triangle``, 8 bytes a pair, dropped once lambda
    is scaled.
    """
    labels = _pabm_labels(n, k, density_scale)
    block = n // k
    rng = np.random.default_rng(derive_seed(seed, "lambda"))
    lam = np.empty((n, k))
    for kb in range(k):
        rows = slice(kb * block, (kb + 1) * block)
        for col in range(k):
            law = diag_law if col == kb else offdiag_law
            lam[rows, col] = law.sample(rng, block)
    if density_scale is not None:
        # the sum over the triangle in row-major order fixes lambda to the
        # last bit, and with it the sampled graph; keep that order. lambda
        # is in [0, 1], so no product needs the clamp at 1
        pair_sum = float(edge_probs(PabmParams(k=k, lam=lam, labels=labels)).triangle.sum())
        current = pair_sum / (n * (n - 1) / 2) if n > 1 else 0.0
        if current <= 0:
            raise InfeasibleModelError("zero base density, cannot scale")
        s = float(density_scale) / current
        lam_scaled = lam * np.sqrt(s)
        if lam_scaled.max() > 1.0 + _EPS:
            raise InfeasibleModelError(
                f"density target {density_scale} needs lambda entry "
                f"{lam_scaled.max():.4g} > 1"
            )
        lam = np.clip(lam_scaled, 0.0, 1.0)
    params = PabmParams(k=k, lam=lam, labels=labels)
    g = sample_graph(edge_probs(params), derive_seed(seed, "graph"))
    return g, params


# ---------------------------------------------------------------------------
# plug-in fits for the bootstrap null
# ---------------------------------------------------------------------------

def _block_edge_counts(g: Graph, labels: np.ndarray, k: int) -> np.ndarray:
    """counts[a, b] = number of edges between communities a+1 and b+1
    (each unordered edge counted once; within-block on the diagonal)."""
    counts = np.zeros((k, k), dtype=np.float64)
    if g.edge_count:
        a = labels[g.edges[:, 0]] - 1
        b = labels[g.edges[:, 1]] - 1
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        np.add.at(counts, (lo, hi), 1.0)
        counts = counts + np.triu(counts, 1).T
    return counts


def _fit_labels(g: Graph, labels) -> tuple[np.ndarray, int]:
    """The checked ``labels`` of a fit, one per node of ``g``, and their
    number of communities."""
    labels = _integer_labels(labels)
    k = int(labels.max(initial=0))
    _validate_labels(labels, k)
    if labels.size != g.n:
        raise ValueError(f"got {labels.size} labels for a graph of {g.n} nodes")
    return labels, k


def fit_sbm(g: Graph, labels: np.ndarray) -> FactoredProb:
    """Plug-in SBM fit: block-wise edge frequencies.

    omega_hat[k, l] = (edges between communities k, l) / (available pairs).
    A singleton community has no within pairs; its diagonal entry is set
    to 0 with a warning. Returned in factored form with theta = 1.
    """
    labels, k = _fit_labels(g, labels)
    sizes = np.bincount(labels, minlength=k + 1)[1:].astype(np.float64)
    counts = _block_edge_counts(g, labels, k)
    pairs = np.outer(sizes, sizes)
    np.fill_diagonal(pairs, sizes * (sizes - 1) / 2.0)
    omega = np.zeros((k, k))
    ok = pairs > 0
    omega[ok] = counts[ok] / pairs[ok]
    if not ok.all():
        warnings.warn(
            "singleton community: within-block probability set to 0", stacklevel=2
        )
    return _degree_corrected(np.ones(labels.size), omega, labels)


def fit_dcbm(g: Graph, labels: np.ndarray) -> FactoredProb:
    """Degree-ratio plug-in DCBM fit.

    theta_hat_i = deg(i) / (total degree of i's community);
    O_hat[k, l] = edge endpoints between communities k and l (twice the
    within count on the diagonal); P_hat_ij = theta_i O[tau_i, tau_j]
    theta_j clamped at 1, returned in factored form.

    Raises ``DegenerateModelError`` when a community has zero total degree.
    """
    labels, k = _fit_labels(g, labels)
    deg = degrees(g).astype(np.float64)
    block_deg = np.array([deg[labels == b].sum() for b in range(1, k + 1)])
    if np.any(block_deg == 0):
        dead = int(np.flatnonzero(block_deg == 0)[0]) + 1
        raise DegenerateModelError(
            f"community {dead} has zero total degree; merge it or fail the test"
        )
    theta = deg / block_deg[labels - 1]
    o_hat = _block_edge_counts(g, labels, k)
    o_hat = o_hat + np.diag(np.diag(o_hat))  # within-block endpoints count twice
    return _degree_corrected(theta, o_hat, labels)


# ---------------------------------------------------------------------------
# parameter serialization (experiment provenance)
# ---------------------------------------------------------------------------

def _write_matrix(stream: IO[str], name: str, m: np.ndarray) -> None:
    stream.write(f"[{name}]\n")
    m = np.atleast_2d(m)
    for row in m:
        stream.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    stream.write("\n")


def write_params(params: ModelParams, stream: IO[str]) -> None:
    """Key/value header plus matrix blocks, with every value written to 17
    significant digits: a record of the generating parameters."""
    model = {SbmParams: "sbm", DcbmParams: "dcbm", PabmParams: "pabm"}[type(params)]
    stream.write(f"model = {model}\n")
    stream.write(f"n = {params.n}\n")
    stream.write(f"k = {params.k}\n\n")
    if isinstance(params, (SbmParams, DcbmParams)):
        _write_matrix(stream, "omega", params.omega)
    if isinstance(params, DcbmParams):
        _write_matrix(stream, "theta", params.theta[None, :])
    if isinstance(params, PabmParams):
        _write_matrix(stream, "lambda", params.lam)
    _write_matrix(stream, "labels", params.labels[None, :].astype(np.float64))
