from __future__ import annotations

import pickle
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockselect import blockmodels
from blockselect.blockmodels import (
    Beta,
    Constant,
    DcbmParams,
    FactoredProb,
    PabmParams,
    PowerLaw,
    ProbMatrix,
    SbmParams,
    beta_ratio_omega,
    edge_probs,
    fit_dcbm,
    fit_sbm,
    gen_dcbm,
    gen_pabm,
    gen_sbm,
    prob_matrix,
    sample_graph,
)
from blockselect.errors import DegenerateModelError, InfeasibleModelError
from blockselect.netcore import Graph, avg_degree, density
from conftest import constant_prob, random_graph

TABLE_OMEGA = np.array([[4.0, 2.0, 1.0], [2.0, 4.0, 1.0], [1.0, 1.0, 4.0]])


# ---------------------------------------------------------------------------
# probability matrices
# ---------------------------------------------------------------------------

def test_sbm_single_block_constant():
    params = SbmParams(k=1, omega=np.array([[0.3]]), labels=np.ones(3, dtype=int))
    p = prob_matrix(params).p
    off = p[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.3)
    np.testing.assert_allclose(np.diag(p), 0.0)


def test_dcbm_with_unit_theta_equals_sbm():
    labels = np.array([1, 1, 2, 2, 2])
    omega = np.array([[0.6, 0.1], [0.1, 0.4]])
    sbm = prob_matrix(SbmParams(k=2, omega=omega, labels=labels))
    dcbm = prob_matrix(
        DcbmParams(k=2, omega=omega, theta=np.ones(5), labels=labels)
    )
    np.testing.assert_array_equal(sbm.p, dcbm.p)


def test_pabm_nests_dcbm():
    rng = np.random.default_rng(0)
    labels = np.array([1, 1, 1, 2, 2, 3, 3, 3])
    omega = np.array([[0.8, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.9]])
    theta = rng.uniform(0.3, 1.0, 8)
    for k in (1, 2, 3):
        theta[labels == k] /= theta[labels == k].max()
    dcbm = prob_matrix(DcbmParams(k=3, omega=omega, theta=theta, labels=labels))
    lam = theta[:, None] * np.sqrt(omega[labels - 1, :])
    pabm = prob_matrix(PabmParams(k=3, lam=lam, labels=labels))
    assert np.abs(dcbm.p - pabm.p).max() <= 1e-12


def test_dcbm_normalization_preserves_p():
    # constructor rescales theta block-wise to max 1 and absorbs the scale
    # into omega; the probability matrix must be unchanged
    labels = np.array([1, 1, 2, 2])
    omega = np.array([[0.9, 0.2], [0.2, 0.8]])
    theta = np.array([0.5, 0.25, 0.8, 0.4])
    params = DcbmParams(k=2, omega=omega, theta=theta, labels=labels)
    assert params.theta.max() == 1.0
    for k in (1, 2):
        assert params.theta[labels == k].max() == pytest.approx(1.0)
    direct = theta[:, None] * omega[np.ix_(labels - 1, labels - 1)] * theta[None, :]
    np.fill_diagonal(direct, 0.0)
    np.testing.assert_allclose(prob_matrix(params).p, direct, atol=1e-15)


def test_dcbm_products_clamp_at_one():
    labels = np.array([1, 1, 2, 2])
    omega = np.array([[3.0, 0.5], [0.5, 3.0]])
    params = DcbmParams(k=2, omega=omega, theta=np.ones(4), labels=labels)
    p = prob_matrix(params).p
    # the one-factor products sqrt(3)^2 = 3 - 4e-16 and sqrt(0.5)^2
    assert p[0, 1] == 1.0 and p[0, 2] == np.sqrt(0.5) * np.sqrt(0.5)


@pytest.mark.parametrize("cache", [False, True])
def test_a_pair_whose_product_rounds_past_one_is_clamped_and_always_drawn(cache):
    # theta_i * omega * theta_j = (1 * 2) * 0.5 is exactly 1, but the one
    # factor's (1 * sqrt 2) * (0.5 * sqrt 2) rounds to 1 + 2^-52
    params = DcbmParams(k=1, omega=np.array([[2.0]]), theta=np.array([1.0, 0.5]),
                        labels=np.array([1, 1]))
    p = edge_probs(params)
    assert two_factor_oracle(params.theta, params.omega, params.labels)[0, 1] == 1.0
    assert p.clamped_pairs() == 1
    assert prob_matrix(params).p[0, 1] == 1.0
    for seed in range(50):
        assert sample_graph(p, seed, cache=cache).edges.tolist() == [[0, 1]]
    assert ("triangle" in p.__dict__) == cache
    if cache:
        assert p.triangle.tolist() == [1.0 + 2.0**-52]


def test_prob_matrix_validation():
    with pytest.raises(ValueError, match="symmetric"):
        ProbMatrix(np.array([[0.0, 0.2], [0.3, 0.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        ProbMatrix(np.array([[0.5, 0.2], [0.2, 0.0]]))
    with pytest.raises(ValueError, match="lie in"):
        ProbMatrix(np.array([[0.0, 1.2], [1.2, 0.0]]))


def _omega_cases(limit):
    """(base matrix, accepted) pairs at twice the tolerance on each side of
    the symmetry, lower and (when set) upper limits."""
    eps = blockmodels._EPS
    cases = []
    for factor, ok in ((0.5, True), (2.0, False)):
        asym = np.array([[0.5, 0.2], [0.2 + factor * eps, 0.5]])
        low = np.array([[-factor * eps, 0.2], [0.2, 0.5]])
        cases += [(asym, ok), (low, ok)]
        if limit is not None:
            cases.append((np.array([[limit + factor * eps, 0.2], [0.2, 0.5]]), ok))
    if limit is None:
        # the symmetry tolerance scales with the largest entry past 1
        big = np.array([[400.0, 2.0], [2.0, 4.0]])
        for factor, ok in ((0.5, True), (2.0, False)):
            m = big.copy()
            m[1, 0] += factor * eps * 400.0
            cases.append((m, ok))
    return cases


@pytest.mark.parametrize("caller", ["sbm_params", "dcbm_params", "gen_sbm", "gen_dcbm"])
def test_omega_validation_boundaries(caller):
    labels = np.array([1, 1, 2, 2])
    make = {
        "sbm_params": lambda m: SbmParams(k=2, omega=m, labels=labels).omega,
        "dcbm_params": lambda m: DcbmParams(
            k=2, omega=m, theta=np.ones(4), labels=labels).omega,
        "gen_sbm": lambda m: gen_sbm(
            40, 2, [0.5, 0.5], m, target_density=0.01, seed=0)[1].omega,
        "gen_dcbm": lambda m: gen_dcbm(
            40, 2, [0.5, 0.5], m, Constant(1.0), target_density=0.01, seed=0)[1].omega,
    }[caller]
    limit = 1.0 if caller == "sbm_params" else None
    for m, ok in _omega_cases(limit):
        if ok:
            omega = make(m)
            np.testing.assert_array_equal(omega, omega.T)
            assert omega.min() >= 0.0
            if limit is not None:
                assert omega.max() <= limit
        else:
            with pytest.raises(ValueError, match="omega"):
                make(m)


def test_params_validation():
    with pytest.raises(ValueError, match="empty"):
        SbmParams(k=2, omega=np.eye(2) * 0.5, labels=np.array([1, 1, 1]))
    with pytest.raises(ValueError, match="symmetric"):
        SbmParams(k=2, omega=np.array([[0.5, 0.1], [0.2, 0.5]]),
                  labels=np.array([1, 2]))
    with pytest.raises(ValueError, match="all-zero"):
        DcbmParams(k=2, omega=np.eye(2) * 0.5, theta=np.array([1.0, 0.0]),
                   labels=np.array([1, 2]))


def _with(shape, value, index=0):
    """An all-0.5 array of ``shape`` with ``value`` at one flat index."""
    a = np.full(shape, 0.5)
    a.flat[index] = value
    return a


_LABELS = np.array([1, 1, 2, 2])
# each parameter array where it enters: (its name in the refusal, a call
# that puts one given value in it)
_GUARDED = {
    "sbm omega": ("omega", lambda v: SbmParams(k=2, omega=_with((2, 2), v), labels=_LABELS)),
    "dcbm omega": ("omega", lambda v: DcbmParams(
        k=2, omega=_with((2, 2), v), theta=np.ones(4), labels=_LABELS)),
    "theta": ("theta", lambda v: DcbmParams(
        k=2, omega=np.eye(2), theta=_with(4, v, 1), labels=_LABELS)),
    "lambda": ("lambda", lambda v: PabmParams(k=2, lam=_with((4, 2), v), labels=_LABELS)),
    "factor": ("factor", lambda v: FactoredProb(_with((4, 2), v), _LABELS)),
    "prob matrix": ("probability", lambda v: ProbMatrix(_with((2, 2), v, 1))),
    "gen_sbm fractions": ("block fraction", lambda v: gen_sbm(
        40, 2, [v, 0.5], np.eye(2), target_density=0.1, seed=0)),
    "gen_dcbm fractions": ("block fraction", lambda v: gen_dcbm(
        40, 2, [0.5, v], np.eye(2), Constant(1.0), target_density=0.1, seed=0)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("array", list(_GUARDED))
def test_parameter_arrays_refuse_entries_that_are_not_finite(array, value):
    name, build = _GUARDED[array]
    with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
        build(value)


@pytest.mark.parametrize("array, value, message", [
    ("theta", -0.5, "theta entries must lie in [0, 1]"),
    ("theta", 1.5, "theta entries must lie in [0, 1]"),
    ("lambda", 1.5, "lambda entries must lie in [0, 1]"),
])
def test_parameter_arrays_refuse_entries_out_of_range(array, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _GUARDED[array][1](value)


def test_fits_refuse_empty_labels():
    empty = Graph(n=0, edges=np.empty((0, 2), dtype=np.int64))
    for fit in (fit_sbm, fit_dcbm):
        with pytest.raises(ValueError, match="^labels must be nonempty$"):
            fit(empty, np.array([], dtype=int))


@pytest.mark.parametrize("fit", [fit_sbm, fit_dcbm])
@pytest.mark.parametrize("labels", [[1, 2, 1, 2], [1, 2]])
def test_fits_refuse_labels_of_another_length(fit, labels):
    g = Graph(n=3, edges=np.array([[0, 1], [1, 2]]))
    message = f"got {len(labels)} labels for a graph of 3 nodes"
    with pytest.raises(ValueError, match=f"^{message}$"):
        fit(g, np.array(labels))


@pytest.mark.parametrize("labels, message", [
    (np.ones((2, 2), dtype=int), "labels must be a 1-d vector"),
    (np.array([], dtype=int), "labels must be nonempty"),
    (np.array([1, 3, 2]), "labels must lie in [1, 2]"),
    (np.array([0, 1, 2]), "labels must lie in [1, 2]"),
    (np.array([2, 2]), "community 1 is empty"),
])
def test_params_label_messages(labels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SbmParams(k=2, omega=np.eye(2) * 0.5, labels=labels)


@pytest.mark.parametrize("labels", [[1.9, 2.5], [1.0, 2.5], [1.0, np.nan], [1.0, np.inf]])
def test_params_reject_fractional_labels(labels):
    # a cast to int64 would truncate [1.9, 2.5] to the valid [1, 2]
    with pytest.raises(ValueError, match="^labels must be integers$"):
        SbmParams(k=2, omega=np.eye(2) * 0.5, labels=labels)
    with pytest.raises(ValueError, match="^labels must be integers$"):
        fit_sbm(Graph(n=2, edges=np.array([[0, 1]])), labels)


def test_params_accept_whole_valued_float_labels():
    params = SbmParams(k=2, omega=np.eye(2) * 0.5, labels=[1.0, 2.0])
    assert params.labels.dtype == np.int64
    np.testing.assert_array_equal(params.labels, [1, 2])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_all_ones_gives_complete_graph():
    g = sample_graph(constant_prob(4, 1.0), seed=0)
    assert g.edge_count == 6


def test_sample_all_zeros_gives_empty_graph():
    g = sample_graph(constant_prob(4, 0.0), seed=0)
    assert g.edge_count == 0


def test_sample_half_probability_edge_count():
    # Binomial(124750, 0.5): mean 62375, sd ~176.6; 4 sd band
    g = sample_graph(constant_prob(500, 0.5), seed=123)
    assert abs(g.edge_count - 62375) <= 4 * 176.6


def test_sample_deterministic():
    p = constant_prob(20, 0.3)
    assert sample_graph(p, seed=5) == sample_graph(p, seed=5)
    assert sample_graph(p, seed=5) != sample_graph(p, seed=6)


def test_expected_edge_count_matches_empirical_mean():
    rng = np.random.default_rng(2)
    raw = rng.uniform(0.05, 0.6, (30, 30))
    raw = (raw + raw.T) / 2
    np.fill_diagonal(raw, 0.0)
    # one node per block: the block matrix is P itself
    p = edge_probs(SbmParams(k=30, omega=raw, labels=np.arange(1, 31)))
    iu = np.triu_indices(30, 1)
    mu = raw[iu].sum()
    counts = [sample_graph(p, seed=s).edge_count for s in range(200)]
    sd_mean = np.sqrt((raw[iu] * (1 - raw[iu])).sum() / 200)
    assert abs(np.mean(counts) - mu) <= 3 * sd_mean


# ---------------------------------------------------------------------------
# the factored sampler against the dense triu_indices sampler it replaced
# ---------------------------------------------------------------------------

def pabm_oracle(lam: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reference dense P of the PABM: lam[i, tau_j] * lam[j, tau_i]."""
    toward = lam[:, labels - 1]  # [i, j] = lam[i, tau_j]
    p = toward * toward.T
    np.fill_diagonal(p, 0.0)
    return p


def dcbm_oracle(theta: np.ndarray, block: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Reference dense P of the degree-corrected form: the PABM of lam[i, b]
    = theta_i sqrt(block[tau_i, b]), clamped at 1, with a zero diagonal."""
    lam = theta[:, None] * np.sqrt(block[labels - 1])
    return np.minimum(pabm_oracle(lam, labels), 1.0)


def two_factor_oracle(theta: np.ndarray, block: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The degree-corrected P as the product (theta_i omega) theta_j,
    clamped at 1, with a zero diagonal."""
    t = labels - 1
    p = np.minimum(theta[:, None] * block[np.ix_(t, t)] * theta[None, :], 1.0)
    np.fill_diagonal(p, 0.0)
    return p


def params_oracle(params) -> np.ndarray:
    if isinstance(params, SbmParams):
        return dcbm_oracle(np.ones(params.n), params.omega, params.labels)
    if isinstance(params, DcbmParams):
        return dcbm_oracle(params.theta, params.omega, params.labels)
    return pabm_oracle(params.lam, params.labels)


def triu_sample_graph(p: np.ndarray, seed: int) -> Graph:
    """Reference sampler: one uniform per pair i < j, all drawn at once in
    ``triu_indices`` order, against the dense matrix."""
    rng = np.random.default_rng(seed)
    i, j = np.triu_indices(p.shape[0], 1)
    hit = rng.random(i.size) < p[i, j]
    return Graph(n=p.shape[0], edges=np.column_stack([i[hit], j[hit]]))


def sample_in_chunks(p, seed: int, chunk_pairs: int) -> Graph:
    with mock.patch.object(blockmodels, "_CHUNK_PAIRS", chunk_pairs):
        return sample_graph(p, seed)


def chunked_loop_sample(p: FactoredProb, seed: int, chunk_pairs: int) -> Graph:
    """Reference sampler: the same uniforms, chunks and bound tests as
    ``sample_graph``, written as the plain loop that keeps each chunk's hit
    rows and columns and reads P_ij as ``min(1, _raw(i, j))``."""
    n = p.n
    rng = np.random.default_rng(seed)
    if n < 2:
        return Graph(n=n, edges=np.empty((0, 2), dtype=np.int64))
    bound = p.row_bounds
    row_pairs = np.arange(n - 1, -1, -1)
    offsets = np.concatenate([[0], np.cumsum(row_pairs)])
    rows, cols = [], []
    start = 0
    while start < n - 1:
        stop = int(np.searchsorted(offsets, offsets[start] + chunk_pairs, side="right")) - 1
        stop = min(max(stop, start + 1), n - 1)
        local = offsets[start:stop + 1] - offsets[start]
        u = rng.random(local[-1])
        row_bound, pairs = bound[start:stop], row_pairs[start:stop]
        top = row_bound.max()
        if (top * local[-1] - row_bound @ pairs) * 16 < local[-1]:
            cand = np.flatnonzero(u < top)
        else:
            cand = np.flatnonzero(u < np.repeat(row_bound, pairs))
        row = np.searchsorted(local[1:], cand, side="right")
        col = cand - local[row] + row + start + 1
        row += start
        hit = u[cand] < np.minimum(p._raw(row, col), 1.0)
        rows.append(row[hit])
        cols.append(col[hit])
        start = stop
    return Graph(n=n, edges=np.column_stack([np.concatenate(rows), np.concatenate(cols)]))


def dense_fit(g: Graph, labels: np.ndarray, degree_corrected: bool) -> np.ndarray:
    """Reference plug-in fits from the dense adjacency. Block sums of A
    count a within-block edge twice: the DCBM's endpoint count, and twice
    the SBM's edge count, which is divided by twice its pair count."""
    k = int(labels.max())
    a = np.zeros((g.n, g.n))
    a[g.edges[:, 0], g.edges[:, 1]] = 1.0
    a += a.T
    onehot = (labels[:, None] == np.arange(1, k + 1)).astype(np.float64)
    sums = onehot.T @ a @ onehot
    if degree_corrected:
        return dcbm_oracle(a.sum(axis=1) / sums.sum(axis=1)[labels - 1], sums, labels)
    sizes = onehot.sum(axis=0)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    omega = np.divide(sums, pairs, out=np.zeros_like(sums), where=pairs > 0)
    return dcbm_oracle(np.ones(g.n), omega, labels)


def _random_labels(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Labels in [1, k] with every community used."""
    return rng.permutation(
        np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
    )


def _random_fits(n: int, k: int, p: float, seed: int) -> list:
    """(factored fit, reference dense fit) of a random graph: the SBM
    fit, and the DCBM fit when no community has zero degree."""
    g = random_graph(n, p, seed)
    labels = _random_labels(np.random.default_rng(seed), n, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # singleton communities
        fits = [(fit_sbm(g, labels), dense_fit(g, labels, degree_corrected=False))]
    if np.bincount(labels[g.edges.ravel()], minlength=k + 1)[1:].all():
        fits.append((fit_dcbm(g, labels), dense_fit(g, labels, degree_corrected=True)))
    return fits


@st.composite
def _model_params(draw):
    kind = draw(st.sampled_from(["sbm", "dcbm", "pabm"]))
    n = draw(st.integers(1, 14))
    k = draw(st.integers(1, min(3, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = _random_labels(rng, n, k)
    # quarter steps give probabilities of exactly 0 and 1 and pairs that
    # equal their row's bound
    on_grid = draw(st.booleans())

    def values(shape, high=1.0):
        v = rng.integers(0, 5, shape) / 4 if on_grid else rng.uniform(0, 1, shape)
        return high * v

    def symmetric(m):
        return np.triu(m) + np.triu(m, 1).T

    if kind == "sbm":
        return SbmParams(k=k, omega=symmetric(values((k, k))), labels=labels)
    if kind == "dcbm":
        # omega up to 3 clamps the top products at 1
        theta = values(n)
        for b in range(1, k + 1):
            theta[np.flatnonzero(labels == b)[0]] = 1.0
        omega = symmetric(values((k, k), high=3.0))
        return DcbmParams(k=k, omega=omega, theta=theta, labels=labels)
    return PabmParams(k=k, lam=values((n, k)), labels=labels)


_CHUNKS = st.sampled_from([1, 2, 5, blockmodels._CHUNK_PAIRS, 1 << 20])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(params=_model_params(), seed=st.integers(0, 1000), chunk_pairs=_CHUNKS)
def test_factored_sampler_matches_dense_oracle(params, seed, chunk_pairs):
    dense = params_oracle(params)
    np.testing.assert_array_equal(prob_matrix(params).p, dense)
    want = triu_sample_graph(dense, seed)
    assert sample_in_chunks(edge_probs(params), seed, chunk_pairs) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(params=_model_params().filter(lambda params: not isinstance(params, PabmParams)))
def test_one_factor_is_within_rounding_of_the_two_factor_product(params):
    # P_ij = (theta_i sqrt w)(theta_j sqrt w) takes five roundings and
    # (theta_i w) theta_j two, each within 2^-53 relative, so they differ
    # by at most 7 ulp; at most 5 were seen in 40M random pairs
    theta = params.theta if isinstance(params, DcbmParams) else np.ones(params.n)
    two = two_factor_oracle(theta, params.omega, params.labels)
    assert np.all(np.abs(prob_matrix(params).p - two) <= 7 * np.spacing(two))


@st.composite
def _factored_cases(draw):
    """A factored form and its reference dense matrix: model parameters
    (clamped DCBM products included), or a plug-in fit of a random graph."""
    if draw(st.booleans()):
        params = draw(_model_params())
        return edge_probs(params), params_oracle(params)
    n = draw(st.integers(2, 20))
    fits = _random_fits(
        n, draw(st.integers(1, min(3, n))), draw(st.sampled_from([0.1, 0.4, 1.0])),
        draw(st.integers(0, 1000)),
    )
    return fits[draw(st.integers(0, len(fits) - 1))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_factored_cases())
def test_pair_probs_and_row_bounds_match_reference_formulas(case):
    p, dense = case
    i, j = np.triu_indices(p.n, 1)
    np.testing.assert_array_equal(np.minimum(p._raw(i, j), 1.0), dense[i, j])
    assert np.all(p.row_bounds[i] >= dense[i, j])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 30), k=st.integers(1, 3), p=st.sampled_from([0.1, 0.4, 1.0]),
    seed=st.integers(0, 1000), chunk_pairs=_CHUNKS,
)
def test_fit_samplers_match_dense_oracle(n, k, p, seed, chunk_pairs):
    for fitted, want in _random_fits(n, min(k, n), p, seed):
        np.testing.assert_array_equal(prob_matrix(fitted).p, want)
        assert sample_in_chunks(fitted, seed, chunk_pairs) == triu_sample_graph(want, seed)


@st.composite
def _sampler_cases(draw):
    """A factored form whose pair probabilities are dense (most pairs
    drawn), sparse (most chunks of a few pairs hold no candidate), zero
    everywhere, or zero on the first half of the rows; products past 1
    included."""
    n = draw(st.integers(0, 40))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.integers(1, k + 1, n)
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "zero first rows"]))
    high = {"dense": 1.5, "sparse": 0.05, "zero": 0.0, "zero first rows": 1.0}[kind]
    # products lam_i lam_j in high * [0.25, 1]
    lam = rng.uniform(0.5, 1.0, (n, k)) * np.sqrt(high)
    if kind == "zero first rows":
        lam[:n // 2] = 0.0
    return FactoredProb(lam, labels)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=_sampler_cases(), seed=st.integers(0, 1000), chunk_pairs=_CHUNKS)
def test_sampler_matches_the_chunked_loop_reference(p, seed, chunk_pairs):
    got = sample_in_chunks(p, seed, chunk_pairs)
    want = chunked_loop_sample(p, seed, chunk_pairs)
    assert got.edges.dtype == np.int64 and got.edges.shape == want.edges.shape
    assert got == want


def test_sampler_without_edges_returns_an_empty_int64_array():
    # the first rows have no candidate in any chunk; a zero model draws
    # no edge at all
    labels = np.ones(30, dtype=np.int64)
    zero_first = np.ones((30, 1))
    zero_first[:20] = 0.0
    for lam, chunk_pairs in [(zero_first, 5), (np.zeros((30, 1)), 5),
                             (np.zeros((30, 1)), blockmodels._CHUNK_PAIRS)]:
        p = FactoredProb(lam, labels)
        g = sample_in_chunks(p, 3, chunk_pairs)
        assert g == chunked_loop_sample(p, 3, chunk_pairs)
        assert g.edges.dtype == np.int64
    assert g.edges.shape == (0, 2)


def _triangle_cases(n: int, seed: int) -> list[FactoredProb]:
    """A sparse and a dense form on n nodes, products past 1 included."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(1, 4, n)
    return [FactoredProb(rng.uniform(0.5, 1.0, (n, 3)) * np.sqrt(high), labels)
            for high in (0.02, 1.5)]


@pytest.mark.parametrize("n", [723, 724, 725])
def test_triangle_path_matches_the_chunked_path_around_the_cutoff(n):
    for p in _triangle_cases(n, n):
        for seed in (0, 1):
            got = sample_graph(p, seed, cache=True)
            assert got == sample_graph(p, seed)
            # 2^12-pair chunks: the chunked path, in chunks of whole rows
            assert got == sample_in_chunks(p, seed, 1 << 12)
            assert got == chunked_loop_sample(p, seed, blockmodels._CHUNK_PAIRS)
        # 724 nodes have 261,726 pairs; 725 have 262,450, past
        # _TRIANGLE_PAIRS = 2^18
        assert ("triangle" in p.__dict__) == (n <= 724)
        if n <= 724:
            assert p.triangle.size == n * (n - 1) // 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(p=_sampler_cases(), seed=st.integers(0, 1000))
def test_triangle_path_matches_the_chunked_path(p, seed):
    got = sample_graph(p, seed, cache=True)
    assert got == sample_in_chunks(p, seed, 1)
    assert got == chunked_loop_sample(p, seed, blockmodels._CHUNK_PAIRS)


def test_triangle_is_built_once_and_draws_what_a_fresh_form_draws():
    _, params = gen_pabm(60, 3, seed=0)
    p = edge_probs(params)
    many = [sample_graph(p, seed, cache=True) for seed in range(30)]
    triangle = p.triangle
    assert [sample_graph(edge_probs(params), seed, cache=True) for seed in range(30)] == many
    assert [sample_graph(edge_probs(params), seed) for seed in range(30)] == many
    assert sample_graph(p, 30, cache=True) == sample_graph(edge_probs(params), 30)
    assert p.triangle is triangle


def test_form_pickled_after_a_draw_round_trips():
    p = _triangle_cases(40, 7)[1]
    first = sample_graph(p, 0, cache=True)
    copy = pickle.loads(pickle.dumps(p))
    assert "triangle" in copy.__dict__
    assert copy.triangle.tobytes() == p.triangle.tobytes()
    assert sample_graph(copy, 0, cache=True) == first
    assert ([sample_graph(copy, s, cache=True) for s in range(1, 6)]
            == [sample_graph(p, s, cache=True) for s in range(1, 6)])


def test_no_triangle_is_cached_above_724_nodes():
    p = constant_prob(725, 0.05)
    for seed in range(3):
        sample_graph(p, seed, cache=True)
    assert "triangle" not in p.__dict__


def test_a_draw_without_cache_builds_no_triangle():
    # a single draw evaluates only its candidates; the triangle is for
    # callers that draw many graphs from one form
    p = _triangle_cases(100, 3)[0]
    for seed in range(3):
        sample_graph(p, seed)
    assert "triangle" not in p.__dict__


@pytest.mark.parametrize("n", [0, 1, 2])
def test_sampler_on_tiny_graphs(n):
    labels = np.ones(n, dtype=np.int64)
    rng = np.random.default_rng(n)
    theta, block = rng.uniform(0, 1, n), np.array([[2.5]])
    lam = rng.uniform(0, 1, (n, 1))
    forms = [
        (FactoredProb(theta[:, None] * np.sqrt(block[labels - 1]), labels),
         dcbm_oracle(theta, block, labels)),
        (FactoredProb(lam, labels), pabm_oracle(lam, labels)),
        (FactoredProb(np.full((n, 1), 0.5), labels), 0.25 * (np.ones((n, n)) - np.eye(n))),
    ]
    for p, dense in forms:
        for seed in range(20):
            want = triu_sample_graph(dense, seed)
            for chunk_pairs in (1, 1 << 20):
                assert sample_in_chunks(p, seed, chunk_pairs) == want


def test_factored_forms_validate():
    with pytest.raises(ValueError, match="lie in"):
        FactoredProb(np.ones((2, 2)), np.array([1, 3]))
    with pytest.raises(ValueError, match="one row per node"):
        FactoredProb(np.ones((3, 2)), np.array([1, 2]))
    with pytest.raises(ValueError, match="n x K matrix"):
        FactoredProb(np.ones(2), np.array([1, 2]))
    with pytest.raises(ValueError, match="nonnegative"):
        FactoredProb(-np.ones((2, 1)), np.array([1, 1]))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_gen_sbm_hits_density_target():
    dens = []
    for seed in range(5):
        g, params = gen_sbm(
            1000, 3, [0.25, 0.25, 0.5], TABLE_OMEGA, target_density=0.05, seed=seed
        )
        dens.append(density(g))
        assert np.bincount(params.labels)[1:].tolist() == [250, 250, 500]
    assert abs(np.mean(dens) - 0.05) <= 0.005


def test_gen_sbm_identity_omega_gives_disjoint_blocks():
    g, params = gen_sbm(60, 2, [0.5, 0.5], np.eye(2), target_density=0.2, seed=1)
    cross = [
        (i, j) for i, j in g.edges if params.labels[i] != params.labels[j]
    ]
    assert cross == []


def test_beta_ratio_omega_definition():
    base = beta_ratio_omega(3, 0.5)
    np.testing.assert_allclose(np.diag(base), 1.0)
    off = base[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, 0.5)
    g, params = gen_sbm(90, 3, np.full(3, 1 / 3), base, target_density=0.1, seed=0)
    scaled_off = params.omega[0, 1]
    assert scaled_off == pytest.approx(0.5 * params.omega[0, 0])


def test_gen_sbm_infeasible_target_errors():
    with pytest.raises(InfeasibleModelError, match="omega entry"):
        gen_sbm(40, 2, [0.5, 0.5], np.eye(2), target_density=0.9, seed=0)
    # a target above all pairs is caught before omega is scaled, as in gen_dcbm
    with pytest.raises(InfeasibleModelError, match="density target exceeds 1"):
        gen_sbm(40, 2, [0.5, 0.5], np.eye(2), target_avg_degree=50, seed=0)


def test_gen_sbm_deterministic():
    a1 = gen_sbm(80, 2, [0.5, 0.5], beta_ratio_omega(2, 0.3), target_density=0.1, seed=4)
    a2 = gen_sbm(80, 2, [0.5, 0.5], beta_ratio_omega(2, 0.3), target_density=0.1, seed=4)
    assert a1[0] == a2[0]
    np.testing.assert_array_equal(a1[1].omega, a2[1].omega)


def test_gen_dcbm_constant_theta_matches_sbm_probabilities():
    # the SBM is the DCBM at theta = 1: the same omega bits and the same graph
    for fractions in ([0.5, 0.5], [0.3, 0.7]):
        for target in ({"target_density": 0.1}, {"target_avg_degree": 7.5}):
            g_d, p_d = gen_dcbm(
                120, 2, fractions, beta_ratio_omega(2, 0.4), Constant(1.0), **target, seed=3
            )
            g_s, p_s = gen_sbm(120, 2, fractions, beta_ratio_omega(2, 0.4), **target, seed=3)
            np.testing.assert_array_equal(p_d.omega, p_s.omega)
            np.testing.assert_array_equal(p_d.theta, 1.0)
            assert g_d == g_s


@pytest.mark.parametrize("law, message", [
    (lambda: Beta(-1, 2), "Beta needs a, b > 0"),
    (lambda: Beta(1, 0), "Beta needs a, b > 0"),
    (lambda: PowerLaw(1, 1), "PowerLaw needs xmin > 0 and alpha > 1"),
    (lambda: PowerLaw(0, 3), "PowerLaw needs xmin > 0 and alpha > 1"),
    (lambda: Constant(0), "Constant needs value > 0"),
    (lambda: Constant(float("nan")), "Constant needs value > 0"),
    (lambda: Beta(np.inf, 1), "Beta needs a, b > 0 and finite"),
    (lambda: Beta(1, np.inf), "Beta needs a, b > 0 and finite"),
    (lambda: PowerLaw(np.inf, 3), "PowerLaw needs xmin > 0 and alpha > 1, both finite"),
    (lambda: PowerLaw(1, np.inf), "PowerLaw needs xmin > 0 and alpha > 1, both finite"),
    (lambda: Constant(np.inf), "Constant needs value > 0 and finite"),
    (lambda: PowerLaw(1, 1.0001), "PowerLaw's largest draw overflows"),
], ids=["beta a", "beta b", "powerlaw alpha", "powerlaw xmin", "constant", "constant nan",
        "beta a inf", "beta b inf", "powerlaw xmin inf", "powerlaw alpha inf", "constant inf",
        "powerlaw overflow"])
def test_degree_laws_refuse_parameters_no_draw_can_use(law, message):
    # each would load and then fail or draw theta <= 0 in every replicate
    with pytest.raises(ValueError, match=message):
        law()


@pytest.mark.parametrize("xmin, alpha, finite", [
    # 2^(53 / 0.0518) = 2^1023.2 is finite, 2^(53 / 0.0517) = 2^1025.1 is not
    (1.0, 1.0518, True), (1.0, 1.0517, False),
    # 2^(53 / 0.2) = 2^265 = 5.9e79 overflows only when multiplied by xmin
    (1e228, 1.2, True), (1e229, 1.2, False),
])
def test_powerlaw_refuses_a_law_whose_largest_draw_overflows(xmin, alpha, finite):
    # the largest draw comes from the smallest u = 1 - rng.random(), 2^-53
    class LargestDraw:
        def random(self, size):
            return np.full(size, 1.0 - 2.0**-53)

    if not finite:
        with pytest.raises(ValueError, match="^PowerLaw's largest draw overflows: "):
            PowerLaw(xmin, alpha)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = PowerLaw(xmin, alpha).sample(LargestDraw(), 3)
    assert np.isfinite(draws).all() and draws.max() > 1e307


def test_gen_dcbm_refuses_theta_draws_that_are_not_finite():
    # a law that draws inf: divided by the block maximum, theta would turn
    # NaN
    class Infinite:
        def sample(self, rng, size):
            return np.full(size, np.inf)

    with pytest.raises(ValueError, match="^theta draws must be positive and finite$"):
        gen_dcbm(40, 2, [0.5, 0.5], np.eye(2), Infinite(), target_density=0.1, seed=0)


def test_powerlaw_sampler_mean():
    # Pareto with density exponent 5: mean (5-1)/(5-2) = 4/3
    rng = np.random.default_rng(17)
    draws = PowerLaw(1.0, 5.0).sample(rng, 100_000)
    assert draws.min() >= 1.0
    assert abs(draws.mean() - 4 / 3) <= 0.02 * (4 / 3)


def test_gen_dcbm_hits_avg_degree_target():
    degs = []
    for seed in range(20):
        g, params = gen_dcbm(
            600, 3, np.full(3, 1 / 3), beta_ratio_omega(3, 0.5), PowerLaw(1, 5),
            target_avg_degree=20, seed=seed,
        )
        degs.append(avg_degree(g))
        assert params.theta.max() <= 1.0 + 1e-12
        for k in (1, 2, 3):
            assert params.theta[params.labels == k].max() == pytest.approx(1.0)
    assert abs(np.mean(degs) - 20.0) <= 2.0


def test_gen_pabm_equal_blocks_required():
    with pytest.raises(InfeasibleModelError, match="divisible"):
        gen_pabm(100, 3, seed=0)


def test_gen_pabm_natural_density_k2():
    # analytic expectation: (4/9) within + (1/9) across ~ 0.2776 at n=900
    dens = []
    for seed in range(5):
        g, _ = gen_pabm(900, 2, seed=seed)
        dens.append(density(g))
    assert abs(np.mean(dens) - 0.2776) <= 0.01


def test_gen_pabm_natural_density_k3():
    # same moments give ~0.2220 for K=3
    dens = []
    for seed in range(5):
        g, _ = gen_pabm(900, 3, seed=seed)
        dens.append(density(g))
    assert abs(np.mean(dens) - 0.2220) <= 0.01


def test_gen_pabm_density_scaling():
    g, params = gen_pabm(600, 2, density_scale=0.05, seed=8)
    assert abs(density(g) - 0.05) <= 0.01
    assert params.lam.max() <= 1.0


@pytest.mark.parametrize("n, k, seed", [(2, 1, 0), (30, 3, 4), (400, 2, 8), (600, 4, 1)])
def test_gen_pabm_density_scale_matches_dense_reference(n, k, seed):
    # lambda scaled by the density of the dense triangle sum, as it was
    # computed before the factored form, to the last bit
    _, base = gen_pabm(n, k, seed=seed)
    iu = np.triu_indices(n, 1)
    current = float(pabm_oracle(base.lam, base.labels)[iu].sum()) / (n * (n - 1) / 2)
    want = np.clip(base.lam * np.sqrt(0.05 / current), 0.0, 1.0)
    _, params = gen_pabm(n, k, density_scale=0.05, seed=seed)
    np.testing.assert_array_equal(params.lam, want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(2, 120), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       law=st.sampled_from(["uniform", "beta", "grid"]))
def test_the_triangle_sums_to_the_clamped_pair_sum_gen_pabm_took(n, k, seed, law):
    # gen_pabm's density target once summed min(1, P_ij) over the pair index
    # lists of triu_indices; lambda in [0, 1] leaves no product to clamp, so
    # the triangle's sum keeps every bit of it
    k = min(k, n)
    rng = np.random.default_rng(seed)
    lam = {"uniform": lambda: rng.uniform(0, 1, (n, k)),
           "beta": lambda: rng.beta(2, 1, (n, k)),
           "grid": lambda: rng.integers(0, 5, (n, k)) / 4}[law]()
    p = edge_probs(PabmParams(k=k, lam=lam, labels=_random_labels(rng, n, k)))
    want = float(np.minimum(p._raw(*np.triu_indices(n, 1)), 1.0).sum())
    assert float(p.triangle.sum()) == want


def test_gen_pabm_density_target_holds_no_pair_index():
    # the sum over the 1.1M-pair triangle at n = 1500 takes 8 bytes a pair
    # (a 17.5 MiB traced peak), where the pair index lists beside the
    # products took 24 (43.0 MiB)
    tracemalloc.start()
    try:
        gen_pabm(1500, 3, density_scale=0.05, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20, peak


@pytest.mark.parametrize("k", [0, -2])
def test_generators_reject_k_below_one(k):
    with pytest.raises(ValueError, match="k must be >= 1"):
        gen_sbm(10, k, [1.0], np.eye(1), target_density=0.1, seed=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        gen_dcbm(10, k, [1.0], np.eye(1), Constant(1.0), target_density=0.1, seed=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        gen_pabm(10, k, seed=0)


def test_gen_pabm_infeasible_scale_errors():
    with pytest.raises(InfeasibleModelError):
        gen_pabm(300, 2, density_scale=0.95, seed=0)


@pytest.mark.parametrize("density", [1.5, np.inf])
def test_gen_pabm_density_above_one_is_refused_before_any_draw(density):
    with mock.patch.object(Beta, "sample", side_effect=AssertionError("drew lambda")):
        with pytest.raises(InfeasibleModelError, match="^density target exceeds 1$"):
            gen_pabm(40, 2, density_scale=density, seed=0)


def test_unit_lambda_gives_complete_graph():
    params = PabmParams(k=2, lam=np.ones((6, 2)), labels=np.array([1, 1, 1, 2, 2, 2]))
    g = sample_graph(edge_probs(params), seed=0)
    assert g.edge_count == 15


# ---------------------------------------------------------------------------
# plug-in fits
# ---------------------------------------------------------------------------

def test_fit_sbm_hand_count():
    g = Graph.from_pairs(4, [(0, 1), (2, 3)])
    p = prob_matrix(fit_sbm(g, np.array([1, 1, 2, 2])))
    assert p.p[0, 1] == 1.0  # within block 1: 1 edge / 1 pair
    assert p.p[2, 3] == 1.0
    assert p.p[0, 2] == 0.0
    np.testing.assert_allclose(np.diag(p.p), 0.0)


def test_fit_sbm_complete_and_empty():
    n = 5
    complete = Graph.from_pairs(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    labels = np.array([1, 1, 2, 2, 2])
    p = prob_matrix(fit_sbm(complete, labels))
    off = p.p[~np.eye(n, dtype=bool)]
    np.testing.assert_allclose(off, 1.0)
    empty = Graph(n=n, edges=np.empty((0, 2), dtype=np.int64))
    np.testing.assert_allclose(prob_matrix(fit_sbm(empty, labels)).p, 0.0)


def test_fit_sbm_singleton_block_warns():
    g = Graph.from_pairs(3, [(0, 1)])
    with pytest.warns(UserWarning, match="singleton"):
        p = prob_matrix(fit_sbm(g, np.array([1, 1, 2])))
    assert p.p[2, 0] == 0.0


def test_fit_dcbm_path_hand_computation():
    g = Graph.from_pairs(3, [(0, 1), (1, 2)])
    p = prob_matrix(fit_dcbm(g, np.array([1, 1, 2])))
    # theta_hat = (1/3, 2/3, 1), endpoint counts [[2, 1], [1, 0]]
    assert p.p[0, 1] == pytest.approx(4 / 9)
    assert p.p[1, 2] == pytest.approx(2 / 3)
    assert p.p[0, 2] == pytest.approx(1 / 3)


def test_fit_dcbm_degree_regular_blocks_match_fit_sbm():
    # 6-cycle with blocks of 3: all degrees equal, so theta_hat is constant
    # within blocks and the fits coincide across blocks exactly; within a
    # block the endpoint-count normalization carries the standard
    # (n_k - 1)/n_k finite-size factor relative to the pair-count fit
    g = Graph.from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    labels = np.array([1, 1, 1, 2, 2, 2])
    dcbm = prob_matrix(fit_dcbm(g, labels)).p
    sbm = prob_matrix(fit_sbm(g, labels)).p
    cross = labels[:, None] != labels[None, :]
    np.testing.assert_allclose(dcbm[cross], sbm[cross], atol=1e-12)
    within = (labels[:, None] == labels[None, :]) & ~np.eye(6, dtype=bool)
    np.testing.assert_allclose(dcbm[within], sbm[within] * (2 / 3), atol=1e-12)


def test_fit_dcbm_clamps_at_one():
    g = Graph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    labels = np.array([1, 1, 2, 2])
    p = prob_matrix(fit_dcbm(g, labels))
    # raw plug-in value for pair (0, 2) is (3/5)(2/3)*3 = 1.2
    assert p.p[0, 2] == 1.0


def test_fit_dcbm_zero_degree_block_raises():
    g = Graph.from_pairs(4, [(0, 1)])
    with pytest.raises(DegenerateModelError, match="zero total degree"):
        fit_dcbm(g, np.array([1, 1, 2, 2]))


# ---------------------------------------------------------------------------
# nесting fuzz + serialization
# ---------------------------------------------------------------------------

def test_nesting_identities_fuzz():
    rng = np.random.default_rng(99)
    for trial in range(25):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k * 2, 20))
        labels = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, n - k)])
        omega = rng.uniform(0.05, 1.0, (k, k))
        omega = (omega + omega.T) / 2
        theta = rng.uniform(0.2, 1.0, n)
        for b in range(1, k + 1):
            theta[labels == b] /= theta[labels == b].max()
        sbm = prob_matrix(SbmParams(k=k, omega=omega, labels=labels))
        dcbm_unit = prob_matrix(
            DcbmParams(k=k, omega=omega, theta=np.ones(n), labels=labels)
        )
        assert np.abs(sbm.p - dcbm_unit.p).max() <= 1e-12
        dcbm = prob_matrix(DcbmParams(k=k, omega=omega, theta=theta, labels=labels))
        lam = theta[:, None] * np.sqrt(omega[labels - 1, :])
        pabm = prob_matrix(PabmParams(k=k, lam=lam, labels=labels))
        assert np.abs(dcbm.p - pabm.p).max() <= 1e-12


def test_fit_sbm_recovers_planted_omega_at_scale():
    # with true labels the block-frequency fit concentrates: max entry
    # error <= 0.01 on nearly every seed at n=2000
    hits = 0
    for seed in range(20):
        g, params = gen_sbm(
            2000, 3, [0.25, 0.25, 0.5], TABLE_OMEGA, target_density=0.05,
            seed=1000 + seed,
        )
        fitted = prob_matrix(fit_sbm(g, params.labels))
        err = np.abs(fitted.p - prob_matrix(params).p).max()
        if err <= 0.01:
            hits += 1
    assert hits >= 19


# ---------------------------------------------------------------------------
# memory and scale
# ---------------------------------------------------------------------------

def test_generators_fits_and_sampler_hold_no_dense_matrix():
    # at n=6000 one n x n float64 matrix is 288 MB; generating, fitting and
    # redrawing must each peak under a quarter of it
    n = 6000
    cap = n * n * 8 / 4
    runs = [
        (lambda: gen_sbm(n, 3, [1 / 3] * 3, beta_ratio_omega(3, 0.2),
                         target_avg_degree=20, seed=0), fit_sbm),
        (lambda: gen_dcbm(n, 3, [1 / 3] * 3, beta_ratio_omega(3, 0.5), PowerLaw(1, 5),
                          target_avg_degree=20, seed=0), fit_dcbm),
    ]
    for generate, fit in runs:
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # degree target clamped
                g, params = generate()
            gen_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sample_graph(fit(g, params.labels), seed=1)
            fit_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen_peak < cap, gen_peak
        assert fit_peak < cap, fit_peak


def test_sampler_chunk_stays_cache_sized():
    # about 70% of a dense PABM's pairs are candidates, so one chunk's
    # uniforms and candidate arrays set the peak: 18.7 MiB with 1M-pair
    # chunks at n = 900
    _, params = gen_pabm(900, 3, seed=0)
    p = edge_probs(params)
    tracemalloc.start()
    try:
        sample_graph(p, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_sampler_and_adjacency_build_hold_little_past_their_outputs():
    # a dense PABM at n = 900 draws about 90k edges, a 1.4 MiB edge array
    # and a 2.1 MiB CSR matrix; the sampler keeps only each chunk's hits
    # and the adjacency is built as U^T + U from the sorted edges
    _, params = gen_pabm(900, 3, seed=0)
    p = edge_probs(params)
    tracemalloc.start()
    try:
        g = sample_graph(p, seed=0)
        sample_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        g.adjacency
        adjacency_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert sample_peak < 6.5 * 2**20, sample_peak
    assert adjacency_peak < 5 * 2**20, adjacency_peak


def test_fit_and_sample_at_n20000():
    # the bootstrap's refit-and-redraw at a scale the dense matrix (3.2 GB)
    # could not reach; the refit of the redraw recovers the fit's block
    # probabilities within 5 standard errors
    n = 20_000
    g, params = gen_sbm(n, 3, [1 / 3] * 3, beta_ratio_omega(3, 0.2),
                        target_avg_degree=10, seed=0)
    fitted = fit_sbm(g, params.labels)
    redraw = sample_graph(fitted, seed=1)
    assert redraw.n == n
    refit = fit_sbm(redraw, params.labels)
    # an SBM fit's factor holds the square root of block row tau_i at node i
    first = np.unique(params.labels, return_index=True)[1]
    block, reblock = fitted.lam[first] ** 2, refit.lam[first] ** 2
    sizes = np.bincount(params.labels)[1:].astype(np.float64)
    pairs = np.outer(sizes, sizes) - np.diag(sizes * (sizes + 1) / 2)
    se = np.sqrt(block * (1 - block) / pairs)
    assert np.all(np.abs(reblock - block) <= 5 * se)
