from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockselect._seeds import _Words, derive_seed, pcg64_words
from blockselect.cluster import minimize_q1, minimize_q_subspace

from conftest import solution_bytes

# seeds whose entropy is one word, two words, or at the edge between them
_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


@st.composite
def seed_grids(draw) -> np.ndarray:
    """An (s, r) array of seeds in [0, 2^63), the layout of one minimization."""
    s, r = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    seed = st.integers(0, 2**63 - 1) | st.sampled_from(_EDGE_SEEDS)
    seeds = draw(st.lists(seed, min_size=s * r, max_size=s * r))
    return np.array(seeds, dtype=np.uint64).reshape(s, r)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed_grids())
@example(np.array([_EDGE_SEEDS], dtype=np.uint64))
@example(np.array(_EDGE_SEEDS, dtype=np.uint64).reshape(5, 1))
def test_hashed_generators_equal_default_rng(seeds):
    # built as the restart driver builds them: one row of an (s, r, 4) array each
    words = pcg64_words(seeds)
    assert words.shape == seeds.shape + (4,) and words.dtype == np.uint64
    for (i, j), seed in np.ndenumerate(seeds):
        ours = np.random.Generator(np.random.PCG64(_Words(words[i, j])))
        ref = np.random.default_rng(int(seed))
        assert ours.bit_generator.state == ref.bit_generator.state
        assert ours.integers(34) == ref.integers(34)
        assert ours.random() == ref.random()
        assert np.array_equal(ours.permutation(34), ref.permutation(34))


def test_hashed_words_cover_every_64_bit_seed():
    seeds = np.array([2**63, 2**64 - 1, 2**32 + 1, 12345], dtype=np.uint64)
    expected = [np.random.SeedSequence(int(s)).generate_state(4, np.uint64) for s in seeds]
    assert np.array_equal(pcg64_words(seeds), np.array(expected))
    assert pcg64_words(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3, 4)


def test_words_refuse_a_row_pcg64_cannot_read():
    words = pcg64_words(np.arange(8).reshape(2, 4))
    for row in (words[0, :, 0], words[0, 0, :3], words[0, 0].astype(np.int64)):
        with pytest.raises(ValueError, match="C-contiguous row"):
            np.random.PCG64(_Words(row))


@pytest.mark.parametrize("seeds", [
    np.array([3, -1]),
    np.array([2**64], dtype=object),
    np.array([1.0, 2.0]),
])
def test_hashed_words_reject_seeds_outside_64_bits(seeds):
    with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
        pcg64_words(seeds)


def test_minimizers_build_no_default_rng(monkeypatch):
    rows = np.random.default_rng(3).normal(size=(40, 2))
    expected = [solution_bytes(minimize_q1(rows, 2, 6, seed=5)),
                solution_bytes(minimize_q_subspace(rows, 2, 1, 6, seed=5))]

    def refuse(*args, **kwargs):
        raise AssertionError("a restart built its generator through default_rng")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert [solution_bytes(minimize_q1(rows, 2, 6, seed=5)),
            solution_bytes(minimize_q_subspace(rows, 2, 1, 6, seed=5))] == expected


@pytest.mark.parametrize("base", [1.7, 2.0, "3", None])
def test_derive_seed_refuses_a_base_that_is_not_an_integer(base):
    with pytest.raises(TypeError):
        derive_seed(base, "x")


def test_derive_seed_takes_numpy_integers():
    for base in (np.int64(7), np.uint64(7), np.int32(7), True):
        assert derive_seed(base, "x", 2) == derive_seed(int(base), "x", 2)


def test_minimizer_refuses_a_float_seed():
    rows = np.random.default_rng(3).normal(size=(30, 2))
    with pytest.raises(TypeError):
        minimize_q1(rows, 2, 5, seed=1.7)
    with pytest.raises(TypeError):
        minimize_q_subspace(rows, 2, 1, 5, seed=1.7)
