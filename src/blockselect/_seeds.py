"""Deterministic seed derivation for replicates, restarts, and bootstrap draws.

All randomness in the package flows through numpy's PCG64 generator, seeded
with 63-bit integers derived here. Derivation hashes the base seed together
with a tag tuple (e.g. ("boot", 17)) through SHA-256, so streams for
different replicates are independent and a single replicate can be re-run
in isolation from its recorded seed.

A minimization builds one generator per restart. Building each through
``np.random.default_rng(seed)`` costs a ``SeedSequence`` per restart, so
``pcg64_words`` hashes the state words of every restart of a minimization
in one vectorized pass, and each generator is built from its row through
``_Words``. The words equal ``SeedSequence(seed).generate_state(4,
np.uint64)``, the words ``default_rng(seed)`` seeds its PCG64 with, for
any seed in [0, 2^64): such a seed is at most two 32-bit entropy words,
fewer than the pool's four, and numpy hashes a missing word exactly as a
zero word, so the hash (after O'Neill's ``seed_seq_fe``) takes the same
steps for every seed, with no branch on its value.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK = (1 << 63) - 1

# numpy's SeedSequence constants: entropy hashing (A), state output (B), mixing
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first ``n + 1`` hash constants, one per row: ``init * mult**i``."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)[:, None]


# the pool takes 4 entropy words, then 3 words for each of its 4 words
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, 16)
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 8)


def derive_seed(base: int, *parts: int | str) -> int:
    """Derive a child seed from ``base`` and a tuple of tags.

    Stable across processes and platforms (unlike builtin ``hash``).
    ``base`` must be an integer; a float or a string raises ``TypeError``.
    """
    key = repr((int(operator.index(base)),) + parts).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "little") & _MASK


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``values``, row i with hash constant
    ``consts[i]`` (advanced to ``consts[i + 1]``)."""
    mixed = (values ^ consts[:-1]) * consts[1:]
    return mixed ^ (mixed >> _SHIFT)


def pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """The PCG64 state words ``np.random.default_rng(seed)`` starts from,
    for an integer array of seeds in [0, 2^64): an array of shape
    ``seeds.shape + (4,)``, each row C-contiguous ``uint64``, so that
    ``np.random.PCG64(_Words(row))`` is the PCG64 of ``default_rng(seed)``.
    """
    seeds = np.asarray(seeds)
    if seeds.dtype.kind not in "iu" or (
        seeds.dtype.kind == "i" and seeds.size and seeds.min() < 0
    ):
        raise ValueError("seeds must be integers in [0, 2**64)")
    flat = seeds.astype(np.uint64).ravel()
    entropy = np.zeros((4, flat.size), dtype=np.uint32)
    entropy[0] = flat & np.uint64(0xFFFFFFFF)
    entropy[1] = flat >> np.uint64(32)
    pool = _hashmix(entropy, _CONSTS_A[:5])
    # mix every word into the other three, each with its own constant
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[src], _CONSTS_A[4 + 3 * src : 8 + 3 * src])
        mixed = _MIX_L * pool[dst] - _MIX_R * hashed
        pool[dst] = mixed ^ (mixed >> _SHIFT)
    state = _hashmix(np.concatenate([pool, pool]), _CONSTS_B).astype(np.uint64)
    words = state[0::2] | (state[1::2] << np.uint64(32))
    return np.ascontiguousarray(words.T).reshape(seeds.shape + (4,))


class _Words(ISeedSequence):
    """A seed sequence that gives PCG64 one row of ``pcg64_words``."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for 4 uint64 words and reads the array's memory directly
        row = self.row
        if (n_words, dtype) != (4, np.uint64) or not (
            row.shape == (4,) and row.dtype == np.uint64 and row.flags.c_contiguous
        ):
            raise ValueError("PCG64 takes one C-contiguous row of 4 uint64 state words")
        return row
