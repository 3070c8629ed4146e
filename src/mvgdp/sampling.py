"""Seeded sampling of matrix-valued Gaussian noise.

A sample is a draw of i.i.d. standard normals colored by a design's
:meth:`~mvgdp.design.NoiseDesign.color`.

The generator is NumPy's PCG64 with its standard-normal transform; a given
seed reproduces the same sample sequence bit for bit within one NumPy
version. Distinct streams may be used concurrently; a single stream must not
be shared across threads without external serialization.

A stream's PCG64 state is the four 64-bit words NumPy's ``SeedSequence``
hashes from its seed. :func:`seed_state_words` computes those words for a
whole array of seeds in one vectorized pass, and
:meth:`RandomStream.from_state_words` builds a stream from them, so a run of
many trials pays NumPy's per-seed Python-level hashing once per run instead
of once per trial.
"""

from __future__ import annotations

import functools

import numpy as np

from .design import NoiseDesign
from .errors import DomainError, ShapeError, is_count

_SEED_MAX = 2 ** 64

# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx,
# after M. E. O'Neill's seed_seq_fe) and its pool size in 32-bit words
_POOL_WORDS = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int, steps: int) -> np.ndarray:
    """A hash's constant before each of ``steps`` steps and after the last,
    as a column: it steps by ``mult`` on every hash, whatever the data."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult % 2 ** 32)
    return np.array(consts, dtype=np.uint32)[:, np.newaxis]


# mix_entropy hashes each pool word once, then three times per pool word
# while mixing; generate_state hashes each of its 2 * 4 uint32 outputs once
_CONSTS_A = _hash_consts(_INIT_A, _MULT_A, _POOL_WORDS * _POOL_WORDS)
_CONSTS_B = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


def _xorshift(values: np.ndarray) -> np.ndarray:
    values ^= values >> _XSHIFT
    return values


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash at k consecutive steps, one per row of the
    result: xor with the step's constant, multiply by the next, xorshift."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    return _xorshift(values)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _xorshift(_MIX_MULT_L * x - _MIX_MULT_R * y)


def seed_state_words(seeds) -> np.ndarray:
    """The PCG64 state words NumPy seeds from each of ``seeds``, as (T, 4) uint64.

    Row t equals ``np.random.SeedSequence(seeds[t]).generate_state(4,
    np.uint64)`` bit for bit: this is SeedSequence's ``mix_entropy`` and
    ``generate_state`` run on all seeds at once in wrapping uint32 arithmetic,
    one row per pool word. A seed below 2^64 is the entropy words (low,
    high); SeedSequence hashes pool words past its entropy as 0, so a seed
    below 2^32, whose entropy is one word, gets the same pool.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    pool = np.zeros((_POOL_WORDS, seeds.size), dtype=np.uint32)
    pool[0] = seeds.astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool = _hash(pool, _CONSTS_A[:_POOL_WORDS + 1])
    step = _POOL_WORDS
    for src in range(_POOL_WORDS):
        # every dst != src reads the same pool[src], so its three hashes
        # (consecutive steps, in dst order) run as one op
        dst = [i for i in range(_POOL_WORDS) if i != src]
        hashed = _hash(pool[src], _CONSTS_A[step:step + len(dst) + 1])
        step += len(dst)
        pool[dst] = _mix(pool[dst], hashed)
    state = _hash(pool[np.arange(2 * _POOL_WORDS) % _POOL_WORDS], _CONSTS_B)
    # each seed's pairs of uint32 read as little-endian uint64, as
    # generate_state does
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_words_type() -> type:
    """A seed sequence that hands PCG64 precomputed state words.

    Defined on first use: importing ``numpy.random`` with this module would
    add about 20 ms to ``import mvgdp``, and the first stream imports it
    anyway.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(
                    f"only the 4 uint64 PCG64 state words are stored, not "
                    f"{n_words} of {np.dtype(dtype)}"
                )
            return self._words

    return StateWords


class RandomStream:
    """A seeded, stateful source of random draws.

    Args:
        seed: unsigned 64-bit integer seeding the generator.
    """

    def __init__(self, seed: int):
        if not is_count(seed):
            raise DomainError(f"seed must be an integer, got {seed!r}")
        if not 0 <= seed < _SEED_MAX:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")
        self.seed = int(seed)
        self._generator = np.random.default_rng(self.seed)

    @classmethod
    def from_state_words(cls, seed: int, words: np.ndarray) -> "RandomStream":
        """The stream seeded ``seed``, built from its PCG64 state words.

        ``words`` must be ``seed``'s row of :func:`seed_state_words`; the
        stream then draws exactly what ``RandomStream(seed)`` draws, without
        hashing the seed again.
        """
        stream = cls.__new__(cls)
        stream.seed = seed
        stream._generator = np.random.Generator(
            np.random.PCG64(_state_words_type()(words)))
        return stream

    def standard_normal(self, shape: tuple[int, ...], out=None) -> np.ndarray:
        """Standard normals of ``shape``, written into ``out`` when given
        (a C-contiguous float64 array of that shape), which is returned."""
        return self._generator.standard_normal(shape, out=out)

    def laplace(self, scale: float, shape: tuple[int, ...]) -> np.ndarray:
        return self._generator.laplace(loc=0.0, scale=scale, size=shape)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed})"


def sample_standard_matrix(stream: RandomStream, m: int, n: int,
                           out=None) -> np.ndarray:
    """Draw an m x n matrix of i.i.d. standard-normal entries.

    With ``out`` (a C-contiguous m x n float64 array) the draws fill it in
    place and it is returned; they have the bits of a fresh draw.
    """
    if not (type(m) is int and type(n) is int and m >= 1 and n >= 1):
        for name, value in (("m", m), ("n", n)):
            if not is_count(value) or value < 1:
                raise ShapeError(f"{name} must be a positive integer, got {value!r}")
    return stream.standard_normal((int(m), int(n)), out=out)


def sample_mvg(stream: RandomStream, design: NoiseDesign) -> np.ndarray:
    """Draw one matrix from the zero-mean matrix Gaussian given by ``design``.

    Consumes exactly m*n standard-normal draws from ``stream``. With identity
    covariances the transform is exact, so the output equals the raw
    standard-normal matrix for the same seed.
    The draw is colored by :meth:`NoiseDesign.color`.
    """
    return design.color(sample_standard_matrix(stream, design.m, design.n))
