"""Deterministic derivation of independent random streams.

Replication r of an experiment with master seed s draws from
``default_rng(derive_seed(s, r))``. The derived seed is the first 8 bytes,
big-endian, of ``SHA-256(b"{s}:{r}")``, so any worker can reconstruct any
stream from (master_seed, index) alone and aggregation order never matters.

Every SHA-256 in the package, the seeds here and ``harness.config_hash``,
reads the one ``sha256`` binding below: CPython's built-in hash (``_sha2``
from 3.12, ``_sha256`` before), else ``hashlib``'s for interpreters built
without it. The built-in one gives the same FIPS 180-4 digest without
loading OpenSSL's libcrypto, which ``hashlib`` maps on import (about 3 ms
and 3.6 MB). numpy.random still loads it, through ``secrets``, so only a
run that builds a Generator pays for it.

``derive_seed`` and ``substream`` are the definition of that rule.
``derive_seeds`` is its batch form: the seeds of replications 0..reps-1 as
one uint64 array, from one pass over the digests. A draw set hashes its
replications' seeds in one batch (``htests.DrawSet.seeds``), which its
atoms or chains and the estimator's ``derived_seed`` column all read, so
no replication's seed is hashed twice.

``seed_uniforms`` reads the first few ``random()`` doubles of many seeds
at once without building a Generator: it runs NumPy's SeedSequence seeding
(pool size 4), PCG64 seeding and the PCG64 XSL-RR output step in
uint32/uint64 array arithmetic. The route is exact, not an approximation:
NumPy's stream-compatibility policy (NEP 19) fixes the output of
``SeedSequence`` and ``PCG64`` for a given seed, and a test pins
``substream_uniforms`` bit for bit against ``substream``.

A master seed or index that is not an integer (a bool included) raises
ParameterError: the rule hashes decimal text, so 2.0 would silently name
another stream than 2. Master seeds may be negative; indices may not.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, as_integer

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def derive_seed(master_seed: int, index: int) -> int:
    """Return the child seed for replication ``index`` under ``master_seed``."""
    master_seed = as_integer(master_seed, "master seed")
    index = as_integer(index, "replication index")
    if index < 0:
        raise ParameterError("replication index must be nonnegative")
    digest = sha256(f"{master_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seeds(master_seed: int, reps: int) -> np.ndarray:
    """``[derive_seed(master_seed, r) for r in range(reps)]`` as uint64.

    The ``"{master_seed}:"`` prefix is formatted once; the whole digests
    are joined into one buffer and every fourth big-endian word, each
    digest's first 8 bytes, is read from it.
    """
    prefix = f"{as_integer(master_seed, 'master seed')}:".encode("ascii")
    if as_integer(reps, "replication count") < 0:
        raise ParameterError("replication count must be nonnegative")
    digests = b"".join([sha256(prefix + b"%d" % r).digest() for r in range(reps)])
    return np.frombuffer(digests, dtype=">u8")[::4].astype(np.uint64)


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Return the generator for replication ``index``."""
    return np.random.default_rng(derive_seed(master_seed, index))


def substream_uniforms(master_seed: int, reps: int, k: int) -> np.ndarray:
    """Row r holds ``substream(master_seed, r).random(k)``, for r < ``reps``."""
    return seed_uniforms(derive_seeds(master_seed, reps), k)


# SeedSequence hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_LOW32 = 0xFFFFFFFF


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays; its constant steps per call."""

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * mult & _LOW32
        value = value * const
        return value ^ value >> 16

    return hashmix


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc mod 2^128, on (high, low) uint64 halves."""
    # the high half of lo * _PCG_LO, from 32-bit limbs
    a0, a1 = lo & _LOW32, lo >> 32
    b0, b1 = _PCG_LO & _LOW32, _PCG_LO >> 32
    mid = (a0 * b0 >> 32) + (a0 * b1 & _LOW32) + (a1 * b0 & _LOW32)
    carry = a1 * b1 + (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = carry + hi * _PCG_LO + lo * _PCG_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def seed_uniforms(seeds, k: int) -> np.ndarray:
    """Row i holds ``default_rng(int(seeds[i])).random(k)``, for uint64 seeds."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    # SeedSequence.mix_entropy over the seed's two 32-bit words, zero-padded
    # to the pool size (a seed below 2^32 has one word; hashing the missing
    # one as 0 is what SeedSequence does)
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(seeds.shape, dtype=np.uint32)
    words = [seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero]
    pool = [hashmix(word) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ mixed >> 16
    # generate_state(4, uint64): eight words, paired little-endian
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % 4]).astype(np.uint64) for i in range(8)]
    s_hi, s_lo, i_hi, i_lo = (state[2 * j] | state[2 * j + 1] << 32 for j in range(4))
    # PCG64 srandom: inc = 2 seq + 1; step from 0 (giving inc), add the
    # initial state, step again
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = inc_lo + s_lo
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    out = np.empty((seeds.size, k))
    for j in range(k):
        # random(): step, XSL-RR output, top 53 bits
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> 58
        word = xored >> rot | xored << (64 - rot & 63)
        out[:, j] = (word >> 11) * 2.0**-53
    return out


def as_generator(seed) -> np.random.Generator:
    """Accept an int seed or an existing Generator and return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
