"""Seeded, named random streams.

Every source of randomness in the package flows through ``named_rng``: a
counter-based generator (Philox4x64-10, Salmon et al. 2011) keyed by the user
seed plus a stable hash of a stream label.  Distinct labels give independent
streams from one seed, and results do not depend on call order, so serial and
parallel runs agree.

The streams are numpy's, drawn with the standard library alone: the key is
``numpy.random.SeedSequence([seed mod 2^64, stream_key(label)])
.generate_state(2, uint64)``, the bit generator is numpy's ``Philox``, and each
method of ``Stream`` makes the draws of the ``numpy.random.Generator`` method
of the same name (bounded integers by Lemire's method, 2019), returning plain
ints, floats and lists.  The tests hold it to numpy draw for draw.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

# hashlib's blake2s is this one, but importing hashlib also loads OpenSSL's
# _hashlib, about 3.6 MB, for one 8-byte digest
from _blake2 import blake2s

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M256 = (1 << 256) - 1
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


def stream_key(label: str) -> int:
    digest = blake2s(label.encode("utf8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def named_rng(seed: int, label: str) -> Stream:
    """The Philox stream for the given (seed, stream label) pair."""
    words = _words(int(seed) & _M64) + _words(stream_key(label))
    return Stream(_seed_sequence_key(words))


def _words(n: int) -> List[int]:
    """``n`` as 32-bit words, least significant first, at least one."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hashmix(value: int, hc: int) -> Tuple[int, int]:
    value ^= hc
    hc = hc * 0x931E8875 & _M32
    value = value * hc & _M32
    return value ^ value >> 16, hc


def _seed_sequence_key(entropy: List[int]) -> Tuple[int, int]:
    """numpy's SeedSequence over at most four entropy words (its pool size,
    so no word is left to mix in after the pool), then two 64-bit words of
    ``generate_state``."""
    pool, hc = [], 0x43B0D7E5
    for i in range(4):
        word, hc = _hashmix(entropy[i] if i < len(entropy) else 0, hc)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h, hc = _hashmix(pool[src], hc)
                mixed = (0xCA01F9DD * pool[dst] - 0x4973F715 * h) & _M32
                pool[dst] = mixed ^ mixed >> 16
    state, hc = [], 0x8B51F9DD
    for word in pool:
        word ^= hc
        hc = hc * 0x58F38DED & _M32
        word = word * hc & _M32
        state.append(word ^ word >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _shaped(size: Optional[int], draw):
    """``draw()`` for size None, else a list of ``size`` draws."""
    if size is None:
        return draw()
    if size < 0:
        raise ValueError("negative dimensions are not allowed")
    return [draw() for _ in range(size)]


class Stream:
    """numpy's Philox4x64-10 with the Generator methods the package uses."""

    def __init__(self, key: Tuple[int, int]):
        self.key = key
        k0, k1 = key
        self._round_keys = []       # the same ten for every block
        for _ in range(10):
            self._round_keys.append((k0, k1))
            k0 = k0 + 0x9E3779B97F4A7C15 & _M64
            k1 = k1 + 0xBB67AE8584CAA73B & _M64
        self._counter = 0
        self._block: List[int] = []
        self._pos = 4
        self._half: Optional[int] = None

    def _next64(self) -> int:
        if self._pos == 4:
            # the 256-bit counter is bumped before each block, as numpy does
            self._counter = c = self._counter + 1 & _M256
            x0, x1, x2, x3 = c & _M64, c >> 64 & _M64, c >> 128 & _M64, c >> 192
            for k0, k1 in self._round_keys:
                p0 = 0xD2E7470EE14C6C93 * x0
                p1 = 0xCA5A826395121157 * x2
                x0, x1, x2, x3 = (p1 >> 64 ^ x1 ^ k0, p1 & _M64,
                                  p0 >> 64 ^ x3 ^ k1, p0 & _M64)
            self._block = [x0, x1, x2, x3]
            self._pos = 0
        self._pos += 1
        return self._block[self._pos - 1]

    def _next32(self) -> int:
        # the high half of a 64-bit draw is kept for the next 32-bit draw
        if self._half is not None:
            word, self._half = self._half, None
            return word
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _bounded(self, rng: int, size: Optional[int] = None):
        """A uniform int in [0, rng], or a list of ``size`` of them:
        numpy's Lemire draw, on 32-bit words when ``rng`` fits in them,
        else on 64-bit words, with the word size and mask set once per
        call.  A draw m is rejected while its low word is below
        2^bits mod n, which is below n, so that remainder is computed only
        when the low word is below n.  For rng = 2^bits - 1 it is 0 and
        the draw is the word itself, as numpy returns it."""
        if rng == 0:
            return 0 if size is None else [0] * size
        bits, draw = (32, self._next32) if rng <= _M32 else (64, self._next64)
        mask = (1 << bits) - 1
        n = rng + 1
        if size is None:
            m = draw() * n
            if m & mask < n:
                threshold = (1 << bits) % n
                while m & mask < threshold:
                    m = draw() * n
            return m >> bits
        threshold = (1 << bits) % n
        out = []
        for _ in range(size):
            m = draw() * n
            while m & mask < threshold:
                m = draw() * n
            out.append(m >> bits)
        return out

    def _shuffle(self, data: List[int], first: int) -> None:
        """Fisher–Yates over positions len(data)-1 down to ``first``."""
        for i in range(len(data) - 1, first - 1, -1):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    def integers(self, low: int, high: int, size: Optional[int] = None):
        """Uniform ints in [low, high); numpy checks no bounds for size 0."""
        if size == 0:
            return []
        if low < _INT64_MIN:
            raise ValueError("low is out of bounds for int64")
        if high - 1 > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if high <= low:
            raise ValueError("low >= high")
        if size is None:
            return low + self._bounded(high - 1 - low)
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        return [low + v for v in self._bounded(high - 1 - low, size)]

    def random(self, size: Optional[int] = None):
        """Uniform doubles in [0, 1) with 53 random bits."""
        return _shaped(size, lambda: (self._next64() >> 11) * 2.0 ** -53)

    def choice(self, a: int, size: int) -> List[int]:
        """``size`` distinct ints of range(a) in random order, as numpy's
        ``choice(a, size, replace=False)`` draws them."""
        if a <= 0 and size != 0:
            raise ValueError("a must be a positive integer unless no samples "
                             "are taken")
        if size > a:
            raise ValueError("Cannot take a larger sample than population "
                             "when replace is False")
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        if a > 10000 and size > a // 50:
            idx = list(range(a))
            self._shuffle(idx, max(a - size, 1))
            return idx[a - size:]
        out: List[int] = []
        seen = set()
        for j in range(a - size, a):  # Floyd's algorithm
            v = self._bounded(j)
            if v in seen:
                v = j
            seen.add(v)
            out.append(v)
        self._shuffle(out, 1)
        return out
