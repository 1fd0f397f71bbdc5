"""Counter-based deterministic random streams (splitmix64).

Every random draw in this package comes from a :class:`CounterStream`.  A
stream is a pure function of ``(seed, stream_index, counter)``: output ``i``
is the splitmix64 finalizer applied to ``key + (i+1)*GOLDEN``, where the key
mixes the seed with the stream index.  This gives:

* bit-identical results for identical ``(seed, stream)`` on any platform,
* random access (``at(i)``), so vectorized block generation, vectorized
  reads of scattered slots (``gather``) and scalar stateful draws agree
  slot-for-slot.

``block`` fills its output in pieces of ``_PIECE`` slots (256 KiB of
uint64): each piece is one add of the precomputed steps ``(j+1)*GOLDEN``
to the piece's offset, then the finalizer in place.  A piece and its shift
buffer (512 KiB) fit in a core's L2 cache, so the add and the finalizer's
eight array passes run from cache instead of streaming a chunk-sized
temporary through memory on each pass.  The piece size changes the speed
only: every slot value is the finalizer of the same counter.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy copies of the constants, used by the vectorized path
_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX1 = np.uint64(_MIX1)
_NP_MIX2 = np.uint64(_MIX2)

_PIECE = 1 << 15  # slots mixed at a time by ``block``: 256 KiB of uint64
_STEPS = np.arange(1, _PIECE + 1, dtype=np.uint64)
_STEPS *= _NP_GOLDEN  # (j+1)*GOLDEN mod 2^64, built in place: one 256 KiB array


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective hash."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _block_mix(z: np.ndarray, shifted: np.ndarray) -> None:
    """splitmix64 finalizer over a uint64 array, in place, through the buffer ``shifted``."""
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _NP_MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _NP_MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)


def bias(p) -> Fraction:
    """A coordinate's acceptance probability as a rational, checked to lie in [0, 1].

    A ``Fraction`` comes back as it is.  The check compares integers (a
    ``Fraction``'s denominator is positive).
    """
    pf = p if isinstance(p, Fraction) else Fraction(p)
    if not 0 <= pf.numerator <= pf.denominator:
        raise ValueError(f"probability {p} outside [0, 1]")
    return pf


def threshold_for(p) -> int:
    """Acceptance threshold on a uniform 64-bit draw for probability p.

    ``draw < threshold`` happens with probability ``floor(p * 2^64) / 2^64``,
    which is exact for dyadic p (1/2, 1/4, 3/4, ...) and within 2^-64
    otherwise.  A p outside [0, 1] raises ``ValueError`` (``bias``).
    """
    return int(bias(p) * (1 << 64))


class CounterStream:
    """One deterministic stream of 64-bit values.

    The stateful interface (``next_u64``) and the random-access interface
    (``at`` / ``block``) read the same sequence; mixing them is safe as long
    as the caller keeps track of the consumed slot count.
    """

    __slots__ = ("seed", "stream", "key", "index")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = seed & _MASK64
        self.stream = stream & _MASK64
        self.key = mix64(self.seed ^ mix64((self.stream + 1) * _GOLDEN))
        self.index = 0

    def at(self, i: int) -> int:
        return mix64(self.key + (i + 1) * _GOLDEN)

    def next_u64(self) -> int:
        v = self.at(self.index)
        self.index += 1
        return v

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n), exact via rejection."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = ((1 << 64) // n) * n
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def block(self, start: int, count: int) -> np.ndarray:
        """Outputs for slots [start, start+count) as a uint64 array, ``at`` slot by slot.

        The array is filled one ``_PIECE``-slot piece at a time.  A piece's
        offset key + (start+lo)*GOLDEN is one Python integer taken mod 2^64,
        so any slot ``at`` answers is reachable.  A negative count raises
        ``ValueError``.
        """
        if count < 0:
            raise ValueError(f"negative slot count {count}")
        out = np.empty(count, dtype=np.uint64)
        shifted = np.empty(min(count, _PIECE), dtype=np.uint64)
        for lo in range(0, count, _PIECE):
            piece = out[lo : lo + _PIECE]
            offset = np.uint64((self.key + (start + lo) * _GOLDEN) & _MASK64)
            np.add(_STEPS[: len(piece)], offset, out=piece)
            _block_mix(piece, shifted[: len(piece)])
        return out

    def gather(self, start: int, offsets: np.ndarray) -> np.ndarray:
        """Outputs for slots start + o, o running over the uint64 array ``offsets``.

        Slot by slot these are ``at``'s.  As in ``block``, the offset
        key + (start+1)*GOLDEN is one Python integer taken mod 2^64, so any
        slot ``at`` answers is reachable.  ``offsets`` is left as it is.
        """
        z = np.multiply(offsets, _NP_GOLDEN, dtype=np.uint64)
        z += np.uint64((self.key + (start + 1) * _GOLDEN) & _MASK64)
        _block_mix(z, np.empty_like(z))
        return z
