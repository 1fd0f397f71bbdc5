"""Exact and Monte-Carlo evaluation of p-biased coverage probabilities.

The central quantity: for a family F of subsets of [n], a fixed set Y and a
p-biased random set W,

    coverage(F, Y, p) = Pr[ exists F in F : F subset of W union Y ].

One core serves plain and clique families.  A member is one bit mask:
bits below ``split`` are p-biased, bits above it q-biased.  A plain member
F is F \\ Y with nothing above the split; a clique member A over the vertex
core B (see ``cliques``) is (edges(A) & ~edges(B)) | ((A & ~B) << C(n,2)).
Coverage is Pr[some mask lies inside the random set], and
``exact_coverage`` owns every exact strategy and refusal:

* reduction (``reduce_coverage``, shared with the Monte-Carlo twin
  ``estimate_coverage``): bias-1 bits are cleared, masks with a bias-0 bit
  dropped, the minimal masks kept; no mask left means 0, the zero mask 1.
  So the q = 1 clique reading is the plain edge reading;
* components (``_components``, exact only): the reduced masks split into
  connected components by shared bits, p- and q-bits alike.  Components
  are independent, so the coverage is 1 - prod (1 - cov_i); a one-mask
  component (a petal over its core) is p^|p-part| q^|q-part|, and each
  larger one takes its own strategy below, refusal included;
* inclusion-exclusion over the subfamilies of at most min(work cap, 20)
  masks adds +-1 into integer counts c[a, b] keyed by the sizes of the
  union's p- and q-parts, evaluated once as sum c[a, b] p^a q^b;
* conditioning (more masks, some with a q-part) on each outcome U of the
  q-envelope, the union of the q-parts: the p-parts of the masks whose
  q-part lies in U are solved as plain masks, weighted q^|U| (1-q)^(w-|U|);
* enumeration (plain masks) of the 2^|E| restrictions of W to the union
  E of the masks: ``_covered_weights`` marks the covered ones in a bit
  table (``_up_bits``: one Python int up to ``_INT_MAX_WIDTH`` bits of
  row index, uint64 words past it), counted per Hamming weight w with
  popcounts and evaluated the same way with q = 1-p, b = |E|-w.  Plain
  masks take whichever of inclusion-exclusion (2^m steps) and enumeration
  (a set-up plus 2^|E| rows) costs less by the measured costs
  ``EXACT_COST_NS``;
* sampling: one chunked block sampler, ``bernoulli_rows``, row s of a
  ``width``-column draw reading slots s*width + j from the stream's index,
  column j p-biased below the split and q-biased above it;
  ``sample_p_subset`` is its one-row call.  One hit counter,
  ``bernoulli_hits``, counts the rows containing some mask: pairwise
  disjoint masks (petals over their core) slot by slot, reading a slot
  only while its row is uncovered and its mask not yet rejected, other
  masks on the packed rows (``count_covered``: ``pack_words``, then
  ``count_matched``).  ``sampled_coverage`` reads any block sampler;
  ``CoverageBlocks`` answers many ``coverage_mc`` calls at one (p,
  samples, seed) from one packed block per compacted width.

Every exact strategy refuses when its work exceeds the cap
``DEFAULT_WORK_CAP_BITS``; every component is planned before any is
solved, and a refusal names the first component, in the order of the
reduced masks, that is past both caps.  Every estimate is a Wilson
interval at ``CONFIDENCE``.  These limits are module constants, read
where they are enforced, not per-call parameters.  One check,
``exact_engine``, accepts the engine names ``exact`` and ``mc``.  One
rule, ``above_threshold``, decides the strict test coverage > 1 - eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist
from typing import Iterator, Optional

import numpy as np

from .errors import EmptyFamilyError, ExactIntractableError
from .rng import _PIECE, CounterStream, bias, threshold_for
from .setfamily import SetFamily, antichain_minimize, core, elements_of, iter_submasks

DEFAULT_WORK_CAP_BITS = 24  # log2 of the largest exact enumeration
CONFIDENCE = 0.99  # level of every Monte-Carlo estimate's Wilson interval
_IE_LIMIT = 20  # max family size for the inclusion-exclusion strategy
# measured costs (ns) of one inclusion-exclusion step, the enumeration's
# set-up and one enumerated row of a word table (an int table's row costs up
# to 2 ns at widths 14-16): plain masks take the cheaper strategy
EXACT_COST_NS = (500, 25_000, 0.4)
_CHUNK_SLOTS = 1 << 21  # counter slots per chunk ``bernoulli_rows`` yields (drawn by ``_PIECE``)
_MAX_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class ExactProbability:
    """An exact rational probability plus its float shadow."""

    value: Fraction

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("probability outside [0, 1]")

    @property
    def shadow(self) -> float:
        return float(self.value)

    def __float__(self) -> float:
        return self.shadow


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate with a Wilson score half-width."""

    value: float
    half_width: float
    confidence: float
    samples: int
    seed: int

    @classmethod
    def from_hits(cls, hits: int, samples: int, seed: int) -> "Estimate":
        """The hit frequency of at least 100 samples, with its Wilson half-width."""
        if samples < 100:
            raise ValueError("need at least 100 samples")
        half_width = wilson_half_width(hits, samples, CONFIDENCE)
        return cls(hits / samples, half_width, CONFIDENCE, samples, seed)

    @property
    def low(self) -> float:
        return max(0.0, self.value - self.half_width)

    @property
    def high(self) -> float:
        return min(1.0, self.value + self.half_width)


def wilson_half_width(hits: int, samples: int, confidence: float) -> float:
    """Half-width of the two-sided Wilson score interval.

    Chosen over the normal approximation because coverage events live near
    probability 0 or 1, where the Wald interval degenerates.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = hits / samples
    denom = 1.0 + z * z / samples
    return (z / denom) * math.sqrt(phat * (1 - phat) / samples + z * z / (4.0 * samples * samples))


def ie_limit() -> int:
    """Largest reduced family handed to inclusion-exclusion (2^size terms)."""
    return min(DEFAULT_WORK_CAP_BITS, _IE_LIMIT)


def exact_engine(engine: str) -> bool:
    """True for the ``exact`` engine, False for ``mc``; any other name raises."""
    if engine not in ("exact", "mc"):
        raise ValueError(f"unknown engine {engine!r}, expected 'exact' or 'mc'")
    return engine == "exact"


def pack_rows(bits: np.ndarray) -> list[int]:
    """Each boolean row (or a single row) as the integer whose bit j is column j."""
    packed = np.packbits(np.atleast_2d(bits), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack_rows(masks, width: int) -> np.ndarray:
    """Boolean rows of ``width`` columns, bit j of each mask in column j: ``pack_rows`` inverted."""
    masks = list(masks)
    size = -(-width // 8)
    packed = np.frombuffer(b"".join(m.to_bytes(size, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(
        packed.reshape(len(masks), size), axis=1, count=width, bitorder="little"
    ).astype(bool)


def sample_p_subset(n: int, p, stream: CounterStream) -> int:
    """One p-biased subset of [n]: one row of ``bernoulli_rows``, n counter slots."""
    return pack_rows(next(bernoulli_rows(stream, 1, n, n, p, p)))[0]


def compact(masks) -> tuple[list[int], int]:
    """Remap the union of ``masks`` onto bits 0..w-1 in ascending order; returns (masks, w)."""
    env = 0
    for m in masks:
        env |= m
    new_bit = {1 << (e - 1): 1 << j for j, e in enumerate(elements_of(env))}
    out = []
    for m in masks:
        r = 0
        while m:
            low = m & -m
            r |= new_bit[low]
            m ^= low
        out.append(r)
    return out, len(new_bit)


def union_probability(masks, split: int, p: Fraction, q: Fraction) -> Fraction:
    """Pr[some mask inside the random set], by inclusion-exclusion over subfamilies.

    Each subfamily adds its sign into an integer count keyed by the sizes
    of its union's p-part (bits below ``split``) and q-part.
    """
    low = (1 << split) - 1
    counts: dict[tuple[int, int], int] = {}
    m = len(masks)
    stack = [(0, 0, 1)]
    while stack:
        start, union, sign = stack.pop()
        for j in range(start, m):
            u = union | masks[j]
            key = ((u & low).bit_count(), (u >> split).bit_count())
            counts[key] = counts.get(key, 0) + sign
            stack.append((j + 1, u, -sign))
    return _polynomial(counts, p, q)


def _polynomial(counts: dict[tuple[int, int], int], p: Fraction, q: Fraction) -> Fraction:
    """sum c[a, b] p^a q^b, summed in integers over one common denominator."""
    top_a = max((a for a, _ in counts), default=0)
    top_b = max((b for _, b in counts), default=0)
    pn, pd, qn, qd = p.numerator, p.denominator, q.numerator, q.denominator
    total = sum(
        c * pn**a * pd ** (top_a - a) * qn**b * qd ** (top_b - b)
        for (a, b), c in counts.items()
    )
    return Fraction(total, pd**top_a * qd**top_b)


_INT_MAX_WIDTH = 16  # widest up-closure held as one Python int; wider ones are uint64 words
# per coordinate i < 6 inside a word, the positions whose bit i is clear
_IN_WORD = tuple(np.uint64(v) for v in (
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF))
# per weight j = 0..6, the positions of a word whose popcount is j
_WORD_WEIGHTS = tuple(np.uint64(v) for v in (
    0x0000000000000001, 0x0000000100010116, 0x0001011601161668, 0x0116166816686880,
    0x1668688068808000, 0x6880800080000000, 0x8000000000000000))
_LOW_WORD_BITS = 5  # word coordinates paired on transposed blocks
_WORD_ROWS = 1 << 10  # rows of 2^_LOW_WORD_BITS words per transposed block


@lru_cache(maxsize=None)
def _int_shift_masks(width: int) -> tuple[int, ...]:
    """Per coordinate i < width, the int of 2^width bits with bit x set iff bit i of x is clear."""
    full = (1 << (1 << width)) - 1
    return tuple(full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) for i in range(width))


@lru_cache(maxsize=None)
def _int_weight_masks(width: int) -> tuple[int, ...]:
    """Per weight w <= width, the int over 2^width bits with bit x set iff popcount(x) = w."""
    weight = np.bitwise_count(np.arange(1 << width, dtype=np.uint32))
    return tuple(int.from_bytes(np.packbits(weight == w, bitorder="little").tobytes(), "little")
                 for w in range(width + 1))


def _up_bits(masks, width: int):
    """The up-closure of ``masks`` over {0,1}^width: a bit table, bit x set iff row x has a mask.

    Up to ``_INT_MAX_WIDTH`` the table is one Python int, and coordinate i
    is one step t |= (t & M_i) << 2^i, M_i the rows whose bit i is clear
    (``_int_shift_masks``, built on first use per width).  Wider tables are
    little-endian uint64 words, row x at bit x % 64 of word x // 64:
    coordinates 0-5 shift inside each word the same way (``_IN_WORD``), the
    later ones pair words.  The first ``_LOW_WORD_BITS`` word coordinates,
    whose pairs are runs of 1 to 16 words, run together with the in-word
    ones on transposed blocks of ``_WORD_ROWS`` rows of 2^5 words, where
    each pairs long contiguous runs; the coordinates commute, so the order
    changes no bit.
    """
    marked = bytearray(max(1, (1 << width) >> 3))
    at = np.array(list(masks), dtype=np.int64)
    np.bitwise_or.at(np.frombuffer(marked, dtype=np.uint8), at >> 3,
                     np.left_shift(np.uint8(1), (at & 7).astype(np.uint8)))
    if width <= _INT_MAX_WIDTH:
        t = int.from_bytes(marked, "little")
        for i, low in enumerate(_int_shift_masks(width)):
            t |= (t & low) << (1 << i)
        return t
    words = np.frombuffer(marked, dtype="<u8")
    k = min(_LOW_WORD_BITS, width - 6)
    rows = words.reshape(-1, 1 << k)
    for lo in range(0, len(rows), _WORD_ROWS):
        block = np.array(rows[lo : lo + _WORD_ROWS].T, order="C")  # row j: low word coordinates j
        spare = np.empty_like(block)
        for i, low in enumerate(_IN_WORD):
            np.bitwise_and(block, low, out=spare)
            spare <<= np.uint64(1 << i)
            block |= spare
        for i in range(k):
            halves = block.reshape(-1, 2, block.shape[1] << i)
            halves[:, 1] |= halves[:, 0]
        rows[lo : lo + _WORD_ROWS] = block.T
    for i in range(k, width - 6):
        halves = words.reshape(-1, 2, 1 << i)
        halves[:, 1] |= halves[:, 0]
    return words


def up_closure(masks, width: int) -> np.ndarray:
    """The uint8 table over {0,1}^width of the rows containing some mask: ``_up_bits`` unpacked."""
    bits = _up_bits(masks, width)
    if isinstance(bits, int):
        bits = np.frombuffer(bits.to_bytes(max(1, (1 << width) >> 3), "little"), dtype=np.uint8)
    return np.unpackbits(bits.view(np.uint8), count=1 << width, bitorder="little")


def _covered_weights(masks, width: int) -> list[int]:
    """Per Hamming weight w <= width, the number of rows of {0,1}^width containing some mask.

    The rows are ``_up_bits``.  An int table counts (t & W_w).bit_count(),
    W_w the rows of weight w (``_int_weight_masks``, built on first use per
    width).  On words, the weight of row x is popcount(x // 64) +
    popcount(x % 64): per in-word weight j, ``bitwise_count`` of each word
    masked to the positions of weight j (``_WORD_WEIGHTS``).  The words are
    read as rows of 2^8 columns; the counts of the rows of each word-row
    popcount h are summed, and each sum lands at weight h + j plus its
    column's popcount.
    """
    bits = _up_bits(masks, width)
    if isinstance(bits, int):
        return [(bits & w).bit_count() for w in _int_weight_masks(width)]
    low = min(width - 6, 8)
    rows = bits.reshape(-1, 1 << low)
    ones = np.empty((len(_WORD_WEIGHTS),) + rows.shape, dtype=np.uint8)
    spare = np.empty(rows.shape, dtype=np.uint64)
    for j, positions in enumerate(_WORD_WEIGHTS):
        np.bitwise_and(rows, positions, out=spare)
        np.bitwise_count(spare, out=ones[j])
    high = np.bitwise_count(np.arange(len(rows), dtype=np.uint32))
    sums = np.stack([ones[:, high == h].sum(axis=1) for h in range(width - 6 - low + 1)])
    column = np.bitwise_count(np.arange(1 << low, dtype=np.uint32))
    weight = np.add.outer(np.add.outer(np.arange(len(sums)), np.arange(len(ones))), column)
    # float64 holds every count up to 2^53 exactly
    return [int(c) for c in np.bincount(weight.ravel(), sums.ravel(), width + 1)]


def reduce_coverage(masks, split: int, p, q) -> tuple[int, ...]:
    """The minimal masks left once bias-1 bits are cleared and masks with a bias-0 bit dropped."""
    return _reduce(masks, split, bias(p), bias(q))


def _reduce(masks, split: int, pf: Fraction, qf: Fraction) -> tuple[int, ...]:
    """``reduce_coverage`` at biases already resolved to ``Fraction``s."""
    low = (1 << split) - 1
    certain = (low if pf == 1 else 0) | (~low if qf == 1 else 0)
    never = (low if pf == 0 else 0) | (~low if qf == 0 else 0)
    return antichain_minimize(m & ~certain for m in masks if not m & never)


def _components(masks: tuple[int, ...]) -> list[list[int]]:
    """The masks grouped into connected components: two masks share one when they share a bit.

    One union-find pass over the masks' bits; each component keeps the
    masks' order, and the components come in the order of their first mask.
    """
    parent = list(range(len(masks)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    owner: dict[int, int] = {}  # per bit position, the first mask holding it
    for i, m in enumerate(masks):
        while m:
            low = m & -m
            j = owner.setdefault(low.bit_length(), i)
            if j != i:
                a, b = root(i), root(j)
                parent[max(a, b)] = min(a, b)
            m ^= low
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(masks):
        groups.setdefault(root(i), []).append(m)
    return list(groups.values())


def exact_coverage(masks, split: int, p, q) -> Fraction:
    """Pr[some mask lies inside the random set]: bits below ``split`` p-biased, the rest q-biased.

    The masks are reduced first (``reduce_coverage``) and split into
    connected components (``_components``): components share no bit, so
    their events are independent and the coverage is 1 - prod (1 - cov_i).
    A one-mask component is the closed form p^|p-part| q^|q-part|.  A larger
    one takes its own strategy: with a q-part, inclusion-exclusion up to
    ``ie_limit()`` masks; past that, conditioning on its q-envelope (the
    union of the q-parts, at most ``ie_limit()`` bits), each outcome U
    keeping the p-parts of the masks whose q-part lies in U.  Plain masks,
    m of them over a width w, take inclusion-exclusion when enumeration is
    past the work cap, enumeration when m exceeds ``ie_limit()``, and
    otherwise the cheaper by ``EXACT_COST_NS`` = (step, set-up, row):
    inclusion-exclusion iff step * 2^m <= set-up + row * 2^w.  Either gives
    the same value.  Every component is planned before any is solved; a
    plain component past both caps is refused with the cost nearer its own
    cap, m against ``ie_limit()`` or w against ``DEFAULT_WORK_CAP_BITS``,
    and the refusal names the first such component in component order.
    No mask, or a single one, needs no reduction: the answer is 0, or that
    mask's closed form (0 with a bias-0 bit, 1 for the zero mask).
    """
    return _coverage(masks, split, bias(p), bias(q))


def _coverage(masks, split: int, pf: Fraction, qf: Fraction) -> Fraction:
    """``exact_coverage`` at biases already resolved to ``Fraction``s."""
    masks = tuple(masks)
    if len(masks) <= 1:  # no reduction needed: 0, or one mask's closed form
        return Fraction(*_petal(masks[0], split, pf, qf)) if masks else Fraction(0)
    reduced = _reduce(masks, split, pf, qf)
    if not reduced:
        return Fraction(0)
    if reduced[0] == 0:
        return Fraction(1)  # some member already inside Y
    parts = _components(reduced)
    plans = [_plan(part, split) for part in parts]  # any refusal comes before any work
    miss_n = miss_d = 1  # Pr[no component covered], one fraction reduced at the end
    for part, plan in zip(parts, plans):
        if plan is None:
            hit_n, hit_d = _petal(part[0], split, pf, qf)
        else:
            hit = _solve(part, plan, split, pf, qf)
            hit_n, hit_d = hit.numerator, hit.denominator
        miss_n *= hit_d - hit_n
        miss_d *= hit_d
    return Fraction(miss_d - miss_n, miss_d)


def _petal(mask: int, split: int, pf: Fraction, qf: Fraction) -> tuple[int, int]:
    """One mask's coverage p^a q^b as (numerator, denominator), a and b its p- and q-part sizes.

    A bias-0 bit makes it 0 and the zero mask 1.
    """
    a, b = (mask & ((1 << split) - 1)).bit_count(), (mask >> split).bit_count()
    return pf.numerator**a * qf.numerator**b, pf.denominator**a * qf.denominator**b


def _plan(masks: list[int], split: int) -> Optional[str]:
    """One component's strategy: None for one mask, else "ie", "cond" or "enum"; refuses past both caps."""
    if len(masks) == 1:
        return None
    limit = ie_limit()
    union = 0
    for m in masks:
        union |= m
    envelope = union >> split
    if envelope:
        if len(masks) <= limit:
            return "ie"
        if envelope.bit_count() > limit:
            raise ExactIntractableError(envelope.bit_count(), limit, "conditioning outcomes")
        return "cond"
    width = union.bit_count()
    ie_ok = len(masks) <= limit
    enum_ok = width <= DEFAULT_WORK_CAP_BITS
    if not ie_ok and not enum_ok:
        plans = ((len(masks), limit, "inclusion-exclusion terms"),
                 (width, DEFAULT_WORK_CAP_BITS, "enumerated rows"))
        raise ExactIntractableError(*min(plans, key=lambda plan: plan[0] - plan[1]))
    step, setup, row = EXACT_COST_NS
    if ie_ok and (not enum_ok or step * 2 ** len(masks) <= setup + row * 2**width):
        return "ie"
    return "enum"


def _solve(masks: list[int], plan: str, split: int, pf: Fraction, qf: Fraction) -> Fraction:
    """The coverage of one component of more than one mask by its ``_plan``."""
    if plan == "ie":
        return union_probability(masks, split, pf, qf)
    if plan == "cond":
        low = (1 << split) - 1
        envelope = 0
        for m in masks:
            envelope |= m >> split
        width = envelope.bit_count()
        total = Fraction(0)
        for u in iter_submasks(envelope):
            parts = [m & low for m in masks if (m >> split) & ~u == 0]
            weight = qf ** u.bit_count() * (1 - qf) ** (width - u.bit_count())
            total += weight * _coverage(parts, split, pf, pf)
        return total
    masks, width = compact(masks)
    counts = _covered_weights(masks, width)
    weights = {(w, width - w): c for w, c in enumerate(counts)}
    return _polynomial(weights, pf, 1 - pf)


def coverage_exact(family: SetFamily, y: int, p) -> ExactProbability:
    """Exact Pr over p-biased W of: some member is contained in W union Y."""
    return ExactProbability(exact_coverage((m & ~y for m in family.members), family.n, p, p))


def _column_limits(width: int, split: int, p, q) -> tuple[np.ndarray, np.ndarray]:
    """Per column, the uint64 acceptance limit of its draw and whether its bias is 1.

    Columns below ``split`` take ``threshold_for`` p, the others q; a bias-1
    column is accepted without reading its draw.
    """
    tp, tq = threshold_for(p), threshold_for(q)
    limit = np.full(width, min(tq, _MAX_U64), dtype=np.uint64)
    limit[:split] = min(tp, _MAX_U64)
    certain = np.full(width, tq > _MAX_U64)
    certain[:split] = tp > _MAX_U64
    return limit, certain


def bernoulli_rows(stream: CounterStream, samples: int, width: int, split: int, p, q) -> Iterator:
    """``samples`` boolean rows of ``width`` columns, yielded in chunks of about 2^21 slots.

    Row s reads slots i + s*width + j, i the ``stream.index`` at the call;
    each chunk advances the index before it is yielded.  Column j is accepted
    when its draw is below ``threshold_for`` p (below ``split``) or q (at or above it).
    A chunk is filled one ``_PIECE``-slot piece of draws at a time, whole rows
    per piece, or one piece of a row wider than a piece: each piece is drawn
    and thresholded while it is in cache, and no uint64 array outlives it.
    """
    limit, certain = _column_limits(width, split, p, q)
    any_certain = certain.any()
    chunk = max(1, _CHUNK_SLOTS // max(width, 1))
    step = max(1, _PIECE // max(width, 1))  # rows per piece
    span = min(width, _PIECE) or 1  # columns per piece
    for done in range(0, samples, chunk):
        rows = np.empty((min(chunk, samples - done), width), dtype=bool)
        for r in range(0, len(rows), step):
            for c in range(0, width, span):
                piece = rows[r : r + step, c : c + span]
                draws = stream.block(stream.index, piece.size).reshape(piece.shape)
                np.less(draws, limit[c : c + span], out=piece)
                stream.index += piece.size
        if any_certain:
            rows |= certain
        yield rows


def pack_words(bits: np.ndarray) -> np.ndarray:
    """Boolean rows as uint64 words, column j at bit j % 64 of word j // 64 (one word at least)."""
    rows, width = bits.shape
    words = -(-width // 64) or 1
    packed = np.zeros((rows, 8 * words), dtype=np.uint8)
    packed[:, : -(-width // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return packed.view("<u8")


def count_matched(words: np.ndarray, masks) -> int:
    """Number of ``pack_words`` rows containing some mask, matched per 64-column word.

    A mask with a bit past the last word lies in no row.
    """
    covered = np.zeros(len(words), dtype=bool)
    for r in masks:
        if r >> (64 * words.shape[1]):
            continue
        hit = True  # the zero mask lies in every row
        for k in range(words.shape[1]):
            part = np.uint64(r >> (64 * k) & _MAX_U64)
            if part:
                hit &= (words[:, k] & part) == part
        covered |= hit
    return int(covered.sum())


def count_covered(bits: np.ndarray, masks) -> int:
    """Number of rows of ``bits`` containing some mask."""
    return count_matched(pack_words(bits), masks)


def bernoulli_hits(stream: CounterStream, samples: int, width: int, split: int, p, q, masks) -> int:
    """Number of ``bernoulli_rows(stream, samples, width, split, p, q)`` rows containing some mask.

    The stream's index ends where ``bernoulli_rows`` leaves it.  Pairwise
    disjoint masks (their sizes sum to the size of their union) never share
    a slot, so they are decided lazily: in chunks of ``_PIECE`` rows, one
    mask at a time, slot i + s*width + j is read (``CounterStream.gather``)
    only while row s is uncovered and the mask has no rejected column yet.
    A mask with a bias-0 column covers no row, and one whose columns all
    have bias 1 covers every row.  Overlapping masks would read slots
    again, and are counted on the rows with ``count_covered``.
    """
    masks = list(masks)
    union = size = 0
    for m in masks:
        union |= m
        size += m.bit_count()
    if size != union.bit_count():
        rows = bernoulli_rows(stream, samples, width, split, p, q)
        return sum(count_covered(bits, masks) for bits in rows)
    limit, certain = _column_limits(width, split, p, q)
    start = stream.index
    stream.index += samples * width
    columns = []  # per mask that can cover a row, the columns whose draws it reads
    for m in masks:
        read = [j - 1 for j in elements_of(m) if not certain[j - 1]]
        if not read:
            return samples
        if all(limit[j] for j in read):
            columns.append(read)
    hits = 0
    for lo in range(0, samples, _PIECE):
        rows = min(_PIECE, samples - lo)
        base = start + lo * width
        uncovered, left = np.ones(rows, dtype=bool), rows
        for read in columns:
            slots, at = np.flatnonzero(uncovered).view(np.uint64), 0  # rows accepted so far
            slots *= np.uint64(width)  # their slots of column 0, from base
            for j in read:
                slots += np.uint64(j - at)
                at = j
                slots = np.compress(stream.gather(base, slots) < limit[j], slots)
                if not len(slots):
                    break
            if len(slots):
                uncovered[slots // np.uint64(width)] = False
                left -= len(slots)
                if not left:
                    break
        hits += rows - left
    return hits


def sampled_coverage(rows, masks, samples: int, seed: int) -> Estimate:
    """Frequency of the ``samples`` rows, from any block sampler, that contain some mask."""
    hits = sum(count_covered(bits, masks) for bits in rows)
    return Estimate.from_hits(hits, samples, seed)


def _coverage_estimate(hits: int, masks: list[int], samples: int, seed: int) -> Estimate:
    """The estimate of ``hits`` rows; exact (half-width 0) with no mask left or the zero mask."""
    est = Estimate.from_hits(hits, samples, seed)
    if not masks or masks[0] == 0:
        return replace(est, half_width=0.0)
    return est


def estimate_coverage(masks, width: int, split: int, p, q, samples: int, seed: int) -> Estimate:
    """``exact_coverage``'s Monte-Carlo twin: ``bernoulli_hits`` on ``CounterStream(seed)``.

    Plain masks (width == split) are compacted onto their union.  With no
    reduced mask left, or the zero mask, the estimate has half-width 0.
    """
    masks = reduce_coverage(masks, split, p, q)
    if width == split:
        masks, width = compact(masks)
        split = width
    hits = bernoulli_hits(CounterStream(seed), samples, width, split, p, q, masks)
    return _coverage_estimate(hits, masks, samples, seed)


def coverage_mc(family: SetFamily, y: int, p, samples: int, seed: int = 0) -> Estimate:
    """Empirical coverage frequency with a Wilson interval: rows over the elements of E only."""
    return estimate_coverage((m & ~y for m in family.members), family.n, family.n, p, p,
                             samples, seed)


class CoverageBlocks:
    """``coverage_mc`` at one (p, samples, seed) for many (family, Y).

    Its rows depend only on the compacted width w, so the rows of each w
    are drawn once, on first use, and packed once (``pack_words``); every
    call counts ``coverage_mc``'s reduced, compacted masks against them
    (``count_matched``).  The estimates are ``coverage_mc``'s, bit for bit.
    """

    def __init__(self, p, samples: int, seed: int):
        self.p, self.samples, self.seed = p, samples, seed
        self.words: dict[int, np.ndarray] = {}

    def coverage(self, family: SetFamily, y: int) -> Estimate:
        reduced = reduce_coverage((m & ~y for m in family.members), family.n, self.p, self.p)
        masks, width = compact(reduced)
        words = self.words.get(width)
        if words is None:
            stream = CounterStream(self.seed)
            rows = bernoulli_rows(stream, self.samples, width, width, self.p, self.p)
            empty = np.zeros((0, -(-width // 64) or 1), dtype=np.uint64)  # for no rows at all
            words = self.words[width] = np.concatenate([empty, *map(pack_words, rows)])
        return _coverage_estimate(count_matched(words, masks), masks, self.samples, self.seed)


@dataclass(frozen=True)
class RobustnessCheck:
    """Decision record for the strict coverage > 1 - eps test.

    ``decision`` is None when a Monte-Carlo estimate lands within one
    half-width of the threshold (indeterminate).  ``kernel`` is the core
    the coverage was taken over: a vertex core for clique families.
    """

    decision: Optional[bool]
    kernel: int
    threshold: float
    probability: object  # ExactProbability or Estimate
    engine: str

    @classmethod
    def of(cls, probability, kernel: int, eps) -> "RobustnessCheck":
        engine = "exact" if isinstance(probability, ExactProbability) else "mc"
        return cls(above_threshold(probability, eps), kernel, 1 - float(eps), probability, engine)


def above_threshold(probability, eps) -> Optional[bool]:
    """The strict test coverage > 1 - eps.

    Exact probabilities compare as rationals.  An estimate v +- h against
    the float t = 1 - eps is True when v - h > t, False when v + h < t,
    and indeterminate (None) otherwise.
    """
    if isinstance(probability, ExactProbability):
        return probability.value > 1 - Fraction(eps)
    threshold = float(1 - Fraction(eps))
    if probability.value - probability.half_width > threshold:
        return True
    if probability.value + probability.half_width < threshold:
        return False
    return None


def is_robust_sunflower(
    family: SetFamily,
    p,
    eps,
    engine: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> RobustnessCheck:
    """Strict test: coverage over the family's own core exceeds 1 - eps."""
    if not family.members:
        raise EmptyFamilyError("robustness of an empty family is undefined")
    y = core(family)
    if exact_engine(engine):
        return RobustnessCheck.of(coverage_exact(family, y, p), y, eps)
    return RobustnessCheck.of(coverage_mc(family, y, p, samples, seed), y, eps)


class PBiasedDistribution:
    """p-biased distribution on subsets of [n], read exactly or sampled.

    ``acceptance(f)`` is Pr[f(W) = 1] for a monotone f, the coverage of
    its minterms read straight from ``exact_coverage`` (which refuses past
    the work cap); ``rows(samples, stream)`` is ``bernoulli_rows`` over n
    columns.  p outside [0, 1] is refused at construction.
    """

    def __init__(self, n: int, p):
        self.n = n
        self.p = bias(p)

    def acceptance(self, f) -> Fraction:
        return exact_coverage(f.minterms, self.n, self.p, self.p)

    def rows(self, samples: int, stream: CounterStream) -> Iterator[np.ndarray]:
        return bernoulli_rows(stream, samples, self.n, self.n, self.p, self.p)


def mc_event_probability(
    predicate, sampler, samples: int, seed: int = 0, stream_id: int = 0
) -> Estimate:
    """Estimate Pr[predicate(sample)] for an arbitrary seeded sampler."""
    stream = CounterStream(seed, stream=stream_id)
    hits = sum(1 for _ in range(samples) if predicate(sampler(stream)))
    return Estimate.from_hits(hits, samples, seed)
