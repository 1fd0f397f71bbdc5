"""Monotone Boolean functions as minterm antichains, and their approximators.

A monotone function is represented by its set of minterms (minimal accepted
inputs), stored as a canonical antichain of bit masks.  The empty antichain
is the constant 0; the single minterm "empty set" is the constant 1.
``MonotoneFunction.from_masks`` minimizes its masks in one antichain pass
and checks only their bit range; direct construction checks both the
range and that the minterms already form the canonical antichain.

The approximator algebra replaces OR by trim(cl(f or g)) and AND by
trim(cl(f and g)), where cl is the closure operator: the minimal monotone
function above f for which near-certain acceptance under noise,
Pr[f(N or x_A) = 1] > 1 - eps for every scanned A, forces acceptance of
x_A itself.  Gate-by-gate replacement of a circuit yields an approximator
plus a ledger of the per-gate approximation errors.  For monotone raw and
ap each error is a difference, Pr[raw and not ap] = Pr[raw or ap] - Pr[ap],
read by one identity on both engines: a test distribution answers each
term exactly through ``acceptance(f)``, and on Monte-Carlo the rows of its
block sampler ``rows(samples, stream)`` that each term covers are counted by
the one row counter, ``probability.count_holding``, on each block's packed
columns.

The same algebra serves clique-shaped functions, whose minterms are vertex
masks A standing for cliques K_A (``cliques.clique_function``): there f(A)
is f(K_A) and ``&`` is the wedge.  ``ClosureParams`` supplies the closure's
reading (the masks scanned, their image on the coverage ground set); the
plain reading is its default, ``cliques.CliqueApproxParams`` the clique one.

The exact closedness test of the plain reading first tries a union-bound
certificate: with |minterms| * p <= 1 - eps at noise p, f is closed.  A
candidate A that f rejects contains no minterm, so each minterm is covered
with probability at most p, and the acceptance is at most |minterms| * p,
never strictly above 1 - eps.  The Monte-Carlo engine decides from
estimates and the clique reading has minterms covered with certainty (a
one-vertex minterm has no edge), so neither uses it.  Past the
certificate, for n <= ``TABLE_MAX_N`` and noise a/b with b^n < 2^63, the
test reads f's truth table: the bit table that exact coverage enumerates
with, unpacked to one byte per row (``probability.up_closure``).  One weighted
superset sum (Yates' transform, ``_noisy_acceptance``) gives every
candidate's noisy acceptance at once as an exact integer; its first five
coordinates run on transposed blocks of the table, so that each pairs
long contiguous runs instead of runs of 1 to 16 entries.  Monte-Carlo,
the clique reading and larger n or denominators scan the candidates one
at a time: one ``coverage_exact`` call per candidate, or on Monte-Carlo
one ``count_holding`` on the columns of a block of rows drawn once per
compacted width per round (``probability.CoverageBlocks``).
An exact round adds every violator, a Monte-Carlo round its first; a round
of many violators is merged into the antichain on the up-closure table of
its violators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .probability import (
    CoverageBlocks,
    Estimate,
    ExactProbability,
    above_threshold,
    count_holding,
    coverage_exact,
    exact_engine,
    pack_rows,
    up_closure,
)
from .rng import CounterStream, bias
from .setfamily import SetFamily, antichain_extend, antichain_minimize

TABLE_MAX_N = 23  # largest n whose exact closure reads a truth table; int64 there is 64 MiB
# a closure round of at least max(32, 2^n >> 12) violators extends on the table (measured)
_TABLE_EXTEND_MIN, _TABLE_EXTEND_SHIFT = 32, 12


@dataclass(frozen=True)
class MonotoneFunction:
    n: int
    minterms: tuple[int, ...]

    def __post_init__(self):
        _check_range(self.n, self.minterms)
        if antichain_minimize(self.minterms) != self.minterms:
            raise ValueError("minterms must form a canonical antichain")

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "MonotoneFunction":
        """The function whose minterms are the minimal ``masks``: one antichain pass.

        ``antichain_minimize`` returns a canonical antichain, so only the
        bit range is checked; ``__post_init__``'s second pass is skipped.
        """
        return cls._canonical(n, antichain_minimize(masks))

    @classmethod
    def _canonical(cls, n: int, minterms: tuple[int, ...]) -> "MonotoneFunction":
        """The function of ``minterms``, a canonical antichain: only the bit range is checked."""
        _check_range(n, minterms)
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "minterms", minterms)
        return f

    @classmethod
    def constant0(cls, n: int) -> "MonotoneFunction":
        return cls(n, ())

    @classmethod
    def constant1(cls, n: int) -> "MonotoneFunction":
        return cls(n, (0,))

    @classmethod
    def indicator(cls, n: int, mask: int) -> "MonotoneFunction":
        """The function accepting exactly the supersets of ``mask``."""
        return cls(n, (mask,))

    def __call__(self, x: int) -> int:
        return 1 if any(m & x == m for m in self.minterms) else 0

    def __or__(self, other: "MonotoneFunction") -> "MonotoneFunction":
        if self.n != other.n:
            raise ValueError("universe mismatch")
        return MonotoneFunction.from_masks(self.n, self.minterms + other.minterms)

    def __and__(self, other: "MonotoneFunction") -> "MonotoneFunction":
        if self.n != other.n:
            raise ValueError("universe mismatch")
        return MonotoneFunction.from_masks(
            self.n, (a | b for a in self.minterms for b in other.minterms)
        )

    def le(self, other: "MonotoneFunction") -> bool:
        """Pointwise f <= g, decided on f's minterms."""
        return all(other(m) for m in self.minterms)

    @property
    def is_constant0(self) -> bool:
        return not self.minterms

    @property
    def is_constant1(self) -> bool:
        return self.minterms == (0,)

    def minterm_family(self) -> SetFamily:
        return SetFamily.from_masks(self.n, self.minterms)


def _check_range(n: int, minterms: tuple[int, ...]) -> None:
    if any(m >> n for m in minterms):
        raise ValueError(f"minterm has bits outside [{n}]")


def iter_masks_of_weight(n: int, w: int) -> Iterator[int]:
    """Masks of Hamming weight w in increasing numeric order (Gosper)."""
    if w == 0:
        yield 0
        return
    if w > n:
        return
    v = (1 << w) - 1
    top = 1 << n
    while v < top:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def iter_masks_up_to(n: int, c: int) -> Iterator[int]:
    """All masks with |A| <= c in canonical order (weight, then value)."""
    for w in range(min(c, n) + 1):
        yield from iter_masks_of_weight(n, w)


@dataclass(frozen=True)
class ClosureParams:
    """Noise test parameters: threshold eps, scan width c, noise bias, and the
    largest minterm the approximators keep (``trim``, by default c/2).  The
    methods give the plain reading; a subclass overrides them for another.
    """

    eps: float
    c: int
    noise_p: float = 0.5
    trim: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        bias(self.noise_p)
        if self.trim is None:
            object.__setattr__(self, "trim", self.c / 2)

    def candidates(self, n: int) -> Iterator[int]:
        """The masks the closedness scan tests, in scan order: every |A| <= c."""
        return iter_masks_up_to(n, self.c)

    def coverage_family(self, f: MonotoneFunction) -> SetFamily:
        """f's minterms on the coverage ground set: here [n] itself."""
        return f.minterm_family()

    def coverage_mask(self, a: int) -> int:
        """A candidate on the coverage ground set: here the mask itself."""
        return a


class ClosednessReport(NamedTuple):
    """The first violation in scan order (witness and its probability), and
    every violation a round adds: all of them on the exact engine, the
    witness alone on Monte-Carlo."""

    closed: bool
    witness: Optional[int]
    probability: Optional[object]
    violators: tuple[int, ...] = ()


def is_closed(
    f: MonotoneFunction,
    params: ClosureParams,
    engine: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> ClosednessReport:
    """Scan the candidates of ``params`` in order; report the first violation.

    A violation is a candidate A with f(x_A) = 0 whose noisy acceptance
    probability Pr[f(N or x_A) = 1], the coverage of f's minterms over
    Y = A (both mapped onto the coverage ground set), strictly exceeds
    1 - eps.  The plain scan includes the empty set, so a closure can
    reach the constant 1.

    The exact plain reading first tries the union-bound certificate: f is
    closed when |minterms| * p <= 1 - eps at noise p.  A candidate with
    f(x_A) = 0 contains no minterm, so each minterm keeps a bit outside A
    and is covered with probability at most p; the union bound then keeps
    the acceptance at or below 1 - eps, and a violation needs strictly more.
    The largest certified count, floor((1 - eps) / p), is worked out once
    per ``params`` (``_certificate``).  Past the certificate it reads f's
    truth table (``_table_scan``) when n <= ``TABLE_MAX_N`` and the noise
    is a/b with b^n < 2^63; it reports the same report as the
    per-candidate scan.  Otherwise the candidates are scanned one at a
    time: on ``exact`` each costs one ``coverage_exact`` call, and the scan
    goes on past the first violation to report every one; on ``mc`` each
    is counted by ``count_holding`` on the scan's ``CoverageBlocks``, one
    set of column bitsets per compacted width, drawn once, so every
    estimate is ``coverage_mc``'s at (noise_p, samples, seed), and the
    scan stops at the first violation.
    """
    exact = exact_engine(engine)
    if exact and type(params) is ClosureParams:
        p, certified = _certificate(params)
        if len(f.minterms) <= certified:  # the union-bound certificate
            return ClosednessReport(True, None, None)
        if f.n <= TABLE_MAX_N and p.denominator**f.n < 1 << 63:
            return _table_scan(f, params, p.numerator, p.denominator)
    blocks = None if exact else CoverageBlocks(params.noise_p, samples, seed)
    fam, found = None, []  # found: (candidate, probability) per violation
    for a in params.candidates(f.n):
        if f(a):
            continue
        if fam is None:  # once per scan, and only when some coverage is needed
            fam = params.coverage_family(f)
        y = params.coverage_mask(a)
        prob = coverage_exact(fam, y, params.noise_p) if exact else blocks.coverage(fam, y)
        if above_threshold(prob, params.eps) is True:
            found.append((a, prob))
            if not exact:
                break
    if not found:
        return ClosednessReport(True, None, None)
    return ClosednessReport(False, *found[0], tuple(a for a, _ in found))


@lru_cache(maxsize=16)
def _certificate(params: ClosureParams) -> tuple[Fraction, float]:
    """The noise p of ``params`` and the most minterms k with k * p <= 1 - eps (any k at p = 0)."""
    p = bias(params.noise_p)
    return p, math.floor((1 - Fraction(params.eps)) / p) if p else math.inf


@lru_cache(maxsize=16)
def _scan_order(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Every mask with |A| <= c in scan order (weight, then value), and its weight."""
    weight = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        weight[1 << i : 2 << i] = weight[: 1 << i] + 1
    masks = np.concatenate([np.flatnonzero(weight == w) for w in range(min(c, n) + 1)])
    weight = weight[masks]
    masks.flags.writeable = weight.flags.writeable = False  # shared by every caller
    return masks, weight


def _table_scan(f: MonotoneFunction, params: ClosureParams, a: int, b: int) -> ClosednessReport:
    """``is_closed`` on the plain reading at noise a/b, from f's truth table.

    ``_noisy_acceptance`` turns the truth table into T[A] = a^|A| b^(n-|A|)
    Pr[f(N or x_A) = 1], and a candidate violates iff
    T[A] > floor((1-eps) a^|A| b^(n-|A|)).
    """
    n = f.n
    table = up_closure(f.minterms, n)  # every superset of a minterm accepts
    masks, weight = _scan_order(n, params.c)
    open_ = table[masks] == 0
    if not open_.any():
        return ClosednessReport(True, None, None)
    t = _noisy_acceptance(table, n, a, b)
    threshold = 1 - Fraction(params.eps)
    scale = [a**w * b ** (n - w) for w in range(min(params.c, n) + 1)]
    limit = np.array([math.floor(threshold * s) for s in scale], dtype=np.int64)
    values = t[masks]
    violated = open_ & (values > limit[weight])
    hits = np.flatnonzero(violated)
    if not hits.size:
        return ClosednessReport(True, None, None)
    first = int(hits[0])
    witness = int(masks[first])
    prob = ExactProbability(Fraction(int(values[first]), scale[witness.bit_count()]))
    return ClosednessReport(False, witness, prob, tuple(masks[hits].tolist()))


_LOW_BITS = 5  # coordinates of the transform run on transposed blocks
_LOW_ROWS = 1 << 12  # table rows of 2^_LOW_BITS entries per transposed block


def _noisy_acceptance(table: np.ndarray, n: int, a: int, b: int) -> np.ndarray:
    """The weighted superset sums T[A] = a^|A| b^(n-|A|) Pr[f(N or x_A) = 1] of a truth table.

    Per coordinate the step T0 <- (b-a) T0 + a T1, T1 <- a T1 (the second
    half scaled too, so that no temporary is needed) is Yates' transform
    at noise a/b.  T[A] is an integer at most b^n, held in int32 when
    b^n < 2^31 and in int64 otherwise.  Coordinate i pairs runs of 2^i
    entries, so the first k = min(5, n) coordinates run on the transpose
    of ``_LOW_ROWS`` table rows of 2^k entries at a time: there coordinate
    i pairs runs of 2^i times the block's row count.  The steps of
    different coordinates commute, so the integers are those of the plain
    per-coordinate loop.
    """
    k = min(_LOW_BITS, n)
    rows = table.reshape(-1, 1 << k)
    t = np.empty(rows.shape, dtype=np.int32 if b**n < 1 << 31 else np.int64)
    for lo in range(0, len(rows), _LOW_ROWS):
        block = np.array(rows[lo : lo + _LOW_ROWS].T, dtype=t.dtype, order="C")
        for i in range(k):  # coordinate i of the block is bit i of its row index
            _yates_step(block.reshape(-1, 2, block.shape[1] << i), a, b)
        t[lo : lo + _LOW_ROWS] = block.T
    t = t.reshape(-1)
    for i in range(k, n):
        _yates_step(t.reshape(-1, 2, 1 << i), a, b)
    return t


def _yates_step(halves: np.ndarray, a: int, b: int) -> None:
    """T0 <- (b-a) T0 + a T1, T1 <- a T1 on the pairs (halves[:, 0], halves[:, 1]), in place."""
    lo, hi = halves[:, 0, :], halves[:, 1, :]
    if a != 1:
        hi *= a
    if b - a != 1:
        lo *= b - a
    lo += hi


def closure(
    f: MonotoneFunction,
    params: ClosureParams,
    engine: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> MonotoneFunction:
    """The minimal closed monotone function above f.

    Fixpoint iteration, one ``is_closed`` round at a time: add the round's
    violators and rescan from the first candidate.  An exact round adds
    every violator, a Monte-Carlo round its first.  Every A added lies below
    the unique closure (any closed g >= f accepts it), so neither choice
    changes the fixpoint, and the fixed scan order makes runs deterministic.
    The current function rejects every violator, so no violator contains a
    minterm: ``antichain_extend`` minimizes only the violators, and drops
    the minterms that contain one.  A round of at least
    max(``_TABLE_EXTEND_MIN``, 2^n >> ``_TABLE_EXTEND_SHIFT``) violators
    (a measured crossover) reads the same answer from the up-closure table
    of its violators (``_table_extend``); a Monte-Carlo round adds one
    violator, so it never does.
    """
    current = f
    while True:
        report = is_closed(current, params, engine, samples, seed)
        if report.closed:
            return current
        if len(report.violators) >= max(_TABLE_EXTEND_MIN, (1 << f.n) >> _TABLE_EXTEND_SHIFT):
            minterms = _table_extend(current.minterms, report.violators, f.n)
        else:
            minterms = antichain_extend(current.minterms, report.violators)
        current = MonotoneFunction._canonical(f.n, minterms)


def _table_extend(antichain: tuple[int, ...], violators, n: int) -> tuple[int, ...]:
    """``antichain_extend(antichain, violators)`` read from U = ``up_closure(violators, n)``.

    The violators are distinct and none contains a member of ``antichain``,
    as a closure round reports them.  A violator is minimal iff U is 0 at
    each of its one-bit-smaller subsets, and a member stays iff U is 0 at
    it; the two canonical runs are merged as ``antichain_extend`` merges
    them.  The empty mask lies inside every other mask, so when present it
    is the answer.
    """
    if 0 in violators:
        return (0,)
    table = up_closure(violators, n)
    v = np.array(violators, dtype=np.int64)
    minimal = np.ones(len(v), dtype=bool)
    for i in range(n):
        below = v & ~(1 << i)
        minimal &= (below == v) | (table[below] == 0)
    kept = np.array(antichain, dtype=np.int64)
    merged = kept[table[kept] == 0].tolist() + v[minimal].tolist()
    return tuple(sorted(sorted(merged), key=int.bit_count))  # sorts are stable


def trim(f: MonotoneFunction, max_size) -> MonotoneFunction:
    """Drop all minterms with more than ``max_size`` elements.

    What is left of a canonical antichain is one, so it is not minimized again.
    """
    return MonotoneFunction._canonical(
        f.n, tuple(m for m in f.minterms if m.bit_count() <= max_size)
    )


def approx_or(
    f: MonotoneFunction, g: MonotoneFunction, params: ClosureParams, **kw
) -> MonotoneFunction:
    return trim(closure(f | g, params, **kw), params.trim)


def approx_and(
    f: MonotoneFunction, g: MonotoneFunction, params: ClosureParams, **kw
) -> MonotoneFunction:
    return trim(closure(f & g, params, **kw), params.trim)


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class MonotoneCircuit:
    """DAG of OR/AND gates over variable indicators.

    Gates are 1-indexed in definition order and may only reference earlier
    gates, which makes the DAG acyclic by construction.  ``size`` counts
    OR/AND gates only.
    """

    n: int
    gates: tuple[tuple, ...]
    output: int

    def __post_init__(self):
        for idx, gate in enumerate(self.gates, start=1):
            kind = gate[0]
            if kind == "input":
                if not 1 <= gate[1] <= self.n:
                    raise ValueError(f"gate {idx}: variable {gate[1]} outside [1,{self.n}]")
            elif kind in ("or", "and"):
                a, b = gate[1], gate[2]
                if not (1 <= a < idx and 1 <= b < idx):
                    raise ValueError(f"gate {idx}: operands must reference earlier gates")
            else:
                raise ValueError(f"gate {idx}: unknown kind {kind!r}")
        if not 1 <= self.output <= len(self.gates):
            raise ValueError("output gate out of range")

    @property
    def size(self) -> int:
        return sum(1 for g in self.gates if g[0] in ("or", "and"))

    def eval(self, x: int) -> int:
        vals: list[int] = []
        for gate in self.gates:
            if gate[0] == "input":
                vals.append(x >> (gate[1] - 1) & 1)
            elif gate[0] == "or":
                vals.append(vals[gate[1] - 1] | vals[gate[2] - 1])
            else:
                vals.append(vals[gate[1] - 1] & vals[gate[2] - 1])
        return vals[self.output - 1]


def circuit_to_text(circuit: MonotoneCircuit) -> str:
    lines = []
    for gate in circuit.gates:
        if gate[0] == "input":
            lines.append(f"INPUT {gate[1]}")
        else:
            lines.append(f"{gate[0].upper()} {gate[1]} {gate[2]}")
    lines.append(f"OUTPUT {circuit.output}")
    return "\n".join(lines) + "\n"


def circuit_from_text(text: str, n: int) -> MonotoneCircuit:
    """Parse the line format ``INPUT i`` / ``OR a b`` / ``AND a b`` / ``OUTPUT g``.

    Gates receive ids 1, 2, ... in order of appearance; OR/AND operands and
    the OUTPUT line refer to those ids.  An unknown directive, a wrong
    number of operands, a non-integer operand or a second OUTPUT line
    raises ``ValueError`` naming the line's number and text.
    """
    arity = {"INPUT": 1, "OR": 2, "AND": 2, "OUTPUT": 1}
    gates: list[tuple] = []
    output = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        op, *args = line.split()
        op = op.upper()
        if op not in arity:
            raise ValueError(f"line {number}: unknown directive {op!r} in {line!r}")
        try:
            ids = [int(a) for a in args]
        except ValueError:
            ids = []  # no directive takes zero operands
        if len(ids) != arity[op]:
            raise ValueError(f"line {number}: {op} takes {arity[op]} integer operand(s), "
                             f"got {line!r}")
        if op != "OUTPUT":
            gates.append((op.lower(), *ids))
        elif output is None:
            output = ids[0]
        else:
            raise ValueError(f"line {number}: second OUTPUT line {line!r}")
    if output is None:
        raise ValueError("missing OUTPUT line")
    return MonotoneCircuit(n, tuple(gates), output)


def circuit_function(circuit: MonotoneCircuit) -> MonotoneFunction:
    """The exact monotone function computed by the circuit (minterm form)."""
    fns: list[MonotoneFunction] = []
    for gate in circuit.gates:
        if gate[0] == "input":
            fns.append(MonotoneFunction.indicator(circuit.n, 1 << (gate[1] - 1)))
        elif gate[0] == "or":
            fns.append(fns[gate[1] - 1] | fns[gate[2] - 1])
        else:
            fns.append(fns[gate[1] - 1] & fns[gate[2] - 1])
    return fns[circuit.output - 1]


@dataclass(frozen=True)
class GateError:
    gate: int
    kind: str
    positive_error: object  # Fraction (exact) or float (mc)
    negative_error: object


@dataclass(frozen=True)
class ErrorLedger:
    entries: tuple[GateError, ...]

    @property
    def total_positive(self):
        return sum(e.positive_error for e in self.entries)

    @property
    def total_negative(self):
        return sum(e.negative_error for e in self.entries)

    def to_csv(self) -> str:
        lines = ["gate,kind,pos_err,neg_err"]
        for e in self.entries:
            lines.append(
                f"{e.gate},{e.kind},{float(e.positive_error)!r},{float(e.negative_error)!r}"
            )
        return "\n".join(lines) + "\n"


def _difference(dist, f, g, exact: bool, samples: int, seed: int, stream: int):
    """Pr[f] - Pr[g] on ``dist``: exact, or counted on its ``samples`` rows on stream ``stream``.

    Equal minterms read 0 without a reading: ``Fraction(0)``, or on ``mc``
    the value of 0 hits in ``samples`` (so fewer than 100 are still
    refused), with no row drawn.
    """
    if f.minterms == g.minterms:
        return Fraction(0) if exact else Estimate.from_hits(0, samples, seed).value
    if exact:
        return dist.acceptance(f) - dist.acceptance(g)
    hits = 0
    for bits in dist.rows(samples, CounterStream(seed, stream)):
        columns = pack_rows(np.ascontiguousarray(bits.T))  # packed once for both counts
        hits += (count_holding(columns, len(bits), f.minterms)
                 - count_holding(columns, len(bits), g.minterms))
    return Estimate.from_hits(hits, samples, seed).value


def approximate_circuit(
    circuit: MonotoneCircuit,
    params: ClosureParams,
    pos_dist,
    neg_dist,
    engine: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[MonotoneFunction, ErrorLedger]:
    """Replace every gate with its approximating gate, tracking its errors.

    Inputs map to their indicators; an OR gate with child approximators
    f, g gets ap = trim(cl(f or g)), an AND gate trim(cl(f and g)).  With
    raw = f op g, per gate the ledger records

        positive_error = Pr_pos[raw(x) = 1 and ap(x) = 0]
        negative_error = Pr_neg[raw(x) = 0 and ap(x) = 1]

    against the test distributions; summed over gates, these union-bound
    the end-to-end disagreement between the circuit and the final
    approximator (the errors telescope through the DAG).  With either =
    raw or ap, both engines read them as Pr[either] - Pr[ap] on ``pos_dist``
    and Pr[either] - Pr[raw] on ``neg_dist``: exact ``acceptance``s, or on
    ``mc`` the shares of ``samples`` rows of the distribution's ``rows`` on
    stream 2*gate (positive) or 2*gate + 1 (negative) that each accepts.
    A side equal to either reads 0 without a reading (``_difference``).  A
    closure that adds nothing (a certified one, say) gives ap = trim(raw)
    <= raw, so either is raw there and is not built.  Each reading has its
    own stream, so a skipped one moves no other.  Both distributions must
    have the circuit's ``n``; otherwise ``ValueError`` names the three.
    """
    exact = exact_engine(engine)
    if not circuit.n == pos_dist.n == neg_dist.n:
        raise ValueError(f"the circuit has n = {circuit.n}, but the positive distribution "
                         f"has n = {pos_dist.n} and the negative n = {neg_dist.n}")
    approx: list[MonotoneFunction] = []
    entries: list[GateError] = []
    for idx, gate in enumerate(circuit.gates, start=1):
        if gate[0] == "input":
            approx.append(MonotoneFunction.indicator(circuit.n, 1 << (gate[1] - 1)))
            entries.append(GateError(idx, "input", Fraction(0), Fraction(0)))
            continue
        fa, fb = approx[gate[1] - 1], approx[gate[2] - 1]
        raw = fa | fb if gate[0] == "or" else fa & fb
        closed = closure(raw, params, engine, samples, seed)
        ap = trim(closed, params.trim)
        approx.append(ap)
        either = raw if closed is raw else raw | ap  # ap = trim(raw) <= raw
        pos = _difference(pos_dist, either, ap, exact, samples, seed, 2 * idx)
        neg = _difference(neg_dist, either, raw, exact, samples, seed, 2 * idx + 1)
        entries.append(GateError(idx, gate[0], pos, neg))
    return approx[circuit.output - 1], ErrorLedger(tuple(entries))


def closure_error_bound_check(
    f: MonotoneFunction, params: ClosureParams
) -> tuple[Fraction, Fraction]:
    """Exact Pr[f(N)=0 and cl(f)(N)=1] vs the union bound eps * |candidates|.

    N is the closure's noise in the reading of ``params`` (a noise_p-biased
    set, or G(n, noise_p) for cliques), and the bound counts the masks its
    scan tests.  Since f <= cl(f) pointwise the joint probability is the
    difference of the two acceptance probabilities under N.
    """
    cl = closure(f, params)
    p_f, p_cl = (coverage_exact(params.coverage_family(g), 0, params.noise_p).value
                 for g in (f, cl))
    rhs = Fraction(params.eps) * sum(1 for _ in params.candidates(f.n))
    return p_cl - p_f, rhs


def closed_minterm_bound_check(
    f_closed: MonotoneFunction, params: ClosureParams, B: float
) -> list[tuple[int, int, float]]:
    """Per size 1..c: (minterm count, (6 B c ln n)^size).

    Reported, not asserted: the bound is meaningful only when B is at least
    the (unverified) extraction constant.
    """
    out = []
    base = 6.0 * B * params.c * math.log(f_closed.n)
    for size in range(1, params.c + 1):
        count = sum(1 for m in f_closed.minterms if m.bit_count() == size)
        out.append((size, count, base**size))
    return out
