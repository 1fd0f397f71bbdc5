"""Ground sets, bit-vector subsets and canonical set families.

Subsets of the ground set [n] = {1, ..., n} are plain Python integers used
as bit vectors: element ``e`` is present iff bit ``e-1`` is set.  Python
ints are arbitrary-width, so the same representation serves exact engines
(n <= 64) and sampling-only paths (n up to 4096).

Families keep their members in the canonical order (cardinality ascending,
then numeric mask value ascending); every operation that returns a family
re-canonicalizes, so equality of families is equality of values.
``SetFamily`` is the one family type, for set families and for clique
families (vertex sets, see ``cliques``) alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Optional

from .errors import EmptyFamilyError, TooLargeError

MAX_GROUND_SET = 4096
SUBMASK_CAP = 1 << 20  # most submasks ``submask_counts`` enumerates


def mask_of(elements: Iterable[int], n: Optional[int] = None) -> int:
    """Bit mask of a collection of 1-based elements."""
    m = 0
    for e in elements:
        if e < 1 or (n is not None and e > n):
            raise ValueError(f"element {e} outside [1, {n}]")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """1-based elements of a mask, ascending."""
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def canonical_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


@dataclass(frozen=True)
class SetFamily:
    """A family of distinct subsets of the ground set [n], canonically ordered."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"ground set size must be in [1, {MAX_GROUND_SET}]")
        full = (1 << self.n) - 1
        seen = set()
        prev = None
        for m in self.members:
            if m & ~full:
                raise ValueError("member has bits outside the ground set")
            if m in seen:
                raise ValueError("members must be distinct")
            seen.add(m)
            key = canonical_key(m)
            if prev is not None and key < prev:
                raise ValueError("members not in canonical order")
            prev = key

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "SetFamily":
        members = sorted(set(masks), key=canonical_key)
        return cls(n, tuple(members))

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "SetFamily":
        return cls.from_masks(n, (mask_of(s, n) for s in sets))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in set(self.members)


def antichain_minimize(masks: Iterable[int]) -> tuple[int, ...]:
    """Keep inclusion-minimal masks, canonically ordered.

    Masks come in canonical order, so only a kept mask of smaller size can
    lie inside m.  The kept masks are grouped by size, in ascending size;
    for each smaller size s, m's C(|m|, s) subsets of that size are looked
    up when there are fewer of them than kept masks of size s, and
    otherwise each of those kept masks is tested.  The first hit stops the
    search, and no mask costs more than min(2^|m|, kept) tests.  The empty
    mask lies inside every other mask, so when present it is the answer.
    """
    distinct = set(masks)
    if 0 in distinct:
        return (0,)
    out: list[int] = []
    by_size: dict[int, set[int]] = {}  # size -> kept masks, sizes ascending
    for m in sorted(sorted(distinct), key=int.bit_count):  # canonical order: sorts are stable
        if not _has_kept_submask(m, by_size):
            out.append(m)
            by_size.setdefault(m.bit_count(), set()).add(m)
    return tuple(out)


def _has_kept_submask(m: int, by_size: dict[int, set[int]]) -> bool:
    k = m.bit_count()
    bits = None
    for s, kept in by_size.items():
        if s >= k:  # a kept mask of m's size inside m would be m itself
            return False
        if comb(k, s) < len(kept):
            if bits is None:  # m's one-bit masks
                bits, rest = [], m
                while rest:
                    bits.append(rest & -rest)
                    rest &= rest - 1
            if not kept.isdisjoint(map(sum, combinations(bits, s))):
                return True
        elif any(x & m == x for x in kept):
            return True
    return False


def core(family: SetFamily) -> int:
    """Intersection of all members (a vertex core for a clique family)."""
    if not family.members:
        raise EmptyFamilyError("core of an empty family is undefined")
    y = (1 << family.n) - 1
    for m in family.members:
        y &= m
    return y


def link(family: SetFamily, t: int) -> SetFamily:
    """{F \\ T : F in family, T subset of F}, deduplicated and canonical."""
    masks = [m & ~t for m in family.members if m & t == t]
    return SetFamily.from_masks(family.n, masks)


def is_uniform(family: SetFamily, size: int) -> bool:
    """True iff every member has exactly ``size`` elements (vacuous if empty)."""
    return all(m.bit_count() == size for m in family.members)


def uniform_size(family: SetFamily) -> int:
    """Common member cardinality; raises if the family is empty or not uniform."""
    if not family.members:
        raise EmptyFamilyError("uniformity size of an empty family is undefined")
    size = family.members[0].bit_count()
    if not is_uniform(family, size):
        raise ValueError("family is not uniform")
    return size


def submask_counts(family: SetFamily) -> Counter:
    """For each nonempty T inside some member, the number of members containing T.

    More than ``SUBMASK_CAP`` submasks in all raise ``TooLargeError`` before
    any is enumerated.
    """
    total = sum(1 << m.bit_count() for m in family.members)
    if total > SUBMASK_CAP:
        raise TooLargeError(f"{total} submasks exceed the cap {SUBMASK_CAP}")
    counts = Counter(t for m in family.members for t in iter_submasks(m))
    del counts[0]
    return counts


def popular_core(family: SetFamily, need: dict[int, int]) -> Optional[tuple[int, int]]:
    """The canonically first nonempty T in at least ``need[|T|]`` members, with that count.

    None if no T is; sizes missing from ``need`` never are.  Only submasks of
    members are counted, up to ``SUBMASK_CAP`` (``submask_counts``).
    """
    popular = [(t, cnt) for t, cnt in submask_counts(family).items()
               if t.bit_count() in need and cnt >= need[t.bit_count()]]
    return min(popular, key=lambda hit: canonical_key(hit[0]), default=None)


@dataclass(frozen=True)
class SpreadReport:
    is_spread: bool
    witness: Optional[int]
    link_size: int


def check_spread(family: SetFamily, r) -> SpreadReport:
    """Check r-spreadness: no nonempty T lies in more than |F|/r^|T| members.

    The witness of a failure is the canonically first violating T
    (``popular_core``).  Comparisons are exact: r is taken as a rational,
    and each count is compared with the integer floor(|F| / r^|T|).
    """
    if not family.members:
        raise EmptyFamilyError("spreadness of an empty family is undefined")
    if r <= 0:
        raise ValueError("r must be positive")
    r = Fraction(r)
    size = len(family.members)
    # an integer count exceeds |F| / r^k iff it reaches floor(|F| / r^k) + 1
    need = {k: size // r**k + 1 for k in range(1, family.members[-1].bit_count() + 1)}
    hit = popular_core(family, need)
    return SpreadReport(True, None, 0) if hit is None else SpreadReport(False, *hit)


def family_to_text(family: SetFamily) -> str:
    """Line format: ``n=<int>`` then one member per line as 1-based indices."""
    lines = [f"n={family.n}"]
    for m in family.members:
        lines.append(",".join(str(e) for e in elements_of(m)))
    return "\n".join(lines) + "\n"


def family_from_text(text: str) -> SetFamily:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("family text must start with 'n=<int>'")
    n = int(lines[0][2:])
    masks = []
    for ln in lines[1:]:
        ln = ln.strip()
        if ln == "":
            masks.append(0)  # the empty set serializes as a blank line
        else:
            masks.append(mask_of((int(tok) for tok in ln.split(",")), n))
    return SetFamily.from_masks(n, masks)
