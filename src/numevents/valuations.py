"""Coefficient functions on the lattice of non-empty index subsets.

A coefficient function f assigns a real number to every non-empty subset
of {1, ..., n}. f is a consistency valuation when all its partial sums
g(I) = sum of f(J) over non-empty J contained in I stay inside [0, 1];
any such f yields a bound 0 <= sum_I f(I) p_I <= 1 that classical
(Boolean-representable) correlation data can never break.

Subsets are encoded as bitmasks: index i corresponds to bit i - 1, so a
mask m with 1 <= m < 2**n names a non-empty subset. ``SetFunction``
stores one coefficient per mask, in increasing mask order.
"""

from __future__ import annotations

from functools import cache
from operator import add
from typing import Iterator, Mapping

from .events import BudgetExceededError, _Record
from .tolerance import get_eps

__all__ = [
    "SetFunction",
    "mask_from_indices",
    "indices_from_mask",
    "format_subset",
    "subset_labels",
    "elementary_valuation",
    "g_transform",
    "f_transform",
    "is_bell_valuation",
    "enumerate_01_valuations",
    "count_01_valuations",
    "sum_all_elementary",
    "complement_of_full",
    "pair_inequality",
]

# the largest n whose 0/1 valuations are listed: n = 5 would be 2**31 - 1 rows
ENUMERATION_CAP = 4
# the largest n of a SetFunction or a CorrelationTable
MAX_N = 16


def mask_from_indices(indices, n: int) -> int:
    """Bitmask of a non-empty index subset of {1, ..., n}."""
    mask = 0
    for i in indices:
        i = int(i)
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
        mask |= 1 << (i - 1)
    if mask == 0:
        raise ValueError("empty index set")
    return mask


def _check_mask(mask: int, n: int) -> None:
    if not 1 <= mask < (1 << n):
        raise ValueError(f"mask {mask} outside 1..{(1 << n) - 1}")


def indices_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based indices of a bitmask."""
    ids = []
    k = 1
    while mask:
        if mask & 1:
            ids.append(k)
        mask >>= 1
        k += 1
    return tuple(ids)


def format_subset(mask: int) -> str:
    """Render a mask as '{1,3}'."""
    return "{" + ",".join(str(i) for i in indices_from_mask(mask)) + "}"


def subset_labels(mask: int) -> str:
    """Render a mask as a bare index string, e.g. 13 for {1,3}."""
    return "".join(str(i) for i in indices_from_mask(mask))


class SetFunction(_Record):
    """Real coefficients on all non-empty subsets of {1, ..., n}.

    values[m - 1] is the coefficient of the subset with bitmask m.
    """

    __slots__ = ("n", "values")
    n: int
    values: tuple[float, ...]

    def __init__(self, n: int, values: tuple[float, ...]) -> None:
        if not 1 <= n <= MAX_N:
            raise ValueError(f"n must lie in 1..{MAX_N}, got {n}")
        vals = tuple(map(float, values))
        if len(vals) != (1 << n) - 1:
            raise ValueError(
                f"expected {(1 << n) - 1} coefficients for n={n}, got {len(vals)}"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", vals)

    @classmethod
    def _decoded(cls, n: int, values: tuple[float, ...]) -> "SetFunction":
        # a tuple of 2**n - 1 floats for 1 <= n <= MAX_N, as the rows decoded
        # from _half_tables are; skips the checks and conversion in __init__
        f = object.__new__(cls)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "values", values)
        return f

    def value(self, mask: int) -> float:
        _check_mask(mask, self.n)
        return self.values[mask - 1]

    def items(self) -> Iterator[tuple[int, float]]:
        for m, v in enumerate(self.values, start=1):
            yield m, v

    def support(self) -> tuple[int, ...]:
        return tuple(m for m, v in self.items() if v != 0.0)

    @classmethod
    def zero(cls, n: int) -> "SetFunction":
        return cls(n, (0.0,) * ((1 << n) - 1))

    @classmethod
    def from_map(cls, n: int, mapping: Mapping[int, float]) -> "SetFunction":
        vals = [0.0] * ((1 << n) - 1)
        for mask, v in mapping.items():
            _check_mask(mask, n)
            vals[mask - 1] = float(v)
        return cls(n, tuple(vals))


def elementary_valuation(i_mask: int, n: int) -> SetFunction:
    """The coefficient function f_I: (-1)**|J \\ I| on supersets J of I, else 0."""
    _check_mask(i_mask, n)
    vals = []
    for j in range(1, 1 << n):
        if j & i_mask == i_mask:
            vals.append(float((-1) ** (j & ~i_mask).bit_count()))
        else:
            vals.append(0.0)
    return SetFunction(n, tuple(vals))


def _zeta(vals: list, n: int, sign: float | int) -> list:
    """Turn vals[m] for every mask m < 2**n (vals[0] is the empty set's),
    in place, into the sum of sign**|m \\ j| * vals[j] over j within m, and
    return vals[1:]. Floats take sign +1.0 or -1.0, so sign * v is exact and
    x + (-v) equals x - v; integers take -1, and their sums are exact."""
    for b in range(n):
        bit = 1 << b
        for mask in range(1 << n):
            if mask & bit:
                vals[mask] += sign * vals[mask ^ bit]
    return vals[1:]


def g_transform(h: SetFunction) -> SetFunction:
    """Partial-sum transform: g(I) = sum of h(J) over non-empty J within I."""
    return SetFunction(h.n, _zeta([0.0, *h.values], h.n, 1.0))


def f_transform(h: SetFunction) -> SetFunction:
    """Inverse of g_transform: f(I) = sum of h(J)(-1)**|I \\ J| over J within I."""
    return SetFunction(h.n, _zeta([0.0, *h.values], h.n, -1.0))


def is_bell_valuation(f: SetFunction) -> bool:
    """True iff every partial sum g(I) lies in [0, 1] within tolerance."""
    eps = get_eps()
    g = g_transform(f)
    return all(-eps <= v <= 1.0 + eps for v in g.values)


# One float object per value a decoded coefficient can take: a 0/1
# partial-sum pattern gives |f(I)| <= 2**(|I| - 1), at most 8 for n <= 4.
_FLOAT_OF = {
    k: float(k)
    for k in range(-(1 << (ENUMERATION_CAP - 1)), (1 << (ENUMERATION_CAP - 1)) + 1)
}


def _check_enumerable(n: int) -> None:
    """Reject an n outside 1..ENUMERATION_CAP: its 0/1 valuations are not listed."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > ENUMERATION_CAP:
        raise BudgetExceededError(f"n must be at most {ENUMERATION_CAP}, got {n}")


@cache
def _half_tables(n: int) -> tuple[int, tuple, tuple]:
    """The low bit count k and the integer Moebius passes of every 0/1
    pattern of the low k bits and of the high bits (shifted up by k)."""
    _check_enumerable(n)
    width = (1 << n) - 1
    k = width // 2

    def moebius(packed: int) -> tuple[int, ...]:
        return tuple(_zeta([0] + [(packed >> t) & 1 for t in range(width)], n, -1))

    low = tuple(moebius(x) for x in range(1 << k))
    high = tuple(moebius(y << k) for y in range(1 << (width - k)))
    return k, low, high


def valuation_01(packed: int, n: int) -> SetFunction:
    """f_transform(g) for the 0/1 partial sums g(m) = bit m - 1 of packed.

    The integer Moebius pass is linear in the bits of packed: the pass of
    packed is the pass of its low k bits plus the pass of its high bits,
    both rows of two tables built once per n <= ENUMERATION_CAP (2**7 and
    2**8 rows at n=4), and every sum maps to the one shared float of its
    value. Integer sums are exact and every value is a small integer, so
    its float equals the one the float transform gives, sign of zero included.
    """
    k, low, high = _half_tables(n)
    if not 0 <= packed < 1 << ((1 << n) - 1):
        raise ValueError(f"packed pattern {packed} outside 0..{count_01_valuations(n)}")
    sums = map(add, low[packed & ((1 << k) - 1)], high[packed >> k])
    return SetFunction._decoded(n, tuple(map(_FLOAT_OF.__getitem__, sums)))


def count_01_valuations(n: int) -> int:
    """Number of non-zero valuations with 0/1 partial sums: 2**(2**n - 1) - 1."""
    return (1 << ((1 << n) - 1)) - 1


def enumerate_01_valuations(n: int) -> Iterator[SetFunction]:
    """Yield every non-zero integer valuation whose partial sums are 0/1.

    Runs over all non-zero 0/1 vectors g on the non-empty subsets, in
    increasing order of the packed bit pattern, and yields f_transform(g)
    as ``valuation_01(packed, n)`` would, block by block over the half
    tables. An n outside 1..ENUMERATION_CAP raises at the first step.
    """
    _k, low, high = _half_tables(n)
    decoded, float_of = SetFunction._decoded, _FLOAT_OF.__getitem__
    rows = low[1:]  # packed 0 is the zero function
    for y in high:
        for x in rows:
            yield decoded(n, tuple(map(float_of, map(add, x, y))))
        rows = low


def sum_all_elementary(n: int) -> SetFunction:
    """Sum of all elementary valuations: f(I) = (-1)**(|I| + 1)."""
    vals = tuple(float((-1) ** (m.bit_count() + 1)) for m in range(1, 1 << n))
    return SetFunction(n, vals)


def complement_of_full(n: int) -> SetFunction:
    """Valuation with partial sums 1 everywhere except 0 at the full set.

    Closed form: (-1)**(|J| + 1) for J proper, and -1 - (-1)**n at the
    full index set.
    """
    full = (1 << n) - 1
    vals = []
    for m in range(1, 1 << n):
        if m == full:
            vals.append(float(-1 - (-1) ** n))
        else:
            vals.append(float((-1) ** (m.bit_count() + 1)))
    return SetFunction(n, tuple(vals))


def pair_inequality(i_mask: int, j_mask: int, n: int) -> SetFunction:
    """Coefficients of p_I + p_J - p_(I u J) <= 1 for non-nested I, J.

    The partial sums of this function are 1 exactly on the supersets of
    I or of J, and 0 elsewhere, so it is a valid 0/1 valuation.
    """
    _check_mask(i_mask, n)
    _check_mask(j_mask, n)
    meet = i_mask & j_mask
    if meet == i_mask or meet == j_mask:
        raise ValueError(
            f"nested index sets {format_subset(i_mask)} and {format_subset(j_mask)}"
        )
    return SetFunction.from_map(
        n, {i_mask: 1.0, j_mask: 1.0, i_mask | j_mask: -1.0}
    )
