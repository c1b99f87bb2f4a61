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

from dataclasses import dataclass
from functools import cache
from operator import add
from typing import Iterator, Mapping

from .events import BudgetExceededError
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

# enumeration is open-ended in n only behind an explicit override
ENUMERATION_CAP = 4


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


@dataclass(frozen=True, slots=True)
class SetFunction:
    """Real coefficients on all non-empty subsets of {1, ..., n}.

    values[m - 1] is the coefficient of the subset with bitmask m.
    """

    n: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 16:
            raise ValueError(f"n must lie in 1..16, got {self.n}")
        vals = tuple(map(float, self.values))
        if len(vals) != (1 << self.n) - 1:
            raise ValueError(
                f"expected {(1 << self.n) - 1} coefficients for n={self.n}, got {len(vals)}"
            )
        object.__setattr__(self, "values", vals)

    def value(self, mask: int) -> float:
        if not 1 <= mask < (1 << self.n):
            raise ValueError(f"mask {mask} outside 1..{(1 << self.n) - 1}")
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
            if not 1 <= mask < (1 << n):
                raise ValueError(f"mask {mask} outside 1..{(1 << n) - 1}")
            vals[mask - 1] = float(v)
        return cls(n, tuple(vals))


def elementary_valuation(i_mask: int, n: int) -> SetFunction:
    """The coefficient function f_I: (-1)**|J \\ I| on supersets J of I, else 0."""
    if not 1 <= i_mask < (1 << n):
        raise ValueError(f"mask {i_mask} outside 1..{(1 << n) - 1}")
    vals = []
    for j in range(1, 1 << n):
        if j & i_mask == i_mask:
            vals.append(float((-1) ** (j & ~i_mask).bit_count()))
        else:
            vals.append(0.0)
    return SetFunction(n, tuple(vals))


def _signed_zeta(h: SetFunction, sign: float) -> SetFunction:
    # sign is +1.0 or -1.0, so sign * v is exact and x + (-v) equals x - v
    size = 1 << h.n
    vals = [0.0] * size
    vals[1:] = h.values
    for b in range(h.n):
        bit = 1 << b
        for mask in range(size):
            if mask & bit:
                vals[mask] += sign * vals[mask ^ bit]
    return SetFunction(h.n, tuple(vals[1:]))


def g_transform(h: SetFunction) -> SetFunction:
    """Partial-sum transform: g(I) = sum of h(J) over non-empty J within I."""
    return _signed_zeta(h, 1.0)


def f_transform(h: SetFunction) -> SetFunction:
    """Inverse of g_transform: f(I) = sum of h(J)(-1)**|I \\ J| over J within I."""
    return _signed_zeta(h, -1.0)


def is_bell_valuation(f: SetFunction) -> bool:
    """True iff every partial sum g(I) lies in [0, 1] within tolerance."""
    eps = get_eps()
    g = g_transform(f)
    return all(-eps <= v <= 1.0 + eps for v in g.values)


def _moebius_01(packed: int, n: int) -> list[int]:
    """Integer Moebius pass over the 0/1 partial sums packed in the bits."""
    size = 1 << n
    vals = [0] + [(packed >> t) & 1 for t in range(size - 1)]
    for b in range(n):
        bit = 1 << b
        for mask in range(size):
            if mask & bit:
                vals[mask] -= vals[mask ^ bit]
    return vals[1:]


@cache
def _half_tables(n: int) -> tuple[int, tuple, tuple]:
    """The low bit count k and the passes of every pattern of the low k
    bits and of every pattern of the high bits (shifted up by k)."""
    width = (1 << n) - 1
    k = width // 2
    low = tuple(tuple(_moebius_01(x, n)) for x in range(1 << k))
    high = tuple(tuple(_moebius_01(y << k, n)) for y in range(1 << (width - k)))
    return k, low, high


def valuation_01(packed: int, n: int) -> SetFunction:
    """f_transform(g) for the 0/1 partial sums g(m) = bit m - 1 of packed.

    The integer Moebius pass is linear in the bits of packed: the pass of
    packed is the pass of its low k bits plus the pass of its high bits.
    For n <= ENUMERATION_CAP both are rows of two tables built once per n
    (2**7 and 2**8 rows at n=4); above the cap the pass runs directly.
    Integer sums are exact and every value is a small integer, so its
    float equals the one the float transform gives, sign of zero included.
    """
    size = 1 << n
    if not 0 <= packed < 1 << (size - 1):
        raise ValueError(f"packed pattern {packed} outside 0..{(1 << (size - 1)) - 1}")
    if n > ENUMERATION_CAP:
        return SetFunction(n, _moebius_01(packed, n))
    k, low, high = _half_tables(n)
    vals = map(add, low[packed & ((1 << k) - 1)], high[packed >> k])
    return SetFunction(n, tuple(vals))


def count_01_valuations(n: int) -> int:
    """Number of non-zero valuations with 0/1 partial sums: 2**(2**n - 1) - 1."""
    return (1 << ((1 << n) - 1)) - 1


def enumerate_01_valuations(n: int, allow_large: bool = False) -> Iterator[SetFunction]:
    """Yield every non-zero integer valuation whose partial sums are 0/1.

    Runs over all non-zero 0/1 vectors g on the non-empty subsets, in
    increasing order of the packed bit pattern, and yields f_transform(g)
    as ``valuation_01`` decodes it.
    Capped at n = 4 (32767 valuations) unless allow_large is set.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n > ENUMERATION_CAP and not allow_large:
        raise BudgetExceededError(
            f"budget exceeded: enumeration for n={n} needs an explicit override"
        )
    for packed in range(1, 1 << ((1 << n) - 1)):
        yield valuation_01(packed, n)


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
    for mask in (i_mask, j_mask):
        if not 1 <= mask < (1 << n):
            raise ValueError(f"mask {mask} outside 1..{(1 << n) - 1}")
    meet = i_mask & j_mask
    if meet == i_mask or meet == j_mask:
        raise ValueError(
            f"nested index sets {format_subset(i_mask)} and {format_subset(j_mask)}"
        )
    return SetFunction.from_map(
        n, {i_mask: 1.0, j_mask: 1.0, i_mask | j_mask: -1.0}
    )
