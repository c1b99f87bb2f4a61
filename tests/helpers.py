"""Independent oracles and deterministic generators shared by the tests.

Everything here recomputes results from first principles (sets, brute
force) so the library is never checked against itself.
"""

import itertools
import random

from numevents import (
    ConcreteLogic,
    Event,
    InequalityResult,
    StateSpace,
    ValueRangeError,
    get_eps,
    gfe_closure,
    mask_event,
)

# 1/40 grid keeps comparisons exact: every sum/difference of grid values
# is again a multiple of 0.025, far above float rounding noise.
GRID = tuple(i / 40 for i in range(41))


def space(num_states: int) -> StateSpace:
    return StateSpace(tuple(f"s{i + 1}" for i in range(num_states)))


def closure_oracle(seed_masks, num_states):
    """Fixpoint closure over bitmasks, written set-theoretically."""
    full = (1 << num_states) - 1
    members = {0, full}
    members.update(m for m in seed_masks)
    while True:
        fresh = {m ^ full for m in members}
        for a, b in itertools.combinations(members, 2):
            if a & b == 0:
                fresh.add(a | b)
        if fresh <= members:
            return frozenset(members)
        members |= fresh


def gaps_reference(masks, full, frontier):
    """The closure kernel's gap finder written as a loop over all pairs."""
    for m in frontier:
        if (m ^ full) not in masks:
            yield "A2", m ^ full, (m,)
    members = sorted(masks)
    fresh = set(frontier)
    for a in frontier:
        for b in members:
            if a & b == 0 and (a < b or b not in fresh) and (a | b) not in masks:
                yield "A3", a | b, (a, b) if a < b else (b, a)


def blow_up(mask, copies):
    """The mask with state k replaced by copies[k] adjacent states, in
    state order: an order-preserving Boolean embedding of the masks."""
    out = start = 0
    for k, width in enumerate(copies):
        if mask >> k & 1:
            out |= ((1 << width) - 1) << start
        start += width
    return out


def minimal_members(masks):
    """The non-zero masks with no other non-zero mask inside, ascending."""
    return sorted(
        m for m in masks if m and not any(b and b != m and b & m == b for b in masks)
    )


def event_values_reference(values, space):
    """The values Event stores, by the per-value clamping loop, or its error."""
    raw = tuple(values)
    if len(raw) != space.size:
        raise ValueError(
            f"expected {space.size} values, got {len(raw)}"
        )
    eps = get_eps()
    clamped = []
    for label, item in zip(space.labels, raw):
        v = float(item)
        if v != v or v < -eps or v > 1.0 + eps:
            raise ValueRangeError(
                f"value {item!r} at state {label} outside [0, 1]"
            )
        clamped.append(min(1.0, max(0.0, v)))
    return tuple(clamped)


def evaluate_reference(f, table, label=None):
    """evaluate_inequality written as one row and one sum per state."""
    if f.n != table.n:
        raise ValueError(f"coefficients use n={f.n}, table uses n={table.n}")
    terms = [(f.values[m - 1], table.event(m).values) for m in f.support()]
    per_state = tuple(
        sum([c * col[k] for c, col in terms]) for k in range(table.space.size)
    )
    lo = min(per_state)
    hi = max(per_state)
    eps = get_eps()
    violating_state = None
    for k, v in enumerate(per_state):
        if v < -eps or v > 1.0 + eps:
            violating_state = table.space.labels[k]
            break
    return InequalityResult(
        label=label if label is not None else "valuation",
        coefficients=f,
        per_state=per_state,
        min_value=lo,
        max_value=hi,
        violated=violating_state is not None,
        violating_state=violating_state,
    )


def random_logic(seed: int, num_states: int, num_seeds: int) -> ConcreteLogic:
    """Closure of a few random two-valued events, deterministic per seed."""
    rng = random.Random(seed)
    full = (1 << num_states) - 1
    pool = list(range(1, full))
    masks = rng.sample(pool, min(num_seeds, len(pool)))
    sp = space(num_states)
    return gfe_closure([mask_event(m, sp) for m in masks], sp)


def nontrivial_masks(logic: ConcreteLogic) -> list[int]:
    full = (1 << logic.space.size) - 1
    return [m for m in sorted(logic.masks) if m not in (0, full)]


def subset_sums(values, target, eps=1e-9):
    """True iff some subset of values sums to target (brute force)."""
    for r in range(len(values) + 1):
        for combo in itertools.combinations(values, r):
            if abs(sum(combo) - target) <= eps:
                return True
    return False


def direct_g(f_values, n):
    """Subset-sum transform computed by explicit double loop."""
    top = (1 << n) - 1
    out = []
    for mask in range(1, top + 1):
        total = 0.0
        for sub in range(1, top + 1):
            if sub & mask == sub:
                total += f_values[sub - 1]
        out.append(total)
    return out


def direct_f(g_values, n):
    """Alternating-sign inversion computed by explicit double loop."""
    top = (1 << n) - 1
    out = []
    for mask in range(1, top + 1):
        total = 0.0
        for sub in range(1, top + 1):
            if sub & mask == sub:
                sign = -1.0 if (bin(mask ^ sub).count("1") % 2) else 1.0
                total += sign * g_values[sub - 1]
        out.append(total)
    return out


def valuation_rows_01(n):
    """The integer Moebius inversion f of every non-zero 0/1 vector g on the
    non-empty subsets of {1..n}, in packed order (bit t of packed is g of
    mask t + 1), by row[p] = row[p ^ low] + column[low] with low the lowest
    bit of p: the column of mask j is (-1)**|I \\ J| on supersets I of J."""
    masks = range(1, 1 << n)
    columns = [
        [(-1) ** (i.bit_count() - j.bit_count()) if i & j == j else 0 for i in masks]
        for j in masks
    ]
    rows = [[0] * len(masks)]
    for p in range(1, 1 << len(masks)):
        low = p & -p
        rows.append([a + b for a, b in zip(rows[p ^ low], columns[low.bit_length() - 1])])
    return rows[1:]


def event_grid(num_states: int, step: int = 8):
    """All events over num_states whose values lie on a coarse grid."""
    levels = [i / step for i in range(step + 1)]
    sp = space(num_states)
    for combo in itertools.product(levels, repeat=num_states):
        yield Event(combo, sp)
