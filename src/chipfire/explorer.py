"""Exhaustive search over labeled configurations.

States are canonicalized by erasing chip ids: two configurations equal up
to id permutation among equal values have identical futures, because the
firing rule depends only on values.  The reachable canonical-state graph
is expanded breadth first; since every move raises the total fire count by
one, levels are graded and deduplication stays within a level.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations

from .engine import (CapExceededError, LabeledConfiguration, ScriptedValuesStrategy,
                     HoldStrategy, Trace, run_to_completion, standard_initial)
from .variants import Variant

DEFAULT_STATE_CAP = 5_000_000
KEY_OFFSET = 128  # byte keys store site + 128 and value + 128
KEY_LIMIT = 120   # largest |site| reach and |value| a byte key is allowed to hold

# canonical state: ((site, (values...)), ...) sorted by site
CanonicalState = tuple[tuple[int, tuple[int, ...]], ...]


class StateKeyLimitError(ValueError):
    """The initial configuration could reach sites or holds values a byte key cannot hold."""


def canonicalize(config: LabeledConfiguration) -> CanonicalState:
    return tuple((site, config.values_at(site)) for site in sorted(config.occupancy))


def to_site_dict(state: CanonicalState) -> dict[int, tuple[int, ...]]:
    return dict(state)


def is_weakly_sorted_state(state: CanonicalState) -> bool:
    flat = [v for _, values in state for v in values]
    return all(a <= b for a, b in zip(flat, flat[1:]))


def _successors(state: CanonicalState, variant: Variant):
    """Yield ``(site, chosen, child)`` for every distinct move, in site order.

    Value choices come from ``itertools.combinations`` over the sorted
    values at the site, so ``chosen`` is sorted and only its first
    occurrence is kept.
    """
    occ = dict(state)
    for site, values in state:
        th = variant.threshold(site)
        if len(values) < th:
            continue
        left, loop, right = variant.split(site)
        seen = set()
        for chosen in combinations(values, th):
            if chosen in seen:
                continue
            seen.add(chosen)
            pool = list(values)
            for v in chosen:
                pool.remove(v)
            nxt = dict(occ)
            nxt[site] = tuple(sorted(pool + list(chosen[left:left + loop])))
            nxt[site - 1] = tuple(sorted(occ.get(site - 1, ()) + chosen[:left]))
            nxt[site + 1] = tuple(sorted(occ.get(site + 1, ()) + chosen[left + loop:]))
            yield site, chosen, tuple((s, v) for s, v in sorted(nxt.items()) if v)


def successor_outcomes(state: CanonicalState, variant: Variant) -> set[CanonicalState]:
    """All one-move successors over every enabled site and distinct value choice.

    Distinct choices that split identically merge into one outcome.
    """
    return {child for _, _, child in _successors(state, variant)}


@dataclass
class ExplorationReport:
    """Outcome of an exhaustive exploration."""

    states_visited: int
    terminals: tuple[CanonicalState, ...]
    confluent: bool
    sorted_terminal_count: int
    witness: list[tuple[int, tuple[int, ...]]] | None = None

    @property
    def terminal_count(self) -> int:
        return len(self.terminals)

    def unsorted_terminals(self) -> tuple[CanonicalState, ...]:
        return tuple(t for t in self.terminals if not is_weakly_sorted_state(t))

    def to_json(self) -> dict:
        return {
            "states_visited": self.states_visited,
            "terminal_count": self.terminal_count,
            "confluent": self.confluent,
            "sorted_terminal_count": self.sorted_terminal_count,
            "terminals": [{str(s): list(v) for s, v in t} for t in self.terminals],
            "witness": ([{"site": s, "chosen_values": list(v)} for s, v in self.witness]
                        if self.witness is not None else None),
        }


def _key(state: CanonicalState) -> bytes:
    """Flat ``(site, value)`` sequence offset by KEY_OFFSET, one byte each.

    Keys of equal length sort like the signed sequences they encode.
    """
    return bytes(x + KEY_OFFSET for site, values in state for v in values for x in (site, v))


def _unkey(key: bytes) -> CanonicalState:
    occ: dict[int, list[int]] = {}
    for i in range(0, len(key), 2):
        occ.setdefault(key[i] - KEY_OFFSET, []).append(key[i + 1] - KEY_OFFSET)
    return tuple((s, tuple(v)) for s, v in occ.items())


def _explore_levels(initial: LabeledConfiguration, variant: Variant,
                    state_cap: int, record_parents: bool):
    """Graded BFS over byte keys.

    Each level is the sorted list of its keys.  A child's parent index and
    move are those of its first occurrence when the previous level is
    expanded in order, and only the parent index is kept (per level, when
    ``record_parents``).  Returns (levels, parents, terminals, visited),
    terminals as (level, index, state) in visiting order.
    """
    start = canonicalize(initial)
    nchips = initial.total_chips()
    if nchips:
        radius = max(abs(site) for site, _ in start) + nchips + 2
        maxval = max(abs(v) for _, vals in start for v in vals)
        if radius > KEY_LIMIT or maxval > KEY_LIMIT:
            raise StateKeyLimitError(
                f"labeled states are byte keys: need |site|, |value| <= {KEY_LIMIT}, "
                f"got reach {radius} and max |value| {maxval}")
    levels = [[_key(start)]]
    parents: list[array] = [array("i")]
    frontier = [start]
    terminals: list[tuple[int, int, CanonicalState]] = []
    visited = depth = 1
    while True:
        children: dict[bytes, tuple[int, CanonicalState]] = {}
        for r, state in enumerate(frontier):
            moved = False
            for _, _, child in _successors(state, variant):
                moved = True
                children.setdefault(_key(child), (r, child))
            if not moved:
                terminals.append((depth - 1, r, state))
        if not children:
            break
        keys = sorted(children)
        visited += len(keys)
        if visited > state_cap:
            raise CapExceededError(
                f"labeled exploration exceeded {state_cap} states",
                states_visited=visited)
        frontier = [children[k][1] for k in keys]
        depth += 1
        if record_parents:
            levels.append(keys)
            parents.append(array("i", (children[k][0] for k in keys)))
    return levels, parents, terminals, visited


def _witness_moves(levels: list[list[bytes]], parents: list[array], variant: Variant,
                   level_idx: int, idx: int):
    """Moves from the start to ``levels[level_idx][idx]``, re-expanding each parent."""
    moves = []
    key = levels[level_idx][idx]
    for li in range(level_idx, 0, -1):
        idx = parents[li][idx]
        parent = levels[li - 1][idx]
        moves.append(next((site, chosen) for site, chosen, child
                          in _successors(_unkey(parent), variant) if _key(child) == key))
        key = parent
    moves.reverse()
    return moves


def explore(initial: LabeledConfiguration, variant: Variant,
            state_cap: int = DEFAULT_STATE_CAP,
            witness_unsorted: bool = False) -> ExplorationReport:
    """Visit the full reachable canonical-state graph and collect terminals.

    Raises CapExceededError (carrying states_visited) when the cap is hit.
    With ``witness_unsorted`` the report includes a move sequence to some
    non-weakly-sorted terminal when one exists (at the cost of keeping the
    whole level history in memory).
    """
    levels, parents, term_locs, visited = _explore_levels(
        initial, variant, state_cap, record_parents=witness_unsorted)
    terminals = []
    witness = None
    for li, ri, state in term_locs:
        terminals.append(state)
        if (witness_unsorted and witness is None
                and not is_weakly_sorted_state(state)):
            witness = _witness_moves(levels, parents, variant, li, ri)
    terminals = tuple(sorted(set(terminals)))
    sorted_count = sum(is_weakly_sorted_state(t) for t in terminals)
    return ExplorationReport(
        states_visited=visited,
        terminals=terminals,
        confluent=len(terminals) == 1,
        sorted_terminal_count=sorted_count,
        witness=witness,
    )


def find_unsorted_terminal(initial: LabeledConfiguration, variant: Variant,
                           state_cap: int = DEFAULT_STATE_CAP) -> Trace | None:
    """Trace reaching a non-weakly-sorted terminal, or None if none exists.

    A cap overflow raises CapExceededError (inconclusive), which is distinct
    from an exhaustive None.
    """
    report = explore(initial, variant, state_cap, witness_unsorted=True)
    if report.witness is None:
        return None
    strategy = ScriptedValuesStrategy(report.witness)
    trace = run_to_completion(initial, variant, strategy)
    assert len(trace) == len(report.witness)
    return trace


def adversarial_1mod4(m: int, seed: int = 0) -> Trace:
    """Hold-both-lowest-chips schedule for one-self-loop runs with 4m+1 chips.

    Runs with the two lowest-valued chips held back for as long as legal
    moves allow, then to completion.  The terminal is expected to be
    non-weakly-sorted for every m >= 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    variant = Variant("loops_everywhere")
    n = 4 * m + 1
    initial = standard_initial(variant, n)
    low = min(chip.value for _, chip in initial.chips())
    held = [chip.id for _, chip in initial.chips() if chip.value == low]
    trace = run_to_completion(initial, variant, HoldStrategy(held), seed=seed,
                              n=n, preset="origin")
    return trace
