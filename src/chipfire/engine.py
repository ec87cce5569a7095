"""Labeled chip-firing engine.

Chips carry an immutable integer value and a unique id.  A firing move at
site ``i`` chooses ``threshold(i)`` chips there, orders them by
``(value, id)``, and, with ``(left, loop, right)`` from ``site_row(i)``,
sends the smallest ``left`` to ``i-1``, keeps the middle ``loop`` at ``i``,
and sends the largest ``right`` to ``i+1``.  Ties between equal values are
broken by chip id (lower id fires left), so every run is reproducible from
its seed.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter, mul
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from . import closedform
from .variants import Variant

DEFAULT_MOVE_CAP = 10 ** 7


class ChipFiringError(Exception):
    pass


class IllegalMoveError(ChipFiringError):
    """A move violated a precondition (site not enabled / chip absent / wrong cardinality)."""


class NonTerminationError(ChipFiringError):
    """A run exceeded its move cap without reaching a terminal configuration."""


class CapExceededError(ChipFiringError):
    """A search exceeded its state cap; partial results are not returned.

    ``level`` is the depth (moves from the start) of the level whose states
    crossed the cap, and ``frontier`` the size of the level expanded to
    produce it.
    """

    def __init__(self, message: str, states_visited: int = 0,
                 level: int = 0, frontier: int = 0):
        super().__init__(message)
        self.states_visited = states_visited
        self.level = level
        self.frontier = frontier


class Chip(NamedTuple):
    id: int
    value: int


_chip_key = itemgetter(1, 0)  # (value, id): the order chips keep at a site


class LabeledConfiguration:
    """Sparse mapping from site to the chips currently there.

    Instances are immutable: applying a move returns a new configuration.
    Each site's chips are sorted by ``(value, id)`` and no site is empty.
    """

    __slots__ = ("occupancy",)

    def __init__(self, occupancy: dict[int, Iterable[Chip]]):
        self.occupancy: dict[int, tuple[Chip, ...]] = {
            site: tuple(sorted(chips, key=_chip_key))
            for site, chips in occupancy.items()
            if chips
        }

    @classmethod
    def from_values(cls, values_by_site: dict[int, Iterable[int]]) -> "LabeledConfiguration":
        """Assign fresh ids 0, 1, ... in (site, value) order."""
        occ: dict[int, list[Chip]] = {}
        next_id = 0
        for site in sorted(values_by_site):
            for value in sorted(values_by_site[site]):
                occ.setdefault(site, []).append(Chip(next_id, value))
                next_id += 1
        return cls(occ)

    def chips(self) -> Iterator[tuple[int, Chip]]:
        for site in sorted(self.occupancy):
            for chip in self.occupancy[site]:
                yield site, chip

    def chips_at(self, site: int) -> tuple[Chip, ...]:
        return self.occupancy.get(site, ())

    def values_at(self, site: int) -> tuple[int, ...]:
        return tuple(c.value for c in self.occupancy.get(site, ()))

    def values_by_site(self) -> dict[int, tuple[int, ...]]:
        return {site: self.values_at(site) for site in sorted(self.occupancy)}

    def total_chips(self) -> int:
        return sum(map(len, self.occupancy.values()))

    def weighted_sum(self) -> int:
        occupancy = self.occupancy
        return sum(map(mul, occupancy, map(len, occupancy.values())))

    def enabled_sites(self, variant: Variant) -> list[int]:
        """Sorted sites holding at least their threshold."""
        return sorted(site for site, chips in self.occupancy.items()
                      if len(chips) >= variant.site_row(site)[3])

    def apply(self, variant: Variant, site: int, chosen_ids: Iterable[int]) -> "LabeledConfiguration":
        """Fire ``chosen_ids`` at ``site``; raises IllegalMoveError on bad input.

        Only sites ``site - 1``, ``site`` and ``site + 1`` change, and each
        moved chip is inserted into its site's sorted chips.
        """
        chosen = tuple(chosen_ids)
        occupancy = self.occupancy
        present = occupancy.get(site, ())
        left, loop, _, th = variant.site_row(site)
        if len(present) < th:
            raise IllegalMoveError(f"site {site} not enabled: {len(present)} chips < threshold {th}")
        chosen_set = set(chosen)
        if len(chosen_set) != len(chosen) or len(chosen) != th:
            raise IllegalMoveError(f"move at site {site} must choose {th} distinct chips, got {chosen}")
        # present is in (value, id) order, so both parts come out in that order
        fired, stay = [], []
        for c in present:
            (fired if c.id in chosen_set else stay).append(c)
        if len(fired) != th:
            ids = {c.id for c in present}
            raise IllegalMoveError(f"chips {[i for i in chosen if i not in ids]} absent from site {site}")
        for c in fired[left:left + loop]:
            insort(stay, c, key=_chip_key)
        occ = occupancy.copy()
        if stay:
            occ[site] = tuple(stay)
        else:
            del occ[site]
        for dest, moved in ((site - 1, fired[:left]), (site + 1, fired[left + loop:])):
            if moved:
                chips = list(occupancy.get(dest, ()))
                for c in moved:
                    insort(chips, c, key=_chip_key)
                occ[dest] = tuple(chips)
        child = LabeledConfiguration.__new__(LabeledConfiguration)
        child.occupancy = occ
        return child

    def __eq__(self, other):
        return isinstance(other, LabeledConfiguration) and self.occupancy == other.occupancy

    def __hash__(self):
        return hash(tuple(sorted(self.occupancy.items())))

    def __repr__(self):
        inner = ", ".join(f"{site}: {sorted(c.value for c in chips)}"
                          for site, chips in sorted(self.occupancy.items()))
        return f"LabeledConfiguration({{{inner}}})"


def standard_initial(variant: Variant, n: int, preset: str = "origin") -> LabeledConfiguration:
    """The initial configuration of ``preset`` (``closedform.initial_values``)."""
    return LabeledConfiguration.from_values(closedform.initial_values(variant, n, preset))


class MoveRecord(NamedTuple):
    """A move plus the metadata captured when it fired."""
    step: int
    site: int
    chosen_ids: tuple[int, ...]
    chosen_values: tuple[int, ...]
    present_before: int
    fire_index_at_site: int

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "site": self.site,
            "chosen_values": list(self.chosen_values),
            "chosen_ids": list(self.chosen_ids),
            "present_before": self.present_before,
            "fire_index_at_site": self.fire_index_at_site,
        }


@dataclass
class Trace:
    """An initial configuration, the ordered moves of one complete run and
    the configuration they end in (built with the moves, never replayed)."""

    variant: Variant
    initial: LabeledConfiguration
    records: list[MoveRecord]
    strategy: str
    seed: int
    _final: LabeledConfiguration = field(repr=False)
    n: int | None = None
    preset: str | None = None

    def __len__(self):
        return len(self.records)

    def replay(self, verify: bool = True) -> Iterator[tuple[LabeledConfiguration, MoveRecord, LabeledConfiguration]]:
        """Yield (state_before, record, state_after) for every move.

        With ``verify`` each record is derived again from its move and must
        equal the stored one; any mismatch raises ChipFiringError.
        """
        config = self.initial
        fires: dict[int, int] = {}
        for rec in self.records:
            before = config
            if verify:
                derived, config = _fire(config, self.variant, rec.step, rec.site,
                                        rec.chosen_ids, fires)
                if derived != rec:
                    raise ChipFiringError(f"replay mismatch at step {rec.step}: {rec}")
            else:
                config = config.apply(self.variant, rec.site, rec.chosen_ids)
            yield before, rec, config
        if verify and config.enabled_sites(self.variant):
            raise ChipFiringError("trace does not end in a terminal configuration")

    def final_config(self) -> LabeledConfiguration:
        return self._final

    def fire_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for rec in self.records:
            counts[rec.site] = counts.get(rec.site, 0) + 1
        return dict(sorted(counts.items()))

    def header_json(self) -> dict:
        return {
            "variant": self.variant.to_json(),
            "n": self.initial.total_chips() if self.n is None else self.n,
            "preset": self.preset,
            "strategy": self.strategy,
            "seed": self.seed,
            "initial": {str(site): list(values)
                        for site, values in self.initial.values_by_site().items()},
        }

    def write_jsonl(self, fp: IO[str]):
        fp.write(json.dumps(self.header_json()) + "\n")
        for rec in self.records:
            fp.write(json.dumps(rec.to_json()) + "\n")

    @classmethod
    def read_jsonl(cls, fp: IO[str]) -> "Trace":
        """Rebuild a trace from the JSON-lines format.

        Chip ids are reassigned in (site, value) order, then each recorded
        move is re-bound to ids by value at its site (lowest ids first), so
        a round-tripped trace replays to the same value-level run.  Steps,
        sites and chip values must be JSON integers, and the k-th move record
        (from 0, blank lines skipped) must carry step k; bad input raises
        ChipFiringError naming its line.
        """
        header = _json_object(fp.readline(), 1)
        try:
            variant = Variant.from_json(header["variant"])
            values_by_site = {int(site): values for site, values in header["initial"].items()}
        except KeyError as exc:
            raise ChipFiringError(f"line 1: trace header lacks {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise ChipFiringError(f"line 1: bad trace header: {exc}") from exc
        if not all(_int_list(values) for values in values_by_site.values()):
            raise ChipFiringError("line 1: initial chip values must be lists of JSON integers")
        initial = config = LabeledConfiguration.from_values(values_by_site)
        records = []
        fires: dict[int, int] = {}
        for lineno, line in enumerate(fp, 2):
            if not line.strip():
                continue
            d = _json_object(line, lineno)
            where = f"line {lineno}, step {d.get('step', len(records))}"
            try:
                step, site, values = d["step"], d["site"], d["chosen_values"]
            except KeyError as exc:
                raise ChipFiringError(f"{where}: move record lacks {exc}") from exc
            if not (_int_list([step, site]) and _int_list(values)):
                raise ChipFiringError(
                    f"{where}: step, site and chosen_values must be JSON integers")
            if step != len(records):
                raise ChipFiringError(f"{where}: expected step {len(records)}")
            try:
                rec, config = _fire(config, variant, step, site,
                                    _ids_for_values(config, site, values), fires)
            except IllegalMoveError as exc:
                raise IllegalMoveError(f"{where}: {exc}") from exc
            records.append(rec)
        return cls(variant=variant, initial=initial, records=records,
                   strategy=header.get("strategy", "scripted"), seed=header.get("seed", 0),
                   n=header.get("n"), preset=header.get("preset"), _final=config)


def _fire(config: LabeledConfiguration, variant: Variant, step: int, site: int,
          chosen_ids: tuple[int, ...], fires: dict[int, int]) -> tuple[MoveRecord, LabeledConfiguration]:
    """Apply one move, count it in ``fires``, and return its record and the child."""
    child = config.apply(variant, site, chosen_ids)
    present = config.occupancy[site]
    fire_index = fires[site] = fires.get(site, 0) + 1
    chosen = set(chosen_ids)
    return MoveRecord(step, site, tuple(sorted(chosen_ids)),
                      tuple([c.value for c in present if c.id in chosen]),
                      len(present), fire_index), child


def _int_list(values) -> bool:
    """True for a list of JSON integers (bools are not integers here)."""
    return isinstance(values, list) and all(type(v) is int for v in values)


def _json_object(line: str, lineno: int) -> dict:
    """One JSON-lines record; anything but a JSON object raises ChipFiringError."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ChipFiringError(f"line {lineno}: not JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise ChipFiringError(f"line {lineno}: expected a JSON object, got {line.strip()!r}")
    return record


def _ids_for_values(config: LabeledConfiguration, site: int, values: Iterable[int]) -> tuple[int, ...]:
    """Pick chip ids at ``site`` matching the value multiset, lowest ids first."""
    pool: dict[int, list[int]] = {}
    for chip in config.chips_at(site):
        pool.setdefault(chip.value, []).append(chip.id)
    for ids in pool.values():
        ids.sort(reverse=True)
    chosen = []
    for value in sorted(values):
        if value not in pool or not pool[value]:
            raise IllegalMoveError(f"no chip valued {value} available at site {site}")
        chosen.append(pool[value].pop())
    return tuple(sorted(chosen))


# --- strategies ------------------------------------------------------------

class Strategy:
    """Picks the next move given the configuration, its enabled sites (sorted,
    non-empty, owned by the run: read them, never keep or change them), the
    variant and the run RNG."""

    name = "abstract"

    def choose(self, config: LabeledConfiguration, enabled: list[int], variant: Variant,
               rng: np.random.Generator) -> tuple[int, tuple[int, ...]]:
        raise NotImplementedError


class LeftmostStrategy(Strategy):
    """Fire the smallest enabled site with its threshold lowest (value, id) chips."""

    name = "leftmost"

    def choose(self, config, enabled, variant, rng):
        site = enabled[0]
        return site, tuple(c.id for c in config.chips_at(site)[:variant.threshold(site)])


class RandomStrategy(Strategy):
    """Uniform over enabled sites, then uniform over legal chip subsets."""

    name = "random"

    def choose(self, config, enabled, variant, rng):
        site = enabled[int(rng.integers(len(enabled)))]
        ids = sorted([c.id for c in config.chips_at(site)])
        # rng.choice(ids, ...) draws these same indices and returns ids[indices]
        picked = rng.choice(len(ids), size=variant.threshold(site), replace=False)
        picked.sort()
        return site, tuple([ids[i] for i in picked.tolist()])


class ScriptedValuesStrategy(Strategy):
    """Replay (site, value-multiset) moves, binding values to lowest free ids."""

    name = "scripted"

    def __init__(self, moves: Iterable[tuple[int, tuple[int, ...]]]):
        self._moves = list(moves)
        self._pos = 0

    def choose(self, config, enabled, variant, rng):
        if self._pos >= len(self._moves):
            raise IllegalMoveError("script exhausted while sites are still enabled")
        site, values = self._moves[self._pos]
        self._pos += 1
        return site, _ids_for_values(config, site, values)


class HoldStrategy(Strategy):
    """Keep a designated chip-id set out of play for as long as possible.

    Prefers the leftmost enabled site offering a legal subset disjoint from
    the held set, and fires the threshold lowest non-held chips there.  When
    every enabled site forces held chips, fires at the leftmost enabled site
    using as few held chips as possible.
    """

    name = "hold"

    def __init__(self, held_ids: Iterable[int]):
        self.held = frozenset(held_ids)

    def choose(self, config, enabled, variant, rng):
        for site in enabled:
            th = variant.threshold(site)
            free = [c for c in config.chips_at(site) if c.id not in self.held]
            if len(free) >= th:
                return site, tuple(c.id for c in free[:th])
        site = enabled[0]
        th = variant.threshold(site)
        chips = sorted(config.chips_at(site), key=lambda c: (c.id in self.held, _chip_key(c)))
        return site, tuple(sorted(c.id for c in chips[:th]))


def make_strategy(name: str) -> Strategy:
    if name == "leftmost":
        return LeftmostStrategy()
    if name == "random":
        return RandomStrategy()
    raise ValueError(f"unknown strategy {name!r}")


def default_move_cap(variant: Variant, initial: LabeledConfiguration) -> int:
    """10x the known total fire count for origin-preset initials, else 10**7."""
    occ = initial.values_by_site()
    if set(occ) <= {0}:
        try:
            table = closedform.fire_count_table(variant, initial.total_chips())
            return max(10 * sum(table.values()), 1)
        except closedform.UnsupportedVariantError:
            pass
    return DEFAULT_MOVE_CAP


def _update_enabled(enabled: list[int], config: LabeledConfiguration,
                    variant: Variant, site: int):
    """Turn the sorted enabled sites of a configuration into those of
    ``config``, made from it by firing ``site``: only the fired site and its
    neighbours can differ."""
    occupancy = config.occupancy
    enabled[bisect_left(enabled, site - 1):bisect_right(enabled, site + 1)] = [
        s for s in (site - 1, site, site + 1)
        if len(occupancy.get(s, ())) >= variant.site_row(s)[3]]


def run_to_completion(initial: LabeledConfiguration, variant: Variant,
                      strategy: Strategy, seed: int = 0,
                      move_cap: int | None = None,
                      n: int | None = None, preset: str | None = None) -> Trace:
    """Fire until no site is enabled and return the full trace.

    The enabled sites are scanned once, then updated after every move.
    Raises NonTerminationError if the move cap (default: 10x the known total
    fire count, else 10**7) is exceeded.
    """
    if move_cap is None:
        move_cap = default_move_cap(variant, initial)
    rng = np.random.default_rng(seed)
    config = initial
    records: list[MoveRecord] = []
    fires: dict[int, int] = {}
    enabled = initial.enabled_sites(variant)
    while enabled:
        if len(records) >= move_cap:
            raise NonTerminationError(f"exceeded move cap {move_cap} without terminating")
        site, chosen_ids = strategy.choose(config, enabled, variant, rng)
        rec, config = _fire(config, variant, len(records), site, chosen_ids, fires)
        records.append(rec)
        _update_enabled(enabled, config, variant, site)
    return Trace(variant=variant, initial=initial, records=records,
                 strategy=strategy.name, seed=seed, _final=config, n=n, preset=preset)
