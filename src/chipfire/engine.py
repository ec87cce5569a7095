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
from array import array
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import mul
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
    """A chip; fields in the order chips keep at a site, so plain tuple
    order is ``(value, id)`` order."""
    value: int
    id: int


class LabeledConfiguration:
    """Sparse mapping from site to the chips currently there.

    Each site's chips are in ``(value, id)`` order, which is plain tuple
    order for ``Chip``, and no site is empty.
    The move rule is stated once, by ``_move``, which fires in place;
    ``apply`` copies the occupancy dict, then fires, so the configuration it
    is called on never changes.  A run and ``Trace.read_jsonl`` fire in place
    on one dict of their own and show it to strategies as a configuration
    whose occupancy changes after every move.
    """

    __slots__ = ("occupancy",)

    def __init__(self, occupancy: dict[int, Iterable[Chip]]):
        self.occupancy: dict[int, tuple[Chip, ...]] = {
            site: tuple(sorted(chips))
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
                occ.setdefault(site, []).append(Chip(value=value, id=next_id))
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
        """Fire ``chosen_ids`` at ``site`` of a copy; raises IllegalMoveError on bad input."""
        occupancy = self.occupancy.copy()
        _move(occupancy, variant, site, chosen_ids)
        return _wrap(occupancy)

    def __eq__(self, other):
        return isinstance(other, LabeledConfiguration) and self.occupancy == other.occupancy

    def __repr__(self):
        inner = ", ".join(f"{site}: {sorted(c.value for c in chips)}"
                          for site, chips in sorted(self.occupancy.items()))
        return f"LabeledConfiguration({{{inner}}})"


def _wrap(occupancy: dict[int, tuple[Chip, ...]]) -> LabeledConfiguration:
    """A configuration over ``occupancy`` as it is: no copy, no re-sort."""
    config = LabeledConfiguration.__new__(LabeledConfiguration)
    config.occupancy = occupancy
    return config


def _move(occupancy: dict[int, tuple[Chip, ...]], variant: Variant, site: int,
          chosen_ids: Iterable[int]) -> tuple[list[Chip], int]:
    """The move rule: fire ``chosen_ids`` at ``site`` of ``occupancy``, in place.

    Returns the fired chips in ``(value, id)`` order and the number of chips
    the site held.  Bad input raises IllegalMoveError before anything is
    written.  Only sites ``site - 1``, ``site`` and ``site + 1`` change: each
    gets a new sorted tuple, with every moved chip inserted in order, and a
    site left empty is deleted.  No tuple is mutated.
    """
    chosen = tuple(chosen_ids)
    present = occupancy.get(site, ())
    left, loop, right, th = variant.site_row(site)
    if len(present) < th:
        raise IllegalMoveError(f"site {site} not enabled: {len(present)} chips < threshold {th}")
    chosen_set = set(chosen)
    if len(chosen_set) != len(chosen) or len(chosen) != th:
        raise IllegalMoveError(f"move at site {site} must choose {th} distinct chips, got {chosen}")
    # present is in (value, id) order, so both parts come out in that order
    fired, stay = [], []
    for c in present:
        if c.id in chosen_set:
            fired.append(c)
        else:
            stay.append(c)
    if len(fired) != th:
        ids = {c.id for c in present}
        raise IllegalMoveError(f"chips {[i for i in chosen if i not in ids]} absent from site {site}")
    for c in fired[left:left + loop]:
        insort(stay, c)
    if stay:
        occupancy[site] = tuple(stay)
    else:
        del occupancy[site]
    if left:
        _insert(occupancy, site - 1, fired[:left])
    if right:
        _insert(occupancy, site + 1, fired[left + loop:])
    return fired, len(present)


def _insert(occupancy: dict[int, tuple[Chip, ...]], site: int, moved):
    """Give ``site`` a new tuple of its chips with ``moved``, a sorted slice
    of fired chips, inserted in order."""
    chips = occupancy.get(site)
    if chips:
        chips = list(chips)
        for c in moved:
            insort(chips, c)
        occupancy[site] = tuple(chips)
    else:
        occupancy[site] = tuple(moved)


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


class MoveLog(Sequence):
    """The moves of a run as flat columns, move t at index t.

    ``sites[t]`` is where move t fired, its chosen ids (sorted) and the
    values of its fired chips (in (value, id) order) are
    ``ids[offsets[t]:offsets[t + 1]]`` and ``values[...]`` of that slice,
    and ``present_before[t]`` and ``fire_index_at_site[t]`` are its counts.
    Sites, ids and values are lists, so they hold any Python int; offsets
    and counts, bounded by the size of the run, are int64 arrays.

    Read as a sequence it is the run's ``MoveRecord`` list: each record is
    built on demand and none is stored.  It has no item assignment.
    """

    __slots__ = ("sites", "ids", "values", "offsets", "present_before", "fire_index_at_site")

    def __init__(self):
        self.sites: list[int] = []
        self.ids: list[int] = []
        self.values: list[int] = []
        self.offsets = array("q", [0])
        self.present_before = array("q")
        self.fire_index_at_site = array("q")

    def append(self, site: int, ids: Iterable[int], values: Iterable[int],
               present_before: int, fire_index: int):
        self.sites.append(site)
        self.ids.extend(ids)
        self.values.extend(values)
        self.offsets.append(len(self.ids))
        self.present_before.append(present_before)
        self.fire_index_at_site.append(fire_index)

    def moves(self) -> Iterator[tuple[int, int, int, int, int]]:
        """Per move, in step order: its site, the start and end of its chosen
        ids and values, ``present_before`` and ``fire_index_at_site``."""
        offsets = self.offsets
        return zip(self.sites, offsets, islice(offsets, 1, None),
                   self.present_before, self.fire_index_at_site)

    def _record(self, t: int) -> MoveRecord:
        a, b = self.offsets[t], self.offsets[t + 1]
        return MoveRecord(t, self.sites[t], tuple(self.ids[a:b]), tuple(self.values[a:b]),
                          self.present_before[t], self.fire_index_at_site[t])

    def __len__(self):
        return len(self.sites)

    def __getitem__(self, i):
        steps = range(len(self.sites))[i]  # IndexError past either end
        return [*map(self._record, steps)] if isinstance(steps, range) else self._record(steps)

    def __iter__(self):
        return map(self._record, range(len(self.sites)))

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (MoveLog, list)) else NotImplemented

    def __repr__(self):
        return f"MoveLog({len(self)} moves)"


@dataclass
class Trace:
    """An initial configuration, the ordered moves of one complete run, in
    one ``MoveLog``, and the configuration they end in (built with the
    moves, never replayed)."""

    variant: Variant
    initial: LabeledConfiguration
    log: MoveLog
    strategy: str
    seed: int
    _final: LabeledConfiguration = field(repr=False)
    n: int | None = None
    preset: str | None = None

    def __len__(self):
        return len(self.log)

    @property
    def records(self) -> MoveLog:
        """The moves as a read-only sequence of ``MoveRecord``, built on demand."""
        return self.log

    def replay(self, verify: bool = True) -> Iterator[tuple[LabeledConfiguration, MoveRecord, LabeledConfiguration]]:
        """Yield (state_before, record, state_after) for every move, each
        fired by ``_fire`` on a copy of the state before it.

        With ``verify`` each derived move must equal the logged one and the
        last state must be terminal; either failure raises ChipFiringError.
        """
        config = self.initial
        fires: dict[int, int] = {}
        log = self.log
        ids, values = log.ids, log.values
        for step, (site, a, b, present, fire_index) in enumerate(log.moves()):
            chosen, fired = ids[a:b], values[a:b]
            occupancy = config.occupancy.copy()
            derived = _fire(occupancy, self.variant, site, chosen, fires)
            if verify and derived != (chosen, fired, present, fire_index):
                raise ChipFiringError(f"replay mismatch at step {step}: {log[step]}")
            before, config = config, _wrap(occupancy)
            rec = MoveRecord(step, site, tuple(chosen), tuple(fired), present, fire_index)
            yield before, rec, config
        if verify and config.enabled_sites(self.variant):
            raise ChipFiringError("trace does not end in a terminal configuration")

    def final_config(self) -> LabeledConfiguration:
        return self._final

    def fire_counts(self) -> dict[int, int]:
        """Moves per site; a site's last fire index is its count."""
        return dict(sorted(dict(zip(self.log.sites, self.log.fire_index_at_site)).items()))

    def header_json(self) -> dict:
        """The trace's first JSON line.  Its ``n`` is the preset's parameter
        when ``preset`` is set (a staircase with ``n`` 2 holds 5 chips) and
        the chip count when ``preset`` is null."""
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
        """The header line, then one line per move, each written as it is
        formatted from the log's columns.  A move's line is
        ``json.dumps(rec.to_json())``, spelled out: a list of ints prints as
        a JSON array."""
        fp.write(json.dumps(self.header_json()) + "\n")
        ids, values = self.log.ids, self.log.values
        for step, (site, a, b, present, fire_index) in enumerate(self.log.moves()):
            fp.write(f'{{"step": {step}, "site": {site}, "chosen_values": {values[a:b]}, '
                     f'"chosen_ids": {ids[a:b]}, "present_before": {present}, '
                     f'"fire_index_at_site": {fire_index}}}\n')

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
        initial = LabeledConfiguration.from_values(values_by_site)
        occupancy = initial.occupancy.copy()  # fired in place
        config = _wrap(occupancy)
        log = MoveLog()
        fires: dict[int, int] = {}

        def where():  # the current line's location, formatted only for an error
            return f"line {lineno}, step {d.get('step', len(log))}"

        for lineno, line in enumerate(fp, 2):
            if not line.strip():
                continue
            d = _json_object(line, lineno)
            try:
                step, site, values = d["step"], d["site"], d["chosen_values"]
            except KeyError as exc:
                raise ChipFiringError(f"{where()}: move record lacks {exc}") from exc
            if not (type(step) is int and type(site) is int and _int_list(values)):
                raise ChipFiringError(
                    f"{where()}: step, site and chosen_values must be JSON integers")
            if step != len(log.sites):
                raise ChipFiringError(f"{where()}: expected step {len(log)}")
            try:
                log.append(site, *_fire(occupancy, variant, site,
                                        _ids_for_values(config, site, values), fires))
            except IllegalMoveError as exc:
                raise IllegalMoveError(f"{where()}: {exc}") from exc
        return cls(variant=variant, initial=initial, log=log,
                   strategy=header.get("strategy", "scripted"), seed=header.get("seed", 0),
                   n=header.get("n"), preset=header.get("preset"), _final=config)


def _fire(occupancy: dict[int, tuple[Chip, ...]], variant: Variant, site: int,
          chosen_ids: Iterable[int], fires: dict[int, int]
          ) -> tuple[list[int], list[int], int, int]:
    """Fire one move in place on ``occupancy`` and count it in ``fires``.

    Returns the move as ``MoveLog.append`` takes it after its site: the
    chosen ids sorted, the values of the chips that fired, the chips the
    site held and the move's fire index there (a record's last four fields).
    """
    fired, present_before = _move(occupancy, variant, site, chosen_ids)
    fire_index = fires[site] = fires.get(site, 0) + 1
    return sorted(chosen_ids), [c.value for c in fired], present_before, fire_index


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
    """Pick chip ids at ``site`` matching the value multiset, lowest ids first.

    The site's chips are in (value, id) order, so one walk of them beside the
    sorted values binds each value to the lowest free id holding it: the
    first chip at or past the last one bound that is not below ``(value,)``."""
    chips = config.chips_at(site)
    chosen = []
    i = 0
    for value in sorted(values):
        i = bisect_left(chips, (value,), i)
        if i == len(chips) or chips[i].value != value:
            raise IllegalMoveError(f"no chip valued {value} available at site {site}")
        chosen.append(chips[i].id)
        i += 1
    return tuple(sorted(chosen))


# --- random draws ----------------------------------------------------------

_RAW_BLOCK = 512  # PCG64 words taken at a time
_LOW32 = 0xFFFFFFFF


class RandomDraws:
    """The draws of ``np.random.default_rng(seed)``'s ``integers`` and
    ``choice``, made in Python from its raw PCG64 words.

    The Generator's own calls cost ~3 and ~12 µs each, mostly call overhead,
    not drawing.  Here the same algorithms run on the same bits: words are
    taken in blocks with ``bit_generator.random_raw`` and split into 32-bit
    halves, low half first, the order of the Generator's ``next_uint32``.
    Nothing else reads the bit generator.  ``tests/test_engine.py`` checks
    every draw against the installed numpy.

    The generator is made on the first draw, so a run that never draws
    (leftmost, scripted and hold runs) never imports ``numpy.random`` and
    ignores its seed.  A bad seed is refused there too: ``ValueError`` for a
    negative one, ``TypeError`` for a non-integer, raised by the first
    draw, not by the constructor.
    """

    __slots__ = ("_half",)

    def __init__(self, seed: int):
        def blocks():
            bits = np.random.default_rng(seed).bit_generator
            while True:
                yield bits.random_raw(_RAW_BLOCK).astype("<u8", copy=False).view("<u4").tolist()
        self._half = chain.from_iterable(blocks()).__next__

    def integers(self, k: int) -> int:
        """``Generator.integers(k)`` for ``1 <= k <= 2**32``: Lemire's bounded
        draw on [0, k-1], one 32-bit half per try; k == 1 takes none."""
        if k == 1:
            return 0
        m = self._half() * k
        if m & _LOW32 < k:  # only then can the try be rejected
            floor = (1 << 32) % k
            while m & _LOW32 < floor:
                m = self._half() * k
        return m >> 32

    def sample(self, p: int, size: int) -> list[int]:
        """The indices of ``Generator.choice(p, size, replace=False)``,
        sorted.  numpy runs Floyd's algorithm, then shuffles the picks; the
        shuffle's draws are made and only its order is dropped.  For
        ``p > 10000`` and ``size > p // 50`` numpy instead shuffles the tail
        of ``range(p)``, and so does this."""
        integers = self.integers
        if p > 10000 and size > p // 50:
            idx = list(range(p))
            for i in range(p - 1, p - size - 1, -1):
                j = integers(i + 1)
                idx[i], idx[j] = idx[j], idx[i]
            return sorted(idx[p - size:])
        taken: list[int] = []
        for j in range(p - size, p):
            v = integers(j + 1)
            taken.append(j if v in taken else v)
        for i in range(size - 1, 0, -1):
            integers(i + 1)
        taken.sort()
        return taken


# --- strategies ------------------------------------------------------------

class Strategy:
    """Picks the next move given the configuration and its enabled sites
    (sorted, non-empty), the variant and the run's random draws.  The run owns
    the configuration and the enabled sites and changes both in place after
    ``choose`` returns: read them, never keep or change them."""

    name = "abstract"

    def choose(self, config: LabeledConfiguration, enabled: list[int], variant: Variant,
               rng: RandomDraws) -> tuple[int, tuple[int, ...]]:
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
        site = enabled[rng.integers(len(enabled))]
        ids = sorted([c.id for c in config.chips_at(site)])
        return site, tuple([ids[i] for i in rng.sample(len(ids), variant.threshold(site))])


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
        chips = sorted(config.chips_at(site), key=lambda c: (c.id in self.held, c))
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
    rng = RandomDraws(seed)
    occupancy = initial.occupancy.copy()  # fired in place, then the final configuration's
    config = _wrap(occupancy)
    log = MoveLog()
    fires: dict[int, int] = {}
    enabled = initial.enabled_sites(variant)
    while enabled:
        if len(log.sites) >= move_cap:
            raise NonTerminationError(f"exceeded move cap {move_cap} without terminating")
        site, chosen_ids = strategy.choose(config, enabled, variant, rng)
        log.append(site, *_fire(occupancy, variant, site, chosen_ids, fires))
        _update_enabled(enabled, config, variant, site)
    return Trace(variant=variant, initial=initial, log=log,
                 strategy=strategy.name, seed=seed, _final=config, n=n, preset=preset)
