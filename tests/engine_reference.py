"""References for the engine's move and run and the two position-bound checkers.

``apply`` is the former sort-based ``LabeledConfiguration.apply``: it
concatenates each changed site's chips and sorts them again.  It is the
oracle for the insertion-based move rule, and writes out the ``(value, id)``
order it sorts by rather than share the engine's.  ``run`` is a run loop without
the engine's shortcuts: a new configuration per move made by ``apply``, a
fresh scan of the enabled sites before every move, and each record's values
read off the site's chips.  It is the oracle for ``run_to_completion``,
which fires in place and carries its enabled sites.  ``check_chip_bounds`` and
``check_loop_bounds`` are the former full-scan checkers, which replay the
trace and test every chip of every configuration, each with its own
statement of its bounds; they are the oracles for the position lemmas read
from the chip-site table, which is summed from the move records without a
replay.
"""

from math import ceil, floor

from chipfire.analysis import BoundViolation, _scope_m
from chipfire.engine import IllegalMoveError, LabeledConfiguration, MoveRecord, RandomDraws


def apply(config, variant, site, chosen_ids):
    """Fire ``chosen_ids`` at ``site`` of ``config``; raises IllegalMoveError on bad input."""
    chosen = tuple(chosen_ids)
    occupancy = config.occupancy
    present = occupancy.get(site, ())
    left, loop, _, th = variant.site_row(site)
    if len(present) < th:
        raise IllegalMoveError(f"site {site} not enabled: {len(present)} chips < threshold {th}")
    chosen_set = set(chosen)
    if len(chosen_set) != len(chosen) or len(chosen) != th:
        raise IllegalMoveError(f"move at site {site} must choose {th} distinct chips, got {chosen}")
    fired = [c for c in present if c.id in chosen_set]
    if len(fired) != th:
        ids = {c.id for c in present}
        raise IllegalMoveError(f"chips {[i for i in chosen if i not in ids]} absent from site {site}")
    stay = [c for c in present if c.id not in chosen_set]
    if loop:
        stay = sorted(stay + fired[left:left + loop], key=lambda c: (c.value, c.id))
    occ = dict(occupancy)
    if stay:
        occ[site] = tuple(stay)
    else:
        del occ[site]
    for dest, moved in ((site - 1, fired[:left]), (site + 1, fired[left + loop:])):
        if moved:
            occ[dest] = tuple(sorted(occupancy.get(dest, ()) + tuple(moved),
                                     key=lambda c: (c.value, c.id)))
    child = LabeledConfiguration.__new__(LabeledConfiguration)
    child.occupancy = occ
    return child


def run(initial, variant, strategy, seed):
    """The records and final configuration of a run from ``initial``."""
    rng = RandomDraws(seed)
    config = initial
    records = []
    fires = {}
    while enabled := config.enabled_sites(variant):
        site, chosen_ids = strategy.choose(config, enabled, variant, rng)
        present = config.chips_at(site)
        chosen = set(chosen_ids)
        fires[site] = fires.get(site, 0) + 1
        records.append(MoveRecord(len(records), site, tuple(sorted(chosen_ids)),
                                  tuple(c.value for c in present if c.id in chosen),
                                  len(present), fires[site]))
        config = apply(config, variant, site, chosen_ids)
    return records, config


def check_chip_bounds(trace):
    """Every chip's position bound, tested on every chip of every replayed
    configuration."""
    m = _scope_m("chip_bounds", trace.variant, trace.initial.total_chips())
    out = []

    def scan(config, step):
        for site, chip in config.chips():
            if chip.value < 0 and site > chip.value + m:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "chip_bounds", chip.value + m))
            elif chip.value > 0 and site < chip.value - m:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "chip_bounds", chip.value - m))

    scan(trace.initial, -1)
    for _, rec, after in trace.replay(verify=False):
        scan(after, rec.step)
    return out


def check_loop_bounds(trace):
    """Every chip's loop bound and every extreme-occupancy clause, tested on
    every replayed configuration."""
    m = _scope_m("loop_bounds", trace.variant, trace.initial.total_chips())
    # (value, site, sign), in report order: at most one chip with
    # sign * its value >= sign * value sits where sign * its site <= sign * site
    clauses = []
    for k in range(1, m + 1):
        if (k + m) % 2:
            clauses += [(k, floor((k - m) / 2), 1), (-k, ceil((m - k) / 2), -1)]
    out = []

    def limits(k):
        if k > 0:
            return floor((k - m) / 2), floor((k + m) / 2)
        if k < 0:
            return ceil((k - m) / 2), ceil((k + m) / 2)
        return ceil(-m / 2), floor(m / 2)

    def scan(config, step):
        chips = list(config.chips())
        for site, chip in chips:
            lo, hi = limits(chip.value)
            if site < lo or site > hi:
                out.append(BoundViolation(step, chip.id, chip.value, site,
                                          "loop_bounds", lo if site < lo else hi))
        for value, edge, sign in clauses:
            if sum(sign * chip.value >= sign * value and sign * site <= sign * edge
                   for site, chip in chips) > 1:
                out.append(BoundViolation(step, None, value, edge, "loop_bounds_extremes", 1))

    scan(trace.initial, -1)
    for _, rec, after in trace.replay(verify=False):
        scan(after, rec.step)
    return out
