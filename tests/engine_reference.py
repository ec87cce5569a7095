"""References for the engine's move and the chip-bounds checker.

``apply`` is the former sort-based ``LabeledConfiguration.apply``: it
concatenates each changed site's chips and sorts them again.  It is the
oracle for the insertion-based ``apply``.  ``check_chip_bounds`` is the
former full-scan checker, which tests every chip after every step; it is
the oracle for the checker that tests only the sites a move changed.
"""

from chipfire.analysis import BoundViolation, _scope_m
from chipfire.engine import IllegalMoveError, LabeledConfiguration, _chip_key


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
        stay = sorted(stay + fired[left:left + loop], key=_chip_key)
    occ = dict(occupancy)
    if stay:
        occ[site] = tuple(stay)
    else:
        del occ[site]
    for dest, moved in ((site - 1, fired[:left]), (site + 1, fired[left + loop:])):
        if moved:
            occ[dest] = tuple(sorted(occupancy.get(dest, ()) + tuple(moved), key=_chip_key))
    child = LabeledConfiguration.__new__(LabeledConfiguration)
    child.occupancy = occ
    return child


def check_chip_bounds(trace):
    """Every chip's position bound, tested on every chip after every step."""
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
