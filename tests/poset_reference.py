"""Per-pair and per-state references for the fire-count poset.

``must_precede`` is the poset's former one-pair precedence test, kept here
as the oracle for ``FireCountSpace.precedes`` and ``build_poset``;
``containment_relation`` is its former whole-relation test on bit-packed
done vectors, fast enough for the larger spaces; ``chips_at`` counts the
chips at one site of one fire-count state from the variant's
multiplicities, independently of the flow matrix.
"""

import numpy as np

from chipfire.engine import ChipFiringError


def done_vector(space, move) -> np.ndarray:
    """Boolean over states: has ``move`` already happened."""
    return space.states[:, space.sites.index(move.site)] >= move.occ_from_start


def must_precede(a, b, space) -> bool:
    """True iff no reachable state has ``b`` done while ``a`` is not."""
    return not bool(np.any(done_vector(space, b) & ~done_vector(space, a)))


def containment_relation(space) -> set:
    """Every pair ``(a, b)``, ``a != b``, such that the states with ``b``
    done are a subset of those with ``a`` done, tested on one bit-packed
    done vector per move instance."""
    nodes = space.nodes()
    packed = np.array([np.packbits(done_vector(space, move)) for move in nodes],
                      np.uint8).reshape(len(nodes), (space.n_states + 7) // 8)
    return {(nodes[i], nodes[j]) for j, row in enumerate(packed)
            for i in np.flatnonzero(~np.any(row & ~packed, axis=1)).tolist() if i != j}


def chips_at(state: dict[int, int], site: int, variant, initial: dict[int, int]) -> int:
    """Chip count at ``site`` after the fires recorded in ``state``."""
    val = (initial.get(site, 0)
           + variant.site_row(site - 1)[2] * state.get(site - 1, 0)
           + variant.site_row(site + 1)[0] * state.get(site + 1, 0)
           - (variant.site_row(site)[0] + variant.site_row(site)[2]) * state.get(site, 0))
    if val < 0:
        raise ChipFiringError(f"negative chip count {val} at site {site}: corrupt state")
    return val


def enumerated_tables(space) -> tuple[np.ndarray, np.ndarray]:
    """``(least_fires, exact)``, a row per node of ``space.nodes()``, from one
    pass per site over every state: the poset's former tables, kept as the
    oracle for its closure rows.

    ``least_fires[r]`` holds each window site's least fire count over the
    states where node r's site has fired exactly its ``occ_from_start``
    times, so ``(s, j)`` precedes node r iff ``j <= least_fires[r, s]``;
    ``exact[r]`` is ``excess_chips(nodes()[r])``, ``(0, n_states)`` for None.
    Per site, a stable sort of its column and ``np.minimum.reduceat`` over
    each value's group give the least counts, and its chip counts, in
    int64, pick its states above threshold, grouped by the move next there.
    """
    w = len(space.sites)
    least = np.empty((int(space.totals.sum()), w), np.int16)
    exact = np.tile(np.array([0, space.n_states], np.int64), (len(least), 1))
    columns = np.ascontiguousarray(space.states.T)
    first = 0
    for i, site in enumerate(space.sites):
        chips = np.full(space.n_states, space.initial[i], np.int64)
        for j in range(max(i - 1, 0), min(i + 2, w)):
            chips += columns[j] * space.flow[j, i + 1]
        hot = np.flatnonzero(chips > space.variant.threshold(site))  # ascending rows
        rows = first + columns[i, hot].astype(np.intp)  # row of the move next there
        np.maximum.at(exact[:, 0], rows, chips[hot])
        np.minimum.at(exact[:, 1], rows, hot)
        order = np.argsort(columns[i], kind="stable")
        starts = np.cumsum(np.bincount(columns[i]))[:-1]  # where values 1..total start, sorted
        least[first:first + len(starts)] = np.minimum.reduceat(
            columns.take(order, axis=1), starts, axis=1).T
        first += int(space.totals[i])
    return least, exact
