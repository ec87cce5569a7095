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
