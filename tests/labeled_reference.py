"""Per-state reference for the explorer's level-at-a-time expansion.

``successors`` is the explorer's former per-state successor routine, kept
here as the oracle for ``explorer._MoveTable.expand``; ``levels`` is the
former graded BFS over byte keys built on it.  ``successor_outcomes`` is
the other side of that comparison: one state's children as the explorer's
move table produces them, and ``search`` the levels ``explorer.explore``
reads from its one search.
"""

from itertools import combinations

from chipfire import explorer


def key(state) -> bytes:
    """Flat ``(site, value)`` sequence offset by 128, one byte each.

    Keys of equal length sort like the signed sequences they encode; a
    level's rows, as big-endian bytes, are these keys.
    """
    return bytes(x + 128 for site, values in state for v in values for x in (site, v))


def successor_outcomes(state, variant):
    """All one-move successors over every enabled site and distinct value choice.

    Distinct choices that split identically merge into one outcome.
    """
    explorer._check_key_limit(state)
    row = explorer._row(state)
    _, children, _, _ = explorer._MoveTable(variant, row.size).expand(row[None])
    return {explorer._state(child) for child in children}


def successors(state, variant):
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
        left, loop, right = variant.site_row(site)[:3]
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


def first_moves(state, variant):
    """``{child: (site, chosen)}`` for the first move reaching each child."""
    out = {}
    for site, chosen, child in successors(state, variant):
        out.setdefault(child, (site, chosen))
    return out


def levels(start, variant):
    """Sorted byte keys and first-occurrence parent indices of every level."""
    keys, parents = [[key(start)]], [[]]
    frontier = [start]
    while True:
        children = {}
        for r, state in enumerate(frontier):
            for _, _, child in successors(state, variant):
                children.setdefault(key(child), (r, child))
        if not children:
            return keys, parents
        level = sorted(children)
        keys.append(level)
        parents.append([children[k][0] for k in level])
        frontier = [children[k][1] for k in level]


def search(initial, variant):
    """``(report, levels, moves, mirrored)`` of one ``explorer.explore`` call:
    ``levels`` lists the ``(rows, visited)`` its ``_levels`` yielded,
    and ``moves`` and ``mirrored`` are what ``explore`` handed to it."""
    calls = []
    search_levels = explorer._levels

    def recorded(start, moves, mirrored, state_cap):
        calls.append((moves, mirrored, []))
        for level in search_levels(start, moves, mirrored, state_cap):
            calls[-1][2].append(level)
            yield level

    explorer._levels = recorded
    try:
        report = explorer.explore(initial, variant)
    finally:
        explorer._levels = search_levels
    (moves, mirrored, levels), = calls
    return report, levels, moves, mirrored
