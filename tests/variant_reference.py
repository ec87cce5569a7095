"""Reference for ``Variant.site_row``: the per-kind edge and loop formulas.

``left_mult``, ``loop_mult`` and ``right_mult`` are the multiplicities of
the edges from a site to its left neighbour, of its self-loops and of the
edges to its right neighbour, written kind by kind as the variants define
them.  ``site_row`` must give the same numbers.
"""


def bundle(variant, j: int) -> int:
    """Multiplicity of the edge bundle between sites ``j`` and ``j+1``."""
    if variant.kind in ("multi_edge", "loops_and_edges"):
        return variant.r
    if variant.kind == "exponential":
        if 0 <= j <= variant.t:
            return 2 ** (variant.t - j)
        if -variant.t - 1 <= j <= -1:
            return 2 ** (variant.t + j + 1)
        return 1
    return 1


def left_mult(variant, site: int) -> int:
    return bundle(variant, site - 1)


def right_mult(variant, site: int) -> int:
    return bundle(variant, site)


def loop_mult(variant, site: int) -> int:
    if variant.kind == "origin_loops":
        return variant.s if site == 0 else 0
    if variant.kind == "loops_everywhere":
        return 1
    if variant.kind == "loops_and_edges":
        return variant.r
    return 0
