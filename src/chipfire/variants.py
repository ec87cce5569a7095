"""Graph variants of the chip-firing line.

A variant fixes, for every site of the integer line, the number of edges
to the left neighbor, the number of self-loops, and the number of edges
to the right neighbor.  A firing move at a site consumes
``left + loop + right`` chips: the smallest go one site left, the largest
one site right, and the middle ones stay put.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# the parameters each kind reads; the others must keep their defaults
PARAMETERS = {
    "base": (),
    "multi_edge": ("r",),
    "origin_loops": ("s",),
    "loops_everywhere": (),
    "loops_and_edges": ("r",),
    "exponential": ("t",),
}
DEFAULTS = {"r": 1, "s": 0, "t": 0}


@dataclass(frozen=True)
class Variant:
    """Edge-multiplicity profile of the line graph.

    ``r`` is the edge multiplicity (multi_edge, loops_and_edges), ``s`` the
    number of self-loops at the origin (origin_loops), and ``t`` the decay
    parameter of the exponential variant, where the bundle between sites
    ``k`` and ``k+1`` has multiplicity ``2**(t-k)`` for ``0 <= k <= t``
    (mirrored on the negative side) and 1 farther out.

    ``left_mult``, ``loop_mult`` and ``right_mult`` are the defining
    formulas; ``site_row`` caches their values per site, and ``threshold``
    and ``split`` read that cache.
    """

    kind: str = "base"
    r: int = 1
    s: int = 0
    t: int = 0
    _rows: dict[int, tuple[int, int, int, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PARAMETERS:
            raise ValueError(f"unknown variant kind {self.kind!r}")
        if self.r < 1:
            raise ValueError("edge multiplicity r must be >= 1")
        if self.s < 0:
            raise ValueError("origin loop count s must be >= 0")
        if self.t < 0:
            raise ValueError("exponential parameter t must be >= 0")
        for name, default in DEFAULTS.items():
            if getattr(self, name) != default and name not in PARAMETERS[self.kind]:
                raise ValueError(f"variant {self.kind} takes no parameter {name}")

    def bundle(self, j: int) -> int:
        """Multiplicity of the edge bundle between sites ``j`` and ``j+1``."""
        if self.kind in ("multi_edge", "loops_and_edges"):
            return self.r
        if self.kind == "exponential":
            if 0 <= j <= self.t:
                return 2 ** (self.t - j)
            if -self.t - 1 <= j <= -1:
                return 2 ** (self.t + j + 1)
            return 1
        return 1

    def left_mult(self, site: int) -> int:
        return self.bundle(site - 1)

    def right_mult(self, site: int) -> int:
        return self.bundle(site)

    def loop_mult(self, site: int) -> int:
        if self.kind == "origin_loops":
            return self.s if site == 0 else 0
        if self.kind == "loops_everywhere":
            return 1
        if self.kind == "loops_and_edges":
            return self.r
        return 0

    def site_row(self, site: int) -> tuple[int, int, int, int]:
        """(left, loop, right, threshold) at ``site``, computed once per site."""
        row = self._rows.get(site)
        if row is None:
            left, loop, right = self.left_mult(site), self.loop_mult(site), self.right_mult(site)
            row = self._rows[site] = (left, loop, right, left + loop + right)
        return row

    def threshold(self, site: int) -> int:
        """Number of chips a firing move at ``site`` chooses and redistributes."""
        return self.site_row(site)[3]

    def split(self, site: int) -> tuple[int, int, int]:
        """(left, loop, right) multiplicities at ``site``."""
        return self.site_row(site)[:3]

    def to_json(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in PARAMETERS[self.kind]}}

    @classmethod
    def from_json(cls, data: dict) -> "Variant":
        """Inverse of ``to_json``; the parameters must be JSON integers."""
        params = {name: data.get(name, default) for name, default in DEFAULTS.items()}
        for name, value in params.items():
            if type(value) is not int:
                raise ValueError(f"variant parameter {name} must be a JSON integer, got {value!r}")
        return cls(kind=data["kind"], **params)

    def __str__(self):
        return self.kind + "".join(f"({name}={getattr(self, name)})"
                                   for name in PARAMETERS[self.kind])


def base() -> Variant:
    return Variant("base")


def multi_edge(r: int) -> Variant:
    return Variant("multi_edge", r=r)


def origin_loops(s: int) -> Variant:
    return Variant("origin_loops", s=s)


def loops_everywhere() -> Variant:
    return Variant("loops_everywhere")


def loops_and_edges(r: int) -> Variant:
    return Variant("loops_and_edges", r=r)


def exponential(t: int) -> Variant:
    return Variant("exponential", t=t)
