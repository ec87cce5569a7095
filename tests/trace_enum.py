"""Exhaustive enumeration of complete labeled runs (tiny n only)."""

from itertools import combinations

from chipfire.engine import LabeledConfiguration, ScriptedValuesStrategy, run_to_completion


def all_complete_traces(initial: LabeledConfiguration, variant, limit: int = 100_000):
    """Yield one engine Trace per maximal firing sequence from ``initial``.

    Sequences are enumerated over chip-id subsets and scripted by their
    values, so chips of equal value at one site collapse to the lowest ids.
    """
    scripts = []

    def dfs(config, moves):
        enabled = config.enabled_sites(variant)
        if not enabled:
            scripts.append(list(moves))
            if len(scripts) > limit:
                raise RuntimeError("trace enumeration exploded")
            return
        for site in enabled:
            for chosen in combinations(config.chips_at(site), variant.threshold(site)):
                moves.append((site, tuple(c.value for c in chosen)))
                dfs(config.apply(variant, site, tuple(c.id for c in chosen)), moves)
                moves.pop()

    dfs(initial, [])
    for script in scripts:
        yield run_to_completion(initial, variant, ScriptedValuesStrategy(script))
