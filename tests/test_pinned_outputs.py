"""Seeded CLI outputs and exhaustive-search outputs pinned byte for byte.

The random strategy draws from the run RNG in an order fixed by the
enabled-site list and the sorted chip ids at the firing site, so any change
to how the engine keeps those lists shows up here as a changed digest.  The
SHA-1 values of simulate and verify outputs were recorded before the engine
was made incremental, those of explore reports and witness traces
before the labeled search expanded whole levels in NumPy, those of DOT
files and grid reports before the poset relation was built as one matrix,
and those of CLI explore reports while the CLI still searched twice for a
witness; none may change.
"""

import hashlib
import io
import json

import pytest

from chipfire import cli
from chipfire.engine import standard_initial
from chipfire.explorer import explore, find_unsorted_terminal
from chipfire.poset import (build_poset, check_exponential_grid, check_grid_structure,
                            export_dot, reachable_states)
from chipfire.variants import (base, exponential, loops_and_edges, loops_everywhere, multi_edge,
                               origin_loops)

SIMULATE_CASES = {
    "base-60": ["--variant", "base", "--n", "60"],
    "loops-23": ["--variant", "loops", "--n", "23"],
    "exponential-t2": ["--variant", "exponential", "--t", "2"],
    "multi-edge-r2-12": ["--variant", "multi-edge", "--r", "2", "--n", "12"],
}

SIMULATE_SHA1 = {
    "base-60@0": "f36a0bb32c4b71a21463deb01eeaa568c8e1fa90",
    "base-60@1": "1c4a1596abb26696d48808d4c4d263dc294402f0",
    "base-60@2": "de532bec9f42ea1c2d1d3a6de8a015c334cff159",
    "exponential-t2@0": "f45b0b2ba1014d9b33675534ee7ec6f2afba78a0",
    "exponential-t2@1": "f21bd86e8b26599298fa6cfae8cf4279b51f9164",
    "exponential-t2@2": "14e98d2c62920265b742dea2a969fbec82bb86a7",
    "loops-23@0": "7c07d010964e1b720a723abfade94c0ee095b27d",
    "loops-23@1": "82e245a002b031fbdac35231a433c1f1dbd63466",
    "loops-23@2": "938872618780e66a421f4853a64bd7afaaca11fa",
    "multi-edge-r2-12@0": "eecb2327f7ab63f3f192df76cf6927b2cab443cc",
    "multi-edge-r2-12@1": "6283911ef60696be1e89ac8127b91cd942d6acaf",
    "multi-edge-r2-12@2": "64d03563ec0e7347d52855c0d1d154dc97996d1a",
}

VERIFY_CASES = {
    "base-20": ["--variant", "base", "--n", "20"],
    "base-21": ["--variant", "base", "--n", "21"],
    "loops-11": ["--variant", "loops", "--n", "11"],
}

VERIFY_SHA1 = {
    "base-20": "5fb2c87cf8e8ed8a09682ddbf1a4c7b7dff13957",
    "base-21": "f17716c163a586d5e466012d05d674b512f766b8",
    "loops-11": "68b48bde56d6e04b368fbc009dd0270d2f34d135",
}

EXPLORE_CASES = {
    "base-8": (base(), 8, "origin"),
    "base-9": (base(), 9, "origin"),
    "loops-11": (loops_everywhere(), 11, "origin"),
    "multi-edge-r2-8": (multi_edge(2), 8, "origin"),
    "origin-loops-s2-6": (origin_loops(2), 6, "origin"),
    "exponential-t1-8": (exponential(1), 8, "origin"),
    "loops-edges-r2-6": (loops_and_edges(2), 6, "origin"),
    "base-staircase-3": (base(), 3, "staircase"),
}

# SHA-1 of json.dumps(explore(...).to_json(), sort_keys=True)
EXPLORE_SHA1 = {
    "base-8": "c4cec2a2b8d0f562600255e19f4a122a7ffa3543",
    "base-9": "e119e67c8eb645f3eb0ba1ebc78dc7e7b006d859",
    "loops-11": "bf0e92c6a0ab1f8b2bb667651114508363781cc7",
    "multi-edge-r2-8": "517a4d604bb7173866b7d694ec2ed6676d2064e4",
    "origin-loops-s2-6": "8f1324016f4cf7bf2587dc211e4a74ae3c475d77",
    "exponential-t1-8": "b7b5829b4a762c10f7a64cb6de896a1e149476e7",
    "loops-edges-r2-6": "d22160c04f1a9245c002037fd8f772d3f7c1caa8",
    "base-staircase-3": "f9b83d03f92b53f65b90da8a8f31842cdf70e0ad",
}

# SHA-1 of the find_unsorted_terminal trace as JSON lines, base variant
WITNESS_SHA1 = {
    7: "b9209184f607261ac4ac71a981dbf80482df627d",
    9: "164ccb6500a019bd8060dd7ff14e3bfd297f90a0",
}

# SHA-1 of the CLI's `explore --variant base --n N --report` file, witness trace included
EXPLORE_CLI_SHA1 = {
    7: "878f263f6bf6c04d284e0b3d1ec607325139c5a5",
    9: "937055ed1e17c3672721f1f1a87b565cf651f57b",
}

# SHA-1 of export_dot(build_poset(reachable_states(variant, n)))
DOT_CASES = {
    "base-10": (base(), 10, "516e36dac0c7faf3e229ead898749e848014982a"),
    "base-14": (base(), 14, "e0ac0430e73bafede18ec9237b565274532b6c37"),
    "exponential-t1-8": (exponential(1), 8, "0c250e906d2f722c324c2c2b51f7ed9e7380ef5e"),
    "loops-11": (loops_everywhere(), 11, "153d212b9fe064b5ee629d6b328a188e865a7917"),
}

# SHA-1 of json.dumps(check(reachable_states(variant, n)).to_json(), sort_keys=True)
GRID_CASES = {
    "grid-base-11": (check_grid_structure, base(), 11, "b7900c0830a970216d981f798fd5a9ad76595bc7"),
    "grid-base-14": (check_grid_structure, base(), 14, "63c44cf8b3e850b4d32f133a3ed2dd29c80aac58"),
    # 66 violations, exact_chips witness states among them
    "grid-base-13": (check_grid_structure, base(), 13, "a9b71a0c0eabff88439fb4eb32fb191668d18d0c"),
    "expgrid-t0-4": (check_exponential_grid, exponential(0), 4,
                     "327be87fc6d65a9be41d807599bb5dc0b1943131"),
    "expgrid-t1-8": (check_exponential_grid, exponential(1), 8,
                     "36237fbe07d695e34f093ae128851d0a2ca5469a"),
    "expgrid-t2-16": (check_exponential_grid, exponential(2), 16,
                      "9f20f583364f9d60a0e6b9a549c78484c330ac46"),
}


def _sha1(path) -> str:
    return hashlib.sha1(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_trace_pinned(case, seed, tmp_path):
    path = tmp_path / "trace.jsonl"
    argv = ["simulate", *SIMULATE_CASES[case], "--strategy", "random",
            "--seed", str(seed), "--trace", str(path)]
    assert cli.main(argv) == cli.EXIT_PASS
    assert _sha1(path) == SIMULATE_SHA1[f"{case}@{seed}"]


@pytest.mark.parametrize("case", sorted(VERIFY_CASES))
def test_verify_report_pinned(case, tmp_path):
    path = tmp_path / "report.json"
    argv = ["verify", *VERIFY_CASES[case], "--runs", "15", "--seed", "0",
            "--report", str(path)]
    assert cli.main(argv) == cli.EXIT_PASS
    assert _sha1(path) == VERIFY_SHA1[case]


@pytest.mark.parametrize("case", sorted(EXPLORE_CASES))
def test_explore_report_pinned(case):
    variant, n, preset = EXPLORE_CASES[case]
    report = explore(standard_initial(variant, n, preset), variant)
    data = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha1(data).hexdigest() == EXPLORE_SHA1[case]


@pytest.mark.parametrize("n", sorted(WITNESS_SHA1))
def test_unsorted_witness_trace_pinned(n):
    initial = standard_initial(base(), n)
    trace = find_unsorted_terminal(initial, base(), explore(initial, base()))
    buf = io.StringIO()
    trace.write_jsonl(buf)
    assert hashlib.sha1(buf.getvalue().encode()).hexdigest() == WITNESS_SHA1[n]


@pytest.mark.parametrize("n", sorted(EXPLORE_CLI_SHA1))
def test_explore_cli_report_pinned(n, tmp_path):
    path = tmp_path / "report.json"
    assert cli.main(["explore", "--variant", "base", "--n", str(n),
                     "--report", str(path)]) == cli.EXIT_PASS
    assert _sha1(path) == EXPLORE_CLI_SHA1[n]


@pytest.mark.parametrize("case", sorted(DOT_CASES))
def test_poset_dot_pinned(case):
    variant, n, digest = DOT_CASES[case]
    dot = export_dot(build_poset(reachable_states(variant, n)))
    assert hashlib.sha1(dot.encode()).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_report_pinned(case):
    check, variant, n, digest = GRID_CASES[case]
    data = json.dumps(check(reachable_states(variant, n)).to_json(), sort_keys=True)
    assert hashlib.sha1(data.encode()).hexdigest() == digest
