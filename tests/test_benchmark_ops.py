"""The benchmark's `mixed` workload at its tiny size, run in-process: every op
(the claims, the tree survey with its exhaustive and sampled hit counts, twin
detection and verification, pair/plus transforms and balance recovery) must
pass its own oracle from `perfbench/workloads.py`."""

import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_mixed_tiny_ops_pass_their_oracles(seed):
    failures = []
    for op in workloads.build("mixed", seed, size="tiny"):
        try:
            op.check(op.run())
        except Exception as exc:  # an op that raises fails, as in the benchmark
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    assert not failures
