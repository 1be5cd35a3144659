"""The benchmark's workloads run in-process: every op must pass its own oracle
from `perfbench/workloads.py`.  `mixed` runs at its tiny size (the claims, the
tree survey with its exhaustive and sampled hit counts, twin detection and
verification, pair/plus transforms and balance recovery), and its
`claims`, `tree_survey` and `structure` sections also at full size;
`tailed_horizon` (PST search, sedentary estimate, check_pst and evolve on
infinite-tail gadgets) runs at both sizes.  The benchmark's tracer must find
every name it wraps."""

import importlib
import os
import sys

import pytest

sys.path.append(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench"))

import tracer  # noqa: E402
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


@pytest.mark.parametrize("size", ["tiny", "full"])
def test_tailed_horizon_ops_pass_their_oracles(size):
    # the full size checks every odd-multiple PST time up to t = 50 and 30,
    # the seed commit's sedentary minimum and the check_pst/evolve fidelity
    failures = []
    for op in workloads.build("tailed_horizon", 1, size=size):
        try:
            op.check(op.run())
        except Exception as exc:
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    assert not failures


def test_claims_full_ops_pass_their_oracles():
    # all 25 claims of `qwalk reproduce --set all`, read from CLAIM_SETS as the
    # benchmark reads it; the tiny size runs only one claim per set
    failures = []
    for op in workloads.section_ops("claims", 1, "full"):
        try:
            op.check(op.run())
        except Exception as exc:
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    assert not failures


def test_structure_full_ops_pass_their_oracles():
    # the full section adds the 256-result blowup_c8 count, every tailed
    # gadget's detect and verify ops, all pair/plus gadgets and balance graphs
    failures = []
    for op in workloads.section_ops("structure", 1, "full"):
        try:
            op.check(op.run())
        except Exception as exc:
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    assert not failures


def test_tree_survey_full_ops_pass_their_oracles():
    # the full section: the n=7 census and 40 sampled surveys of 100 trees at
    # n = 8, 12, 16 and 24, every hit verified
    failures = []
    for op in workloads.section_ops("tree_survey", 1, "full"):
        try:
            op.check(op.run())
        except Exception as exc:
            failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    assert not failures


def test_tracer_targets_exist():
    # a missing target would only surface as a crash of the traced run
    for module, name, _, _ in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), name)), name
    for module, cls, method, _, _ in tracer.METHODS:
        assert method in vars(getattr(importlib.import_module(module), cls)), method
