"""Every registered check must pass; reports carry the stable shape."""

import os
import subprocess
import sys

import pytest

from ospq import borel, frt
from ospq.checks import (CHECKS, CheckConfig, _graded_commutators, check_overlap_negative,
                         run_checks)
from ospq.freealg import SuperPoly
from ospq.scalars import rat


@pytest.mark.parametrize("group", sorted(CHECKS))
def test_group_passes(group):
    reports = run_checks(group, CheckConfig())
    failing = [(r.name, r.details) for r in reports if r.status != "pass"]
    assert not failing, failing


def test_reports_have_the_contractual_shape():
    reports = run_checks("classical", CheckConfig(truncation=8, seed=3))
    for r in reports:
        d = r.as_dict()
        assert set(d) == {"name", "status", "details", "elapsed_ms", "config"}
        assert d["config"] == {"truncation": 8, "seed": 3}
        assert isinstance(d["elapsed_ms"], int)


def test_config_defaults_and_import_without_dataclasses():
    # the record types are plain classes, so importing the CLI does not pull
    # in ``dataclasses`` and with it ``inspect``
    assert CheckConfig().as_dict() == {"truncation": borel.DEFAULT_TRUNCATION, "seed": 0}
    assert CheckConfig(seed=5).as_dict() == {"truncation": borel.DEFAULT_TRUNCATION, "seed": 5}
    src = os.path.dirname(os.path.dirname(os.path.abspath(borel.__file__)))
    probe = ("import sys; before = set(sys.modules); import ospq.cli; "
             "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("alphabet", [frt.ALPHABET9, frt.ALPHABET, borel.RLL_ALPHABET],
                         ids=["frt9", "frt6", "rll"])
def test_graded_commutators_hold_the_odd_squares(alphabet):
    # x x - (-1) x x = 2 x x for an odd letter x, so the classical-limit
    # spans need no separate odd squares
    comms = _graded_commutators(alphabet)
    odd = [x for x in alphabet.letters if alphabet.grades[x]]
    assert odd
    for x in odd:
        assert SuperPoly.word(alphabet, (x, x), rat(2)) in comms


def test_overlap_negative_control_reports_35_unresolved_overlaps():
    # the one detail computed on a system that is not confluent, where the
    # reduction strategy could show: a reduct of each side is a valid
    # ambiguity difference, and the count is pinned
    assert check_overlap_negative(CheckConfig()) == (
        True, "dropping one rule leaves 35 unresolved overlaps")
