"""Every registered check must pass; reports carry the stable shape."""

import json
import os
import subprocess
import sys
import textwrap

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


def _probe(script):
    """The JSON that ``script`` prints from a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(borel.__file__)))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    return json.loads(out)


def test_config_defaults_and_import_without_dataclasses():
    # the record types are plain classes, so importing the CLI does not pull
    # in ``dataclasses`` and with it ``inspect``
    assert CheckConfig().as_dict() == {"truncation": borel.DEFAULT_TRUNCATION, "seed": 0}
    assert CheckConfig(seed=5).as_dict() == {"truncation": borel.DEFAULT_TRUNCATION, "seed": 5}
    assert _probe("import json, sys; before = set(sys.modules); import ospq.cli; "
                  "print(json.dumps(sorted({'dataclasses', 'inspect'} "
                  "& (set(sys.modules) - before))))") == []


def test_each_subcommand_loads_only_the_layers_it_runs():
    # the Borel coproduct and ansatz groups run on scalars, freealg,
    # supermatrix and borel alone; ``checks`` binds the function-algebra
    # layers as modules that execute on first use, and ``all`` uses them all
    loaded = _probe("""
        import contextlib, io, json, sys, types
        def executed():
            return [m for m in ("ospq.rewrite", "ospq.frt", "ospq.classical")
                    if type(sys.modules.get(m)) is types.ModuleType]
        seen = {}
        import ospq.cli as cli
        seen["import"] = executed()
        for group in ("borel-coproduct", "borel-ansatz", "all"):
            with contextlib.redirect_stdout(io.StringIO()):
                seen[group] = (cli.main([group]), executed())
        print(json.dumps(seen))
    """)
    assert loaded == {"import": [],
                      "borel-coproduct": [0, []], "borel-ansatz": [0, []],
                      "all": [0, ["ospq.rewrite", "ospq.frt", "ospq.classical"]]}


PACKAGE_EXPORTS = {
    "scalars": ["Scalar", "rat", "P", "HALF", "SQRT2"],
    "freealg": ["GradedAlphabet", "SuperPoly", "TensorElement"],
    "rewrite": ["RewriteSystem", "complete", "orient", "span_equal", "span_contains"],
    "supermatrix": ["SuperMatrix", "kron", "exp_nilpotent", "invert_unipotent",
                    "partial_transpose_first", "supertranspose3", "desuperize",
                    "ybe_check"],
    "borel": ["BorelSeries", "ExactBorel", "ExactBorelTensor", "AnsatzFunctions",
              "DEFAULT_TRUNCATION"],
}


def test_package_names_resolve_from_their_modules_on_first_use():
    # importing the package loads no module; each re-export is its home
    # module's object, for attribute access and ``import *`` alike
    result = _probe(f"""
        import importlib, json, sys
        import ospq
        before = sorted(m for m in sys.modules if m.startswith("ospq."))
        star = {{}}
        exec("from ospq import *", star)
        wrong = [name for module, names in {PACKAGE_EXPORTS!r}.items() for name in names
                 if not (star[name] is getattr(ospq, name)
                         is getattr(importlib.import_module("ospq." + module), name))]
        try:
            ospq.no_such_name
            unknown = None
        except AttributeError as exc:
            unknown = str(exc)
        print(json.dumps({{"before": before, "all": ospq.__all__, "wrong": wrong,
                          "star": sorted(set(star) - {{"__builtins__"}}),
                          "listed": set(ospq.__all__) <= set(dir(ospq)),
                          "unknown": unknown}}))
    """)
    names = [name for names in PACKAGE_EXPORTS.values() for name in names]
    assert result == {"before": [], "all": names, "wrong": [], "star": sorted(names),
                      "listed": True,
                      "unknown": "module 'ospq' has no attribute 'no_such_name'"}


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
