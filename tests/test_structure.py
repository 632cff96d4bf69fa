"""Source-structure guards.

Scalar and every sparse container sum their terms through
``ospq.scalars._accumulate``.  A hand-written copy of that loop is what the
kernel replaced, and its tell-tale line is the conditional
``cur + c if cur is not None else c``.

Span calls are exact over Q(p) unless made with ``symbolic=False``, which
compares at seeded integer values of p.  That is exact only for p-free
inputs, so it is kept to the three classical-limit checks, which are also
the only checks that read the seed.

Only ``rewrite.py`` knows the integer row layout of its echelons, so no
other module imports an underscore name from it.  Its one exact
linear-algebra kernel is the integer echelon at p = 1: spans and
``nullspace`` take graded inputs, so no polynomial ring in p (``_poly_*``,
``_ip_*``, ``_sym_*``) sits beside it.

Only ``supermatrix.py`` reads the 3x3 index grades: other modules ask for a
slot grade through ``entry_grade`` and build tensor legs with ``kron``, the
one place that applies their Koszul sign.

The torus grading is declared once, on the alphabets:
``supermatrix.layout_alphabet`` reads each alphabet of ``frt`` and ``borel``
off its 3x3 layout, a letter taking its slot grade and the weight w_i - w_j
of its position, and ``rewrite`` reads the weights from the alphabet of each
element, so none of its functions takes or solves for a grading.  The two
dual sides are one FRT construction: ``supermatrix.letter_matrix`` builds
both letter matrices and ``frt.exchange_residuals`` both residual sets, which
differ only in the layout and the order of the tensor legs.

Every element kind (``SuperPoly``, ``TensorElement``, ``BorelSeries``) is a
``freealg.Combination``, which owns the sum, difference, negation, scaling,
equality and ``*`` of all three; a kind writes only its key product, its
constructor and its operand check.  The exact Borel algebra has no element
class of its own: its elements are SuperPolys over ``borel.BOREL_ALPHABET``
and its tensors TensorElements, and its structure constants enter only
through ``borel.normal_form``.  ``TensorElement`` is the one graded tensor,
so its Koszul-sign product and leg maps are written once.  The Borel series
of one computation share one weight bound, so no operation cuts an operand
down to the bound of the other, and no tensor is truncated.

The per-layer timings of ``perfbench/run.py`` sum traced spans by qualified
name, so a renamed function would read as 0 s; every name it quotes still
resolves in ``ospq``.  ``perfbench/traced_child.py`` counts the calls of the
functions in its ``COUNTED`` and builds stages by calling ``frt`` and
``rewrite`` functions; each of those is a module-level function of its
module, or a traced run would fail.

The Hopf maps, letter substitutions and the Borel relation defects extend a
map on letters over words through ``freealg.extend``, so the Koszul sign of
an anti-homomorphism is written in ``freealg.py`` alone.  The Hopf axioms on
a generator are written once too, on ``freealg.HopfMaps``: its instances
``frt.hopf_maps()`` (generator images at p = 2) and ``borel.hopf_maps()``
(exact, at p = 1) supply images, a counit and a ``reduce``, so no other
module splices or contracts tensor legs.  Every ``frt`` check decides on the rules
at p = 2: only the export lifts them to Scalars.

A matrix product sums the products for each output entry into one dict, so
it makes no ``SuperPoly`` partial sums, and a scaled matrix keeps its zero
entries.  The classical r-matrix layer decides its Schouten brackets and
ad-invariance in g ox g ox g, so the r-matrix checks multiply no 27x27
matrix: only the braid identity lives at that size.

Matrix unknowns are solved one way: ``rewrite.affine_rows`` reads the
linear rows of an affine matrix identity off its values at 0 and at the unit
vectors, and ``rewrite.solve_affine`` takes its one solution.  The metric,
its inverse and the lowering generators go through it, and the antipode and
counit are read off the defining matrix, not typed in.

The coefficient ring is Q(sqrt2)[p]: a Scalar term's key is (p-degree, s),
and the classical r-matrix families keep their parameters outside it, as
exponent tuples beside p-free rational pieces.  Every ansatz series is a
binomial series (1 + cX)^a with closed-form coefficients, so neither a
Scalar nor a Borel series takes a square root or a series inverse.

A run compiles only the layers it uses: the package, its CLI and the Borel
side import none of ``rewrite``, ``frt``, ``classical`` and ``serialize``
at module level, except that ``checks`` binds the first three as modules
that execute on first use.
"""

import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import ospq
from ospq import borel, classical, freealg, frt, rewrite, scalars, supermatrix
from ospq.borel import BorelSeries
from ospq.checks import CHECKS, CheckConfig, run_checks
from ospq.cli import export_artifacts
from ospq.freealg import SuperPoly, TensorElement, extend
from ospq.scalars import Scalar, _accumulate, rat

LOOP_IDIOM = "if cur is not None else"


def test_sum_loop_lives_only_in_the_scalar_kernel():
    package = Path(ospq.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    copies = [f"{path.name}:{n}"
              for path in modules
              for n, line in enumerate(path.read_text().splitlines(), 1)
              if LOOP_IDIOM in line]
    assert len(copies) == 1, f"sum loop copied outside the kernel: {copies}"
    assert LOOP_IDIOM in inspect.getsource(_accumulate)


def test_only_classical_limit_checks_evaluate_p_or_read_the_seed():
    expected = {"check_rtt_classical_limit", "check_hopf_classical_limit",
                "check_borel_rll_classical"}
    checks = {fn.__name__: inspect.getsource(fn)
              for group in CHECKS.values() for _, fn in group}
    assert expected <= set(checks)
    assert {n for n, src in checks.items() if "config.seed" in src} == expected
    assert {n for n, src in checks.items() if "symbolic=False" in src} == expected
    package = Path(ospq.__file__).parent
    elsewhere = [path.name for path in package.glob("*.py")
                 if path.name != "checks.py" and "symbolic=False" in path.read_text()]
    assert not elsewhere


def test_no_module_imports_private_rewrite_helpers():
    package = Path(ospq.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom)
                    and node.module in ("rewrite", "ospq.rewrite")):
                private += [f"{path.name}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert not private, f"private rewrite helpers imported: {private}"


LAZY_LAYERS = {"rewrite", "frt", "classical", "serialize"}
EAGER_MODULES = ("__init__", "__main__", "cli", "checks", "borel", "scalars", "freealg",
                 "supermatrix")


def _module_level(tree):
    """The nodes that run when the module is imported: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _imported_layers(node):
    """The ``ospq`` modules an import statement, or a call naming one, loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        names = ([f"{base}.{alias.name}" for alias in node.names] if base in ("", "ospq")
                 else [base])
    elif isinstance(node, ast.Call):
        names = [arg.value for arg in node.args
                 if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
    else:
        return set()
    return {name.rsplit(".", 1)[-1] for name in names} & LAZY_LAYERS


def test_the_cli_and_the_borel_side_import_no_later_layer_at_module_level():
    package = Path(ospq.__file__).parent
    imports, lazy = [], []
    for stem in EAGER_MODULES:
        for node in _module_level(ast.parse((package / f"{stem}.py").read_text())):
            layers = _imported_layers(node)
            if (stem == "checks" and isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "_lazy"):
                lazy += layers
            elif layers:
                imports.append(f"{stem}.py:{node.lineno}: {sorted(layers)}")
    assert not imports, f"later layers imported at module level: {imports}"
    assert sorted(lazy) == ["classical", "frt", "rewrite"]


def test_rewrite_has_one_exact_kernel():
    polynomial = [name for name in vars(rewrite)
                  if name.startswith(("_poly_", "_ip_", "_sym_"))]
    assert not polynomial, f"polynomial rows in p beside the integer echelon: {polynomial}"
    assert not hasattr(rewrite, "_int_strip")
    assert hasattr(rewrite, "_int_insert")


GRADING_PARAMETERS = {"grading", "weight", "weights", "p_weight"}


def test_the_torus_grading_is_declared_once_on_the_alphabets():
    assert not hasattr(rewrite, "_p_grading")
    for fn in (rewrite.at_two, rewrite.lift, rewrite.orient, rewrite.interreduce,
               rewrite.RewriteSystem, freealg.HopfMaps):
        params = set(inspect.signature(fn).parameters)
        assert not params & GRADING_PARAMETERS, f"{fn.__name__} takes a grading"
    package = Path(ospq.__file__).parent
    declared, stored = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.keyword) and node.arg == "torus":
                # a table derived from the basis weights, not written out
                assert not isinstance(node.value, (ast.Dict, ast.DictComp)), path.name
                declared.append(path.name)
            if (isinstance(node, ast.Attribute) and node.attr == "torus"
                    and isinstance(node.ctx, ast.Store)):
                stored.append(path.name)
    assert declared == ["supermatrix.py"]
    assert stored == ["freealg.py"]


def test_one_frt_construction_serves_both_dual_sides(monkeypatch):
    assert not hasattr(supermatrix, "entry_weights")
    assert not hasattr(borel, "dual_generator_matrix")
    layout_alphabet = supermatrix.layout_alphabet
    for alphabet, built in (
            (frt.ALPHABET9, layout_alphabet(frt.T_ENTRIES)),
            (frt.ALPHABET, layout_alphabet(frt.T_ENTRIES, frt.ALPHABET.weights,
                                           drop=("ga", "e", "be"))),
            (borel.RLL_ALPHABET, layout_alphabet(borel.L_ENTRIES))):
        assert ((alphabet.letters, alphabet.grades, alphabet.weights, alphabet.torus)
                == (built.letters, built.grades, built.weights, built.torus))
    # no letter grade is typed in: borel's one alphabet literal is the
    # exact Borel algebra's, which has no layout
    assert "GradedAlphabet(" not in inspect.getsource(frt)
    assert inspect.getsource(borel).count("GradedAlphabet(") == 1
    calls = []
    exchange = frt.exchange_residuals

    def spy(alphabet, layout, dual=False):
        calls.append((alphabet, layout, dual))
        return exchange(alphabet, layout, dual)

    monkeypatch.setattr(frt, "exchange_residuals", spy)
    # both residual stages are cached: build them again under the spy
    for stage in (frt.rtt_residuals, borel.rll_residuals):
        stage.cache_clear()
    assert len(frt.rtt_residuals()) == len(borel.rll_residuals()) == 81
    assert calls == [(frt.ALPHABET9, frt.T_ENTRIES, False),
                     (borel.RLL_ALPHABET, borel.L_ENTRIES, True)]


def test_only_supermatrix_reads_the_index_grades():
    package = Path(ospq.__file__).parent
    readers = [path.name for path in sorted(package.glob("*.py"))
               if path.name != "supermatrix.py"
               and "INDEX_GRADE" in path.read_text()]
    assert not readers, f"index grades read outside supermatrix.py: {readers}"


SHARED_TENSOR_API = {"__mul__", "__add__", "__neg__", "__sub__", "scale", "__eq__",
                     "map_leg", "expand_leg", "apply_counit_leg"}


def test_borel_operands_share_one_weight_bound():
    assert not hasattr(borel.BorelSeries, "_bound_with")
    assert not hasattr(TensorElement, "_within")
    assert not hasattr(TensorElement, "weight_bound")


def test_tensor_types_inherit_one_product_and_leg_maps():
    # TensorElement is the one tensor: it writes the product and the leg maps
    # once and takes the linear structure from Combination
    body = ast.parse(textwrap.dedent(inspect.getsource(TensorElement))).body[0].body
    names = {node.name for node in body if isinstance(node, ast.FunctionDef)}
    assert names & SHARED_TENSOR_API == {"map_leg", "expand_leg", "apply_counit_leg"}
    assert {"_product"} <= names
    assert TensorElement.__bases__ == (freealg.Combination,)
    tensors = [cls.__name__ for module in (freealg, borel) for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and hasattr(cls, "expand_leg")]
    assert tensors == ["TensorElement"]


def test_the_exact_borel_algebra_has_no_element_class_of_its_own():
    assert not hasattr(freealg, "GradedTensor")
    for name in ("ExactBorel", "ExactBorelTensor", "_at_one_only"):
        assert not hasattr(borel, name), name
    assert set(inspect.signature(freealg.HopfMaps).parameters) == {
        "images", "evaluate", "grades", "counit", "reduce"}
    hopf = borel.hopf_maps()
    assert hopf.reduce is borel.normal_form and hopf.counit is borel.counit
    kinds = {type(f) for by_g in hopf.images.values() for f in by_g.values()}
    assert kinds == {SuperPoly, TensorElement}
    assert {f.alphabet for by_g in hopf.images.values()
            for f in by_g.values()} == {borel.BOREL_ALPHABET}


ELEMENT_KINDS = (SuperPoly, TensorElement, borel.BorelSeries)
SHARED_LINEAR_API = {"__add__", "__sub__", "__neg__", "scale", "__mul__", "__rmul__",
                     "__bool__", "is_zero", "__eq__"}


def test_every_element_kind_takes_its_arithmetic_from_combination():
    # each kind writes only its key product, constructor and operand check
    for kind in ELEMENT_KINDS:
        assert issubclass(kind, freealg.Combination), kind.__name__
        for cls in kind.__mro__[:kind.__mro__.index(freealg.Combination)]:
            body = ast.parse(textwrap.dedent(inspect.getsource(cls))).body[0].body
            names = {node.name for node in body if isinstance(node, ast.FunctionDef)}
            names |= {target.id for node in body if isinstance(node, ast.Assign)
                      for target in node.targets if isinstance(target, ast.Name)}
            own = sorted(names & SHARED_LINEAR_API)
            assert not own, f"{cls.__name__} defines its own {own}"
    assert not hasattr(freealg, "_coerce_scalar")


def _perfbench_span_names():
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "run.py").read_text())
    names = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "total"):
            names += [arg.value for arg in node.args if isinstance(arg, ast.Constant)]
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "reduce_names" for t in node.targets)):
            names += [elt.value for elt in node.value.elts]
    return [name for name in names if not name.startswith("stage.")]


def test_perfbench_span_names_resolve():
    names = _perfbench_span_names()
    assert {"classical.derive_lowering_matrices", "borel.coassociativity_defect",
            "rewrite.RewriteSystem.nf_word"} <= set(names)
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"ospq.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"perfbench times spans that no longer exist: {missing}"


def _traced_child_names():
    """(COUNTED names, frt.* and rewrite.* functions called or passed to a
    call) of ``perfbench/traced_child.py``."""
    path = Path(__file__).parents[1] / "perfbench" / "traced_child.py"
    counted, called = [], []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "COUNTED" for t in node.targets)):
            counted += [elt.value for elt in node.value.elts]
        if isinstance(node, ast.Call):
            called += [f"{expr.value.id}.{expr.attr}" for expr in (node.func, *node.args)
                       if isinstance(expr, ast.Attribute)
                       and isinstance(expr.value, ast.Name)
                       and expr.value.id in ("frt", "rewrite")]
    return counted, called


def test_traced_child_names_are_module_level_functions():
    counted, called = _traced_child_names()
    assert "borel.delta_monomial" in counted
    assert {"frt.quantum_r_matrix", "frt.metric_matrix", "frt.presentation",
            "frt.eliminated_residuals", "rewrite.span_contains"} <= set(called)
    wrong = []
    for name in counted + called:
        module, attr = name.split(".")
        obj = getattr(importlib.import_module(f"ospq.{module}"), attr, None)
        if not ((inspect.isfunction(obj) or hasattr(obj, "cache_info"))
                and obj.__module__ == f"ospq.{module}"):
            wrong.append(name)
    assert not wrong, f"traced_child.py names no module-level function: {wrong}"


# every map that ``extend`` returns runs this one code object
EXTENDED = extend(None, None).__code__


def _spied(ext, used):
    """The extension ``ext``, logging each element or word it maps."""
    def counted(element):
        used.append(element)
        return ext(element)

    def word(w):
        used.append(w)
        return ext.word(w)
    counted.word = word
    return counted


def _spy_extend(monkeypatch, *modules):
    """Make ``extend`` in each module log the uses of the maps it builds."""
    used = []
    for module in modules:
        monkeypatch.setattr(module, "extend", lambda *args: _spied(extend(*args), used))
    return used


def test_word_extensions_go_through_extend(monkeypatch):
    assert not hasattr(frt, "_coproduct_word_cached")
    assert not hasattr(borel, "_relation_defect")
    # one coproduct, one counit and one antipode, and the Hopf checks reach
    # each through the one instance of the shared checker
    for name in ("_coproducts", "_coproducts_at_two", "_counit_at_two", "_antipode_at_two",
                 "coproduct", "antipode", "_hopf_at_two"):
        assert not hasattr(frt, name), name
    assert not hasattr(borel, "_Generators")
    hopf = frt.hopf_maps()
    assert hopf.counit is frt.counit
    for name, run in (("delta", lambda: hopf.coassociativity_defect("a")),
                      ("counit", lambda: hopf.counit_defects("a")),
                      ("antipode", frt.s_squared_images)):
        assert getattr(hopf, name).__code__ is EXTENDED
        used = []
        monkeypatch.setattr(hopf, name, _spied(getattr(hopf, name), used))
        run()
        assert used, name
    used = _spy_extend(monkeypatch, freealg)
    SuperPoly.word(frt.ALPHABET, ("a", "b")).substitute_letters(
        {"a": SuperPoly.letter(frt.ALPHABET, "c")})
    assert len(used) == 1
    # the Borel Hopf maps are built by the shared checker in freealg
    used = _spy_extend(monkeypatch, freealg, borel)
    borel.hopf_maps.cache_clear()
    try:
        borel.delta_monomial((1, 1, -1))
        assert used == [("v", "h", "K^-1")]
        assert borel.verify_rll_solution(borel.particular_solution(8), 8)
        assert len(used) == 1 + len(borel.dual_relations())
        borel.hopf_maps().antipode_defects("h")
        assert len(used) > 1 + len(borel.dual_relations())
        # the relation defects extend Delta (at p = 1) and the series images
        # over each relation
        del used[:]
        for name in borel.BOREL_RELATIONS:
            borel.coproduct_relation_defect(name)
            borel.borel_relation_defect(name, 8)
            relation = borel.borel_relation(name)
            assert used[-2:] == [borel.at_one(relation)[1], relation]
        assert len(used) == 2 * len(borel.BOREL_RELATIONS)
    finally:
        borel.hopf_maps.cache_clear()


def test_hopf_axioms_are_written_once():
    # only the shared checker splices a coproduct into a leg or contracts one
    # with the counit: frt and borel supply images, a counit and a reduce
    package = Path(ospq.__file__).parent
    callers = sorted({path.name for path in package.glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and node.func.attr in ("expand_leg", "apply_counit_leg")})
    assert callers == ["freealg.py"]
    assert isinstance(frt.hopf_maps(), freealg.HopfMaps)
    assert isinstance(borel.hopf_maps(), freealg.HopfMaps)


def test_only_the_export_lifts_the_rules(monkeypatch, tmp_path):
    # every check decides on the rules at p = 2; the lifted Scalar rules are
    # built for the exported rule set alone.  A fresh Presentation over the
    # built rules has not lifted them yet.
    pres = frt.presentation()
    fresh = frt.Presentation(pres.at2, pres.relations, pres.derived)
    monkeypatch.setattr(frt, "presentation", lambda: fresh)
    lifts = []
    lifted = rewrite.RewriteSystem.lifted

    def spy(system):
        lifts.append(system)
        return lifted(system)

    monkeypatch.setattr(rewrite.RewriteSystem, "lifted", spy)
    reports = run_checks("all", CheckConfig())
    assert [r.status for r in reports] == ["pass"] * len(reports)
    assert lifts == []
    export_artifacts(tmp_path)
    assert lifts == [pres.at2]


def _pairwise_grade_loops(source):
    """Functions that read a grade and loop over a ``range`` or slice bounded
    by another loop's variable (``range(i + 1, len(w))``, ``w[:i]``): the
    shape of a sign (-1)^{sum_{i<j} |x_i||x_j|} over the letters of a word."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or "grade" not in ast.unparse(fn):
            continue
        loops = [n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))]
        bound = {n.id for loop in loops for n in ast.walk(loop.target)
                 if isinstance(n, ast.Name)}
        offsets = [part for loop in loops for part in ast.walk(loop.iter)
                   if isinstance(part, ast.Slice)
                   or (isinstance(part, ast.Call) and getattr(part.func, "id", "") == "range")]
        if any(isinstance(n, ast.Name) and n.id in bound
               for part in offsets for n in ast.walk(part)):
            found.append(fn.name)
    return found


def test_only_freealg_computes_a_sign_over_the_letters_of_a_word():
    package = Path(ospq.__file__).parent
    signs = {path.name: _pairwise_grade_loops(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "freealg.py"}
    assert not any(signs.values()), f"word signs outside freealg.py: {signs}"
    # the shape the check looks for: the antipode loop it replaced
    assert _pairwise_grade_loops(textwrap.dedent("""
        def antipode(w, grades):
            sign = 0
            for i in range(len(w)):
                for j in range(i + 1, len(w)):
                    sign += grades[w[i]] * grades[w[j]]
            return sign
    """)) == ["antipode"]


def test_matrix_products_make_no_partial_sums(monkeypatch):
    # the 27x27 operands R12 and R13 of the braid identity
    r12, r13, _ = supermatrix.leg_embeddings_27(frt.quantum_r_matrix())
    added = []
    add = SuperPoly.__add__

    def spy(a, b):
        added.append((a, b))
        return add(a, b)

    monkeypatch.setattr(SuperPoly, "__add__", spy)
    assert not (r12 @ r13).is_zero()
    assert added == []


def test_the_classical_layer_builds_no_27x27_matrix(monkeypatch):
    # Schouten brackets and ad-invariance are decided in g ox g ox g, and the
    # 27x27 route is gone
    for name in ("_legs", "_schouten_of_legs", "coproduct_embedding", "_ONE"):
        assert not hasattr(classical, name), name
    assert not hasattr(supermatrix, "graded_swap")
    sizes = []
    matmul = supermatrix.SuperMatrix.__matmul__

    def spy(a, b):
        sizes.append(a.n)
        return matmul(a, b)

    monkeypatch.setattr(supermatrix.SuperMatrix, "__matmul__", spy)
    reports = run_checks("r-matrix", CheckConfig())
    assert [r.status for r in reports] == ["pass"] * len(reports)
    assert sizes and 27 not in sizes


def test_scaled_matrices_keep_their_zero_entries(monkeypatch):
    m = classical.REP["Vp"]
    scaled = []
    scale = SuperPoly.scale

    def spy(poly, coeff):
        scaled.append(poly)
        return scale(poly, coeff)

    monkeypatch.setattr(SuperPoly, "scale", spy)
    out = m.scale(rat(3))
    assert len(scaled) == 2
    assert out.entries[0][0] is m.entries[0][0]


def test_the_coefficient_ring_is_q_sqrt2_p():
    assert not hasattr(scalars, "VARS")
    assert not hasattr(Scalar, "var")
    for value in (scalars.P, scalars.SQRT2, scalars.HALF):
        assert all(len(key) == 2 for key in value._terms)
    for family in (classical.family_one(), classical.family_two()):
        for _, piece in family:
            assert all(c.is_rational for c, _, _ in piece.terms)


def test_the_ansatz_series_are_binomial_series():
    for cls in (Scalar, BorelSeries):
        for name in ("sqrt", "inverse"):
            assert not hasattr(cls, name), (cls.__name__, name)
    for name in ("_q2_sqrt", "_fraction_sqrt"):
        assert not hasattr(scalars, name), name


def test_matrix_unknowns_are_solved_through_affine_rows():
    for name in ("metric_rows", "_scalar_entry", "COUNIT_VALUES"):
        assert not hasattr(frt, name), name
    assert not {"scale", "__add__"} & set(vars(classical.RMatrixExpr))
    for fn in (frt.metric_solutions, frt.metric_inverse, classical.lowering_equations):
        assert "affine_rows(" in inspect.getsource(fn), fn.__name__
