"""One traced run of the ospq CLI, in a fresh process.

Usage::

    python perfbench/traced_child.py OUT_DIR STAGES -- CLI_ARGS...

STAGES is a comma-separated list of cached stages to build cold before the
CLI runs (or ``-``).  The stages are built in dependency order, so that no
build is charged to a later span.  Then ``ospq.cli.main(CLI_ARGS)`` runs with
its report written to ``OUT_DIR/report.json``.

Spans are recorded around every call that crosses into a layer (one module of
``ospq``) from outside it: a call from a layer into itself is not a boundary
and records nothing.  Spans stay in memory and are written at the end:

* ``OUT_DIR/spans.bin``: four arrays of equal length ``n``, in order: name id
  (int32), parent span id (int32, -1 at the root), start and end
  (float64 seconds, ``time.perf_counter``);
* ``OUT_DIR/trace.json``: ``{"n", "names", "layers", "counters"}``, where
  ``layers[i]`` is the layer of name id ``i``.

The exit status is the CLI's.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Layers that get spans.  ``checks`` and ``cli`` cost < 0.1 % of a run and
# are left out, except ``cli.export_artifacts``, which is the export step.
LAYERS = ("scalars", "freealg", "rewrite", "supermatrix", "classical", "frt",
          "borel", "serialize")
# Dunder methods that are the arithmetic API of the value types; other
# dunders (hash, bool, repr, len) are too cheap to be worth a span.
DUNDERS = {"__init__", "__add__", "__radd__", "__sub__", "__rsub__",
           "__mul__", "__rmul__", "__neg__", "__truediv__", "__pow__",
           "__matmul__", "__eq__"}
# Counted on every call, from inside their own layer too.
COUNTED = ("borel.delta_monomial",)

STAGE_ORDER = ("r_matrix", "metric", "presentation", "eliminated_residuals",
               "echelon_int", "echelon_sym")


class Tracer:
    """Span recorder.  ``wrap`` returns a replacement for a layer function."""

    def __init__(self):
        self.names = []
        self.layers = []
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open_layer = ["run"]
        self.open_id = [-1]
        self.counters = {}

    def name_id(self, name, layer):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return nid

    def wrap(self, fn, name, layer):
        nid = self.name_id(name, layer)
        open_layer, open_id = self.open_layer, self.open_id
        push_name, push_parent = self.span_name.append, self.span_parent.append
        push_start, push_end, ends = self.start.append, self.end.append, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_layer[-1] is layer:
                return fn(*args, **kwargs)
            sid = len(ends)
            push_name(nid)
            push_parent(open_id[-1])
            push_end(0.0)
            open_layer.append(layer)
            open_id.append(sid)
            push_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                open_layer.pop()
                open_id.pop()
        return traced

    def count(self, fn, name):
        self.counters[name] = 0
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the pseudo-layer ``stage``."""
        return self.wrap(fn, name, "stage")(*args, **kwargs)

    def write(self, out_dir):
        with open(os.path.join(out_dir, "spans.bin"), "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.start, self.end):
                arr.tofile(fh)
        with open(os.path.join(out_dir, "trace.json"), "w") as fh:
            json.dump({"n": len(self.end), "names": self.names,
                       "layers": self.layers, "counters": self.counters}, fh)


def _is_layer_function(obj, module_name):
    return ((inspect.isfunction(obj) or hasattr(obj, "cache_info"))
            and getattr(obj, "__module__", None) == module_name)


def install(tracer, modules):
    """Wrap every public function and method of each layer module, and rebind
    each wrapped module-level function at every name it is bound to in any
    ``ospq`` module (``from x import f`` makes a second binding).

    Returns the list of ``(owner, attribute, original)`` to restore."""
    patched = []
    replaced = {}
    for layer, mod in modules.items():
        if layer not in LAYERS and layer != "cli":
            continue
        for attr, obj in list(vars(mod).items()):
            if layer == "cli":
                if attr != "export_artifacts":
                    continue
            elif attr.startswith("_"):
                continue
            if _is_layer_function(obj, mod.__name__):
                wrapped = tracer.wrap(obj, f"{layer}.{attr}", layer)
                if f"{layer}.{attr}" in COUNTED:
                    wrapped = tracer.count(wrapped, f"{layer}.{attr}")
                replaced[id(obj)] = wrapped
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for member, raw in list(vars(obj).items()):
                    if member.startswith("_") and member not in DUNDERS:
                        continue
                    name = f"{layer}.{obj.__name__}.{member}"
                    if inspect.isfunction(raw):
                        new = tracer.wrap(raw, name, layer)
                    elif isinstance(raw, (staticmethod, classmethod)):
                        new = type(raw)(tracer.wrap(raw.__func__, name, layer))
                    else:
                        continue
                    patched.append((obj, member, raw))
                    setattr(obj, member, new)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            wrapped = replaced.get(id(obj))
            if wrapped is not None:
                patched.append((mod, attr, obj))
                setattr(mod, attr, wrapped)
    return patched


def uninstall(patched):
    for owner, attr, original in reversed(patched):
        setattr(owner, attr, original)


def build_stages(tracer, stages, seed):
    """Build the requested cached stages cold, in dependency order."""
    from ospq import frt, rewrite
    sizes = {}
    residuals = None
    for stage in STAGE_ORDER:
        if stage not in stages:
            continue
        if stage == "r_matrix":
            tracer.span("stage.r_matrix", frt.quantum_r_matrix)
        elif stage == "metric":
            tracer.span("stage.metric", frt.metric_matrix)
        elif stage == "presentation":
            tracer.span("stage.presentation", frt.presentation)
        elif stage == "eliminated_residuals":
            rtt, orth = tracer.span("stage.eliminated_residuals",
                                    frt.eliminated_residuals)
            residuals = rtt + orth
        else:
            # the same echelon key that rtt.relation-membership builds: the
            # residual shifts to degree 4 at this seed's evaluation points
            symbolic = stage == "echelon_sym"
            ok, detail = tracer.span(f"stage.{stage}", rewrite.span_contains,
                                     residuals, residuals[:1], 4, seed=seed,
                                     symbolic=symbolic)
            if not ok:
                raise RuntimeError(f"{stage}: a residual escapes its own span: "
                                   f"{detail}")
            sizes["echelon_cols"] = len(frt.ALPHABET.words_up_to(4))
    return residuals, sizes


def main(argv):
    out_dir, stage_arg, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_child.py OUT_DIR STAGES -- CLI_ARGS...")
    stages = set() if stage_arg == "-" else set(stage_arg.split(","))
    unknown = stages - set(STAGE_ORDER)
    if unknown:
        raise SystemExit(f"unknown stages: {sorted(unknown)}")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import ospq
    from ospq import (borel, checks, classical, cli, freealg, frt, rewrite,
                      scalars, serialize, supermatrix)
    modules = {"ospq": ospq, "scalars": scalars, "freealg": freealg,
               "rewrite": rewrite, "supermatrix": supermatrix,
               "classical": classical, "frt": frt, "borel": borel,
               "serialize": serialize, "checks": checks, "cli": cli}
    seed = int(cli_args[cli_args.index("--seed") + 1])

    tracer = Tracer()
    patched = install(tracer, modules)
    residuals, sizes = build_stages(tracer, stages, seed)
    with open(os.path.join(out_dir, "report.json"), "w") as report:
        saved, sys.stdout = sys.stdout, report
        try:
            status = tracer.span("stage.cli", cli.main, cli_args)
        finally:
            sys.stdout = saved
    uninstall(patched)

    # size counters, computed untraced after the run
    if "presentation" in stages:
        sizes["presentation_rules"] = len(frt.presentation().system)
    if residuals is not None:
        sizes["residuals"] = len(residuals)
    if "echelon_int" in stages or "echelon_sym" in stages:
        sizes["echelon_rows"] = len(rewrite.shift_family(residuals, 4))
    tracer.counters.update(sizes)
    tracer.write(out_dir)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
