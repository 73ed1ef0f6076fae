"""Per-layer tracing of endop from outside the library.

:meth:`Tracer.install` replaces public functions and methods of the
``endop`` modules with wrappers.  Each function is patched on its defining
module, on every ``endop`` module that imported it by name, and, for
methods, on the class.  Every wrapper counts calls and self time (its
duration minus that of the wrapped calls it made).  The coarse entry
points, the functions called a few times per job, also record one span per
call; the hot primitives (there are 3.8 M ``word_compose`` calls in one
``word-axioms`` pass) only update their counters.  Jobs record one span
each, and the spans of one pass share its pass id.

Everything stays in memory until :meth:`Tracer.write` at the end of a run.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

# module -> public functions, and Class.method names, that are wrapped
TARGETS = {
    "operad_core": ("check_operad_axioms", "perm_compose", "perm_act"),
    "word_operad": ("word_compose", "word_perm_act", "word_enumerate", "group_eval", "free_reduce"),
    "perms": ("all_perms", "compose_perms", "stretch_at", "embed_at", "invert_perm"),
    "qpoly_operad": (
        "qpoly_compose", "qpoly_perm_act", "characterize_multilinear",
        "multilinearity_check", "eval_poly",
    ),
    "naturality": (
        "central_module", "graded_central", "central_set_determined",
        "central_set_bruteforce", "monoid_reconstruction",
        "finite_group_natural_maps", "monoid_endomorphisms",
    ),
    "linalg": (
        "ExactMatrix.__mul__", "ExactMatrix.__init__", "kron_power",
        "intertwiner_basis", "equivariant_homs", "nullspace",
        "schur_weyl_dimension", "all_invertible_matrices",
    ),
    "scalars": tuple(
        f"{cls}.{op}"
        for cls in ("IntegersMod", "FiniteField", "RationalField")
        for op in ("add", "mul", "inv", "coerce")
    ),
}

# the coarse entry points: a span per call, and their reports are summed
SPANNED = {
    "operad_core.check_operad_axioms",
    "qpoly_operad.characterize_multilinear",
    "linalg.intertwiner_basis",
    "linalg.equivariant_homs",
    "linalg.nullspace",
    "linalg.schur_weyl_dimension",
    "linalg.all_invertible_matrices",
} | {f"naturality.{f}" for f in TARGETS["naturality"]} - {"naturality.monoid_endomorphisms"}

COMPOSE = "operad_core.compose"

# (name, unit, better) of every per-layer metric besides the function counters
EXTRA_METRICS = (
    (f"{COMPOSE}.calls", "count", "lower"),
    (f"{COMPOSE}.self_s", "s", "lower"),
    (f"{COMPOSE}.distinct_ratio", "ratio", "lower"),
    ("operad_core.instances", "count", "higher"),
    ("naturality.morphisms", "count", "higher"),
    ("naturality.survivors", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("failed_ratio", "ratio", "lower"),
)


def wrapped_names():
    return [f"{mod}.{name}" for mod, names in TARGETS.items() for name in names]


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in wrapped_names():
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    return out + list(EXTRA_METRICS)


class Tracer:
    """Counters, self times and spans of one traced run."""

    def __init__(self):
        self.clock = time.perf_counter
        # name -> [calls, self seconds]; reset in place between passes
        self.stats = {name: [0, 0.0] for name in wrapped_names() + [COMPOSE]}
        # child time of the wrapped call in progress; [0] collects top-level calls
        self.stack = [0.0]
        self.spans = []
        self.span_stack = []
        self.counts = {}
        self.seen = set()
        self.distinct = 0
        self.pass_id = None

    # -- counters ------------------------------------------------------------

    def reset(self, pass_id):
        """Start the counters of a new pass."""
        for stat in self.stats.values():
            stat[0], stat[1] = 0, 0.0
        self.stack[:] = [0.0]
        self.counts = {"operad_core.instances": 0, "naturality.morphisms": 0, "naturality.survivors": 0}
        self.seen.clear()
        self.distinct = 0
        self.pass_id = pass_id

    def attributed_s(self):
        """Wall time spent inside wrapped calls since the pass began."""
        return self.stack[0]

    def snapshot(self, pass_s):
        """Per-layer values of the pass that just ended."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        calls = self.stats[COMPOSE][0]
        out[f"{COMPOSE}.distinct_ratio"] = (self.distinct + len(self.seen)) / calls if calls else 0.0
        out.update(self.counts)
        out["trace.unattributed_s"] = pass_s - self.attributed_s()
        return out

    # -- spans ---------------------------------------------------------------

    def job(self, name):
        return _Span(self, "job", name)

    def begin_job(self):
        """Compose inputs are counted as distinct within one job, the scope
        an interning table inside one checker call would have."""
        self.distinct += len(self.seen)
        self.seen.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self.stack
        clock = self.clock

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child

        wrapper = timed
        if name in SPANNED:
            tracer = self

            def wrapper(*args, **kwargs):
                with _Span(tracer, "call", name):
                    result = timed(*args, **kwargs)
                tracer._observe(result)
                return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, result):
        if isinstance(result, self._axiom_report):
            self.counts["operad_core.instances"] += sum(c.instances for c in result.checks)
        elif isinstance(result, self._naturality_report):
            self.counts["naturality.morphisms"] += result.morphisms
            self.counts["naturality.survivors"] += result.count

    def install(self):
        """Patch every target; call before the jobs' operads are built."""
        import importlib
        import sys

        from endop.naturality import NaturalityReport
        from endop.operad_core import AxiomReport

        self._axiom_report, self._naturality_report = AxiomReport, NaturalityReport
        modules = [m for n, m in sorted(sys.modules.items()) if n == "endop" or n.startswith("endop.")]
        for mod_name, names in TARGETS.items():
            home = importlib.import_module(f"endop.{mod_name}")
            for name in names:
                full = f"{mod_name}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(full, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def wrap_operad(self, P):
        """The descriptor with a counted compose that also records whether
        its (w1, i, w2) input was seen before in the job.

        The inputs themselves are kept, because tuple hashes of small words
        collide too often to count by hash.  P must be built after
        :meth:`install`, so that the compose it holds is the wrapped one.
        """
        inner = P.compose
        stat = self.stats[COMPOSE]
        stack = self.stack
        clock = self.clock
        seen = self.seen

        def compose(w1, i, w2):
            stack.append(0.0)
            t0 = clock()
            try:
                seen.add((w1, i, w2))
                return inner(w1, i, w2)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child

        return replace(P, compose=compose)

    def write(self, path, meta, passes):
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "passes": passes, "spans": [
            {"kind": k, "name": n, "start": s, "end": e, "id": i, "parent": p, "pass": ps}
            for k, n, s, e, i, p, ps in self.spans
        ]}
        path.write_text(json.dumps(doc))


class _Span:
    """One span: (kind, name, start, end, id, parent id, pass id)."""

    __slots__ = ("tracer", "kind", "name", "start", "id")

    def __init__(self, tracer, kind, name):
        self.tracer, self.kind, self.name = tracer, kind, name

    def __enter__(self):
        t = self.tracer
        self.id = len(t.spans)
        t.spans.append(None)
        t.span_stack.append(self.id)
        if self.kind == "job":
            t.begin_job()
        self.start = t.clock()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = t.clock()
        t.span_stack.pop()
        parent = t.span_stack[-1] if t.span_stack else None
        t.spans[self.id] = (self.kind, self.name, self.start, end, self.id, parent, t.pass_id)
        return False
