"""Layer trace of ckn taken from outside the package.

`Tracer.installed()` wraps every public function of each ckn module and
rebinds the wrapper under every name a ckn module (or the package) looks
the original up by, so calls between modules pass through it.  Each call
records a span (name, start, end, parent); a few hooks read counters from
the public results (FixedPointResult, EigenResult, Branch.provenance) and
from the solve callable that SolverCache.preconditioner returns.  Leaving
the context restores every original binding, so untraced rounds run the
unmodified program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

LAYERS = ("cli", "continuation", "fixedpoint", "eigensolver", "symmetric",
          "gn", "analysis", "svg", "io", "model")


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent index, result-derived note]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = defaultdict(float)
        self._factor = None

    # -- recording -----------------------------------------------------

    def _wrap(self, qualname: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        hook = _HOOKS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([qualname, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(self, idx, args, kwargs, result)
            return result

        return traced

    def _wrap_preconditioner(self, original):
        counts = self.counts
        clock = time.perf_counter

        def preconditioner(cache, *args, **kwargs):
            t0 = clock()
            solve = original(cache, *args, **kwargs)
            factor = solve.__self__
            if factor is not self._factor:
                # a new SuperLU object is one factorization; nonzeros are
                # computed from its L and U factors
                self._factor = factor
                counts["eigensolver.lu_factorizations"] += 1
                counts["eigensolver.factor_s"] += clock() - t0
                counts["eigensolver.factor_nnz"] = max(
                    counts["eigensolver.factor_nnz"], factor.L.nnz + factor.U.nnz)
            return self._counted(solve)

        return preconditioner

    def _counted(self, solve):
        counts = self.counts

        def counted(rhs):
            counts["eigensolver.lu_solves"] += 1
            return solve(rhs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch ckn for the duration of the block and restore it afterwards."""
        package = importlib.import_module("ckn")
        modules = [package] + [importlib.import_module(f"ckn.{m}") for m in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ckn.{layer}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        undo = []
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)][1])
        cache_cls = importlib.import_module("ckn.eigensolver").SolverCache
        original = cache_cls.preconditioner
        cache_cls.preconditioner = self._wrap_preconditioner(original)
        try:
            yield self
        finally:
            cache_cls.preconditioner = original
            for mod, name, obj in undo:
                setattr(mod, name, obj)

    # -- reduction -----------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer inclusive and self time plus the counters."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        path = [frozenset()] * n
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("s", "self_s")}
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            above = path[parent] if parent >= 0 else frozenset()
            path[i] = above | {layer}
            if parent >= 0:
                child_time[parent] += dur
            if layer not in above:
                out[f"{layer}.s"] += dur
        self_time = [end - start - busy for (_, start, end, _, _), busy in zip(spans, child_time)]
        for (name, *_), own in zip(spans, self_time):
            out[f"{name.split('.', 1)[0]}.self_s"] += own

        def total(qualname):
            return sum(end - start for name, start, end, _, _ in spans if name == qualname)

        c = self.counts
        out.update({
            "cli.branch_s": total("cli.cmd_branch"),
            "cli.analyze_s": total("cli.cmd_analyze"),
            "continuation.initialize_s": total("continuation.initialize"),
            "continuation.descent_self_s": sum(
                own for (name, *_), own in zip(spans, self_time) if name == "continuation.initialize"),
            "continuation.symref_s": total("continuation.symmetric_discrete_branch"),
        })
        for direction in ("down", "up"):
            out[f"continuation.{direction}_s"] = sum(
                end - start for name, start, end, _, note in spans
                if name == "continuation.continue_branch" and note == direction)
        walk_solves = sum(1 for name, _, _, parent, _ in spans
                          if name == "fixedpoint.roothan_solve" and parent >= 0
                          and spans[parent][0] == "continuation.continue_branch")
        kept = c["continuation.points"]
        out["continuation.rejected_solves"] = walk_solves - kept
        out["continuation.useful_solve_ratio"] = kept / walk_solves if walk_solves else 1.0
        for key in ("continuation.points", "continuation.halvings", "continuation.symref_points",
                    "continuation.symref_fp_iterations", "fixedpoint.solves",
                    "fixedpoint.iterations", "fixedpoint.max_iterations", "eigensolver.calls",
                    "eigensolver.iterations", "eigensolver.lu_solves",
                    "eigensolver.lu_factorizations", "eigensolver.factor_s",
                    "eigensolver.factor_nnz", "io.checkpoints_written", "io.bytes_written"):
            out[key] = c[key]
        its = c["eigensolver.iterations"]
        out["eigensolver.lu_solves_per_iteration"] = c["eigensolver.lu_solves"] / its if its else 0.0
        out["trace.spans"] = float(n)
        span_cost, count_cost = recording_costs()
        out["trace.recording_s"] = n * span_cost + c["eigensolver.lu_solves"] * count_cost
        return out

    def consistency(self, metrics: dict) -> list[str]:
        """Disagreements between counters read from two different sources."""
        c = self.counts
        problems = []
        if c["fixedpoint.eigen_iterations"] != c["fixedpoint.eigen_iterations_seen"]:
            problems.append(
                f"FixedPointResult.eigen_iterations sum {c['fixedpoint.eigen_iterations']:.0f} "
                f"!= traced EigenResult.iterations {c['fixedpoint.eigen_iterations_seen']:.0f}")
        if c["continuation.halvings"] != metrics["continuation.rejected_solves"]:
            problems.append("Branch.provenance halvings disagree with rejected solves")
        return problems


def _noop(arg):
    return arg


def recording_costs(n: int = 20000) -> tuple[float, float]:
    """Seconds one span, and one counted LU solve, add to a call.

    Timed on a no-op function, best of three, so the figure does not
    depend on how busy the machine was during the traced round."""
    probe = Tracer()
    span, counted = probe._wrap("model.noop", _noop), probe._counted(_noop)

    def per_call(fn):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(None)
            best = min(best, (time.perf_counter() - t0) / n)
        return best

    base = per_call(_noop)
    return per_call(span) - base, per_call(counted) - base


# -- hooks: counters read from public results ----------------------------


def _under(tracer: Tracer, idx: int, qualname: str) -> bool:
    spans = tracer.spans
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == qualname:
            return True
        parent = spans[parent][3]
    return False


def _eigen(tracer, idx, args, kwargs, res):
    c = tracer.counts
    c["eigensolver.calls"] += 1
    c["eigensolver.iterations"] += res.iterations
    parent = tracer.spans[idx][3]
    if parent >= 0 and tracer.spans[parent][0] == "fixedpoint.roothan_solve":
        c["fixedpoint.eigen_iterations_seen"] += res.iterations


def _fixed_point(tracer, idx, args, kwargs, fp):
    c = tracer.counts
    c["fixedpoint.solves"] += 1
    c["fixedpoint.iterations"] += fp.iterations
    c["fixedpoint.eigen_iterations"] += fp.eigen_iterations
    c["fixedpoint.max_iterations"] = max(c["fixedpoint.max_iterations"], fp.iterations)
    if _under(tracer, idx, "continuation.symmetric_discrete_branch"):
        c["continuation.symref_fp_iterations"] += fp.iterations


def _walk(tracer, idx, args, kwargs, branch):
    prov = branch.provenance
    tracer.spans[idx][4] = prov["direction"]
    tracer.counts["continuation.points"] += prov["computed_points"] - 1
    tracer.counts["continuation.halvings"] += prov["halvings"]


def _symref(tracer, idx, args, kwargs, branch):
    tracer.counts["continuation.symref_points"] += len(branch.points)


def _written(tracer, idx, args, kwargs, result):
    tracer.counts["io.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])
    if tracer.spans[idx][0] == "io.save_field":
        tracer.counts["io.checkpoints_written"] += 1


_HOOKS = {
    "eigensolver.lowest_eigenpair": _eigen,
    "fixedpoint.roothan_solve": _fixed_point,
    "continuation.continue_branch": _walk,
    "continuation.symmetric_discrete_branch": _symref,
    "io.save_field": _written,
    "io.write_csv": _written,
    "io.write_manifest": _written,
}
