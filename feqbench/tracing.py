"""Outside-in layer trace for the feqlab benchmark.

Each layer's public functions are wrapped under the name their caller looks
them up by (``feqlab.cli.run_stability_battery`` is the battery as the CLI
sees it). A wrapper records a span ``[name, start, end, parent]`` and adds
counts read from the function's public return value. Spans stay in memory
and are written out when the run ends. The wrappers exist only inside
``Tracer.installed()``; untraced passes run the program as shipped.
"""

import functools
import importlib
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("groups", "morphisms", "families", "feq", "solver", "stability", "cli")

AUDITS = (("audit_centrality_bound", "centrality"),
          ("audit_mg_shift_bound", "companion_shift"),
          ("audit_parity_bound", "parity"),
          ("audit_sine_addition_bound", "section_sine"),
          ("audit_symmetrized_sine_addition_bound", "symmetrized_sine"))


def _max_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_ball(counts, ball):
    counts["groups.ball_build.table_entries"] += ball.n * ball.n


def _count_pairs(counts, report):
    counts["feq.residual.pairs"] += report.pairs


def _count_candidates(counts, found):
    counts["solver.candidate_gs.count"] += len(found)


def _count_newton(counts, res):
    counts["solver.newton.starts"] += res.n_starts
    counts["solver.newton.converged"] += res.n_converged
    counts["solver.newton.flagged_runs"] += int(res.flagged)
    counts["solver.newton.solutions"] += len(res.solutions)


def _count_windows(counts, report):
    for row in report.rows:
        counts["stability.audit.windows_evaluated"] += row.evaluated
        counts["stability.audit.windows_skipped"] += row.skipped


# (module, attribute, span name, counter, track peak RSS)
WRAPPED = [
    ("feqlab.cli", "main", "cli.main", None, False),
    ("feqlab.cli", "build_catalog_group", "groups.catalog_build", None, False),
    ("feqlab.cli", "BallDomain", "groups.ball_build", _count_ball, False),
    ("feqlab.stability", "BallDomain", "groups.ball_build", _count_ball, False),
    ("feqlab.cli", "enumerate_involutions", "morphisms.enumerate", None, False),
    ("feqlab.cli", "enumerate_characters", "morphisms.enumerate", None, False),
    ("feqlab.cli", "_compat_witness", "morphisms.enumerate", None, False),
    ("feqlab.solver", "enumerate_multiplicative", "morphisms.enumerate", None,
     False),
    ("feqlab.cli", "ball_involution", "morphisms.ball_maps", None, False),
    ("feqlab.cli", "ball_character", "morphisms.ball_maps", None, False),
    ("feqlab.stability", "ball_involution", "morphisms.ball_maps", None, False),
    ("feqlab.stability", "ball_character", "morphisms.ball_maps", None, False),
    ("feqlab.solver", "dalembert_family", "families.pair_build", None, False),
    ("feqlab.solver", "twisted_companion", "families.pair_build", None, False),
    ("feqlab.cli", "family_case_iv", "families.pair_build", None, False),
    ("feqlab.cli", "canned_half_trace", "families.pair_build", None, False),
    ("feqlab.cli", "residual_wilson", "feq.residual", _count_pairs, False),
    ("feqlab.solver", "residual_wilson", "feq.residual", _count_pairs, False),
    ("feqlab.stability", "residual_wilson", "feq.residual", _count_pairs, False),
    ("feqlab.stability", "residual_symmetrized_cauchy", "feq.residual",
     _count_pairs, False),
    ("feqlab.cli", "solve_f_given_g", "solver.nullspace", None, True),
    ("feqlab.solver", "solve_f_given_g", "solver.nullspace", None, True),
    ("feqlab.cli", "candidate_gs", "solver.candidate_gs", _count_candidates,
     False),
    ("feqlab.solver", "candidate_gs", "solver.candidate_gs", _count_candidates,
     False),
    ("feqlab.cli", "completeness_check", "solver.completeness", None, False),
    ("feqlab.cli", "theorem22_audit", "solver.property_audit", None, False),
    ("feqlab.solver", "brute_force_dalembert", "solver.newton", _count_newton,
     False),
    ("feqlab.cli", "perturb", "stability.perturb", None, False),
    ("feqlab.cli", "run_stability_battery", "stability.audit", _count_windows,
     True),
    *[("feqlab.stability", fn, f"stability.audit.{short}", None, False)
      for fn, short in AUDITS],
    ("feqlab.cli", "dichotomy_experiment", "stability.growth", None, False),
    ("feqlab.stability", "dichotomy_experiment", "stability.growth", None, False),
    ("feqlab.stability", "theorem37_case_scan", "stability.growth", None, False),
]

# metric -> (span name, "total" or "self"); "self" subtracts child spans
TIMES = {
    "groups.ball_build_s": ("groups.ball_build", "total"),
    "groups.catalog_build_s": ("groups.catalog_build", "total"),
    "morphisms.enumerate_s": ("morphisms.enumerate", "total"),
    "morphisms.ball_maps_s": ("morphisms.ball_maps", "total"),
    "feq.residual_s": ("feq.residual", "total"),
    "stability.growth_s": ("stability.growth", "self"),
    "solver.nullspace_s": ("solver.nullspace", "total"),
    "solver.candidate_gs_s": ("solver.candidate_gs", "total"),
    "solver.completeness_s": ("solver.completeness", "self"),
    "solver.property_audit_s": ("solver.property_audit", "total"),
    "families.pair_build_s": ("families.pair_build", "total"),
    "solver.newton_s": ("solver.newton", "total"),
    "stability.perturb_s": ("stability.perturb", "total"),
    "stability.audit_s": ("stability.audit", "total"),
    **{f"stability.audit.{short}_s": (f"stability.audit.{short}", "total")
       for _, short in AUDITS},
    "cli.self_s": ("cli.main", "self"),
}

CALLS = {"groups.ball_build.calls": "groups.ball_build",
         "solver.nullspace.calls": "solver.nullspace"}

COUNTS = ("groups.ball_build.table_entries", "feq.residual.pairs",
          "solver.nullspace.rss_rise_mb", "solver.candidate_gs.count",
          "solver.newton.starts", "solver.newton.converged",
          "solver.newton.flagged_runs", "solver.newton.solutions",
          "stability.audit.windows_evaluated",
          "stability.audit.windows_skipped", "stability.audit.rss_rise_mb")


class Tracer:
    """Spans and counts of traced passes, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = defaultdict(float)
        self.unwrapped = []      # WRAPPED entries the program no longer has
        self._stack = []

    @contextmanager
    def span(self, name, track_rss=False):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rss0 = _max_rss_mb() if track_rss else 0.0
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
        if track_rss:
            self.counts[f"{name}.rss_rise_mb"] += _max_rss_mb() - rss0

    def _wrap(self, fn, name, counter, track_rss):
        if isinstance(fn, type):
            # a subclass keeps isinstance checks and class attributes intact
            def __init__(obj, *args, **kwargs):
                with self.span(name, track_rss):
                    fn.__init__(obj, *args, **kwargs)
                if counter is not None:
                    counter(self.counts, obj)
            return type(fn.__name__, (fn,), {"__init__": __init__,
                                             "__module__": fn.__module__,
                                             "__qualname__": fn.__qualname__})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, track_rss):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, out)
            return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every WRAPPED entry the program has; restore on exit."""
        saved = []
        self.unwrapped = []
        try:
            for mod_name, attr, name, counter, track_rss in WRAPPED:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):
                    self.unwrapped.append(f"{mod_name}.{attr}")
                    continue
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(orig, name, counter, track_rss))
            yield
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def take_counts(self):
        counts, self.counts = dict(self.counts), defaultdict(float)
        return counts


def pass_metrics(spans, first, counts):
    """Per-layer metrics of one traced pass: spans[first:] and its counts."""
    own = spans[first:]
    totals = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(own, first):
        if parent is not None and parent >= first:
            child_time[parent] += end - start
    for i, (name, start, end, parent) in enumerate(own, first):
        calls[name] += 1
        selfs[name] += (end - start) - child_time[i]
        # time a layer re-entered from inside itself is counted once
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            totals[name] += end - start
    out = {}
    for metric, (name, mode) in TIMES.items():
        out[metric] = (totals if mode == "total" else selfs)[name]
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0.0)
    starts = out["solver.newton.starts"]
    out["solver.newton.converged_ratio"] = (
        out["solver.newton.converged"] / starts if starts else 0.0)
    windows = (out["stability.audit.windows_evaluated"]
               + out["stability.audit.windows_skipped"])
    out["stability.audit.evaluated_ratio"] = (
        out["stability.audit.windows_evaluated"] / windows if windows else 0.0)
    cases = sorted(end - start for name, start, end, _ in own
                   if name == "cli.main")
    out["cli.case_s.p50"] = statistics.median(cases) if cases else 0.0
    out["cli.case_s.max"] = cases[-1] if cases else 0.0
    return out
