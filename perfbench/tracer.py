"""Span tracer installed from outside the program.

Wraps public functions of the ``trialopt`` modules at every import site
(every module attribute that refers to the original function object is
replaced), records one span per call in memory and turns the spans into
per-layer metrics. Nothing under ``src/`` is edited: the wrappers are
installed for one traced pass and removed again afterwards.

A span is ``[name, tag, start, end, parent, count]``: ``tag`` labels the
call (a design family, or ``kind.mode`` for Monte Carlo calls), ``parent``
is the index of the enclosing span or ``None`` and ``count`` carries one
number the call produced (replicates simulated, a level-cache miss, the
grid size an optimizer call scans).

Worker processes forked by a ``--jobs`` pool inherit the wrappers. A
worker appends each finished top-level span tree to a file under
``worker_dir`` so that the parent can merge worker-side spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from collections import defaultdict

FAMILIES = ("classical", "stratified", "enrichment")
MODES = ("fixed", "binomial")
ESTIMANDS = {"mc_expected_utility": "utility",
             "mc_rejection_probs": "rejection",
             "mc_fwer": "fwer"}

# (module, function) pairs wrapped in a traced pass. A function missing
# from the program (renamed or removed by a later change) is skipped and
# its metrics read 0.
TARGETS = (
    ("trialopt.numerics", "integrate_multi"),
    ("trialopt.numerics", "bivariate_upper_orthant"),
    ("trialopt.numerics", "find_root"),
    ("trialopt.testing", "alpha_F_given_alpha_S"),
    ("trialopt.utility", "eu_classical"),
    ("trialopt.utility", "eu_stratified"),
    ("trialopt.utility", "eu_enrichment"),
    ("trialopt.utility", "prior_averaged"),
    ("trialopt.optimizer", "optimize_family"),
    ("trialopt.optimizer", "select_design"),
    ("trialopt.optimizer", "sweep_prevalence"),
    ("trialopt.optimizer", "sweep_contour"),
    ("trialopt.mc_oracle", "mc_expected_utility"),
    ("trialopt.mc_oracle", "mc_rejection_probs"),
    ("trialopt.mc_oracle", "mc_fwer"),
    ("trialopt.cli", "main"),
)

# The layer a wrapped function belongs to: its module.
LAYER_OF = {fn: module.rsplit(".", 1)[-1] for module, fn in TARGETS}

# Per-layer metric names and units, in report order.
PER_LAYER = {
    "numerics.quad_calls": "count", "numerics.quad_s": "s",
    "numerics.orthant_calls": "count", "numerics.orthant_s": "s",
    "numerics.root_calls": "count", "numerics.root_s": "s",
    "testing.level_calls": "count", "testing.level_misses": "count",
    "testing.level_hit_ratio": "ratio", "testing.level_self_s": "s",
    **{f"utility.evals.{f}": "count" for f in FAMILIES},
    **{f"utility.eval_s.{f}": "s" for f in FAMILIES},
    "utility.stratified_self_s": "s", "utility.prior_averaged_calls": "count",
    "utility.atoms_per_call": "ratio",
    **{f"optimizer.family_s.{f}": "s" for f in FAMILIES},
    **{f"optimizer.evals.{f}": "count" for f in FAMILIES},
    **{f"optimizer.refine_evals.{f}": "count" for f in FAMILIES},
    "optimizer.pool_busy_ratio": "ratio", "optimizer.optimum_musd": "MUSD",
    **{f"mc_oracle.reps_per_s.{f}.{m}": "1/s" for f in FAMILIES for m in MODES},
    **{f"mc_oracle.estimate_s.{e}": "s" for e in ESTIMANDS.values()},
    "cli.import_s": "s", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _tag_and_count(name, args, kwargs, result):
    """Label of one call and the number it carries, from its arguments."""
    if name == "optimize_family":
        family, scenario = args[0], args[1]
        config = args[2] if len(args) > 2 else kwargs.get("grid_config")
        return family, _grid_size(family, scenario, config)
    if name in ESTIMANDS:
        design = args[0]
        config = args[-1] if len(args) >= 4 else kwargs["config"]
        if isinstance(result, dict):
            reps = sum(est.replicates for est in result.values())
        else:
            reps = result.replicates
        return f"{design.kind}.{config.strata_mode}", reps
    return None, 0


def _grid_size(family, scenario, config):
    """Points stage 1 of the optimizer scans, from public GridConfig fields."""
    if config is None:
        import trialopt
        config = trialopt.GridConfig()
    ns = 1 + sum(1 for n in config.n_grid if n > scenario.n_min)
    return ns * config.alpha_points if family == "stratified" else ns


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, worker_dir=None):
        self.spans = []
        self.stack = []
        self.pid = self._owner_pid = os.getpid()
        self.worker_dir = worker_dir
        self._patched = []      # (module, attr, original)

    # -- recording ------------------------------------------------------
    def _enter(self, name):
        if os.getpid() != self.pid:     # first call in a forked worker
            self.pid = os.getpid()
            self.spans = []
            self.stack = []
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append([name, None, time.perf_counter(), None, parent, 0])
        self.stack.append(index)
        return index

    def _exit(self, index, tag, count):
        span = self.spans[index]
        span[3] = time.perf_counter()
        span[1] = tag
        span[5] = count
        self.stack.pop()
        if not self.stack and self.worker_dir is not None and self.pid != self._owner_pid:
            self._flush_worker()

    def _flush_worker(self):
        path = os.path.join(self.worker_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps(self.spans))
            fh.write("\n")
        self.spans = []

    def _wrap(self, name, fn):
        tracer = self
        level = name == "alpha_F_given_alpha_S"
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._enter(name)
            before = info().misses if level and info else 0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(index, None, 0)
                raise
            if level:
                count = (info().misses - before) if info else 1
                tracer._exit(index, None, count)
            else:
                tag, count = _tag_and_count(name, args, kwargs, result)
                tracer._exit(index, tag, count)
            return result

        if info is not None:    # keep the lru_cache controls reachable
            wrapper.cache_info = info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- patching -------------------------------------------------------
    def install(self):
        """Replace every reference to each target inside trialopt modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "trialopt" or key.startswith("trialopt."))]
        for module_name, attr in TARGETS:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home else None
            if original is None:
                continue
            wrapper = self._wrap(attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    # -- output ---------------------------------------------------------
    def worker_spans(self):
        """Span trees flushed by forked workers, one list per tree."""
        trees = []
        if self.worker_dir is None or not os.path.isdir(self.worker_dir):
            return trees
        for entry in sorted(os.listdir(self.worker_dir)):
            with open(os.path.join(self.worker_dir, entry)) as fh:
                trees.extend(json.loads(line) for line in fh if line.strip())
        return trees

    def write(self, path, extra=None):
        """Write the parent's spans and the merged worker trees as gzip JSON."""
        doc = {"fields": ["name", "tag", "start", "end", "parent", "count"],
               "spans": self.spans, "worker_trees": self.worker_spans()}
        if extra:
            doc.update(extra)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _self_times(spans):
    """Self time per span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, tag, start, end, parent, count in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[3] - s[2]) - c for s, c in zip(spans, child)]


def layer_metrics(spans, worker_trees=(), jobs=1):
    """Per-layer metrics from one traced pass (parent spans plus workers)."""
    rows = []   # (name, tag, duration, self, count, parent name, parent tag)
    for tree in [spans, *worker_trees]:
        for span, self_s in zip(tree, _self_times(tree)):
            name, tag, start, end, parent, count = span
            up = tree[parent] if parent is not None else (None, None)
            rows.append((name, tag, end - start, self_s, count, up[0], up[1]))

    calls = defaultdict(int)
    total = defaultdict(float)
    self_t = defaultdict(float)
    counts = defaultdict(float)
    for name, tag, dur, self_s, count, _, _ in rows:
        for key in (name, (name, tag)):
            calls[key] += 1
            total[key] += dur
            self_t[key] += self_s
            counts[key] += count

    m = {
        "numerics.quad_calls": calls["integrate_multi"],
        "numerics.quad_s": self_t["integrate_multi"],
        "numerics.orthant_calls": calls["bivariate_upper_orthant"],
        "numerics.orthant_s": self_t["bivariate_upper_orthant"],
        "numerics.root_calls": calls["find_root"],
        "numerics.root_s": self_t["find_root"],
        "testing.level_calls": calls["alpha_F_given_alpha_S"],
        "testing.level_misses": int(counts["alpha_F_given_alpha_S"]),
        "testing.level_hit_ratio": _ratio(
            calls["alpha_F_given_alpha_S"] - counts["alpha_F_given_alpha_S"],
            calls["alpha_F_given_alpha_S"]),
        "testing.level_self_s": self_t["alpha_F_given_alpha_S"],
        "utility.stratified_self_s": self_t["eu_stratified"],
        "utility.prior_averaged_calls": calls["prior_averaged"],
        "utility.atoms_per_call": _ratio(
            sum(1 for r in rows if r[0].startswith("eu_") and r[5] == "prior_averaged"),
            calls["prior_averaged"]),
    }
    for f in FAMILIES:
        m[f"utility.evals.{f}"] = calls[f"eu_{f}"]
        m[f"utility.eval_s.{f}"] = total[f"eu_{f}"]
        key = ("optimize_family", f)
        evals = sum(1 for r in rows
                    if r[0] == "prior_averaged" and r[5:] == ("optimize_family", f))
        m[f"optimizer.family_s.{f}"] = total[key]
        m[f"optimizer.evals.{f}"] = _ratio(evals, calls[key])
        m[f"optimizer.refine_evals.{f}"] = _ratio(evals - counts[key], calls[key])
    cell_s = sum(s[3] - s[2] for tree in worker_trees for s in tree if s[4] is None)
    pool_s = total["sweep_prevalence"] + total["sweep_contour"]
    m["optimizer.pool_busy_ratio"] = _ratio(cell_s, jobs * pool_s)
    for f in FAMILIES:
        for mode in MODES:
            tag = f"{f}.{mode}"
            reps = sum(counts[(n, tag)] for n in ESTIMANDS)
            secs = sum(total[(n, tag)] for n in ESTIMANDS)
            m[f"mc_oracle.reps_per_s.{tag}"] = _ratio(reps, secs)
    for fn, estimand in ESTIMANDS.items():
        m[f"mc_oracle.estimate_s.{estimand}"] = total[fn]
    m["cli.self_s"] = total["main"] - sum(
        r[2] for r in rows if r[0] in ("sweep_prevalence", "sweep_contour") and r[5] == "main")
    return m


def self_seconds(spans, worker_trees=()):
    """Self time per wrapped function, over the parent and the workers."""
    out = defaultdict(float)
    for tree in [spans, *worker_trees]:
        for span, self_s in zip(tree, _self_times(tree)):
            out[span[0]] += self_s
    return dict(out)


def _ratio(num, den):
    return num / den if den else 0.0
