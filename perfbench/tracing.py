"""In-process spans around the public functions of each fairsurv layer.

``Tracer.install`` replaces the chosen functions, wherever a fairsurv
module has bound them, with wrappers that record a span: name, start,
end and the index of the enclosing span.  Spans stay in memory and are
written once, when the traced run ends.  Nothing under ``src/`` changes:
the wrappers live here and are installed at run time.

``layer_metrics`` turns a span list into the per-layer numbers the
benchmark reports.  A span's self time is its duration minus the part
of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (defining module, attribute, modules whose binding is
# wrapped; None wraps every fairsurv module that binds the function)
SPANS = {
    "cli.main": ("fairsurv.cli", "main", None),
    "scm.from_csv": ("fairsurv.scm", "Cohort.from_csv", None),
    "scm.subset": ("fairsurv.scm", "Cohort.subset", None),
    "curves.kaplan_meier": ("fairsurv.curves", "kaplan_meier",
                            ("fairsurv.nuisance",)),
    "curves.aalen_johansen_cif": ("fairsurv.curves", "aalen_johansen_cif",
                                  ("fairsurv.nuisance",)),
    "nuisance.fit_conditional_survival": (
        "fairsurv.nuisance", "fit_conditional_survival", None),
    "nuisance.fit_propensity": ("fairsurv.nuisance", "fit_propensity", None),
    "dr.fit_dr_nuisances": ("fairsurv.dr", "fit_dr_nuisances", None),
    "dr.crossfit_dr_many": ("fairsurv.dr", "crossfit_dr_many", None),
    "decompose.decompose_difference": (
        "fairsurv.decompose", "decompose_difference", None),
    "decompose.decompose_ratio": ("fairsurv.decompose", "decompose_ratio", None),
    "decompose.decompose_cr": ("fairsurv.decompose", "decompose_cr", None),
    "cge.cge_bounded": ("fairsurv.cge", "cge_bounded", None),
    "cge.route2_population": ("fairsurv.cge", "route2_population", None),
}

# counter name -> (defining module, attributes, modules whose binding is
# wrapped); counters record calls without a span, for hot scalar calls
COUNTERS = {
    "copulas.generator": ("fairsurv.copulas", ("generator", "generator_inverse"),
                          ("fairsurv.cge",)),
}

PRODUCT_LIMIT = ("curves.kaplan_meier", "curves.aalen_johansen_cif")
DECOMPOSE = ("decompose.decompose_difference", "decompose.decompose_ratio",
             "decompose.decompose_cr")


class Tracer:
    """Records spans as ``(name, start, end, parent)`` tuples in memory."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name in COUNTERS}
        self._open = []

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            index = len(self.spans)
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent)
        return traced

    def counter(self, name, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        """Wrap every function in SPANS and COUNTERS; returns cli.main."""
        cli = importlib.import_module("fairsurv.cli")  # loads every layer
        for name, (home, attr, scope) in SPANS.items():
            self._patch(home, attr, scope, lambda fn, n=name: self.span(n, fn))
        for name, (home, attrs, scope) in COUNTERS.items():
            for attr in attrs:
                self._patch(home, attr, scope,
                            lambda fn, n=name: self.counter(n, fn))
        return cli.main

    @staticmethod
    def _patch(home, attr, scope, make):
        module = importlib.import_module(home)
        if "." in attr:  # a method: wrap it on its class
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            return
        original = getattr(module, attr)
        wrapped = make(original)
        targets = scope or [m for m in sys.modules
                            if m == "fairsurv" or m.startswith("fairsurv.")]
        for target in targets:
            mod = importlib.import_module(target)
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def self_times(spans):
    """Self time of every span: duration minus the union of its
    children's intervals clipped to its own."""
    children = [[] for _ in spans]
    for index, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children[index], key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _outermost_total(spans, names):
    """Summed duration of spans in ``names`` not nested in another one."""
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(spans, counts):
    """Per-layer metrics from one traced run's spans and counters."""
    own = self_times(spans)

    def calls(*names):
        return sum(1 for s in spans if s[0] in names)

    def total(*names):
        return _outermost_total(spans, set(names))

    def self_s(*names):
        return sum((t for s, t in zip(spans, own) if s[0] in names), 0.0)

    return {
        "scm.from_csv_s": total("scm.from_csv"),
        "scm.subset_s": total("scm.subset"),
        "scm.subset_calls": calls("scm.subset"),
        "curves.product_limit_s": total(*PRODUCT_LIMIT),
        "curves.product_limit_calls": calls(*PRODUCT_LIMIT),
        "nuisance.fit_survival_s": total("nuisance.fit_conditional_survival"),
        "nuisance.fit_survival_calls": calls("nuisance.fit_conditional_survival"),
        "nuisance.fit_propensity_s": total("nuisance.fit_propensity"),
        "nuisance.fit_propensity_calls": calls("nuisance.fit_propensity"),
        "dr.crossfit_calls": calls("dr.crossfit_dr_many"),
        "dr.nuisance_bundles": calls("dr.fit_dr_nuisances"),
        "dr.influence_s": self_s("dr.crossfit_dr_many"),
        "cge.bounded_s": total("cge.cge_bounded"),
        "cge.bounded_calls": calls("cge.cge_bounded"),
        "cge.route2_self_s": self_s("cge.route2_population"),
        "copulas.generator_calls": counts.get("copulas.generator", 0),
        "decompose.self_s": self_s(*DECOMPOSE),
        "cli.self_s": self_s("cli.main"),
    }
