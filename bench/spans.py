"""In-memory spans around ddstab's public functions, for the traced run.

Each traced function is wrapped once and the wrapper is bound under every
module name that binds the original (``spectral_radius`` is imported by
name into cli, informativity, finitedata and noise), so calls made inside
the package are seen as well as calls made by the CLI.  A span records its
name, start, end, parent span and op id.  The two hottest leaves,
``operator_norm`` (~60k calls per noise op) and ``spectral_radius``, are
folded into their parent span as a call count and a total time instead of
one span per call, which keeps the trace small.
"""

import functools
import json
import time

import ddstab
from ddstab import cli, finitedata, informativity, lmi, noise, operators, systems

MODULES = (ddstab, cli, finitedata, informativity, lmi, noise, operators, systems)


def _count_iterations(result):
    counts = {"iterations": result.iterations}
    if isinstance(result, lmi.Infeasible):
        counts["infeasible"] = 1
    return counts


def _count_k0(result):
    if isinstance(result, operators.PowerStabilityCertificate):
        return {"k0": result.horizon_checked}
    return {}


#: (module, attribute, counters read off the result).  Names are
#: "<module>.<attribute>" after the defining module.
TRACED = (
    (operators, "pseudo_inverse", None),
    (operators, "rank_at_tol", None),
    (operators, "construct_certificate", _count_k0),
    (lmi, "solve_feasibility", _count_iterations),
    (informativity, "synthesize_gain", None),
    (informativity, "sample_compatible_systems", lambda r: {"systems": len(r)}),
    (noise, "robust_stabilization", None),
    (noise, "verify_robust_gain", lambda r: {"rejected_draws": r.rejected_draws}),
    (noise, "noise_in_class", None),
    (finitedata, "project_data", None),
    (finitedata, "finite_informative", None),
    (finitedata, "verify_on_compatible_plus", None),
    (cli, "cmd_generate", None),
    (cli, "cmd_analyze", None),
    (cli, "cmd_verify", None),
    (cli, "cmd_noise", None),
)
LEAVES = (operators.operator_norm, operators.spectral_radius)


class Tracer:
    """Records spans while installed; ``install`` and ``uninstall`` swap the
    wrappers in and out so untraced rounds run the original functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, child_s, leaves]
        self.stack = []
        self.op = None
        self.counters = {}
        self._saved = []

    def _enter(self, name):
        parent = self.stack[-1] if self.stack else None
        span = [name, time.perf_counter(), None, parent, self.op, 0.0, {}]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self.stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if count is not None:
                for key, value in count(result).items():
                    self.add(f"{name}.{key}", value)
            return result

        return traced

    def _wrap_leaf(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                if self.stack:
                    parent = self.spans[self.stack[-1]]
                    parent[5] += dt
                    tally = parent[6].setdefault(name, [0, 0.0])
                    tally[0] += 1
                    tally[1] += dt
                self.add(f"{name}.calls", 1)
                self.add(f"{name}.seconds", dt)

        return traced

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def install(self):
        wrappers = {}
        for module, attr, count in TRACED:
            fn = getattr(module, attr)
            wrappers[id(fn)] = (fn, self._wrap(f"{module.__name__[7:]}.{attr}", fn, count))
        for fn in LEAVES:
            wrappers[id(fn)] = (fn, self._wrap_leaf(f"operators.{fn.__name__}", fn))
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        # DataBatch is one class object shared by every module
        DataBatch = systems.DataBatch
        load, save = vars(DataBatch)["load"], vars(DataBatch)["save"]
        self._saved += [(DataBatch, "load", load), (DataBatch, "save", save)]
        DataBatch.load = classmethod(self._wrap("systems.DataBatch.load", load.__func__, None))
        DataBatch.save = self._wrap("systems.DataBatch.save", save, None)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def totals(self):
        """Per span name: calls, total seconds, self seconds."""
        out = {}
        for name, start, end, _, _, child_s, _ in self.spans:
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, own + end - start - child_s)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "child_s", "leaves"],
                    "spans": self.spans,
                    "counters": self.counters,
                },
                fh,
            )
            fh.write("\n")
