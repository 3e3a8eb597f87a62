"""Span tracer for the traced benchmark run, installed from outside the library.

``install()`` replaces the public functions of each ``dmchain`` module,
plus three internal hooks named in ``HOOKS``, with wrappers that record
one span per call: name, start, end and the index of the enclosing span.
The replacement is made in every ``dmchain`` module namespace that holds
the function, so calls through ``from .x import f`` bindings are traced
too.  Spans stay in memory; ``Tracer.metrics()`` derives the per-layer
metrics from them and ``Tracer.save()`` writes them out.

A layer is the module a span's function belongs to.  A span's self time
is its duration minus the durations of its direct children.
"""

import importlib
import sys
import time

import numpy as np

MODULES = ("quadrature", "chain", "fisher", "multiparam", "protocol",
           "features", "sweep", "cli")
# Internal functions traced besides the public ones: the Gauss-Kronrod
# panel rule (rule calls, nodes), the integrand-stack factory (one per
# quadrature pass; its closure is the integrand span) and the protocol's
# cached probability table (so table points are not likelihood evaluations).
HOOKS = (("quadrature", "_panel_rule"), ("chain", "_integrand_stack"),
         ("protocol", "_probability_curve"))


def _layer(name):
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []          # span name table
        self._name_ids = {}
        self.name_id = []        # per span
        self.parent = []
        self.start = []
        self.end = []
        self._stack = []
        self.nodes = 0                   # Gauss-Kronrod nodes evaluated
        self.points = set()              # (J, gamma, D) of quadrature passes
        self.curve_params = []           # (span index, params) of H calls by features
        self.sweep_points = 0
        self.sweep_failed = 0
        self.runs_converged = 0
        self.mle_keys = {}               # (gamma, D, grid) -> first span index

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, note=None):
        nid = self._id(name)
        stack, parent, start, end, ids = (self._stack, self.parent, self.start,
                                          self.end, self.name_id)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if note is not None:
                note(idx, args, kwargs, out)
            return out

        return traced

    # -- notes: counts recorded at the boundaries where the work happens

    def _note_rule(self, idx, args, kwargs, out):
        self.nodes += int(np.asarray(args[1]).size) * 15

    def _note_stack(self, idx, args, kwargs, out):
        p = args[0]
        self.points.add((p.J, p.gamma, p.D))

    def _note_fisher(self, idx, args, kwargs, out):
        par = self.parent[idx]
        if par >= 0 and _layer(self.names[self.name_id[par]]) == "features":
            p = args[0]
            self.curve_params.append((idx, (p.J, p.gamma, p.D)))

    def _note_sweep(self, idx, args, kwargs, out):
        self.sweep_points += len(out.axis_values)
        self.sweep_failed += sum(1 for e in out.errors if e)

    def _note_run(self, idx, args, kwargs, out):
        self.runs_converged += bool(out.converged)

    def _note_mle(self, idx, args, kwargs, out):
        key = (float(args[2]), float(args[3]), tuple(args[4]))
        self.mle_keys.setdefault(key, idx)

    def _wrap_stack_factory(self, name, factory):
        """Trace the factory and the integrand closure it returns."""
        wrapped = self.wrap(name, factory, self._note_stack)

        def make(*args, **kwargs):
            return self.wrap("chain.integrand", wrapped(*args, **kwargs))

        return make

    def install(self):
        mods = {m: importlib.import_module("dmchain." + m) for m in MODULES}
        notes = {
            "quadrature._panel_rule": self._note_rule,
            "sweep.sweep": self._note_sweep,
            "protocol.adaptive_run": self._note_run,
            "protocol.mle_estimate": self._note_mle,
        }
        targets = {}
        for m, mod in mods.items():
            public = getattr(mod, "__all__", ["main"])
            for attr in public:
                fn = getattr(mod, attr, None)
                if callable(fn) and getattr(fn, "__module__", "") == mod.__name__ \
                        and not isinstance(fn, type):
                    targets[id(fn)] = (fn, "%s.%s" % (m, attr))
        for m, attr in HOOKS:
            fn = getattr(mods[m], attr, None)
            if fn is not None:
                targets[id(fn)] = (fn, "%s.%s" % (m, attr))
        wrappers = {}
        for key, (fn, name) in targets.items():
            if name == "chain._integrand_stack":
                wrappers[key] = self._wrap_stack_factory(name, fn)
            elif _layer(name) == "fisher":
                wrappers[key] = self.wrap(name, fn, self._note_fisher)
            else:
                wrappers[key] = self.wrap(name, fn, notes.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname == "dmchain" or modname.startswith("dmchain."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrappers and value is targets[id(value)][0]:
                        setattr(mod, attr, wrappers[id(value)])
        return self

    # -- derived metrics

    def _arrays(self):
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return ids, parent, dur, dur - child

    def metrics(self):
        ids, parent, dur, self_t = self._arrays()
        span_name = np.array(self.names + [""], dtype=object)[ids]
        layer = np.array([_layer(n) for n in self.names] + [""], dtype=object)[ids]
        up = np.maximum(parent, 0)
        parent_layer = np.where(parent >= 0, layer[up], "")
        parent_name = np.where(parent >= 0, span_name[up], "")

        def count(name):
            return int((span_name == name).sum())

        def layer_self(lay):
            return float(self_t[layer == lay].sum())

        def layer_calls(lay):
            return int(((layer == lay) & (parent_layer != lay)).sum())

        passes = count("quadrature.integrate_many")
        points = len(self.points)
        mle = span_name == "protocol.mle_estimate"
        evals = int(((span_name == "protocol.outcome_probabilities")
                     & (parent_name == "protocol.mle_estimate")).sum())
        rounds = int(mle.sum())
        curve_idx = [i for i, _ in self.curve_params]
        return {
            "quadrature.passes": passes,
            "quadrature.rule_calls": count("quadrature._panel_rule"),
            "quadrature.nodes": self.nodes,
            "quadrature.nodes_per_pass": self.nodes / passes if passes else 0.0,
            "quadrature.self_s": layer_self("quadrature"),
            "chain.integrand_s": float(dur[span_name == "chain.integrand"].sum()),
            "chain.points": points,
            "chain.passes_per_point": passes / points if points else 0.0,
            "chain.chain_point_calls": count("chain.chain_point"),
            "chain.x_state_calls": count("chain.x_state"),
            "fisher.calls": layer_calls("fisher"),
            "fisher.self_s": layer_self("fisher"),
            "multiparam.calls": layer_calls("multiparam"),
            "multiparam.self_s": layer_self("multiparam"),
            "sweep.points": self.sweep_points,
            "sweep.failed_points": self.sweep_failed,
            "sweep.self_s": layer_self("sweep"),
            "protocol.runs": count("protocol.adaptive_run"),
            "protocol.converged_runs": self.runs_converged,
            "protocol.likelihood_evals": evals,
            "protocol.likelihood_evals_per_round": evals / rounds if rounds else 0.0,
            "protocol.table_s": float(sum(dur[i] for i in self.mle_keys.values())),
            "protocol.mle_self_s": float(self_t[mle].sum()),
            "features.curve_points": len(curve_idx),
            "features.distinct_curve_points": len({p for _, p in self.curve_params}),
            "features.curve_s": float(dur[curve_idx].sum()),
            "features.self_s": layer_self("features"),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start), end=np.asarray(self.end))
