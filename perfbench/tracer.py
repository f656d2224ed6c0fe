"""Outside-in span tracer for the nilflow package.

The tracer wraps every public module-level function of every nilflow
module and rebinds each import site that holds an original: module globals
(`from .flow import flow_rk4` creates one per importing module) and values
of module-level dicts such as `cli.COMMANDS`.  After installation it scans
the package again and refuses to run if any original is still reachable,
so a call site it cannot rebind is an error rather than a silent gap.

Each traced call records a span (name, start, end, parent, op id) in flat
arrays kept in memory; calls, self time (duration minus the time covered
by child spans and by counter hooks) and total time (outermost activations
only, so recursion is not counted twice) are accumulated online.  `save()` writes the spans
out when the benchmark ends.
"""

import functools
import importlib
import inspect
import pkgutil
import time
import types
from array import array


class TracerError(RuntimeError):
    """The tracer cannot cover the package as asked."""


def package_modules(package):
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


def public_functions(modules):
    """{"module.function": function} for every public function defined at
    module level in the given modules."""
    out = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, val in vars(mod).items():
            if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                out[f"{short}.{attr}"] = val
    return out


class Tracer:
    def __init__(self):
        self.names = []  # span name table; index = name id
        self.span_name = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls = []
        self.errors = []
        self.self_ns = []
        self.total_ns = []
        self._active = []
        self.counts = {}
        self.op = -1
        self.paused = False
        self._stack = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        for col in (self.calls, self.errors, self.self_ns, self.total_ns,
                    self._active):
            col.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name, hook=None):
        """A traced stand-in for fn, recorded under name.  hook, if given,
        is called as hook(counts, result, arguments) after each call that
        returns, where arguments() gives the call's arguments by name;
        calls made while paused are not recorded."""
        idx = self._name_id(name)
        sig = inspect.signature(fn) if hook is not None else None
        clock = time.perf_counter_ns
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            stack = tr._stack
            sid = len(tr.span_name)
            tr.span_name.append(idx)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_op.append(tr.op)
            tr.span_start.append(0)
            tr.span_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            tr._active[idx] += 1
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tr.span_start[sid] = t0
                tr.span_end[sid] = t1
                tr.calls[idx] += 1
                tr.self_ns[idx] += dur - frame[1]
                tr._active[idx] -= 1
                if tr._active[idx] == 0:
                    tr.total_ns[idx] += dur
                if stack:
                    stack[-1][1] += dur
                if not ok:
                    tr.errors[idx] += 1
            if hook is not None:
                def arguments():
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    return bound.arguments

                # What a hook does is not the program's work: it records no
                # spans, and its time counts as covered in the parent span
                # so that it is not charged to the parent's self time.
                tr.paused = True
                h0 = clock()
                try:
                    hook(tr.counts, result, arguments)
                finally:
                    tr.paused = False
                    if stack:
                        stack[-1][1] += clock() - h0
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package, required, hooks, extra_modules=()):
        """Wrap every public function of the package and rebind its import
        sites.  required: names that must exist; hooks: {name: hook}."""
        modules = package_modules(package)
        originals = public_functions(modules)
        missing = sorted(
            n for n in set(required) | set(hooks) if n not in originals
        )
        if missing:
            raise TracerError(f"traced names not found: {', '.join(missing)}")
        by_id = {}
        for name, fn in sorted(originals.items()):
            by_id[id(fn)] = self.wrap(fn, name, hooks.get(name))
        modules += list(extra_modules)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in by_id:
                    setattr(mod, attr, by_id[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in by_id:
                            val[key] = by_id[id(item)]
        leaks = unwrapped_sites(modules, originals)
        if leaks:
            raise TracerError(
                "unwrapped originals still bound at: " + ", ".join(leaks)
            )

    # -- results -----------------------------------------------------------

    def stats(self):
        """{name: (calls, self_s, total_s, errors)} for every traced name."""
        return {
            name: (self.calls[i], self.self_ns[i] * 1e-9,
                   self.total_ns[i] * 1e-9, self.errors[i])
            for i, name in enumerate(self.names)
        }

    def ops_calling(self, name):
        """Set of op ids with at least one span of the given name."""
        if name not in self.names:
            return set()
        idx = self.names.index(name)
        return {
            op for n, op in zip(self.span_name, self.span_op) if n == idx
        }

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )


def unwrapped_sites(modules, originals):
    """Places in the given modules that still reach an original function:
    module globals, members of module-level containers, and default
    arguments of module-level functions and class methods."""
    orig_ids = {id(fn): name for name, fn in originals.items()}
    sites = []

    def check(where, val):
        if id(val) in orig_ids:
            sites.append(f"{where} -> {orig_ids[id(val)]}")

    def check_defaults(where, fn):
        fn = getattr(fn, "__wrapped__", fn)  # set on wrappers by wraps()
        for i, d in enumerate(getattr(fn, "__defaults__", None) or ()):
            check(f"{where}.__defaults__[{i}]", d)
        for k, d in (getattr(fn, "__kwdefaults__", None) or {}).items():
            check(f"{where}.__kwdefaults__[{k}]", d)

    for mod in modules:
        for attr, val in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            check(where, val)
            if isinstance(val, dict):
                for key, item in val.items():
                    check(f"{where}[{key!r}]", item)
            elif isinstance(val, (list, tuple, set, frozenset)):
                for item in val:
                    check(f"{where}[...]", item)
            elif isinstance(val, types.FunctionType):
                check_defaults(where, val)
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                for mattr, mval in vars(val).items():
                    if isinstance(mval, types.FunctionType):
                        check_defaults(f"{where}.{mattr}", mval)
    return sites
