"""Spans around the public functions of each ``cvsquash`` layer.

The tracer replaces each listed function, in every ``cvsquash`` module that
holds a reference to it, by a wrapper that records one span per call: its id,
the id of the enclosing span, its name and its start and end (ns,
``perf_counter_ns``).  Spans are kept in memory and written out at the end.
Untraced runs never install the wrappers.
"""

import contextlib
import functools
import sys
import time

import numpy as np

#: the traced functions of each layer (module of ``cvsquash``)
LAYERS = {
    "entropics": ("g", "g_inverse", "h"),
    "symplectic": ("symplectic_eigenvalues", "validate_covariance", "gaussian_entropy"),
    "states": ("extension_family", "gaussian_cmi"),
    "bounds": ("esq_bounds_tms", "find_E_kappa", "classical_esq"),
    "fock": ("oracle_cmi", "apply_channel_fock", "spectral_entropy", "random_one_mode_state"),
    "cli": ("main",),
}

#: traced functions reached only while a workload sets up
SETUP_ONLY = ("fock.random_one_mode_state",)

NO_PARENT = -1


def traced_names():
    return [f"{layer}.{fn}" for layer, functions in LAYERS.items() for fn in functions]


class Tracer:
    """Records nested spans.  Single-threaded: the workloads run one thread."""

    def __init__(self):
        self.names = []
        self.parent = []
        self.name_id = []
        self.start = []
        self.end = []
        self._stack = [NO_PARENT]
        self._restore = []

    def _name(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id):
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name_id.append(name_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid):
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block, e.g. a workload operation."""
        sid = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, name, fn):
        name_id = self._name(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        return traced

    def install(self, package="cvsquash"):
        """Wrap every listed function that exists; absent ones are skipped,
        so the benchmark still runs after a layer is reorganised."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer, functions in LAYERS.items():
            module = sys.modules.get(f"{package}.{layer}")
            for fname in functions:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                traced = self.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def arrays(self):
        """Spans as (parent, name_id, start_ns, end_ns) int64 arrays."""
        return (np.asarray(self.parent, dtype=np.int64), np.asarray(self.name_id, dtype=np.int64),
                np.asarray(self.start, dtype=np.int64), np.asarray(self.end, dtype=np.int64))

    def summary(self, root):
        """Calls and self time (s) per span name, over the spans that descend
        from a span named ``root``.  Self time is a span's duration minus the
        durations of its direct children, which nest inside it."""
        parent, name_id, start, end = self.arrays()
        duration = end - start
        child = np.zeros(len(start), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        own = duration - child
        # a parent opens before its children, so following parents ends at the root
        top = np.arange(len(start))
        while True:
            up = parent[top]
            if not (up >= 0).any():
                break
            top = np.where(up >= 0, up, top)
        keep = (name_id[top] == self._name(root)) & (top != np.arange(len(start)))
        calls = np.bincount(name_id[keep], minlength=len(self.names))
        self_ns = np.bincount(name_id[keep], weights=own[keep], minlength=len(self.names))
        return {name: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, name in enumerate(self.names) if calls[i]}

    def write(self, path):
        """Write the spans as CSV: id, parent id, name, start and end (ns)."""
        parent, name_id, start, end = self.arrays()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for i in range(len(start)):
                fh.write(f"{i},{parent[i]},{self.names[name_id[i]]},{start[i]},{end[i]}\n")

