"""Per-layer tracing from outside the library.

:class:`Tracer` replaces each public ``bellsim`` function at every name a
caller looks it up by (``bell.ideal_joint_distribution``,
``interferometer.integrate_over_spectrum``, ...) with a wrapper that counts
calls and adds up their time, so hot per-term calls cost one counter update,
not one span each.  Times are per-thread CPU times: the ``--workers 2`` scan
runs rows on pool threads, and wall time on two threads sharing one
interpreter lock would count the same second twice.  A call's self time is
its time minus that of the traced calls it makes.

The CLI layer is ``cli.main`` (wrapped by the caller through :meth:`wrap`)
plus the per-row functions of its subcommand table, which run on the pool
threads when ``--workers`` is above 1.
"""

from __future__ import annotations

import dataclasses
import inspect
import threading
import time
from collections import defaultdict

LIBRARY_MODULES = ("bell", "entangle", "extensions", "interferometer", "measurement", "spectra")
LAYERS = ("cli",) + LIBRARY_MODULES


class Stats:
    """Calls and total and self nanoseconds of one traced function."""

    __slots__ = ("calls", "ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.self_ns = 0


class Tracer:
    """Counts and times calls into ``bellsim`` while installed.

    Statistics are kept per thread and merged by :meth:`totals`, so pool
    threads never update a shared counter.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict, dict]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = (defaultdict(Stats), defaultdict(int), [])  # stats, counts, stack
            self._local.state = state
            with self._lock:
                self._per_thread.append(state[:2])
        return state

    def count(self, name: str, amount: int = 1) -> None:
        self._thread_state()[1][name] += amount

    def wrap(self, key: str, fn, on_return=None, on_args=None):
        """``fn`` timed under ``key``; hooks see the arguments and result.

        A call from outside the key's layer is also added to the layer's
        ``<layer>.entry`` statistics, so a layer's time is not counted twice
        when its functions call each other.
        """
        clock = time.thread_time_ns
        tracer = self
        layer = key.partition(".")[0]
        entry_key = f"{layer}.entry"

        def traced(*args, **kwargs):
            stats, _, stack = tracer._thread_state()
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            outside = not stack or stack[-1][1] != layer
            stack.append([0, layer])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += elapsed
                entry = stats[key]
                entry.calls += 1
                entry.ns += elapsed
                entry.self_ns += elapsed - children
                if outside:
                    entry = stats[entry_key]
                    entry.calls += 1
                    entry.ns += elapsed
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, package) -> None:
        """Wrap every public library function at every module-level name."""
        cli = package.cli
        for site_name in LIBRARY_MODULES:
            site = getattr(package, site_name)
            for attr, fn in list(vars(site).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__.rpartition(".")[2]
                if home not in LIBRARY_MODULES:
                    continue
                self._patch(site, attr, self._wrap_function(site_name, home, fn))
        # Sampling models are stored in a table, not looked up by name.
        for model, fn in list(cli._SAMPLE_MODELS.items()):
            self._patch_item(cli._SAMPLE_MODELS, model,
                             self.wrap(f"interferometer.{fn.__name__}", fn))
        for name, sub in list(cli._SUBCOMMANDS.items()):
            self._patch_item(cli._SUBCOMMANDS, name, dataclasses.replace(
                sub, row=self.wrap("cli.row", sub.row)))

    def _patch_item(self, table: dict, key, replacement) -> None:
        self._patches.append((table, key, table[key]))
        table[key] = replacement

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _wrap_function(self, site: str, home: str, fn):
        key = f"{home}.{fn.__name__}"
        if fn.__name__ == "chained_I":
            return self.wrap(key, fn, on_args=self._count_terms)
        if fn.__name__ == "lhv_minimum_I":
            return self.wrap(key, fn, on_return=lambda a, k, r: self.count(
                "bell.lhv_strategies", r.n_strategies))
        if fn.__name__ == "sample_events":
            return self.wrap(key, fn, on_args=self._count_samples)
        if fn.__name__ == "integrate_over_spectrum":
            return self.wrap(key, self._counting_quadrature(fn))
        if fn.__name__ == "quantum_I_closed_form" and site == "extensions":
            # The witness search makes up to n_cap of these calls; timing each
            # would triple its cost, so they are counted and their time stays
            # in find_falsifying_N.
            return self._counted("extensions.closed_form_evals", fn)
        return self.wrap(key, fn)

    def _counted(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer._thread_state()[1][name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _count_terms(self, args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        self.count("bell.terms", 2 * cfg.n)
        return args, kwargs

    def _count_samples(self, args, kwargs):
        self.count("interferometer.samples", args[1] if len(args) > 1 else kwargs["n"])
        return args, kwargs

    def _counting_quadrature(self, integrate):
        """Count integrand nodes, the nodes of the pass that returned, and
        failed integrations."""
        tracer = self

        def counted(spectrum, f, *args, **kwargs):
            last = [0]

            def integrand(nodes):
                tracer.count("spectra.nodes", nodes.size)
                last[0] = nodes.size
                return f(nodes)

            try:
                result = integrate(spectrum, integrand, *args, **kwargs)
            except Exception:
                tracer.count("spectra.failures")
                raise
            tracer.count("spectra.final_nodes", last[0])
            return result

        return counted

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[dict[str, Stats], dict[str, int]]:
        stats: dict[str, Stats] = defaultdict(Stats)
        counts: dict[str, int] = defaultdict(int)
        with self._lock:
            per_thread = list(self._per_thread)
        for thread_stats, thread_counts in per_thread:
            for key, entry in thread_stats.items():
                merged = stats[key]
                merged.calls += entry.calls
                merged.ns += entry.ns
                merged.self_ns += entry.self_ns
            for key, value in thread_counts.items():
                counts[key] += value
        return stats, counts

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer: its functions' time outside traced callees."""
        stats, _ = self.totals()
        layers = dict.fromkeys(LAYERS, 0.0)
        for key, entry in stats.items():
            if not key.endswith(".entry"):
                layers[key.partition(".")[0]] += entry.self_ns * 1e-9
        return layers
