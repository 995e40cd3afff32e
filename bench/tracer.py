"""Layer tracing for the hookcounts benchmark, installed from outside the package.

:func:`install` replaces the public functions of each layer module (and the
``_PHI_FORWARD``/``_PHI_INVERSE`` dispatch tables, the Series ring operators
and the ``_gamma_apply`` map, which the injection driver calls directly) by
timing wrappers.  Every module attribute that refers to a wrapped function is
rebound, so cross-module imports such as ``from .series import t_regular_gf``
are traced too.

Each wrapped call pushes a child-time accumulator on a stack; on return its
self time is its duration minus the time its traced children took.  Calls are
aggregated per function (calls, total time, self time, items, work), so memory
stays bounded however many partitions a run walks.  Calls to the coarse
functions -- builders, checks, the CLI and the injection driver -- are also
kept as spans (id, parent, op, name, start, end), capped at ``MAX_SPANS``.
Generators returned by a wrapped function are wrapped in turn so that the
time spent producing each item is charged to the function that made them.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

LAYERS = ("series", "partitions", "hookgf", "injections", "checks", "cli")
MAX_SPANS = 20000

# Series methods that make up the ring layer; the constructor is left to
# whichever function builds the series.
RING_OPS = ("__add__", "__sub__", "__neg__", "__rmul__", "__mul__", "__truediv__",
            "shift", "times_geometric")

INJECTION_FORWARD = {"phi1", "phi2", "phi3", "phi4", "phi_total", "gamma",
                     "_gamma_apply", "epsilon", "tau"}
INJECTION_INVERSE = {"phi1_inv", "psi2", "psi3", "psi4", "delta3", "eta"}
INJECTION_DRIVER = {"verify_injection", "verify_injection_range",
                    "o5_weight_cap", "o5_weight_bound"}

def _is_hot(qualname: str) -> bool:
    """Called once per partition or per series operator: aggregated, no spans."""
    layer, name = qualname.split(".", 1)
    if layer == "partitions" or name.startswith("Series."):
        return True
    return layer == "injections" and name not in INJECTION_DRIVER


class Stat:
    __slots__ = ("calls", "total", "self_time", "items", "work", "walked")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.items = 0
        self.work = 0
        self.walked = 0


class Tracer:
    def __init__(self):
        self.stack: list[float] = []
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_index = -1
        self.max_coeff_bits = 0
        self._span_parents: list[int] = []
        self._next_span = 0
        self.emit_chars = 0
        self._walker: Stat | None = None

    # -- wrappers ----------------------------------------------------------

    def _timed_iter(self, it, st: Stat):
        stack = self.stack
        while True:
            stack.append(0.0)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                st.total += dt
                st.self_time += dt - child
                if stack:
                    stack[-1] += dt
            st.items += 1
            yield item

    def wrap(self, qualname: str, func, measure=None, cache=None):
        """A timing wrapper around ``func`` registered under ``qualname``."""
        st = self.stats.setdefault(qualname, Stat())
        stack = self.stack
        timed_iter = self._timed_iter
        generator = types.GeneratorType

        if _is_hot(qualname):
            def hot(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    result = func(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    st.calls += 1
                    st.total += dt
                    st.self_time += dt - child
                    if stack:
                        stack[-1] += dt
                if measure is not None:
                    st.work += measure(args, result)
                if type(result) is generator:
                    return timed_iter(result, st)
                return result

            return hot

        spans = self.spans
        parents = self._span_parents

        def coarse(*args, **kwargs):
            misses = cache.cache_info().misses if cache is not None else None
            walked = self._walker.items if self._walker is not None else 0
            span_id = self._next_span
            self._next_span += 1
            parent = parents[-1] if parents else -1
            parents.append(span_id)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                child = stack.pop()
                parents.pop()
                st.calls += 1
                st.total += dt
                st.self_time += dt - child
                if stack:
                    stack[-1] += dt
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, self.op_index, qualname, t0, t1))
                else:
                    self.dropped_spans += 1
                if self._walker is not None:
                    st.walked += self._walker.items - walked
            computed = misses is None or cache.cache_info().misses != misses
            if measure is not None and computed:
                st.work += measure(args, result)
            if type(result) is generator:
                return timed_iter(result, st)
            return result

        return coarse

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from hookcounts import cli, checks, injections, series  # loads every layer

        mods = {layer: sys.modules[f"hookcounts.{layer}"] for layer in LAYERS}
        replaced: dict[int, object] = {}

        def series_measure(args, result):
            coeffs = getattr(result, "coeffs", None)
            if coeffs is None:
                return 0
            if coeffs:
                bits = max(max(coeffs), -min(coeffs)).bit_length()
                if bits > self.max_coeff_bits:
                    self.max_coeff_bits = bits
            return len(coeffs)

        emit = checks.emit

        def counting_emit(obj, fmt, stream):
            start = stream.tell()
            emit(obj, fmt, stream)
            self.emit_chars += stream.tell() - start

        build_parser = cli.build_parser

        def traced_build_parser():
            parser = build_parser()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        substitutes = {id(emit): counting_emit, id(build_parser): traced_build_parser}
        measures = {
            "partitions.hook_multiset": lambda args, result: args[0].weight,
            "injections.verify_injection": lambda args, result: result.domain_size,
        }

        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                public = not name.startswith("_") or name == "_gamma_apply"
                if not public or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qualname = f"{layer}.{name}"
                measure = series_measure if layer == "series" else measures.get(qualname)
                cache = obj if hasattr(obj, "cache_info") else None
                func = substitutes.get(id(obj), obj)
                replaced[id(obj)] = self.wrap(qualname, func, measure, cache)

        for name in RING_OPS:
            method = getattr(series.Series, name)
            setattr(series.Series, name,
                    self.wrap(f"series.Series.{name}", method, series_measure))

        # rebind every reference to a wrapped function, in every layer module
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
        for table in (injections._PHI_FORWARD, injections._PHI_INVERSE):
            for key, func in table.items():
                table[key] = replaced[id(func)]
        self._walker = self.stats["partitions.partitions_of"]

    # -- results -----------------------------------------------------------

    def _self(self, *names: str) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_time for n, s in self.stats.items() if n.startswith(prefix))

    def metrics(self, wall: float, caches: dict[str, tuple[int, int, int]]) -> dict:
        """Per-layer metrics of one traced repetition of ``wall`` seconds.

        ``caches`` maps a layer to (hits, misses, entries) summed over its
        lru_caches at the end of the repetition.
        """
        st = self.stats
        zero = Stat()
        get = lambda name: st.get(name, zero)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        m: dict[str, float] = {}

        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.layer_self(layer)
            m[f"{layer}.share"] = ratio(m[f"{layer}.self_s"], wall)

        def hit_ratio(layer):
            hits, misses, _ = caches.get(layer, (0, 0, 0))
            return ratio(hits, hits + misses)

        m["series.product_s"] = self._self("series.pochhammer_inf")
        m["series.product_calls"] = get("series.pochhammer_inf").calls
        m["series.divide_s"] = self._self("series.divide_unit")
        m["series.ring_s"] = self._self(*(f"series.Series.{op}" for op in RING_OPS))
        m["series.coeffs"] = sum(s.work for n, s in st.items() if n.startswith("series."))
        m["series.coeffs_per_s"] = ratio(m["series.coeffs"], m["series.self_s"])
        m["series.cache_hit_ratio"] = hit_ratio("series")
        m["series.cache_entries"] = caches.get("series", (0, 0, 0))[2]
        m["series.max_coeff_bits"] = self.max_coeff_bits

        enum_names = ("hookgf.btk_enum", "hookgf.btk_enum_table")
        m["hookgf.enum_table_s"] = self._self(*enum_names)
        m["hookgf.build_s"] = m["hookgf.self_s"] - m["hookgf.enum_table_s"]
        m["hookgf.cache_hit_ratio"] = hit_ratio("hookgf")

        m["partitions.enum_s"] = self._self("partitions.partitions_of",
                                            "partitions.t_regular_partitions")
        m["partitions.partitions"] = get("partitions.partitions_of").items
        m["partitions.partitions_per_s"] = ratio(m["partitions.partitions"],
                                                 m["partitions.enum_s"])
        m["partitions.hook_s"] = self._self("partitions.hook_multiset",
                                            "partitions.conjugate_column_heights",
                                            "partitions.count_hooks")
        m["partitions.cells"] = get("partitions.hook_multiset").work
        m["partitions.cells_per_s"] = ratio(m["partitions.cells"], m["partitions.hook_s"])

        def inj_self(names):
            return self._self(*(f"injections.{n}" for n in names))

        driver = get("injections.verify_injection")
        m["injections.walked"] = driver.walked
        m["injections.kept"] = sum(s.items for n, s in st.items()
                                   if n.startswith("injections.") and n.endswith("_members"))
        m["injections.yield"] = ratio(m["injections.kept"], m["injections.walked"])
        m["injections.forward_s"] = inj_self(INJECTION_FORWARD)
        m["injections.inverse_s"] = inj_self(INJECTION_INVERSE)
        m["injections.driver_s"] = inj_self(INJECTION_DRIVER)
        m["injections.classify_s"] = (m["injections.self_s"] - m["injections.forward_s"]
                                      - m["injections.inverse_s"] - m["injections.driver_s"])
        m["injections.certified_per_s"] = ratio(driver.work, driver.total)

        m["checks.scan_s"] = m["checks.self_s"] - self._self("checks.emit")
        m["checks.emit_s"] = self._self("checks.emit")
        m["checks.emit_bytes"] = self.emit_chars
        m["cli.parse_s"] = self._self("cli.build_parser", "cli.parse_args")
        m["cli.commands"] = get("cli.main").calls
        return m

