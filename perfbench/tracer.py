"""Outside-in tracing of the ghrv modules.

The tracer wraps the public functions of each ghrv module, plus a short list
of methods, from outside the package: nothing in `src/` knows it is being
traced.  A function imported by name into another module (for example
`variety` binds `all_minors` and `rank_over_field` at import time) is
replaced in every module namespace that holds it, so calls through either
name are seen.

Every wrapped call opens a span (name, start, end, parent span, op id).
Spans are kept in flat arrays in memory and written out once, at the end of
the run.  Element arithmetic (field `mul`/`inv` and `Poly.__mul__`) is called
millions of times per run, so those calls are aggregated but not stored as
individual spans; they still count toward their parents' child time.

Aggregates are kept per phase (`setup`, `ops`), so a layer metric can say
whether it measures set-up work or the timed operations.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("fields", "poly", "matrix", "ring", "complexes", "variety",
           "pipelines", "serialize", "parser", "cli")

# Public helpers that sit inside the innermost loops (one call per monomial
# product or comparison); wrapping them would multiply the run time without
# telling anything their callers' spans do not.
LEAF_HELPERS = {
    "poly": {"order_key", "monomial_divides", "monomial_div", "monomial_mul"},
    "matrix": {"as_grid", "mat_shape"},
}

# (module, class, method) wrapped in addition to the module-level functions.
METHODS = (
    ("fields", "PrimeField", "mul"),
    ("fields", "PrimeField", "inv"),
    ("fields", "ExtensionField", "mul"),
    ("fields", "ExtensionField", "inv"),
    ("fields", "RationalField", "mul"),
    ("fields", "RationalField", "inv"),
    ("poly", "Poly", "__mul__"),
    ("poly", "Poly", "substitute"),
    ("poly", "Poly", "evaluate"),
    ("ring", "RingSpec", "normal_form"),
    ("ring", "RingSpec", "image_in_kx"),
)

# Spans aggregated only, never stored one by one.
UNSTORED = {f"fields.{cls}.{m}" for _, cls, m in METHODS[:6]} | {"poly.Poly.__mul__"}

# Functions timed by key (size, field) in a round where nothing else is
# wrapped, so their medians carry almost no tracing overhead.
KEYED = ("variety.rank_variety", "variety.rank_over_R", "variety.contractible_at")

# Extra busy-time groups: metric group -> member span names.
GROUPS = {
    "serialize.save": ("serialize.save_ring", "serialize.save_complex", "serialize.save_trace"),
    "serialize.load": ("serialize.load_ring", "serialize.load_complex"),
}


class Aggregate:
    """Per-phase totals: calls, busy time (outermost calls only), self time,
    named counters and per-key duration samples."""

    def __init__(self, n_names: int, n_groups: int):
        self.calls = [0] * n_names
        self.self_s = [0.0] * n_names
        self.busy_s = [0.0] * n_groups
        self.counters: dict[str, int] = defaultdict(int)
        self.keyed_ms: dict[str, list[float]] = defaultdict(list)


class Tracer:
    """Wrappers for one import of ghrv (`gh`), patched in by `install` and
    out by `uninstall`; spans go to the aggregate of the current `phase`."""

    def __init__(self, gh):
        self.names: list[str] = []
        self.group_names: list[str] = []
        self.groups_of: list[tuple[int, ...]] = []
        self.group_depth: list[int] = []
        self.stored: list[bool] = []
        self.active = True
        self.storing = True
        self.op = -1
        self.stack: list[list] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phases: dict[str, Aggregate] = {}
        self.agg: Aggregate | None = None
        self._patches: list[tuple[object, str, object, object, str]] = []
        self._build(gh)

    # -- wrapper construction -------------------------------------------
    def _register(self, name: str) -> int:
        nid = len(self.names)
        self.names.append(name)
        self.stored.append(name not in UNSTORED)
        gids = [self._group(name)]
        for group, members in GROUPS.items():
            if name in members:
                gids.append(self._group(group))
        self.groups_of.append(tuple(gids))
        return nid

    def _group(self, name: str) -> int:
        if name not in self.group_names:
            self.group_names.append(name)
            self.group_depth.append(0)
        return self.group_names.index(name)

    def _build(self, gh):
        namespaces = [gh.pkg] + [getattr(gh, m) for m in MODULES]
        for modname in MODULES:
            mod = getattr(gh, modname)
            skip = LEAF_HELPERS.get(modname, set())
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in skip or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{modname}.{attr}"
                wrapper = self._wrap(name, obj)
                for ns in namespaces:
                    for held, value in list(vars(ns).items()):
                        if value is obj:
                            self._patches.append((ns, held, obj, wrapper, name))
        for modname, clsname, meth in METHODS:
            cls = getattr(getattr(gh, modname), clsname)
            fn = vars(cls)[meth]
            name = f"{modname}.{clsname}.{meth}"
            wrapper = self._wrap(name, fn)
            for held, value in list(vars(cls).items()):
                if value is fn:  # e.g. Poly.__rmul__ is Poly.__mul__
                    self._patches.append((cls, held, fn, wrapper, name))

    def _wrap(self, name: str, fn):
        nid = self._register(name)
        hook = HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn, hook)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame)
            if hook is not None:
                hook(tracer.agg, args, kwargs, result, dur)
            return result

        return wrapper

    def _wrap_generator(self, nid: int, fn, hook):
        """One span per resumption, so the time a consumer spends between
        items is not charged to the generator."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tracer.active:
                return gen

            def resumed():
                while True:
                    frame = tracer._enter(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        tracer._exit(frame)
                        return
                    except BaseException:
                        tracer._exit(frame)
                        raise
                    dur = tracer._exit(frame)
                    if hook is not None:
                        hook(tracer.agg, args, kwargs, item, dur)
                    yield item

            return resumed()

        return wrapper

    # -- span bookkeeping ---------------------------------------------------
    def _enter(self, nid: int) -> list:
        stack = self.stack
        parent = stack[-1][0] if stack else -1
        sid = -1
        if self.storing and self.stored[nid]:
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        depth = self.group_depth
        for gid in self.groups_of[nid]:
            depth[gid] += 1
        frame = [sid, nid, 0.0, 0.0]
        stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def _exit(self, frame: list) -> float:
        end = perf_counter()
        sid, nid, start, child = frame
        self.stack.pop()
        dur = end - start
        agg = self.agg
        agg.calls[nid] += 1
        agg.self_s[nid] += dur - child
        if self.stack:
            self.stack[-1][3] += dur
        depth = self.group_depth
        for gid in self.groups_of[nid]:
            depth[gid] -= 1
            if depth[gid] == 0:
                agg.busy_s[gid] += dur
        if sid >= 0:
            self.span_start[sid] = start
            self.span_end[sid] = end
        return dur

    # -- control ----------------------------------------------------------
    def install(self, only=None):
        """Patch every wrapper in, or only those whose span name is in `only`."""
        for target, attr, _orig, wrapper, name in self._patches:
            if only is None or name in only:
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, orig, _wrapper, _name in reversed(self._patches):
            setattr(target, attr, orig)

    def phase(self, name: str):
        if name not in self.phases:
            self.phases[name] = Aggregate(len(self.names), len(self.group_names))
        self.agg = self.phases[name]

    # -- results ------------------------------------------------------------
    def calls(self, phase: str, name: str) -> int:
        return self.phases[phase].calls[self.names.index(name)]

    def self_s(self, phase: str, name: str) -> float:
        return self.phases[phase].self_s[self.names.index(name)]

    def busy_s(self, phase: str, group: str) -> float:
        return self.phases[phase].busy_s[self.group_names.index(group)]

    def counter(self, phase: str, key: str) -> int:
        return self.phases[phase].counters.get(key, 0)

    def keyed_median_ms(self, phase: str, key: str) -> float:
        samples = self.phases[phase].keyed_ms.get(key)
        return statistics.median(samples) if samples else 0.0

    @property
    def span_count(self) -> int:
        return len(self.span_name)

    def write_spans(self, path: str):
        """Gzipped text: a JSON header naming the columns and span names,
        then one line per stored span, `name parent op start end`, with
        times in seconds from the first span's start."""
        base = self.span_start[0] if self.span_start else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"columns": ["name", "parent", "op", "start", "end"],
                                 "names": self.names}) + "\n")
            rows = zip(self.span_name, self.span_parent, self.span_op,
                       self.span_start, self.span_end)
            fh.writelines(f"{n} {p} {o} {s - base:.7f} {e - base:.7f}\n" for n, p, o, s, e in rows)


# ---------------------------------------------------------------------------
# hooks: counts and keyed timings read from arguments and results
# ---------------------------------------------------------------------------

def _size_key(prefix: str):
    def hook(agg, args, kwargs, result, dur):
        agg.keyed_ms[f"{prefix}.n{args[0].size}_ms"].append(dur * 1000)
    return hook


def _rank_over_r(agg, args, kwargs, result, dur):
    agg.keyed_ms[f"variety.rank_over_R.n{len(args[0])}_ms"].append(dur * 1000)


def _contractible_at(agg, args, kwargs, result, dur):
    if hasattr(args[1], "coords"):  # a projective point, not a perturbed Alpha
        agg.counters["variety.points_scanned"] += 1
    field = getattr(args[1], "field", None)
    if getattr(field, "order", None) == 25:
        agg.keyed_ms[f"variety.contractible_at.gf25_n{args[0].size}_ms"].append(dur * 1000)


def _all_minors(agg, args, kwargs, item, dur):
    agg.counters["matrix.all_minors.yielded"] += 1


def _minor_ideal_image(agg, args, kwargs, result, dur):
    if args[1] > 0:
        agg.counters["variety.minor_ideal_image.kept"] += len(result.gens)


def _realize(agg, args, kwargs, result, dur):
    agg.counters["pipelines.realize.verified_points"] += result.verified_points


def _bytes(key: str, index: int):
    def hook(agg, args, kwargs, result, dur):
        agg.counters[key] += os.path.getsize(args[index])
    return hook


HOOKS = {
    "variety.rank_variety": _size_key("variety.rank_variety"),
    "variety.rank_over_R": _rank_over_r,
    "variety.contractible_at": _contractible_at,
    "variety.minor_ideal_image": _minor_ideal_image,
    "matrix.all_minors": _all_minors,
    "pipelines.realize": _realize,
    "serialize.save_ring": _bytes("serialize.bytes_written", 1),
    "serialize.save_complex": _bytes("serialize.bytes_written", 1),
    "serialize.save_trace": _bytes("serialize.bytes_written", 1),
    "serialize.load_ring": _bytes("serialize.bytes_read", 0),
    "serialize.load_complex": _bytes("serialize.bytes_read", 0),
}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _calls(name, phase="ops"):
    return lambda t: t.calls(phase, name)


def _self(name):
    return lambda t: t.self_s("ops", name)


def _busy(group, phase="ops"):
    return lambda t: t.busy_s(phase, group)


def _keyed(key):
    return lambda t: t.keyed_median_ms("plain", key)


def _count(key):
    return lambda t: t.counter("ops", key)


def _minor_yield(t):
    enumerated = t.counter("ops", "matrix.all_minors.yielded")
    kept = t.counter("ops", "variety.minor_ideal_image.kept")
    return kept / enumerated if enumerated else 0.0


# metric name -> (unit, reader).  `calls`, `count` and `bytes` are exact
# counts; `s`, `ms` are timings; `ratio` is a quotient of counts.
LAYER_METRICS = {
    "matrix.all_minors.yielded": ("count", _count("matrix.all_minors.yielded")),
    "matrix.all_minors.self_s": ("s", _self("matrix.all_minors")),
    "variety.minor_yield": ("ratio", _minor_yield),
    "variety.minor_ideal_image.busy_s": ("s", _busy("variety.minor_ideal_image")),
    "variety.rank_variety.n8_ms": ("ms", _keyed("variety.rank_variety.n8_ms")),
    "ring.normal_form.calls": ("count", _calls("ring.RingSpec.normal_form")),
    "ring.normal_form.busy_s": ("s", _busy("ring.RingSpec.normal_form")),
    "ring.image_in_kx.calls": ("count", _calls("ring.RingSpec.image_in_kx")),
    "poly.mul.calls": ("count", _calls("poly.Poly.__mul__")),
    "poly.mul.self_s": ("s", _self("poly.Poly.__mul__")),
    "poly.divide_single.calls": ("count", _calls("poly.divide_single")),
    "poly.divide_single.self_s": ("s", _self("poly.divide_single")),
    "fields.ext.mul.calls": ("count", _calls("fields.ExtensionField.mul")),
    "fields.ext.mul.self_s": ("s", _self("fields.ExtensionField.mul")),
    "fields.ext.inv.calls": ("count", _calls("fields.ExtensionField.inv")),
    "fields.prime.mul.calls": ("count", _calls("fields.PrimeField.mul")),
    "fields.qq.mul.calls": ("count", _calls("fields.RationalField.mul")),
    "ring.specialize.calls": ("count", _calls("ring.specialize")),
    "ring.specialize.busy_s": ("s", _busy("ring.specialize")),
    "poly.substitute.calls": ("count", _calls("poly.Poly.substitute")),
    "poly.substitute.self_s": ("s", _self("poly.Poly.substitute")),
    "matrix.rank_over_field.calls": ("count", _calls("matrix.rank_over_field")),
    "matrix.rank_over_field.busy_s": ("s", _busy("matrix.rank_over_field")),
    "variety.contractible_at.calls": ("count", _calls("variety.contractible_at")),
    "variety.contractible_at.busy_s": ("s", _busy("variety.contractible_at")),
    "variety.contractible_at.gf25_n8_ms": ("ms", _keyed("variety.contractible_at.gf25_n8_ms")),
    "variety.contractible_at.gf25_n16_ms": ("ms", _keyed("variety.contractible_at.gf25_n16_ms")),
    "variety.contractible_at.gf25_n32_ms": ("ms", _keyed("variety.contractible_at.gf25_n32_ms")),
    "variety.points_scanned": ("count", _count("variety.points_scanned")),
    "variety.rank_over_R.busy_s": ("s", _busy("variety.rank_over_R")),
    "variety.rank_over_R.n8_ms": ("ms", _keyed("variety.rank_over_R.n8_ms")),
    "variety.rank_over_R.n16_ms": ("ms", _keyed("variety.rank_over_R.n16_ms")),
    "variety.rank_over_R.n32_ms": ("ms", _keyed("variety.rank_over_R.n32_ms")),
    "matrix.rank_over_domain.busy_s": ("s", _busy("matrix.rank_over_domain")),
    "complexes.cone_mul.busy_s": ("s", _busy("complexes.cone_mul")),
    "complexes.shamash_resolution.busy_s": ("s", _busy("complexes.shamash_resolution")),
    "complexes.certify.busy_s": ("s", _busy("complexes.validate_pair")),
    "matrix.mat_mul.busy_s": ("s", _busy("matrix.mat_mul")),
    "pipelines.realize.busy_s": ("s", _busy("pipelines.realize")),
    "pipelines.realize.verified_points": ("count", _count("pipelines.realize.verified_points")),
    "serialize.bytes_written": ("bytes", _count("serialize.bytes_written")),
    "serialize.bytes_read": ("bytes", _count("serialize.bytes_read")),
    "serialize.save.busy_s": ("s", _busy("serialize.save")),
    "serialize.load.busy_s": ("s", _busy("serialize.load")),
    "parser.parse_poly.calls": ("count", _calls("parser.parse_poly")),
    "parser.parse_poly.busy_s": ("s", _busy("parser.parse_poly")),
    "cli.run.self_s": ("s", _self("cli.run")),
    "fields.make_extension.calls": ("count", _calls("fields.make_extension", "setup")),
    "fields.make_extension.busy_s": ("s", _busy("fields.make_extension", "setup")),
}


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    return {name: (reader(tracer), unit) for name, (unit, reader) in LAYER_METRICS.items()}
