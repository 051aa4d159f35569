"""In-memory span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function of the traced ``contqkd``
modules, plus ``SphereQuadrature.gauss_product``, in a span, and rebinds the
wrapper in every ``contqkd`` module that imported the original name (for
example ``nonselected_information`` is also bound in ``security`` and
``cli``).  A span records its name, start, end, parent and whether an
exception escaped it.  Spans stay in memory; ``layer_metrics`` turns them
into the per-layer figures once the pass has ended.

Spans wrap calls at module boundaries only; nothing inside ``src/`` is
edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

MODULES = ("cli", "security", "infocalc", "attack", "qstate", "protosim")

# Spans whose union time is reported under one per-layer name.
QUADRATURE_SPANS = ("infocalc.SphereQuadrature.gauss_product", "infocalc.default_quadrature")
EMPIRICAL_MI_SPANS = ("protosim.empirical_mi", "protosim.empirical_mi_with_probe")

# Harness spans opened by the benchmark itself around set-up and the pass.
SETUP_SPAN, PASS_SPAN = "bench.setup", "bench.pass"

# Per-layer metric names and units, in report order.
LAYER_UNITS = {
    "infocalc.nonselected_information.calls": "count",
    "infocalc.nonselected_information.s": "s",
    "infocalc.nonselected_information.p50_ms": "ms",
    "infocalc.quadrature.s": "s",
    "security.critical_point.s": "s",
    "security.critical_point.evals": "count",
    "security.reconciled_i_ab.calls": "count",
    "security.reconciled_i_ab.s": "s",
    "security.qber_sphere_averaged.s": "s",
    "attack.attacked_state.calls": "count",
    "attack.attacked_state.s": "s",
    "attack.bipartite_reductions.calls": "count",
    "attack.bipartite_reductions.s": "s",
    "qstate.partial_trace.calls": "count",
    "qstate.partial_trace.s": "s",
    "protosim.run_protocol.s": "s",
    "protosim.run_protocol.rounds_per_s": "1/s",
    "protosim.write_transcript.s": "s",
    "protosim.write_transcript.mb_per_s": "MB/s",
    "protosim.read_transcript.s": "s",
    "protosim.read_transcript.mb_per_s": "MB/s",
    "protosim.empirical_mi.calls": "count",
    "protosim.empirical_mi.s": "s",
    "protosim.sift.s": "s",
    "protosim.sift.keep_ratio": "ratio",
    "cli.run.s": "s",
    "cli.bytes_written": "bytes",
    **{f"{m}.self_s": "s" for m in MODULES},
    "bench.self_s": "s",
    **{f"{m}.errors": "count" for m in MODULES},
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Extra figures recorded on the spans that need them: (fn, args, kwargs, result) -> attrs.
_ATTRS = {
    "protosim.run_protocol": lambda fn, a, k, r: {"rounds": len(r)},
    "protosim.write_transcript": lambda fn, a, k, r: {
        "bytes": os.path.getsize(_bound(fn, a, k)["path"])
    },
    "protosim.read_transcript": lambda fn, a, k, r: {
        "bytes": os.path.getsize(_bound(fn, a, k)["path"])
    },
    "protosim.sift": lambda fn, a, k, r: {"rounds_in": len(_bound(fn, a, k)["transcript"]), "rounds_out": len(r)},
}


class Tracer:
    """Records nested spans of one single-threaded pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, error: bool = False) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.error = error
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Harness span around set-up or the pass."""
        idx = self._open(name)
        try:
            yield
        except Exception:
            self._close(idx, error=True)
            raise
        self._close(idx)

    def wrap(self, name: str, fn):
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(idx, error=True)
                raise
            self._close(idx)
            if attrs is not None:
                self.spans[idx].attrs = attrs(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of the traced modules."""
        import contqkd  # noqa: F401  (loads every submodule)
        from contqkd.infocalc import SphereQuadrature

        wrappers: dict[int, tuple] = {}
        for short in MODULES:
            mod = sys.modules[f"contqkd.{short}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        # Rebind in every module that holds the original object, so calls
        # through re-exports and `from x import y` bindings are traced too.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "contqkd" or mod_name.startswith("contqkd.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        gauss = SphereQuadrature.__dict__["gauss_product"].__func__
        SphereQuadrature.gauss_product = classmethod(self.wrap(QUADRATURE_SPANS[0], gauss))


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def _has_ancestor(spans: list[Span], idx: int, names) -> bool:
    parent = spans[idx].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """Per-layer figures of one traced pass (set-up spans included)."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(*names: str) -> float:
        # Union time of a group: spans nested inside another span of the
        # group are already covered by it.
        return sum(
            spans[i].duration
            for n in names
            for i in by_name.get(n, ())
            if not _has_ancestor(spans, i, names)
        )

    def attr_sum(name: str, key: str) -> float:
        return sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ()))

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    ns = [spans[i].duration for i in by_name.get("infocalc.nonselected_information", ())]
    m: dict[str, float] = {
        "infocalc.nonselected_information.calls": len(ns),
        "infocalc.nonselected_information.s": sum(ns),
        "infocalc.nonselected_information.p50_ms": 1e3 * statistics.median(ns) if ns else 0.0,
        "infocalc.quadrature.s": total(*QUADRATURE_SPANS),
        "security.critical_point.s": total("security.critical_point"),
        "security.critical_point.evals": sum(
            1
            for i in by_name.get("attack.attacked_state", ())
            if _has_ancestor(spans, i, ("security.critical_point",))
        ),
        "security.reconciled_i_ab.calls": calls("security.reconciled_i_ab"),
        "security.reconciled_i_ab.s": total("security.reconciled_i_ab"),
        "security.qber_sphere_averaged.s": total("security.qber_sphere_averaged"),
    }
    for name in ("attack.attacked_state", "attack.bipartite_reductions", "qstate.partial_trace"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    for name, unit_key, scale, metric in (
        ("protosim.run_protocol", "rounds", 1.0, "rounds_per_s"),
        ("protosim.write_transcript", "bytes", 1e-6, "mb_per_s"),
        ("protosim.read_transcript", "bytes", 1e-6, "mb_per_s"),
    ):
        seconds = total(name)
        m[f"{name}.s"] = seconds
        m[f"{name}.{metric}"] = rate(scale * attr_sum(name, unit_key), seconds)
    m["protosim.empirical_mi.calls"] = sum(calls(n) for n in EMPIRICAL_MI_SPANS)
    m["protosim.empirical_mi.s"] = total(*EMPIRICAL_MI_SPANS)
    rounds_in = attr_sum("protosim.sift", "rounds_in")
    m["protosim.sift.s"] = total("protosim.sift")
    m["protosim.sift.keep_ratio"] = attr_sum("protosim.sift", "rounds_out") / rounds_in if rounds_in else 0.0
    m["cli.run.s"] = total("cli.run")
    m["cli.bytes_written"] = bytes_written

    # Self time along the pass: a span's duration minus its children's.
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    (root,) = by_name[PASS_SPAN]
    self_s = {mod: 0.0 for mod in (*MODULES, "bench")}
    for i, s in enumerate(spans):
        if i == root or _has_ancestor(spans, i, (PASS_SPAN,)):
            self_s[_module(s.name)] += s.duration - child_time[i]
    for mod, value in self_s.items():
        m[f"{mod}.self_s"] = value
    for mod in MODULES:
        m[f"{mod}.errors"] = sum(1 for s in spans if s.error and _module(s.name) == mod)
    wall = spans[root].duration
    m["trace.traced_wall_s"] = wall
    m["trace.coverage"] = 1.0 - self_s["bench"] / wall if wall > 0 else 0.0
    return m

