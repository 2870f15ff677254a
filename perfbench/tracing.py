"""Span tracing of apgate's layers, measured from outside the package.

``install(tracer)`` wraps each layer entry point at the name its caller looks
up (``protocols`` and ``cli`` import functions by name, so the same function
may be patched in two modules) and ``uninstall`` restores the originals.
Spans (name, start, end, parent, run id, attributes) are kept in memory;
``layer_metrics`` turns them into per-layer counts, busy times and self times.
"""
from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

# (module, attribute, span name).  Every entry is a function looked up as a
# module global at call time, so replacing the attribute intercepts the call.
PATCH_POINTS = (
    ("apgate.cli", "_build_parser", "cli.parse"),
    ("apgate.cli", "_resolve_config", "config.load"),
    ("apgate.cli", "_dispatch", "protocols.run"),
    ("apgate.cli", "_emit", "cli.emit"),
    ("apgate.protocols", "_protocol_tables", "protocols.tables"),
    ("apgate.protocols", "gate_branch_amplitudes", "cavity.branch"),
    ("apgate.protocols", "jitter_nodes", "pulse.jitter_nodes"),
    ("apgate.protocols", "_sample_records", "protocols.sample"),
    ("apgate.protocols", "_reconstruct", "protocols.reconstruct"),
    ("apgate.protocols", "linear_inversion", "tomography.linv"),
    ("apgate.protocols", "mle_reconstruct", "tomography.mle"),
    ("apgate.tomography", "mle_reconstruct", "tomography.mle"),
    ("apgate.protocols", "monte_carlo_errors", "tomography.bootstrap"),
    ("apgate.protocols", "simulate_counts", "tomography.simulate"),
    ("apgate.protocols", "fidelity_pure", "qlin.fidelity"),
    ("apgate.protocols", "optimal_phase_fidelity", "qlin.fidelity"),
)

ROOT_SPAN = "run"


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    run_id: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for a single thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.run_id = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def run(self, run_id: int, fn, *args):
        """Call ``fn(*args)`` under a root span of run ``run_id``."""
        self.run_id = run_id
        index = self.open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self.close(index)

    def to_json(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run_id, **s.attrs}
                for s in self.spans]


def _mle_attrs(fn):
    default_cap = inspect.signature(fn).parameters["max_iter"].default

    def attrs(args, kwargs, report):
        return {"iterations": report.iterations,
                "history": len(report.ll_history),
                "max_iter": kwargs.get("max_iter", default_cap)}
    return attrs


def _emit_attrs(args, kwargs, result):
    out_dir = Path(args[1])
    return {"bytes": sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())}


_ATTRS = {
    "pulse.jitter_nodes": lambda fn: lambda a, k, r: {"nodes": len(r[0])},
    "protocols.reconstruct": lambda fn: lambda a, k, r: {"method": r[1]},
    "tomography.mle": _mle_attrs,
    "cli.emit": lambda fn: _emit_attrs,
}


def _wrap(tracer: Tracer, name: str, fn):
    attrs = _ATTRS[name](fn) if name in _ATTRS else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if attrs is not None:
            tracer.spans[index].attrs = attrs(args, kwargs, result)
        return result
    return traced


def install(tracer: Tracer, modules: Dict[str, object]) -> list:
    """Patch every entry point; returns what ``uninstall`` needs to undo it."""
    saved = []
    for module_name, attr, span_name in PATCH_POINTS:
        module = modules[module_name]
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tracer, span_name, original))
    return saved


def uninstall(saved: list):
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def _self_times(spans: List[Span]) -> List[float]:
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: List[Span]) -> dict:
    """Per-layer counts and times (seconds) over every traced run."""
    own = _self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum((spans[i].duration for i in by_name.get(name, ())), 0.0)

    def self_total(name):
        return sum((own[i] for i in by_name.get(name, ())), 0.0)

    def count(name):
        return len(by_name.get(name, ()))

    roots = by_name.get(ROOT_SPAN, [])
    wall = sum(spans[i].duration for i in roots)
    covered = sum(spans[i].duration for i in range(len(spans))
                  if spans[i].parent is not None and spans[spans[i].parent].name == ROOT_SPAN)
    mle = [spans[i] for i in by_name.get("tomography.mle", ())]
    iterations = sum(s.attrs["iterations"] for s in mle)
    reconstructions = [spans[i].attrs["method"] for i in by_name.get("protocols.reconstruct", ())]
    in_bootstrap = sum(1 for s in mle
                       if s.parent is not None and spans[s.parent].name == "tomography.bootstrap")
    mle_s = total("tomography.mle")
    return {
        "cavity.branch_calls": count("cavity.branch"),
        "cavity.branch_s": total("cavity.branch"),
        "pulse.jitter_nodes": sum(spans[i].attrs["nodes"]
                                  for i in by_name.get("pulse.jitter_nodes", ())),
        "protocols.tables_calls": count("protocols.tables"),
        "protocols.tables_s": total("protocols.tables"),
        "protocols.tables_share": total("protocols.tables") / wall if wall else 0.0,
        "protocols.sample_s": total("protocols.sample"),
        "protocols.driver_self_s": self_total("protocols.run"),
        "tomography.linv_calls": count("tomography.linv"),
        "tomography.linv_s": total("tomography.linv"),
        "tomography.mle_fallback_frac": (reconstructions.count("mle") / len(reconstructions)
                                         if reconstructions else 0.0),
        "tomography.mle_fits": len(mle),
        "tomography.mle_s": mle_s,
        "tomography.mle_iterations": iterations,
        "tomography.mle_us_per_iter": 1e6 * mle_s / iterations if iterations else 0.0,
        "tomography.mle_hit_max_iter": sum(1 for s in mle
                                           if s.attrs["iterations"] == s.attrs["max_iter"]),
        "tomography.mle_stalled": sum(1 for s in mle
                                      if s.attrs["history"] == s.attrs["iterations"]),
        "tomography.bootstrap_replicas": in_bootstrap,
        "tomography.bootstrap_s": total("tomography.bootstrap"),
        "tomography.bootstrap_self_s": self_total("tomography.bootstrap"),
        "tomography.simulate_s": total("tomography.simulate"),
        "qlin.fidelity_calls": count("qlin.fidelity"),
        "qlin.fidelity_s": total("qlin.fidelity"),
        "config.load_s": total("config.load"),
        "cli.emit_s": total("cli.emit"),
        "cli.emit_bytes": sum(spans[i].attrs["bytes"] for i in by_name.get("cli.emit", ())),
        "trace.coverage": covered / wall if wall else 0.0,
        "trace.runs": len(roots),
        "trace.wall_s": wall,
    }


def self_time_by_layer(spans: List[Span]) -> List[list]:
    """[span name, summed self time] pairs, largest first."""
    totals: Dict[str, float] = {}
    for s, t in zip(spans, _self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return sorted(([name, t] for name, t in totals.items()), key=lambda kv: -kv[1])
