"""Density-matrix channel composition: an independent route to the engine's tables.

The protocol engine works on branch amplitudes and Born vectors; these
helpers build the same physics as Kraus channels on density matrices, so the
engine cross-check tests can compare the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from apgate.cavity import CavityParams, gate_branch_amplitudes
from apgate.qlin import HERMITICITY_TOL, DensityMatrix, PostSelectionError


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Set of Kraus operators; trace-decreasing channels model post-selected loss."""

    kraus_ops: tuple
    trace_preserving: bool = True

    def __post_init__(self):
        ops = tuple(np.array(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("Kraus operators must be square")
        if any(k.shape != shape for k in ops):
            raise ValueError("Kraus operators must share one dimension")
        total = sum(k.conj().T @ k for k in ops)
        if self.trace_preserving:
            if np.max(np.abs(total - np.eye(shape[0]))) > HERMITICITY_TOL:
                raise ValueError("Kraus operators do not satisfy completeness")
        elif np.linalg.eigvalsh(total)[-1] > 1.0 + HERMITICITY_TOL:
            raise ValueError("Kraus operators exceed the trace-decreasing bound")
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus_ops", ops)

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


def apply_channel(rho: DensityMatrix, ch: KrausChannel):
    """Apply a Kraus channel; returns (normalized state, success probability)."""
    if ch.dim != rho.dim:
        raise ValueError("channel and state dimensions differ")
    out = np.zeros_like(rho.entries)
    for k in ch.kraus_ops:
        out = out + k @ rho.entries @ k.conj().T
    if ch.trace_preserving:
        return DensityMatrix(out), 1.0
    prob = float(np.trace(out).real)
    if prob < 1e-12:
        raise PostSelectionError("channel output has zero trace")
    return DensityMatrix(out / prob), prob


def mode_mismatch_channel(overlap: float, losses,
                          params: CavityParams = CavityParams()) -> KrausChannel:
    """Gate with probability ``overlap``; otherwise the photon reflects off the
    mirror surface with amplitude +1 (no conditional phase, no loss)."""
    if not 0.0 <= overlap <= 1.0:
        raise ValueError("overlap must lie in [0, 1]")
    gate = np.diag(gate_branch_amplitudes(params, losses, delta=0.0))
    ops = []
    if overlap > 0.0:
        ops.append(math.sqrt(overlap) * gate)
    if overlap < 1.0:
        ops.append(math.sqrt(1.0 - overlap) * np.eye(4, dtype=complex))
    preserving = losses[0] == 0.0 and losses[1] == 0.0
    return KrausChannel(tuple(ops), trace_preserving=preserving)
