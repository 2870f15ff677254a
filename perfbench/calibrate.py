"""Reference loop that measures how fast the host runs right now.

On a shared host the speed of one core drifts by tens of per cent within
minutes, and every timing of apgate drifts with it.  ``reference_seconds``
times a fixed piece of work shaped like apgate's own: small complex arrays
contracted and moved in a Python loop, as in the outcome-table engine, then
diluted R-rho-R steps on 216 random 8x8 projectors, as in the MLE.  It uses
numpy and the standard library only, so no change to apgate can change it.
``run.py`` takes a sample between runs and scales each run's time by
``NOMINAL_S`` over the mean of the samples just before and after it: a scaled
time reads as the time on a host where this loop takes ``NOMINAL_S``.

Run as a script to print the median of a few samples::

    python3 perfbench/calibrate.py
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Roughly the loop's time on a quiet 2-core x86 VM (Python 3.11, numpy 2.4,
# OpenBLAS on one thread); only the scale of the scaled times depends on it.
NOMINAL_S = 0.020

_TABLE_ROUNDS = 300
_FIT_ROUNDS = 60


def _table_work() -> float:
    rng = np.random.default_rng(12345)
    mat = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    mat /= np.linalg.norm(mat)
    state = np.full((2, 2, 2), 1.0 / np.sqrt(8.0), dtype=complex)
    projs = np.einsum("oi,oj->oij", np.eye(4, dtype=complex), np.eye(4, dtype=complex))
    acc, table = 0.0, {}
    for k in range(_TABLE_ROUNDS):
        axis = k % 3
        state = np.moveaxis(np.tensordot(mat, state, axes=([1], [axis])), 0, axis)
        state /= np.linalg.norm(state)
        rho = np.outer(state[0].reshape(-1), state[0].reshape(-1).conj())
        probs = np.einsum("rij,ji->r", projs, rho).real
        if k % 8 == 0:
            acc += float(np.linalg.eigvalsh(rho + rho.conj().T)[-1])
        table[f"k{k % 16}"] = round(float(probs.sum()), 6)
        acc += sum(table.values())
    return acc


def _fit_work() -> float:
    rng = np.random.default_rng(54321)
    bras = rng.standard_normal((216, 8)) + 1j * rng.standard_normal((216, 8))
    bras /= np.linalg.norm(bras, axis=1, keepdims=True)
    projs = np.einsum("oi,oj->oij", bras, bras.conj())
    counts = rng.integers(1, 200, size=216).astype(float)
    total = counts.sum()
    rho = np.eye(8, dtype=complex) / 8.0
    for _ in range(_FIT_ROUNDS):
        probs = np.clip(np.einsum("rij,ji->r", projs, rho).real, 1e-12, None)
        r_op = np.einsum("r,rij->ij", counts / probs / total, projs)
        rho = 0.9 * (r_op @ rho @ r_op) + 0.1 * rho
        rho = 0.5 * (rho + rho.conj().T)
        rho /= np.trace(rho).real
    return float(np.linalg.eigvalsh(rho)[-1])


def reference_seconds() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _table_work()
    _fit_work()
    return time.perf_counter() - t0


if __name__ == "__main__":
    _table_work()
    _fit_work()
    print(f"{statistics.median(reference_seconds() for _ in range(25)):.5f} s "
          f"(nominal {NOMINAL_S} s)")
