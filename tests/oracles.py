"""Independent reference implementations used to validate the package.

Everything here is deliberately written from scratch with plain Python
loops (and exact rational arithmetic where it matters), sharing no code
with the package internals.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def bit_tuples(M: int) -> list[tuple[int, ...]]:
    """All non-all-zero binary tuples, ascending as binary integers."""
    out = []
    for code in range(1, 2**M):
        out.append(tuple((code >> (M - 1 - j)) & 1 for j in range(M)))
    return out


def enum_pattern_probs(rates) -> dict[tuple[int, ...], Fraction]:
    """Exact truncated pattern distribution by direct enumeration."""
    M = len(rates)
    fracs = [Fraction(r) for r in rates]
    all_missing = math.prod(fracs)
    denom = 1 - all_missing
    probs = {}
    for bits in bit_tuples(M):
        num = Fraction(1)
        for b, r in zip(bits, fracs):
            num *= (1 - r) if b else r
        probs[bits] = num / denom
    return probs


def enum_marginal(rates, m: int) -> float:
    """Exact P(bit m = 0) as the correctly rounded rational sum."""
    total = sum(
        p for bits, p in enum_pattern_probs(rates).items() if bits[m] == 0
    )
    return float(total)


def brute_mei(
    scores: dict[tuple[int, ...], float],
    higher_better: bool,
    eps: float,
    mode: str,
) -> tuple[float, float, list[float]]:
    """(index value, H2, p) recomputed from scratch from a score table.

    `scores` maps every non-all-zero bit tuple (including all-ones) to
    its metric value. `mode` is 'balanced' or 'dominance'.
    """
    M = len(next(iter(scores)))
    full = scores[tuple([1] * M)]
    zetas = []
    for m in range(M):
        drops = []
        for bits in bit_tuples(M):
            if bits[m] == 1:
                continue
            s = scores[bits]
            drops.append(full - s if higher_better else s - full)
        mu = sum(drops) / len(drops)
        var = sum((d - mu) ** 2 for d in drops) / len(drops)
        zetas.append(mu / (math.sqrt(var) + eps))
    total = sum(abs(z) for z in zetas)
    p = [abs(z) / (total + eps) for z in zetas]
    h2 = -math.log(sum(x * x for x in p))
    ratio = h2 / math.log(M)
    value = ratio if mode == "balanced" else 1.0 - ratio
    return min(1.0, max(0.0, value)), h2, p


def brute_mli(grid) -> tuple[float, float]:
    """(index value, raw inner term) recomputed with plain loops."""
    T = len(grid)
    M = len(grid[0])
    deltas = [
        [abs(grid[t][m] - grid[t - 1][m]) for m in range(M)] for t in range(1, T)
    ]
    dbar = [sum(row) / M for row in deltas]
    peak = max(dbar)
    if peak == 0:
        return 0.0, 0.0
    inner = sum(
        abs(dbar[t] - deltas[t][m]) for t in range(T - 1) for m in range(M)
    )
    raw = inner / (peak * (T - 1) * M)
    return min(1.0, max(0.0, raw ** (1.0 / M))), raw


def fd_gradient(loss_fn, theta: np.ndarray, index: tuple, step: float = 1e-5) -> float:
    """Central finite difference of loss_fn at one coordinate of theta."""
    theta_plus = theta.copy()
    theta_plus[index] += step
    theta_minus = theta.copy()
    theta_minus[index] -= step
    return (loss_fn(theta_plus) - loss_fn(theta_minus)) / (2 * step)


def random_rate_vector(rng: np.random.Generator, M: int, low: float = 0.0,
                       high: float = 0.95) -> tuple[float, ...]:
    return tuple(float(r) for r in rng.uniform(low, high, size=M))


def zero_imputed_forward(model, features, bits) -> np.ndarray:
    """Toy-model head output with each missing modality's input set to zeros.

    Every encoder runs on its input, zero-filled or not, as the model is
    defined; the package instead adds relu(b_m) for a missing modality.
    The matrix products use numpy's `@` on the same shapes as the package,
    so the two agree bit for bit and can be compared with `==`.
    """
    fused = None
    for x, W, b, bit in zip(features, model.enc_W, model.enc_b, bits):
        x_in = np.asarray(x, dtype=np.float64)
        if not bit:
            x_in = np.zeros_like(x_in)
        h = np.maximum(x_in @ W + b, 0.0)
        fused = h if fused is None else fused + h
    return fused @ model.fus_W + model.fus_b


def brute_trace_grid(samples, M: int, K: int) -> list[list[float]]:
    """G_m(t) grid from gradient-norm rows (step, modality, module, grad_l2).

    Each logged (step, modality) cell adds its K module norms one by one
    in module order and divides by K. An unlogged cell takes the
    modality's value at the previous logged step, or at its first logged
    step when no earlier one exists. Rows are one per distinct step.
    """
    cells = {}
    for s in samples:
        cells.setdefault((s.step, s.modality), {})[s.module] = s.grad_l2
    grid = []
    for step in sorted({step for step, _ in cells}):
        row = []
        for m in range(M):
            per_module = cells.get((step, m))
            if per_module is None:
                row.append(None)
                continue
            total = 0.0
            for k in range(K):
                total += per_module[k]
            row.append(total / K)
        grid.append(row)
    for m in range(M):
        last = next(row[m] for row in grid if row[m] is not None)
        for row in grid:
            if row[m] is None:
                row[m] = last
            else:
                last = row[m]
    return grid


def philox_mask_rows(rates, start: int, stop: int, seed: int) -> np.ndarray:
    """Mask rows start..stop-1 drawn one row at a time from numpy's own Philox.

    Row i gets a fresh `Generator(Philox(key=seed, counter=i << 64))` and
    redraws `random(M) >= rates` until some modality is observed. Returns
    an (stop - start, M) int8 array.
    """
    r = np.asarray(rates, dtype=np.float64)
    out = np.empty((stop - start, r.size), dtype=np.int8)
    for i in range(start, stop):
        rng = np.random.Generator(np.random.Philox(key=seed, counter=i << 64))
        while True:
            bits = rng.random(r.size) >= r
            if bits.any():
                break
        out[i - start] = bits
    return out


def plain_mask_csv(names, masks) -> bytes:
    """`maskmatrix-v1` file bytes written with one f-string per row."""
    lines = ["sample_id," + ",".join(names)]
    for i, row in enumerate(masks.tolist()):
        lines.append(f"{i}," + ",".join(str(b) for b in row))
    return ("\n".join(lines) + "\n").encode("utf-8")
