"""Independent reference implementations used to validate the package.

Everything here is deliberately written from scratch with plain Python
loops (and exact rational arithmetic where it matters), sharing no code
with the package internals.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

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


def scalar_pattern_probability(rates, bits) -> float:
    """One pattern's probability in float64, multiplied out one modality at a time.

    prod_m (1 - r_m)^e[m] r_m^(1 - e[m]) / (1 - prod_m r_m), with both
    products taken in modality order: the reference for `==` checks.
    """
    num = 1.0
    all_missing = 1.0
    for r, e in zip(rates, bits):
        num *= (1.0 - r) if e else r
        all_missing *= r
    return num / (1.0 - all_missing)


def enum_marginal(rates, m: int) -> float:
    """Exact P(bit m = 0) as the correctly rounded rational sum."""
    total = sum(
        p for bits, p in enum_pattern_probs(rates).items() if bits[m] == 0
    )
    return float(total)


def plain_drops(scores: dict[tuple[int, ...], float], higher_better: bool,
                m: int) -> list[float]:
    """Drops from the all-ones score over the patterns without modality m.

    `scores` maps every non-all-zero bit tuple to its metric value. The
    patterns come in ascending binary order, and a positive drop always
    means the score got worse.
    """
    M = len(next(iter(scores)))
    full = scores[tuple([1] * M)]
    drops = []
    for bits in bit_tuples(M):
        if bits[m] == 1:
            continue
        s = scores[bits]
        drops.append(full - s if higher_better else s - full)
    return drops


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
    zetas = []
    for m in range(M):
        drops = plain_drops(scores, higher_better, m)
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


def brute_trace_grid(rows, M: int, K: int) -> list[list[float]]:
    """G_m(t) grid from gradient-norm rows, (step, modality, module, grad_l2) tuples.

    Each logged (step, modality) cell adds its K module norms one by one
    in module order and divides by K. An unlogged cell takes the
    modality's value at the previous logged step, or at its first logged
    step when no earlier one exists. Rows are one per distinct step.
    """
    cells = {}
    for step, modality, module, grad_l2 in rows:
        cells.setdefault((step, modality), {})[module] = grad_l2
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


def per_attempt_sample_rows(r: np.ndarray, rows: np.ndarray, seed: int) -> np.ndarray:
    """`protocol._sample_rows` as it was before it drew several attempts per kernel call.

    All rows make the first attempt together; every later attempt is one
    `protocol._philox_words` call for the rows still rejected. Returns the
    (len(rows), M) bool rows.
    """
    from missdiag.protocol import _philox_words

    M = r.size
    thresholds = np.ceil(r * 2.0**53).astype(np.uint64)
    bits = np.empty((rows.size, M), dtype=bool)
    pending = np.arange(rows.size)
    attempt = 0
    while pending.size:
        word = attempt * M
        block = word // 4
        count = (word + M - 1) // 4 - block + 1
        words = _philox_words(seed, rows[pending], block, count)
        skip = word - 4 * block
        draw = (words[:, skip : skip + M] >> 11) >= thresholds
        bits[pending] = draw
        pending = pending[~draw.any(axis=1)]
        attempt += 1
    return bits


def mean_empirical_rates(masks: np.ndarray) -> np.ndarray:
    """Missing fraction per modality as `protocol.empirical_rates` took it: 1 - column means."""
    return 1.0 - np.asarray(masks).mean(axis=0)


def matmul_pattern_counts(masks: np.ndarray) -> np.ndarray:
    """`protocol.pattern_counts` as an int64 product of the rows with the code weights."""
    M = masks.shape[1]
    weights = np.array([1 << (M - 1 - m) for m in range(M)], dtype=np.int64)
    codes = np.asarray(masks, dtype=np.int64) @ weights
    return np.bincount(codes, minlength=1 << M)[1:]


def plain_mask_csv(names, masks) -> bytes:
    """`maskmatrix-v1` file bytes written with one f-string per row."""
    lines = ["sample_id," + ",".join(names)]
    for i, row in enumerate(masks.tolist()):
        lines.append(f"{i}," + ",".join(str(b) for b in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _alloc_mulhilo(a: np.ndarray, multiplier: int) -> tuple[np.ndarray, np.ndarray]:
    lo32 = 0xFFFFFFFF
    m_lo, m_hi = np.uint64(multiplier & lo32), np.uint64(multiplier >> 32)
    a_lo, a_hi = a & lo32, a >> 32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    carry = ((ll >> 32) + (lh & lo32) + (hl & lo32)) >> 32
    return a_hi * m_hi + (lh >> 32) + (hl >> 32) + carry, a * np.uint64(multiplier)


def alloc_philox_words(seed: int, rows: np.ndarray, first: int, count: int) -> np.ndarray:
    """Philox4x64-10 words of blocks first..first+count-1 of each row's stream.

    The array kernel as the package had it before it reused its buffers:
    every operation of every round makes a fresh array. Same contract as
    `protocol._philox_words`: a (len(rows), 4 * count) uint64 array.
    """
    u64 = (1 << 64) - 1
    multipliers = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
    weyl = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
    shape = (rows.size, count)
    c0 = np.broadcast_to(np.arange(first + 1, first + count + 1, dtype=np.uint64), shape)
    c1 = np.broadcast_to(rows[:, None], shape)
    c2 = c3 = np.zeros(shape, dtype=np.uint64)
    k0, k1 = seed & u64, seed >> 64
    for _ in range(10):
        hi0, lo0 = _alloc_mulhilo(c0, multipliers[0])
        hi1, lo1 = _alloc_mulhilo(c2, multipliers[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + weyl[0]) & u64, (k1 + weyl[1]) & u64
    return np.stack((c0, c1, c2, c3), axis=-1).reshape(rows.size, 4 * count)


def regex_read_mask_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """A `maskmatrix-v1` file read as the package read it before its canonical-bytes check.

    Every body line is matched against the line grammar by one regex
    substitution, then the body is converted by one `np.loadtxt`; when
    either fails, or the ids do not count from 0, the error names the
    first bad line through `textformat.first_bad_line`. Raises what that
    reader raised, in the same order.
    """
    import io
    import re

    from missdiag import textformat
    from missdiag.errors import FileFormatError
    from missdiag.protocol import _mask_row_error

    header, body = textformat.read_text(path)
    if len(header) < 3 or header[0] != "sample_id":
        raise FileFormatError(f"{path}: expected header 'sample_id,<modalities...>'")
    names = header[1:]
    repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
    if repeated is not None:
        raise FileFormatError(f"{path}:1: duplicate modality name {repeated!r}")
    fields = (textformat.INT,) + (textformat.BIT,) * len(names)
    line = re.compile(",".join(f"(?:{f})" for f in fields) + "\n")
    rows = None
    if not line.sub("", body):
        try:
            rows = (np.loadtxt(io.StringIO(body), delimiter=",", dtype=np.int64, ndmin=2)
                    if body else np.empty((0, len(fields)), dtype=np.int64))
        except ValueError:  # an integer beyond int64
            pass
    if rows is None or not np.array_equal(rows[:, 0], np.arange(rows.shape[0])):
        raise textformat.first_bad_line(path, body, header, fields, _mask_row_error)
    if not rows.shape[0]:
        raise FileFormatError(f"{path}: no mask rows")
    masks = rows[:, 1:].astype(np.int8)
    if not masks.any(axis=1).all():
        raise FileFormatError(f"{path}: contains an all-missing row")
    return tuple(names), masks


def loop_read_ablation_tables(path, orientations=None) -> dict:
    """An `abltable-v1` file read as the package read it before its columnar reader.

    One regex match per body line, in file order: a line outside the row
    grammar is named with the first reason it breaks, a matched row with
    a bad combination, a non-finite value, a missing final LF or a
    repeat, in that order. After every line, each metric's table must
    hold the all-ones row, then every other row. Raises what that reader
    raised, in the same order.
    """
    import re

    from missdiag.equity import AblationTable, PerfMetric
    from missdiag.errors import FileFormatError, IncompleteTableError
    from missdiag.protocol import MAX_ENUMERATED_MODALITIES, pattern_bitstrings
    from missdiag.textformat import FLOAT, NAME, read_text

    value_re = re.compile(f"-?(?:{FLOAT})")
    row_re = re.compile(f"([01]+),({NAME}),(-?(?:{FLOAT}))")

    def combination_error(combo, M):
        if M is not None and len(combo) != M:
            return f"combination length {len(combo)} != {M}"
        if not 2 <= len(combo) <= MAX_ENUMERATED_MODALITIES:
            return (f"combination length {len(combo)}: a table covers 2 to "
                    f"{MAX_ENUMERATED_MODALITIES} modalities")
        if "1" not in combo:
            return "all-missing combination"
        return None

    def row_error(line, M):
        if line.endswith("\r"):
            return "CRLF line ending, expected LF"
        if not line:
            return "blank line"
        cells = line.split(",")
        if len(cells) != 3:
            return f"expected 3 fields, got {len(cells)}"
        combo, metric_name, value_text = cells
        if not re.fullmatch(r"[01]+", combo):
            return f"bad combination {combo!r}"
        reason = combination_error(combo, M)
        if reason is not None:
            return reason
        if not value_re.fullmatch(value_text):
            try:
                value = float(value_text)
            except ValueError:
                return f"bad value {value_text!r}"
            if not math.isfinite(value):
                return f"non-finite value {value_text!r}"
            return f"value {value_text!r} is not a float in repr form"
        return f"bad metric name {metric_name!r}"

    header, body = read_text(path)
    if header != ["combination", "metric", "value"]:
        raise FileFormatError(f"{path}: expected header 'combination,metric,value'")
    lines = body.split("\n")
    M = None
    scores = {}  # metric -> (scores, seen flags), both indexed by code - 1
    for k, line in enumerate(lines if lines[-1] else lines[:-1]):
        row = row_re.fullmatch(line)
        if row is None:
            reason = row_error(line, M)
        else:
            combo, metric_name, value_text = row.groups()
            value = float(value_text)
            reason = combination_error(combo, M)
            if reason is None and not math.isfinite(value):
                reason = f"non-finite value {value_text!r}"
            elif reason is None and k == len(lines) - 1:
                reason = "no newline at end of file"
        if reason is not None:
            raise FileFormatError(f"{path}:{k + 2}: {reason}")
        if M is None:
            M = len(combo)
        if metric_name not in scores:
            scores[metric_name] = ([0.0] * (2**M - 1), [False] * (2**M - 1))
        values, seen = scores[metric_name]
        index = int(combo, 2) - 1
        if seen[index]:
            raise FileFormatError(
                f"{path}:{k + 2}: duplicate combination {combo} for {metric_name!r}")
        values[index] = value
        seen[index] = True
    if M is None:
        raise FileFormatError(f"{path}: no table rows")
    tables = {}
    combos = pattern_bitstrings(M)
    for metric_name, (values, seen) in scores.items():
        if not seen[-1]:
            raise IncompleteTableError(
                f"{path}: table for {metric_name!r} is missing the all-ones "
                f"combination {combos[-1]}")
        if not all(seen):
            names = ", ".join(c for c, ok in zip(combos, seen) if not ok)
            raise IncompleteTableError(
                f"ablation table for {metric_name!r} is missing combinations: {names}")
        tables[metric_name] = AblationTable(
            M=M, metric=PerfMetric.named(metric_name, orientations), scores=values)
    return tables


# The csv readers the package used before its strict-grammar readers:
# `csv` splits each row, `int()`/`float()` convert each cell, blank rows
# are skipped, and CRLF reads like LF. On every file the package writes,
# the package readers must give exactly what these give.


def csv_read_mask_matrix(path) -> tuple[tuple[str, ...], np.ndarray]:
    """(modality names, (N, M) int8 array) of a `maskmatrix-v1` file, row by row."""
    with Path(path).open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        assert header[0] == "sample_id" and len(header) >= 3, header
        rows = []
        for row in reader:
            if not row:
                continue
            assert len(row) == len(header), row
            assert int(row[0]) == len(rows), row
            bits = [int(v) for v in row[1:]]
            assert all(b in (0, 1) for b in bits) and any(bits), row
            rows.append(bits)
    return tuple(header[1:]), np.array(rows, dtype=np.int8)


def csv_read_ablation_scores(path) -> dict[str, list[float]]:
    """Scores per metric of an `abltable-v1` file, indexed by code - 1, row by row with `csv`."""
    with Path(path).open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        assert next(reader) == ["combination", "metric", "value"]
        scores = {}
        for row in reader:
            if not row:
                continue
            combo, metric_name, value_text = row
            assert combo and set(combo) <= {"0", "1"} and "1" in combo, row
            value = float(value_text)
            assert math.isfinite(value), row
            table = scores.setdefault(metric_name, [None] * (2 ** len(combo) - 1))
            assert len(table) == 2 ** len(combo) - 1, row
            assert table[int(combo, 2) - 1] is None, row
            table[int(combo, 2) - 1] = value
    assert scores and all(None not in table for table in scores.values())
    return scores


def csv_read_numeric_rows(path, header: tuple[str, ...]) -> list[tuple]:
    """Rows of a trace file as tuples: every column an int except the last, a float."""
    with Path(path).open("r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        assert tuple(next(reader)) == header
        out = []
        for row in reader:
            if not row:
                continue
            assert len(row) == len(header), row
            out.append(tuple([int(v) for v in row[:-1]] + [float(row[-1])]))
    return out


def csv_read_grad_samples(path) -> list[tuple[int, int, int, float]]:
    """(step, modality, module, grad_l2) rows of a `gradtrace-v1` file."""
    return csv_read_numeric_rows(path, ("step", "modality", "module", "grad_l2"))


def csv_read_agg_grid(path) -> list[list[float]]:
    """The G grid of a `gradagg-v1` file, one row per step in step order."""
    cells = {(t, m): g for t, m, g in csv_read_numeric_rows(path, ("step", "modality", "G"))}
    steps = sorted({t for t, _ in cells})
    M = max(m for _, m in cells) + 1
    return [[cells[(t, m)] for m in range(M)] for t in steps]


def fstring_grad_samples_text(samples: np.ndarray) -> str:
    """A `gradtrace-v1` file's text as the writer built it before it formatted columns.

    One f-string per row, in (step, modality, module) order.
    """
    rows = samples[np.lexsort((samples["module"], samples["modality"], samples["step"]))]
    lines = ["step,modality,module,grad_l2"]
    lines += [f"{t},{m},{k},{g!r}" for t, m, k, g in rows.tolist()]
    return "\n".join(lines) + "\n"


def loop_agg_trace_text(values: np.ndarray) -> str:
    """A `gradagg-v1` file's text for a (T, M) grid, one Python loop iteration per cell."""
    lines = ["step,modality,G"]
    for t in range(values.shape[0]):
        for m in range(values.shape[1]):
            lines.append(f"{t + 1},{m},{float(values[t, m])!r}")
    return "\n".join(lines) + "\n"


def dict_assemble_error(rows, M=None, K=None) -> tuple[str, str] | None:
    """(error class name, message) of the first fault a dict-based trace assembly meets.

    `rows` are (step, modality, module, grad_l2) tuples in arrival order.
    The first value seen for a key is kept; a later different value is a
    conflict. Range faults are looked for in first-arrival key order,
    incomplete cells in (step, modality) order. None when nothing is wrong.
    """
    by_key = {}
    for step, modality, module, value in rows:
        key = (step, modality, module)
        if key not in by_key:
            by_key[key] = value
        elif by_key[key] != value:
            return ("DuplicateSampleError",
                    f"conflicting grad_l2 at step {step}, modality {modality}, "
                    f"module {module}: {by_key[key]} vs {value}")
    if not by_key:
        return "InsufficientTraceError", "empty gradient sample stream"
    M = max(k[1] for k in by_key) + 1 if M is None else M
    K = max(k[2] for k in by_key) + 1 if K is None else K
    if M < 1:
        return "DimensionError", f"modality count must be >= 1, got {M}"
    if K < 1:
        return "DimensionError", f"module count must be >= 1, got {K}"
    modules = {}
    for step, modality, module in by_key:
        if modality >= M:
            return "DimensionError", f"modality index {modality} out of range for M={M}"
        if module >= K:
            return ("InvalidTraceError",
                    f"module index {module} out of range for module count {K}")
        modules.setdefault((step, modality), set()).add(module)
    for step, modality in sorted(modules):
        present = modules[(step, modality)]
        if len(present) < K:
            missing = [k for k in range(K) if k not in present]
            return ("InvalidTraceError",
                    f"missing module entries: {missing} at step {step}, modality {modality}")
    return None


def sorting_assemble_trace(samples, M=None, module_count=None):
    """`assemble_trace` as it was when it sorted every row set, whatever its order.

    A stable `np.lexsort` on (step, modality, module) groups equal keys in
    arrival order; a row that differs from its group's first raises, and
    the sorted unique keys are scattered into the (T, M, K) grid. Raises
    what the package raised, with the same messages.
    """
    from missdiag.errors import DimensionError, DuplicateSampleError, InsufficientTraceError
    from missdiag.errors import InvalidTraceError
    from missdiag.learning import (GRAD_SAMPLE_DTYPE, _absent, _row_error, _unlogged,
                                   trace_from_norms)

    rows = np.asarray(samples, dtype=GRAD_SAMPLE_DTYPE)
    step, modality, module, value = (rows[name] for name in GRAD_SAMPLE_DTYPE.names)
    reason = _row_error(step, modality, module, value)
    if reason is not None:
        raise InvalidTraceError(reason)
    order = np.lexsort((module, modality, step))
    keys = np.stack((step[order], modality[order], module[order]))
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    first = order[np.maximum.accumulate(np.where(starts, np.arange(order.size), 0))]
    ordered = value[order]
    clash = ordered != value[first]
    if clash.any():
        j = int(order[clash].min())
        i = int(first[order == j][0])
        s, m, k = rows[j].tolist()[:3]
        raise DuplicateSampleError(
            f"conflicting grad_l2 at step {s}, modality {m}, module {k}: "
            f"{value[i].tolist()} vs {value[j].tolist()}"
        )
    if not rows.size:
        raise InsufficientTraceError("empty gradient sample stream")
    M = int(modality.max()) + 1 if M is None else M
    module_count = int(module.max()) + 1 if module_count is None else module_count
    if M < 1:
        raise DimensionError(f"modality count must be >= 1, got {M}")
    if module_count < 1:
        raise DimensionError(f"module count must be >= 1, got {module_count}")
    out_of_range = (modality >= M) | (module >= module_count)
    if out_of_range.any():
        s, m, k, _ = rows[np.argmax(out_of_range)].tolist()
        if m >= M:
            raise DimensionError(f"modality index {m} out of range for M={M}")
        raise InvalidTraceError(
            f"module index {k} out of range for module count {module_count}"
        )
    step, modality, module = [column[starts] for column in keys]
    value = ordered[starts]
    step_starts = np.ones(step.size, dtype=bool)
    step_starts[1:] = step[1:] != step[:-1]
    cell_starts = step_starts.copy()
    cell_starts[1:] |= modality[1:] != modality[:-1]
    bounds = np.append(np.flatnonzero(cell_starts), step.size)
    incomplete = np.flatnonzero(np.diff(bounds) < module_count)
    if incomplete.size:
        lo, hi = bounds[incomplete[0]], bounds[incomplete[0] + 1]
        raise InvalidTraceError(
            f"missing module entries: {_absent(module[lo:hi], module_count)} "
            f"at step {step[lo]}, modality {modality[lo]}"
        )
    cell_modality = modality[bounds[:-1]]
    logged = np.zeros(min(M, cell_modality.size + 1), dtype=bool)
    logged[cell_modality[cell_modality < logged.size]] = True
    if not logged.all():
        raise _unlogged(int(np.argmin(logged)))
    steps, t = step[step_starts], np.cumsum(step_starts) - 1
    norms = np.zeros((steps.size, M, module_count))
    norms[t, modality, module] = value
    defined = np.zeros((steps.size, M), dtype=bool)
    defined[t, modality] = True
    return trace_from_norms(steps, norms, defined)


def loop_kl(p: np.ndarray, q: np.ndarray) -> float:
    """sum p * ln(p / q) over p > 0, one pattern at a time: inf at the first kept q of 0."""
    total = 0.0
    for pi, qi in zip(p.tolist(), q.tolist()):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return max(0.0, total)


def line_by_line_parse_rows(body: str, fields: tuple[str, ...], dtype: np.dtype):
    """`textformat.parse_rows` as it was when its regex matched one line per step."""
    import io
    import re

    line = re.compile(",".join(f"(?:{f})" for f in fields) + "\n")
    if line.sub("", body):
        return None
    if not body:
        return np.empty(0, dtype=dtype)
    try:
        return np.loadtxt(io.StringIO(body), delimiter=",", dtype=dtype, ndmin=1)
    except ValueError:
        return None


def masked_forward_cache(model, features, mask):
    """Toy-model head output and backprop cache (xs, us, fused sum) under a per-sample mask.

    The same numpy operations, in the same order, as the trainer's
    forward pass, so gradients built on it compare with `==`.
    """
    xs, us, s = [], [], None
    for m, (W, b) in enumerate(zip(model.enc_W, model.enc_b)):
        x = np.asarray(features[m], dtype=np.float64) * mask[:, m : m + 1]
        u = x @ W + b
        h = np.maximum(u, 0.0)
        xs.append(x)
        us.append(u)
        s = h if s is None else s + h
    return s @ model.fus_W + model.fus_b, (xs, us, s)


def backward_batch(model, cache, out, labels, weights) -> dict:
    """Gradients of the weighted loss sum_i w_i * loss_i via backprop, one weighting."""
    xs, us, s = cache
    if model.task == "classification":
        shifted = out - out.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        probs = expd / expd.sum(axis=1, keepdims=True)
        dout = probs.copy()
        dout[np.arange(out.shape[0]), labels] -= 1.0
        dout *= weights[:, None]
    else:
        dout = (2.0 * (out[:, 0] - labels) * weights)[:, None]
    grads = {
        "fus_W": s.T @ dout,
        "fus_b": dout.sum(axis=0),
        "enc_W": [],
        "enc_b": [],
    }
    ds = dout @ model.fus_W.T
    for m in range(len(model.enc_W)):
        du = ds * (us[m] > 0.0)
        grads["enc_W"].append(xs[m].T @ du)
        grads["enc_b"].append(du.sum(axis=0))
    return grads


def per_module_backward(model, cache, resid, weights) -> dict:
    """The trainer's stacked backward pass as it was before one flat gradient array.

    Takes `_backward`'s arguments and returns one (A, R, ...) array per
    module: "fus_W", "fus_b", "enc_W" (one (A, R, G, d, H) array per width
    group) and "enc_b" ((A, R, M, H) in slot order), each from its own
    allocation, so the flat buffer's views compare with them by `==`.
    """
    xs, h, s = cache
    if model.task == "classification":
        dout = weights[..., None] * resid[:, None]
        fus_b = dout.sum(axis=2)
    else:
        scaled = resid[:, None] * weights
        dout = scaled[..., None]
        fus_b = scaled.sum(axis=-1)[..., None]
    ds = np.matmul(dout, model.fus_W.transpose(0, 2, 1)[:, None])
    gate = np.greater(h, 0.0, out=np.empty(h.shape))
    du = ds[:, :, None] * gate[:, None]
    return {
        "fus_W": np.matmul(s.transpose(0, 2, 1)[:, None], dout),
        "fus_b": fus_b,
        "enc_W": [np.matmul(x.swapaxes(-1, -2)[:, None], du[:, :, span])
                  for x, span in zip(xs, model.spans)],
        "enc_b": du.sum(axis=3),
    }


def two_operand_products(weights, resid, ds, gate) -> tuple[np.ndarray, np.ndarray]:
    """`_backward`'s (A, R, B, C) `dout` and (A, R, M, B, H) `du` as it formed them before.

    Each is one `np.multiply` of two broadcast operands: the (A, R, B)
    weights by the (A, B, C) residuals, and the (A, R, B, H) `ds` by the
    (A, M, B, H) float rectifier gate.
    """
    return (np.multiply(weights[..., None], resid[:, None]),
            np.multiply(ds[:, :, None], gate[:, None]))


def axis_batch_sum(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """An (..., B, X) array summed over its batch axis into `out` by `sum`, as `_backward` did."""
    return a.sum(axis=a.ndim - 2, out=out)


def module_grad_norms(grads: dict) -> list[float]:
    """L2 norm of each module's stacked gradient (M encoders, then fusion)."""
    norms = []
    for W, b in zip(grads["enc_W"], grads["enc_b"]):
        sq = float((W**2).sum() + (b**2).sum())
        norms.append(math.sqrt(sq))
    sq = float((grads["fus_W"] ** 2).sum() + (grads["fus_b"] ** 2).sum())
    norms.append(math.sqrt(sq))
    return norms


def per_weighting_grad_norms(model, features, mask, labels) -> np.ndarray:
    """(M, M + 1) module gradient norms of each L_m, one backward pass per modality.

    Row m weights the samples where modality m is observed by
    1 / (their count); a modality absent from the batch keeps a zero row.
    """
    mask = np.asarray(mask, dtype=np.float64)
    out, cache = masked_forward_cache(model, features, mask)
    M = len(model.enc_W)
    norms = np.zeros((M, M + 1))
    for m in range(M):
        col = mask[:, m]
        if col.sum() == 0:
            continue
        norms[m] = module_grad_norms(backward_batch(model, cache, out, labels, col / col.sum()))
    return norms


def modality_loss(losses: np.ndarray, mask_column: np.ndarray) -> float | None:
    """Mean of the float64 per-sample losses where the modality is observed.

    None when the modality is absent from every sample: the restricted
    loss is undefined for that batch, not zero.
    """
    mask = np.asarray(mask_column, dtype=np.float64)
    total = mask.sum()
    if total == 0:
        return None
    return float((losses * mask).sum() / total)


def indexed_losses(out: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax cross-entropy losses and residuals of (..., B, C) logits, as the trainer took them
    before its flat-index picks: the row max along the class axis, and the label's logit and
    residual fancy-indexed.
    """
    shifted = out - out.max(axis=-1, keepdims=True)
    expd = np.exp(shifted)
    total = expd.sum(axis=-1, keepdims=True)
    rows = np.arange(out.shape[-2])
    resid = expd / total
    resid[..., rows, labels] -= 1.0
    return np.log(total[..., 0]) - shifted[..., rows, labels], resid


@dataclass(frozen=True)
class StepLog:
    """One training step's losses and, when logged, its gradient norms.

    The per-step record the trainer kept before its columnar `RunLog`.
    `grad_norms[m, k]` is the L2 norm of module k's gradient of L_m, an
    (M, M + 1) float64 array; row m is unused (zero) where
    `modality_losses[m]` is None. It is None on steps that log no
    gradients.
    """

    step: int
    task_loss: float
    modality_losses: tuple[float | None, ...]
    grad_norms: np.ndarray | None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepLog):
            return NotImplemented
        mine, theirs = self.grad_norms, other.grad_norms
        return (
            (self.step, self.task_loss, self.modality_losses)
            == (other.step, other.task_loss, other.modality_losses)
            and (mine is None) == (theirs is None)
            and (mine is None or np.array_equal(mine, theirs))
        )


def step_columns(steps) -> dict:
    """The `RunLog` columns of a sequence of `StepLog`s, as keyword arguments.

    Task losses (T,), modality losses (T, M) with 0 where a loss is None,
    the (T, M) flags of the defined ones, and the steps and stacked norms
    of the steps that logged norms.
    """
    logged = [log for log in steps if log.grad_norms is not None]
    return dict(
        task_losses=np.array([log.task_loss for log in steps]),
        modality_losses=np.array([[0.0 if loss is None else loss for loss in log.modality_losses]
                                  for log in steps]),
        observed=np.array([[loss is not None for loss in log.modality_losses] for log in steps]),
        logged_steps=np.array([log.step for log in logged]),
        grad_norms=np.stack([log.grad_norms for log in logged]),
    )


def plain_losses(model, out, labels) -> np.ndarray:
    """Per-sample softmax cross-entropy or squared losses of a plain model's (B, C) outputs."""
    if model.task == "classification":
        shifted = out - out.max(axis=1, keepdims=True)
        return np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(out.shape[0]), labels]
    return (out[:, 0] - labels) ** 2


def dataset_loss(model, split) -> float:
    """Mean per-sample task loss on a clean, fully observed split."""
    out, _ = masked_forward_cache(model, split.features, np.ones((split.n, len(model.enc_W))))
    return float(plain_losses(model, out, split.labels).mean())


def per_arm_train_step(model, features, mask, labels, learning_rate, step, log_grads):
    """One training step of one plain model, as the trainer took it before lockstep arms.

    The same numpy operations as the trainer's forward pass and loss; the
    L_m norms come from one backward pass per weighting and the update
    from one more, so the result compares with the trainer's by `==`.
    """
    mask = np.asarray(mask, dtype=np.float64)
    B, M = mask.shape
    out, cache = masked_forward_cache(model, features, mask)
    losses = plain_losses(model, out, labels)
    modality_losses = tuple(modality_loss(losses, mask[:, m]) for m in range(M))
    norms = None
    if log_grads:
        norms = per_weighting_grad_norms(model, features, mask, labels)
        norms.setflags(write=False)
    full = backward_batch(model, cache, out, labels, np.full(B, 1.0 / B))
    for m in range(M):
        model.enc_W[m] -= learning_rate * full["enc_W"][m]
        model.enc_b[m] -= learning_rate * full["enc_b"][m]
    model.fus_W -= learning_rate * full["fus_W"]
    model.fus_b -= learning_rate * full["fus_b"]
    return StepLog(step, float(losses.mean()), modality_losses, norms)


def ua(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Unweighted accuracy: mean per-class recall over classes present."""
    recalls = [float((y_pred[y_true == c] == c).mean()) for c in np.unique(y_true)]
    return float(np.mean(recalls))


def wa(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Weighted accuracy: plain fraction of correct predictions."""
    return float((y_pred == y_true).mean())


def f1_weighted(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Support-weighted mean of per-class F1 scores, counted with boolean masks."""
    n = y_true.shape[0]
    total = 0.0
    for c in np.unique(y_true):
        tp = float(((y_pred == c) & (y_true == c)).sum())
        fp = float(((y_pred == c) & (y_true != c)).sum())
        fn = float(((y_pred != c) & (y_true == c)).sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        total += f1 * float((y_true == c).sum()) / n
    return total


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    return float(np.abs(y_pred - y_true).mean())


def corr(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Pearson correlation; 0 when either side has zero variance."""
    st, sp = y_true.std(), y_pred.std()
    if st == 0.0 or sp == 0.0:
        return 0.0
    return float(((y_true - y_true.mean()) * (y_pred - y_pred.mean())).mean() / (st * sp))


def acc2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Binary sign agreement (zero counted as nonnegative)."""
    return float(((y_pred >= 0) == (y_true >= 0)).mean())


# Metric name -> score of (labels, predictions): class ids, or regression values.
LABEL_METRICS = {"UA": ua, "WA": wa, "F1": f1_weighted, "MAE": mae, "Corr": corr,
                 "Acc-2": acc2}


def per_metric_ablation_table(model, split, metric):
    """One metric's ablation table, as the package built it before its one evaluation pass.

    Each encoder runs once on the split as a 2-D product; every pattern
    then re-fuses the outputs (relu(b_m) for a missing modality, added in
    modality order) and is scored with one label-vector metric.
    """
    from missdiag import AblationTable

    hs = [np.maximum(np.asarray(x, dtype=np.float64) @ W + b, 0.0)
          for x, W, b in zip(split.features, model.enc_W, model.enc_b)]
    fun = LABEL_METRICS[metric.name]
    scores = []
    for bits in bit_tuples(len(hs)):
        fused = None
        for h, b, bit in zip(hs, model.enc_b, bits):
            h = h if bit else np.maximum(b, 0.0)
            fused = h if fused is None else fused + h
        out = fused @ model.fus_W + model.fus_b
        predictions = out.argmax(axis=1) if model.task == "classification" else out[:, 0]
        scores.append(fun(split.labels, predictions))
    return AblationTable(M=len(hs), metric=metric, scores=scores)


def take(split, idx):
    """The feature blocks and labels of a split's rows `idx`."""
    return [f[idx] for f in split.features], split.labels[idx]


def sequential_run(spec, config, after_step=None):
    """One run of the training loop as it was before lockstep arms, on `per_arm_train_step`.

    Evaluation is `per_metric_ablation_table`, one table per metric. Data,
    initialisation, masks and the two diagnostics come from the package's
    public functions. `after_step(step, model)` is
    called after every step, so a test can poison the run. Returns the
    RunLog, or raises what that loop raised.
    """
    from missdiag import (RunLog, TrainingDivergedError, default_metrics, gen_synthetic,
                          generate_mask_matrix, mei_from_table, mli, trace_from_norms)
    from missdiag.equity import MEI_MODES
    from missdiag.report import config_hash
    from missdiag.simtrainer import describe_run, init_model

    def diverged(step, epoch, what, last):
        last = "none" if last is None else f"{last[1]!r} at step {last[0]}"
        return TrainingDivergedError(f"training diverged at step {step} (epoch {epoch}): "
                                     f"{what}; last finite loss: {last}")

    metrics = config.metrics or default_metrics(spec.task)
    data = gen_synthetic(spec)
    init_ss, shuffle_ss, mask_ss = np.random.SeedSequence(config.seed).spawn(3)
    model = init_model(spec.dims, config.hidden, spec.task, spec.n_classes,
                       np.random.default_rng(init_ss))
    n_matrices = config.epochs if config.resample_masks_per_epoch else 1
    matrices = tuple(generate_mask_matrix(config.protocol, spec.n_train, int(seed))
                     for seed in mask_ss.generate_state(n_matrices, np.uint64))
    shuffle = np.random.default_rng(shuffle_ss)
    steps, valid_tables, step, last = [], [], 0, None
    for epoch in range(1, config.epochs + 1):
        masks = matrices[epoch - 1 if config.resample_masks_per_epoch else 0].masks
        order = shuffle.permutation(spec.n_train)
        for start in range(0, spec.n_train, config.batch_size):
            idx = order[start:start + config.batch_size]
            feats, labels = take(data.train, idx)
            step += 1
            with np.errstate(over="ignore", invalid="ignore"):
                log = per_arm_train_step(model, feats, masks[idx], labels,
                                         config.learning_rate, step,
                                         (step - 1) % config.grad_log_stride == 0)
                if after_step is not None:
                    after_step(step, model)
            if not math.isfinite(log.task_loss):
                raise diverged(step, epoch, f"task loss is {log.task_loss!r}", last)
            if log.grad_norms is not None and not np.isfinite(log.grad_norms).all():
                raise diverged(step, epoch, "gradient norms are not finite", last)
            last = (step, log.task_loss)
            steps.append(log)
        if not np.isfinite(model.flat).all():
            raise diverged(step, epoch, "parameters are not finite", last)
        if epoch % config.mei_epoch_stride == 0 or epoch == config.epochs:
            valid_tables.append(
                (epoch, tuple(per_metric_ablation_table(model, data.valid, m)
                              for m in metrics)))
    test_tables = tuple(per_metric_ablation_table(model, data.test, m) for m in metrics)
    columns = step_columns(steps)
    logged = columns["logged_steps"]
    trace = trace_from_norms(logged, columns["grad_norms"], columns["observed"][logged - 1])
    return RunLog(
        spec=spec, config=config, config_hash=config_hash(describe_run(spec, config)),
        **columns, mask_matrices=matrices, valid_tables=tuple(valid_tables),
        test_tables=test_tables, trace=trace, mli_result=mli(trace),
        mei_results=tuple((t.metric.name, mei_from_table(t, config.epsilon, mode))
                          for t in test_tables for mode in MEI_MODES))


# The config resolver as it was before the schema table: four key sets, two
# default sources and inline checks. Valid documents must resolve to the same
# document (hence the same config_hash) under `missdiag.config.resolve_config`.
_V1_TOP_KEYS = {"modalities", "protocol", "seed", "n_samples", "divergence", "epsilon",
                "mei_mode", "metrics", "output_dir", "simulation"}
_V1_SIMULATION_TYPES = {
    "task": str, "dims": (int,), "informativeness": (float,), "n_classes": int,
    "label_noise": float, "n_train": int, "n_valid": int, "n_test": int,
    "data_seed": int, "epochs": int, "batch_size": int, "learning_rate": float,
    "hidden": int, "mei_epoch_stride": int, "grad_log_stride": int,
    "resample_masks_per_epoch": bool, "paired": bool,
}
_V1_SIM_DEFAULTS = {
    "task": "classification", "n_classes": 8, "label_noise": 0.25, "n_valid": 1000,
    "n_test": 1000, "epochs": 20, "batch_size": 48, "learning_rate": 0.015, "hidden": 16,
    "mei_epoch_stride": 5, "grad_log_stride": 1, "resample_masks_per_epoch": False,
    "paired": False,
}


def _v1_is(value, kind) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def resolve_config_v1(raw, seed_flag=None, env=None) -> dict:
    """The resolved document of a valid config; ValueError for an invalid one."""
    from missdiag import PerfMetric, RateVector

    def fail(what):
        raise ValueError(what)

    env = {} if env is None else env
    if set(raw) - _V1_TOP_KEYS or not isinstance(raw.get("modalities"), list):
        fail("top level")
    modalities = raw["modalities"]
    protocol = raw.get("protocol")
    if not isinstance(protocol, dict) or set(protocol) - {"shared_rate", "rates"}:
        fail("protocol")
    if ("shared_rate" in protocol) == ("rates" in protocol):
        fail("protocol form")
    if "rates" in protocol:
        rates = protocol["rates"]
        if not isinstance(rates, list) or len(rates) != len(modalities):
            fail("rates")
        if not all(_v1_is(r, float) for r in rates):
            fail("rate type")
        RateVector(tuple(modalities), tuple(rates))
    elif not _v1_is(protocol["shared_rate"], float):
        fail("shared_rate")
    else:
        RateVector.shared(tuple(modalities), protocol["shared_rate"])
    if seed_flag is not None:
        seed = seed_flag
    elif env.get("MISSDIAG_SEED"):
        seed = int(env["MISSDIAG_SEED"])
    else:
        seed = raw.get("seed")
        if not isinstance(seed, int) or isinstance(seed, bool):
            fail("seed")
    if not 0 <= seed < 2**64:
        fail("seed range")
    n_samples = raw.get("n_samples", 1000)
    epsilon = raw.get("epsilon", 1e-8)
    if not _v1_is(n_samples, int) or n_samples < 1 or not _v1_is(epsilon, float) \
            or not epsilon > 0:
        fail("n_samples or epsilon")
    metrics = None
    if "metrics" in raw:
        metrics = []
        for entry in raw["metrics"]:
            if isinstance(entry, str):
                metrics.append(PerfMetric.named(entry))
            elif entry.get("orientation") is None:
                metrics.append(PerfMetric.named(entry["name"]))
            else:
                metrics.append(PerfMetric(entry["name"], entry["orientation"]))
    simulation = None
    if raw.get("simulation") is not None:
        sim_raw = raw["simulation"]
        for key, value in sim_raw.items():
            kind = _V1_SIMULATION_TYPES[key]
            if isinstance(kind, tuple):
                if not isinstance(value, list) or not all(_v1_is(v, kind[0]) for v in value):
                    fail(key)
            elif not _v1_is(value, kind):
                fail(key)
        simulation = dict(_V1_SIM_DEFAULTS)
        simulation.update(sim_raw)
        if len(simulation["dims"]) != len(modalities):
            fail("dims")
    return {
        "modalities": list(modalities),
        "protocol": dict(protocol),
        "seed": seed,
        "n_samples": n_samples,
        "divergence": raw.get("divergence", "js"),
        "epsilon": float(epsilon),
        "mei_mode": raw.get("mei_mode", "balanced-is-one"),
        "metrics": [{"name": m.name, "orientation": m.orientation} for m in metrics]
        if metrics else None,
        "output_dir": raw.get("output_dir", "out"),
        "simulation": simulation,
    }
