"""Strict line grammars of the CSV formats, against the csv-era readers.

Every file the package writes must read exactly as the former `csv`
readers (`tests/oracles.py`) read it. Every spelling outside the
grammar must end in exit 3 with the offending `path:line:` and no
traceback.
"""

from __future__ import annotations

import json
import re
import tracemalloc

import numpy as np
import pytest

from missdiag import assemble_trace, textformat
from missdiag.cli import main
from missdiag.equity import _TABLE_FIELDS, read_ablation_tables
from missdiag.errors import FileFormatError, MissdiagError
from missdiag.learning import (
    _TRACE_FIELDS,
    _TRACE_FORMATS,
    GRAD_SAMPLE_DTYPE,
    read_grad_samples,
    write_agg_trace,
    write_grad_samples,
)
from missdiag.protocol import read_mask_matrix
from missdiag.textformat import _body_re, parse_rows, read_columns, read_text

import oracles

U64_MAX = 2**64 - 1
_AGG_DTYPE, _AGG_FIELDS = _TRACE_FORMATS[("step", "modality", "G")]


def _mask_config(tmp_path, M: int) -> str:
    path = tmp_path / f"mask{M}.json"
    path.write_text(json.dumps({
        "modalities": [f"m{m}" for m in range(M)],
        "protocol": {"rates": np.linspace(0.1, 0.8, M).tolist()},
        "seed": 0,
        "n_samples": 3000,
    }))
    return str(path)


def _read_trace(path):
    return assemble_trace(read_grad_samples(path))


def _sim_config(tmp_path, M: int, stride: int, **simulation) -> str:
    path = tmp_path / f"sim{M}.json"
    path.write_text(json.dumps({
        "modalities": [f"m{m}" for m in range(M)],
        "protocol": {"rates": np.linspace(0.3, 0.8, M).tolist()},
        "seed": 3,
        "simulation": {
            "dims": [3] * M, "informativeness": [1.0] * M, "n_train": 48,
            "n_valid": 8, "n_test": 200, "epochs": 2, "batch_size": 2,
            "n_classes": 3, "grad_log_stride": stride, **simulation,
        },
    }))
    return str(path)


class TestWrittenFilesReadLikeCsv:
    @pytest.mark.parametrize("M", [3, 5, 12])
    @pytest.mark.parametrize("seed", [0, U64_MAX])
    def test_mask_generate(self, tmp_path, capsys, M, seed):
        path = tmp_path / "masks.csv"
        argv = ["mask", "generate", "--config", _mask_config(tmp_path, M),
                "--seed", str(seed), "--out", str(path)]
        assert main(argv) == 0
        names, masks = read_mask_matrix(path)
        want_names, want = oracles.csv_read_mask_matrix(path)
        assert names == want_names
        assert masks.dtype == want.dtype == np.int8
        assert np.array_equal(masks, want)

    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("M", [2, 3, 8])
    def test_simulate_run_tables(self, tmp_path, capsys, task, M):
        out = tmp_path / "out"
        config = _sim_config(tmp_path, M, 1, task=task, paired=True, mei_epoch_stride=1)
        assert main(["simulate", "run", "--config", config, "--out", str(out)]) == 0
        paths = sorted(out.rglob("abltable_*.csv"))
        assert len(paths) == 2 * 3  # per arm: two validation epochs and test
        for path in paths:
            want = oracles.csv_read_ablation_scores(path)
            tables = read_ablation_tables(path)
            assert list(tables) == list(want)
            for name, table in tables.items():
                assert table.M == M and table.scores.tolist() == want[name]

    @pytest.mark.parametrize("M", [2, 3, 8])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_simulate_run_traces(self, tmp_path, capsys, M, stride):
        out = tmp_path / "out"
        assert main(["simulate", "run", "--config", _sim_config(tmp_path, M, stride),
                     "--out", str(out)]) == 0
        rows = read_grad_samples(out / "gradtrace.csv")
        want = oracles.csv_read_grad_samples(out / "gradtrace.csv")
        assert rows.dtype == GRAD_SAMPLE_DTYPE
        assert rows.tolist() == want
        assembled = assemble_trace(rows)
        assert assembled.values.tolist() == oracles.brute_trace_grid(want, M, M + 1)
        assert not assembled.defined.all()  # the trace has absent cells
        agg = _read_trace(out / "gradagg.csv")
        assert agg.values.tolist() == oracles.csv_read_agg_grid(out / "gradagg.csv")
        assert agg.values.tolist() == assembled.values.tolist()

    def test_analyze_style_trace_with_absent_cells(self, tmp_path):
        rng = np.random.default_rng(17)
        T, M, K = 300, 4, 5
        norms = 1.5 * np.exp(np.cumsum(rng.normal(0.0, 0.05, size=(T, M, K)), axis=0))
        absent = rng.random((T, M)) < 0.05
        absent[absent.all(axis=1), 0] = False
        cells = [(t, m) for t in range(T) for m in range(M) if not absent[t, m]]
        rows = np.array([(t + 1, m, k, norms[t, m, k]) for t, m in cells for k in range(K)],
                        dtype=GRAD_SAMPLE_DTYPE)
        path = tmp_path / "gradtrace.csv"
        write_grad_samples(rows[rng.permutation(rows.size)], path)
        got = read_grad_samples(path)
        want = oracles.csv_read_grad_samples(path)
        assert got.tolist() == want == rows.tolist()
        trace = assemble_trace(got)
        assert trace.values.tolist() == oracles.brute_trace_grid(want, M, K)
        agg_path = tmp_path / "gradagg.csv"
        write_agg_trace(trace, agg_path)
        assert _read_trace(agg_path).values.tolist() == oracles.csv_read_agg_grid(agg_path)

    def test_every_repr_float_form_reads_back(self, tmp_path):
        rng = np.random.default_rng(5)
        values = np.concatenate([
            [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, 9.999999999999999e-05, 1e-4,
             0.1 + 0.2, 1.0, 123.0, 9999999999999998.0, 1e16, 1.7976931348623157e308],
            10.0 ** rng.uniform(-320, 308, size=400),
        ])
        rows = np.zeros(values.size, dtype=GRAD_SAMPLE_DTYPE)
        rows["step"] = np.arange(1, values.size + 1)
        rows["grad_l2"] = values
        path = tmp_path / "trace.csv"
        write_grad_samples(rows, path)
        assert read_grad_samples(path)["grad_l2"].tolist() == values.tolist()


MASK_HEADER = "sample_id,a,b\n"
TRACE_HEADER = "step,modality,module,grad_l2\n"
AGG_HEADER = "step,modality,G\n"

# (case id, file text, line named in the error). Each file is read by the
# command that takes it: `mask stats` or `metrics mli`.
MASK_CASES = [
    ("underscore-bit", MASK_HEADER + "0,0_1,1\n", 2),
    ("spaced-and-signed", MASK_HEADER + "0,1,0\n1, 1,+0\n", 3),
    ("leading-zero-id", MASK_HEADER + "0,1,1\n01,1,0\n", 3),
    ("crlf-body", MASK_HEADER + "0,1,0\r\n1,0,1\r\n", 2),
    ("crlf-header", "sample_id,a,b\r\n0,1,0\r\n", 1),
    ("blank-line", MASK_HEADER + "0,1,0\n\n1,0,1\n", 3),
    ("trailing-blank-line", MASK_HEADER + "0,1,0\n\n", 3),
    ("bom", "\ufeff" + MASK_HEADER + "0,1,0\n", 1),
    ("truncated-last-row", MASK_HEADER + "0,1,0\n1,0", 3),
    ("no-final-newline", MASK_HEADER + "0,1,0\n1,0,1", 3),
    ("id-beyond-int64", MASK_HEADER + "0,1,0\n99999999999999999999,1,0\n", 3),
    ("non-utf8", (MASK_HEADER + "0,1,0\n").encode() + b"1,\xff,0\n", 3),
    ("duplicate-modality", "sample_id,a,b,a\n0,1,0,1\n", 1),
]
TRACE_CASES = [
    ("underscore-float", TRACE_HEADER + "1,0,0,0.5\n1,1,0,1_0.5\n", 3),
    ("short-exponent", TRACE_HEADER + "1,0,0,0.5\n1,1,0,5e-1\n", 3),
    ("negative", TRACE_HEADER + "1,0,0,0.5\n1,1,0,-0.5\n", 3),
    ("nan", TRACE_HEADER + "1,0,0,0.5\n1,1,0,nan\n", 3),
    ("overflow-float", TRACE_HEADER + "1,0,0,0.5\n1,1,0,1e400\n", 3),
    ("overflow-float-repr-form", TRACE_HEADER + "1,0,0,0.5\n1,1,0,1e+400\n", 3),
    ("crlf-body", TRACE_HEADER + "1,0,0,0.5\r\n", 2),
    ("crlf-header", "step,modality,module,grad_l2\r\n1,0,0,0.5\r\n", 1),
    ("blank-line", TRACE_HEADER + "1,0,0,0.5\n\n1,1,0,0.5\n", 3),
    ("bom", "\ufeff" + TRACE_HEADER + "1,0,0,0.5\n", 1),
    ("truncated-last-row", TRACE_HEADER + "1,0,0,0.5\n1,1,", 3),
    ("no-final-newline", TRACE_HEADER + "1,0,0,0.5\n1,1,0,0.5", 3),
    ("step-beyond-int64", TRACE_HEADER + "1,0,0,0.5\n9223372036854775808,1,0,0.5\n", 3),
    ("leading-zero-step", TRACE_HEADER + "1,0,0,0.5\n02,0,0,0.5\n", 3),
    ("agg-underscore-float", AGG_HEADER + "1,0,0.5\n1,1,1_0.5\n", 3),
    ("agg-short-exponent", AGG_HEADER + "1,0,0.5\n1,1,5e-1\n", 3),
    ("agg-negative", AGG_HEADER + "1,0,0.5\n1,1,-0.5\n", 3),
    ("agg-nan", AGG_HEADER + "1,0,0.5\n1,1,nan\n", 3),
    ("agg-overflow-float", AGG_HEADER + "1,0,0.5\n1,1,1e400\n", 3),
    ("agg-crlf-body", AGG_HEADER + "1,0,0.5\r\n", 2),
    ("agg-blank-line", AGG_HEADER + "1,0,0.5\n\n", 3),
    ("agg-truncated-last-row", AGG_HEADER + "1,0,0.5\n1,1", 3),
    ("agg-step-beyond-int64", AGG_HEADER + "1,0,0.5\n18446744073709551616,1,0.5\n", 3),
]

# A valid two-modality table, less the row given in each case.
TABLE_HEADER = "combination,metric,value\n"
TABLE_ROWS = "01,UA,0.25\n10,UA,0.5\n11,UA,0.75\n"
TABLE_CASES = [
    ("underscore-float", TABLE_HEADER + "01,UA,0.25\n10,UA,1_0.5\n11,UA,0.75\n", 3),
    ("spaced-value", TABLE_HEADER + "01,UA,0.25\n10,UA, 0.5\n11,UA,0.75\n", 3),
    ("plus-sign", TABLE_HEADER + "01,UA,0.25\n10,UA,+0.5\n11,UA,0.75\n", 3),
    ("short-exponent", TABLE_HEADER + "01,UA,0.25\n10,UA,5e-1\n11,UA,0.75\n", 3),
    ("bare-fraction", TABLE_HEADER + "01,UA,0.25\n10,UA,.5\n11,UA,0.75\n", 3),
    ("quoted-metric", TABLE_HEADER + '01,UA,0.25\n10,"UA",0.5\n11,UA,0.75\n', 3),
    ("empty-metric", TABLE_HEADER + "01,UA,0.25\n10,,0.5\n11,UA,0.75\n", 3),
    ("crlf-body", TABLE_HEADER + TABLE_ROWS.replace("\n", "\r\n"), 2),
    ("crlf-header", (TABLE_HEADER + TABLE_ROWS).replace("\n", "\r\n"), 1),
    ("blank-line", TABLE_HEADER + "01,UA,0.25\n\n10,UA,0.5\n11,UA,0.75\n", 3),
    ("trailing-blank-line", TABLE_HEADER + TABLE_ROWS + "\n", 5),
    ("bom", "\ufeff" + TABLE_HEADER + TABLE_ROWS, 1),
    ("no-final-newline", TABLE_HEADER + TABLE_ROWS[:-1], 4),
    ("truncated-last-row", TABLE_HEADER + TABLE_ROWS + "01,WA", 5),
    ("non-utf8", (TABLE_HEADER + "01,UA,0.25\n").encode() + b"10,\xff,0.5\n", 3),
]


# Bytes a substitution or an insertion puts into a mask file: the
# grammar's own, so that some mutants stay valid, and bytes outside it.
MUTANT_BYTES = b"01,\n\r29 +-_a\xff\xc3"


def _mask_mutants(N: int, M: int) -> list[tuple[str, bytes]]:
    """A valid N-row, M-modality file and seeded mutants of it, each (label, bytes).

    Mutants land in the header or the first 1001 rows, and two in the
    last row: a file that breaks the grammar is walked line by line up
    to its first bad line, which is slow in a 10001-row file.
    """
    rng = np.random.default_rng([N, M])
    masks = rng.integers(0, 2, size=(N, M), dtype=np.int8)
    masks[~masks.any(axis=1), rng.integers(M)] = 1
    data = oracles.plain_mask_csv([f"m{m}" for m in range(M)], masks)
    lines = data.split(b"\n")[:-1]
    near = min(N, 1001)
    reach = sum(len(line) + 1 for line in lines[: near + 1])

    def with_line(k: int, line: bytes | None) -> bytes:
        body = lines[:k] + ([] if line is None else [line]) + lines[k + 1 :]
        return b"".join(part + b"\n" for part in body)

    last = lines[N]
    mutants = [("valid", data), ("no-final-lf", data[:-1]),
               ("crlf", data.replace(b"\n", b"\r\n")), ("header-only", lines[0] + b"\n"),
               ("last-all-missing", with_line(N, last.split(b",")[0] + b",0" * M)),
               ("last-cut", with_line(N, last[:-2]))]
    for k in rng.integers(1, near + 1, size=4 if N < 10_000 else 2).tolist():
        flipped = lines[k][:-1] + (b"0" if lines[k].endswith(b"1") else b"1")
        mutants += [
            (f"crlf-line-{k}", with_line(k, lines[k] + b"\r")),
            (f"all-missing-{k}", with_line(k, lines[k].split(b",")[0] + b",0" * M)),
            (f"bit-flip-{k}", with_line(k, flipped)),
            (f"non-utf8-{k}", with_line(k, lines[k][:-1] + b"\xc3(")),
            (f"line-dropped-{k}", with_line(k, None)),
            (f"line-repeated-{k}", with_line(k, lines[k] + b"\n" + lines[k])),
        ]
    for at in rng.integers(reach, size=12 if N < 10_000 else 6).tolist():
        i = int(rng.integers(len(MUTANT_BYTES)))
        byte = MUTANT_BYTES[i : i + 1]
        mutants += [(f"sub-{at}-{byte!r}", data[:at] + byte + data[at + 1 :]),
                    (f"ins-{at}-{byte!r}", data[:at] + byte + data[at:]),
                    (f"del-{at}", data[:at] + data[at + 1 :])]
    return mutants


def _read_outcome(reader, path):
    """What a mask reader makes of a file: its names and array, or its error text."""
    try:
        names, masks = reader(path)
    except FileFormatError as exc:
        return str(exc)
    return names, masks.dtype, masks.shape, masks.tobytes()


class TestMaskReaderOracle:
    """The canonical-bytes mask reader against the regex and `loadtxt` reader it replaced.

    On every file of a seeded mutation sweep, both must return the same
    names and array, or raise the same `FileFormatError` text. The row
    counts cross every sample-id digit width up to 5, next to each
    power of ten.
    """

    @pytest.mark.parametrize("M", [2, 3, 5, 12])
    @pytest.mark.parametrize("N", [1, 9, 10, 11, 99, 100, 101, 1000, 10001])
    def test_mutants_read_like_the_oracle(self, tmp_path, N, M):
        path = tmp_path / "masks.csv"
        read = 0
        for label, data in _mask_mutants(N, M):
            path.write_bytes(data)
            got = _read_outcome(read_mask_matrix, path)
            assert got == _read_outcome(oracles.regex_read_mask_matrix, path), label
            read += not isinstance(got, str)
        assert read >= 2  # the valid file and its bit flips read; the rest mostly do not

    @pytest.mark.parametrize("M", [2, 3, 12])
    def test_deep_mutants_read_like_the_oracle(self, tmp_path, M):
        # Mutants past line 9000 of a 10001-row file, after thousands of
        # valid lines: the reader must name the same line and reason as
        # the oracle.
        N = 10_001
        rng = np.random.default_rng([M, 9000])
        masks = rng.integers(0, 2, size=(N, M), dtype=np.int8)
        masks[~masks.any(axis=1), 0] = 1
        data = oracles.plain_mask_csv([f"m{m}" for m in range(M)], masks)
        lines = data.split(b"\n")[:-1]

        def with_line(k: int, line: bytes) -> bytes:
            return b"".join(part + b"\n" for part in lines[:k] + [line] + lines[k + 1 :])

        k, j = (int(v) for v in rng.integers(9000, N + 1, size=2))
        ids, bits = lines[k].split(b",", 1)
        at = len(b"\n".join(lines[:k])) + 1 + len(ids) + 1 + 2 * int(rng.integers(M))
        mutants = {
            "bit-2": with_line(k, lines[k][:-1] + b"2"),
            "crlf": with_line(k, lines[k] + b"\r"),
            "id-zero-padded": with_line(k, b"0" + lines[k]),
            "id-off-by-one": with_line(k, str(k).encode() + b"," + bits),
            "all-missing": with_line(k, ids + b",0" * M),
            "line-dropped": b"".join(part + b"\n" for part in lines[:k] + lines[k + 1 :]),
            "blank-line": with_line(k, lines[k] + b"\n"),
            "bit-deleted": data[:at] + data[at + 1 :],
            "byte-inserted": data[:at] + b"+" + data[at:],
            "two-bad-lines": with_line(min(k, j), lines[min(k, j)] + b",1")[:-2] + b"x\n",
            "no-final-lf": data[:-1],
        }
        path = tmp_path / "masks.csv"
        for label, mutant in mutants.items():
            path.write_bytes(mutant)
            got = _read_outcome(read_mask_matrix, path)
            assert isinstance(got, str), label
            assert got == _read_outcome(oracles.regex_read_mask_matrix, path), label


# Bytes a substitution or an insertion puts into a table file.
TABLE_MUTANT_BYTES = b'01,\n\r-e.5 +_a"\xff\x00'


def _table_mutants(M: int, metrics: tuple[str, ...]) -> list[tuple[str, bytes]]:
    """A valid `abltable-v1` file of M modalities and seeded mutants of it, each (label, bytes)."""
    rng = np.random.default_rng([M, len(metrics)])
    P = 2**M - 1
    values = rng.normal(0.5, 0.5, size=len(metrics) * P).tolist()
    values[0] = -0.0
    rows = [f"{code:0{M}b},{name},{value!r}"
            for i, name in enumerate(metrics)
            for code, value in zip(range(1, P + 1), values[i * P : (i + 1) * P])]

    def text(body: list[str], end: str = "\n") -> bytes:
        return (TABLE_HEADER + "\n".join(body) + end).encode("utf-8")

    def cells(k: int) -> list[str]:
        return rows[k].split(",")

    def with_cell(k: int, j: int, cell: str) -> list[str]:
        row = cells(k)
        row[j] = cell
        return rows[:k] + [",".join(row)] + rows[k + 1 :]

    data = text(rows)
    mutants = [
        ("valid", data),
        ("shuffled", text([rows[i] for i in rng.permutation(len(rows))])),
        ("unterminated", data[:-1]),
        ("unterminated-duplicate", text(rows + [rows[int(rng.integers(len(rows)))]], "")),
        ("missing-all-ones", text(rows[: P - 1] + rows[P:])),
        ("crlf", data.replace(b"\n", b"\r\n")),
        ("first-row-m1", text(with_cell(0, 0, "1"))),
        ("first-row-m21", text(with_cell(0, 0, "1" * 21))),
        ("header-only", TABLE_HEADER.encode()),
    ]
    # An M = 12 file has 4095 rows per metric, and a bad one is walked line by
    # line up to its first bad line: fewer mutants keep the sweep fast.
    for k in rng.integers(len(rows), size=3 if M < 12 else 1).tolist():
        later = int(rng.integers(k, len(rows))) + 1
        combo = cells(k)[0]
        with_dup = rows[:later] + [rows[k]] + rows[later:]
        mutants += [
            (f"duplicate-{k}", text(with_dup)),
            (f"missing-{k}", text(rows[:k] + rows[k + 1 :])),
            (f"crlf-{k}", text(rows[:k] + [rows[k] + "\r"] + rows[k + 1 :])),
            (f"blank-{k}", text(rows[:k] + [""] + rows[k:])),
            (f"all-missing-{k}", text(with_cell(k, 0, "0" * M))),
            (f"longer-{k}", text(with_cell(k, 0, combo + "1"))),
            (f"shorter-{k}", text(with_cell(k, 0, combo[1:]))),
            (f"nan-{k}", text(with_cell(k, 2, "nan"))),
            (f"overflow-{k}", text(with_cell(k, 2, "1e+999"))),
            (f"short-exponent-{k}", text(with_cell(k, 2, "5e-1"))),
            (f"quoted-metric-{k}", text(with_cell(k, 1, f'"{cells(k)[1]}"'))),
            (f"empty-metric-{k}", text(with_cell(k, 1, ""))),
            (f"fourth-field-{k}", text(rows[:k] + [rows[k] + ",x"] + rows[k + 1 :])),
            (f"empty-metric-overflow-{k}", text(rows[:k] + [combo + ",,1e+999"] + rows[k + 1 :])),
            # Two faults, the repeat first and then a grammar fault, and the other way round.
            (f"duplicate-then-grammar-{k}",
             text(with_dup[: later + 1] + [rows[-1].rsplit(",", 1)[0] + ",5e-1"])),
            (f"grammar-then-duplicate-{k}",
             text(rows[:k] + [combo + ",,0.5"] + rows[k + 1 : later] + [rows[later - 1]])),
        ]
    for at in rng.integers(len(data), size=12 if M < 12 else 4).tolist():
        i = int(rng.integers(len(TABLE_MUTANT_BYTES)))
        byte = TABLE_MUTANT_BYTES[i : i + 1]
        mutants += [(f"sub-{at}-{byte!r}", data[:at] + byte + data[at + 1 :]),
                    (f"ins-{at}-{byte!r}", data[:at] + byte + data[at:]),
                    (f"del-{at}", data[:at] + data[at + 1 :])]
    return mutants


def _table_outcome(reader, path):
    """What a table reader makes of a file: each table's M, metric and score bits, or its error."""
    try:
        tables = reader(path)
    except MissdiagError as exc:
        return type(exc).__name__, str(exc)
    return [(name, t.M, t.metric, t.scores.tobytes()) for name, t in tables.items()]


class TestTableReaderOracle:
    """The columnar table reader against the line-by-line reader it replaced.

    On every file of a seeded mutation sweep, both must return the same
    tables in the same order, score bits included, or raise the same
    error class with the same text.
    """

    @pytest.mark.parametrize("metrics", [("UA", "MAE"), ("F1\x00", "%s", "\u00e9")],
                             ids=["plain", "nul-percent-accent"])
    @pytest.mark.parametrize("M", [2, 3, 5, 12])
    def test_mutants_read_like_the_oracle(self, tmp_path, M, metrics):
        path = tmp_path / "table.csv"
        read = 0
        for label, data in _table_mutants(M, metrics):
            path.write_bytes(data)
            got = _table_outcome(read_ablation_tables, path)
            assert got == _table_outcome(oracles.loop_read_ablation_tables, path), label
            read += isinstance(got, list)
        assert read >= 2  # the valid and the shuffled file read


def _write_case(tmp_path, text: str | bytes):
    path = tmp_path / "case.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    return path


class TestMalformedCorpus:
    @pytest.mark.parametrize("text, line", [c[1:] for c in MASK_CASES],
                             ids=[c[0] for c in MASK_CASES])
    def test_mask_stats(self, tmp_path, capsys, text, line):
        path = _write_case(tmp_path, text)
        assert main(["mask", "stats", "--file", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, line", [c[1:] for c in TRACE_CASES],
                             ids=[c[0] for c in TRACE_CASES])
    def test_metrics_mli(self, tmp_path, capsys, text, line):
        path = _write_case(tmp_path, text)
        assert main(["metrics", "mli", "--trace", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, line", [c[1:] for c in TABLE_CASES],
                             ids=[c[0] for c in TABLE_CASES])
    def test_metrics_mei(self, tmp_path, capsys, text, line):
        path = _write_case(tmp_path, text)
        assert main(["metrics", "mei", "--table", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:{line}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestMessages:
    """Rows the csv readers rejected keep their messages; new rejections say why."""

    @pytest.mark.parametrize("cell, reason", [
        ("x", "non-numeric field"),
        ("-0.5", "grad_l2 must be finite and >= 0, got -0.5"),
        ("nan", "grad_l2 must be finite and >= 0, got nan"),
        ("1e400", "grad_l2 must be finite and >= 0, got inf"),
        ("1e+400", "grad_l2 must be finite and >= 0, got inf"),
        ("1_0.5", "grad_l2 '1_0.5' is not a nonnegative float in repr form"),
        ("5e-1", "grad_l2 '5e-1' is not a nonnegative float in repr form"),
        ("-0.0", "grad_l2 '-0.0' is not a nonnegative float in repr form"),
    ])
    def test_trace_cell(self, tmp_path, cell, reason):
        path = _write_case(tmp_path, TRACE_HEADER + "1,0,0,0.5\n2,0,0," + cell + "\n")
        with pytest.raises(FileFormatError) as info:
            read_grad_samples(path)
        assert str(info.value) == f"{path}:3: {reason}"

    @pytest.mark.parametrize("row, reason", [
        ("1,0", "expected 3 fields, got 2"),
        ("1,0,x", "non-integer field"),
        ("2,0,1", "sample_id 2, expected 1"),
        ("1,2,0", "mask values must be 0 or 1"),
        ("+1,0,1", "sample_id '+1' is not a canonical decimal integer"),
        ("1,0,0_1", "b '0_1' is not 0 or 1"),
    ])
    def test_mask_row(self, tmp_path, row, reason):
        path = _write_case(tmp_path, MASK_HEADER + "0,1,0\n" + row + "\n")
        with pytest.raises(FileFormatError) as info:
            read_mask_matrix(path)
        assert str(info.value) == f"{path}:3: {reason}"

    # Each format: (reader, a file with one good row, its field count, a short
    # row and a long row). Every format names the count it found.
    FIELD_COUNTS = {
        "maskmatrix-v1": (read_mask_matrix, MASK_HEADER + "0,1,0\n", 3, "1,0", "1,0,1,1"),
        "gradtrace-v1": (read_grad_samples, TRACE_HEADER + "1,0,0,0.5\n", 4, "1,1,0",
                         "1,1,0,0.5,0.5"),
        "gradagg-v1": (_read_trace, AGG_HEADER + "1,0,0.5\n", 3, "1,1", "1,1,0.5,0.5"),
        "abltable-v1": (read_ablation_tables, TABLE_HEADER + "01,UA,0.25\n", 3, "10,UA",
                        "10,UA,0.5,x"),
    }

    @pytest.mark.parametrize("length", ["short", "long"])
    @pytest.mark.parametrize("fmt", FIELD_COUNTS)
    def test_field_count(self, tmp_path, fmt, length):
        reader, text, fields, short, long = self.FIELD_COUNTS[fmt]
        row = short if length == "short" else long
        path = _write_case(tmp_path, text + row + "\n")
        with pytest.raises(FileFormatError) as info:
            reader(path)
        assert str(info.value) == (
            f"{path}:3: expected {fields} fields, got {row.count(',') + 1}")

    def test_duplicate_modality_name(self, tmp_path):
        path = _write_case(tmp_path, "sample_id,a,b,a\n0,1,0,1\n")
        with pytest.raises(FileFormatError) as info:
            read_mask_matrix(path)
        assert str(info.value) == f"{path}:1: duplicate modality name 'a'"

    @pytest.mark.parametrize("row, reason", [
        ("10,UA", "expected 3 fields, got 2"),
        ("1x,UA,0.5", "bad combination '1x'"),
        (",UA,0.5", "bad combination ''"),
        ("100,UA,0.5", "combination length 3 != 2"),
        ("00,UA,0.5", "all-missing combination"),
        ("10,UA,abc", "bad value 'abc'"),
        ("10,UA,nan", "non-finite value 'nan'"),
        ("10,UA,1e+400", "non-finite value '1e+400'"),
        ("01,UA,0.5", "duplicate combination 01 for 'UA'"),
        ("10,UA,1_0.5", "value '1_0.5' is not a float in repr form"),
        ("10,UA,-5e-1", "value '-5e-1' is not a float in repr form"),
        ('10,"UA",0.5', "bad metric name '\"UA\"'"),
        ("10,,0.5", "bad metric name ''"),
    ])
    def test_table_row(self, tmp_path, row, reason):
        path = _write_case(tmp_path, TABLE_HEADER + "01,UA,0.25\n" + row + "\n")
        with pytest.raises(FileFormatError) as info:
            read_ablation_tables(path)
        assert str(info.value) == f"{path}:3: {reason}"

    def test_signed_table_values_read(self, tmp_path):
        path = _write_case(tmp_path, TABLE_HEADER + "01,Corr,-0.25\n10,Corr,-0.0\n"
                           "11,Corr,1.5e-05\n01,Corr 2,-1e-07\n10,Corr 2,0.0\n11,Corr 2,2.0\n")
        tables = read_ablation_tables(path)
        assert tables["Corr"].scores.tolist() == [-0.25, -0.0, 1.5e-05]
        assert tables["Corr 2"].scores.tolist() == [-1e-07, 0.0, 2.0]

    def test_first_bad_row_in_file_order_wins(self, tmp_path):
        # Line 3 breaks only the grammar, line 4 a csv-era check too.
        path = _write_case(tmp_path, TRACE_HEADER + "1,0,0,0.5\n1,1,0,5e-1\n1,2,0,-1.0\n")
        with pytest.raises(FileFormatError, match=r":3: grad_l2 '5e-1'"):
            read_grad_samples(path)

    def test_step_beyond_int64(self, tmp_path):
        path = _write_case(tmp_path, TRACE_HEADER + "9223372036854775808,0,0,0.5\n")
        with pytest.raises(FileFormatError) as info:
            read_grad_samples(path)
        assert str(info.value) == (
            f"{path}:2: step 9223372036854775808 does not fit in a signed 64-bit integer")

    def test_largest_int64_step_reads(self, tmp_path):
        path = _write_case(tmp_path, TRACE_HEADER + "9223372036854775807,0,0,0.5\n")
        assert read_grad_samples(path)["step"].tolist() == [2**63 - 1]


class TestLineWalk:
    """`first_bad_line` names a bad cell of every grammar when the format's check passes it."""

    @pytest.mark.parametrize("field, cell, description", [
        (textformat.NAME, 'U"A', "a name (nonempty, without double quotes or line breaks)"),
        (textformat.INT, "+1", "a canonical decimal integer"),
        (textformat.BIT, "2", "0 or 1"),
        (textformat.BITS, "0x1", "a nonempty 0/1 string"),
        (textformat.FLOAT, "-0.5", "a nonnegative float in repr form"),
        (textformat.SFLOAT, "+0.5", "a float in repr form"),
    ], ids=["NAME", "INT", "BIT", "BITS", "FLOAT", "SFLOAT"])
    def test_cell_is_named(self, tmp_path, field, cell, description):
        path = tmp_path / "case.csv"
        error = textformat.first_bad_line(path, f"{cell}\n", ("x",), (field,),
                                          lambda k, cells: None)
        assert str(error) == f"{path}:2: x {cell!r} is not {description}"


class TestFinalNewline:
    """Every line ends with LF, the last one included; a file cut short is rejected."""

    def test_last_row_without_newline_rejected(self, tmp_path):
        path = _write_case(tmp_path, MASK_HEADER + "0,1,0\n1,0,1")
        with pytest.raises(FileFormatError) as info:
            read_mask_matrix(path)
        assert str(info.value) == f"{path}:3: no newline at end of file"

    def test_header_without_newline_rejected(self, tmp_path):
        path = _write_case(tmp_path, "step,modality,G")
        with pytest.raises(FileFormatError, match=":1: no newline at end of file"):
            _read_trace(path)

    def test_header_only_file_has_no_rows(self, tmp_path):
        path = _write_case(tmp_path, MASK_HEADER)
        with pytest.raises(FileFormatError, match="no mask rows"):
            read_mask_matrix(path)
        assert read_grad_samples(_write_case(tmp_path, TRACE_HEADER)).size == 0


def _trace_body(n: int) -> list[str]:
    """n seeded `gradtrace-v1` data rows, each ended by its LF."""
    rng = np.random.default_rng(n)
    return [f"{t},{m},{k},{float(rng.uniform(0, 3))!r}\n"
            for t in range(n) for m in range(2) for k in range(2)][:n]


class TestWholeBodyMatch:
    """One possessive match checks the whole body, which reads as one line per step did.

    The row counts and bad-row positions straddle the 64-line blocks the
    check once matched, and test that each line number is still named.
    """

    @pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
    def test_body_reads_as_line_by_line(self, n):
        body = "".join(_trace_body(n))
        got = parse_rows(body, _TRACE_FIELDS, GRAD_SAMPLE_DTYPE)
        want = oracles.line_by_line_parse_rows(body, oracles.TRACE_FIELDS, GRAD_SAMPLE_DTYPE)
        assert got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fault, reason", [
        ("cell", "grad_l2 '.5' is not a nonnegative float in repr form"),
        ("crlf", "CRLF line ending, expected LF"),
        ("blank", "blank line"),
    ])
    @pytest.mark.parametrize("row", [0, 62, 63, 64, 65, 127, 128, 129])
    def test_bad_row_is_named(self, tmp_path, row, fault, reason):
        lines = _trace_body(130)
        lines[row] = {"cell": lines[row].rsplit(",", 1)[0] + ",.5\n",
                      "crlf": lines[row][:-1] + "\r\n", "blank": "\n"}[fault]
        body = "".join(lines)
        assert parse_rows(body, _TRACE_FIELDS, GRAD_SAMPLE_DTYPE) is None
        assert oracles.line_by_line_parse_rows(body, oracles.TRACE_FIELDS, GRAD_SAMPLE_DTYPE) is None
        path = _write_case(tmp_path, TRACE_HEADER + body)
        with pytest.raises(FileFormatError) as info:
            read_grad_samples(path)
        assert str(info.value) == f"{path}:{row + 2}: {reason}"

    def test_match_keeps_no_frame_per_line(self):
        rng = np.random.default_rng(30)
        body = "".join(f"{t},{t % 3},{t % 2},{g!r}\n"
                       for t, g in enumerate(rng.uniform(0, 3, 100_000).tolist()))
        match = _body_re(_TRACE_FIELDS).fullmatch
        tracemalloc.start()
        try:
            matched = match(body)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert matched is not None
        assert peak < 64 * 1024


# Cells on each side of the `FLOAT` and `INT` grammars' edges, and the bytes
# the mutants below substitute and insert.
FLOAT_EDGE_CELLS = ["0.50", "00.5", ".5", "5", "1.", "1.e+05", "1e-05", "1e-005",
                    "1e+00", "1e+100", "1e+010", "15e+16", "0e+05"]
INT_EDGE_CELLS = ["0", "00", "01", "10"]
GRAMMAR_MUTANT_CHARS = "0123456789.,e+-\n E"

# Per body format: its row, its package reader and the oracle's with today's grammar.
GRAMMAR_FORMATS = {
    "gradtrace": ("{i},1,{i},{g}\n",
                  lambda body: parse_rows(body, _TRACE_FIELDS, GRAD_SAMPLE_DTYPE),
                  lambda body: oracles.line_by_line_parse_rows(
                      body, oracles.TRACE_FIELDS, GRAD_SAMPLE_DTYPE)),
    "gradagg": ("{i},1,{g}\n",
                lambda body: parse_rows(body, _AGG_FIELDS, _AGG_DTYPE),
                lambda body: oracles.line_by_line_parse_rows(
                    body, oracles.AGG_FIELDS, _AGG_DTYPE)),
    "abltable": ("1{i},UA,-{g}\n",
                 lambda body: read_columns(body, _TABLE_FIELDS),
                 lambda body: oracles.line_by_line_read_columns(body, oracles.TABLE_FIELDS)),
}


def _grammar_mutants(row: str, seed: int) -> list[str]:
    """Every single-byte edit of a body per edge cell, then seeded double edits."""
    bodies = [row.format(i=10, g="2.5") + row.format(i=i, g=g)
              for i, g in [(10, g) for g in FLOAT_EDGE_CELLS] + [(i, "0.5") for i in INT_EDGE_CELLS]]
    mutants = list(bodies)
    for body in bodies:
        for at in range(len(body) + 1):
            mutants += [body[:at] + c + body[at:] for c in GRAMMAR_MUTANT_CHARS]
            if at < len(body):
                mutants += [body[:at] + body[at + 1 :]]
                mutants += [body[:at] + c + body[at + 1 :] for c in GRAMMAR_MUTANT_CHARS]
    rng = np.random.default_rng(seed)
    for body in bodies:
        for _ in range(100):
            mutant = body
            for _ in range(2):
                at = int(rng.integers(len(mutant)))
                c = GRAMMAR_MUTANT_CHARS[int(rng.integers(len(GRAMMAR_MUTANT_CHARS)))]
                mutant = [mutant[:at] + c + mutant[at + 1 :], mutant[:at] + c + mutant[at:],
                          mutant[:at] + mutant[at + 1 :]][int(rng.integers(3))]
            mutants.append(mutant)
    return mutants


class TestPossessiveGrammar:
    """The possessive cell grammars accept exactly the text the backtracking ones did.

    On seeded mutants of bodies holding every `FLOAT` and `INT` edge cell,
    each reader returns None exactly when the oracle with the former
    grammar does, and the same rows or columns otherwise.
    """

    @pytest.mark.parametrize("kind", list(GRAMMAR_FORMATS))
    def test_mutants_read_like_the_oracle(self, kind):
        row, read, oracle = GRAMMAR_FORMATS[kind]
        outcomes = set()
        for body in _grammar_mutants(row, seed=len(kind)):
            got, want = read(body), oracle(body)
            assert (got is None) == (want is None), repr(body)
            if got is not None:
                same = (got == want if isinstance(got, list)
                        else got.tobytes() == want.tobytes() and got.shape == want.shape)
                assert same, repr(body)
            outcomes.add(got is None)
        assert outcomes == {True, False}


class TestReadText:
    def test_file_is_held_at_most_twice(self, tmp_path):
        # The body's bytes and the text decoded from them are live at once;
        # the whole file's bytes beside them would hold it a third time.
        rng = np.random.default_rng(10)
        rows = [f"{code:010b},{metric},{value!r}\n" for metric in ("UA", "WA", "F1")
                for code, value in zip(range(1, 1024), rng.random(1023).tolist())]
        path = _write_case(tmp_path, TABLE_HEADER + "".join(rows))
        size = path.stat().st_size
        assert size > 100_000
        tracemalloc.start()
        try:
            header, body = read_text(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert header == TABLE_HEADER[:-1].split(",") and body == "".join(rows)
        assert peak < 2 * size + 64 * 1024


class TestUndecodableBytesInFileOrder:
    """A non-UTF-8 body line is one more bad line: the header, then earlier lines, come first."""

    COMMANDS = {
        "mask": ["mask", "stats", "--file"],
        "trace": ["metrics", "mli", "--trace"],
        "table": ["metrics", "mei", "--table"],
    }

    def _error(self, tmp_path, capsys, kind, data: bytes) -> tuple[str, str]:
        path = _write_case(tmp_path, data)
        assert main([*self.COMMANDS[kind], str(path)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return str(path), err

    @pytest.mark.parametrize("kind, header, reason", [
        ("mask", b"id,a,b", "expected header 'sample_id,<modalities...>'"),
        ("trace", b"step,mod,grad", "unrecognised trace header 'step,mod,grad'"),
        ("table", b"comb,metric,value", "expected header 'combination,metric,value'"),
    ], ids=["mask", "trace", "table"])
    def test_wrong_header_over_a_non_utf8_body_names_the_header(
        self, tmp_path, capsys, kind, header, reason
    ):
        path, err = self._error(tmp_path, capsys, kind, header + b"\n\xff\n")
        assert err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("kind, text, reason", [
        ("mask", MASK_HEADER + "0,1,2\n", "mask values must be 0 or 1"),
        ("trace", TRACE_HEADER + "1,0,0,x\n", "non-numeric field"),
        ("table", TABLE_HEADER + "01,UA,x\n", "bad value 'x'"),
    ], ids=["mask", "trace", "table"])
    def test_bad_line_before_a_non_utf8_line_is_named(
        self, tmp_path, capsys, kind, text, reason
    ):
        path, err = self._error(tmp_path, capsys, kind, text.encode() + b"\xff\n")
        assert err == f"error: {path}:2: {reason}\n"

    @pytest.mark.parametrize("kind, text", [
        ("mask", MASK_HEADER + "0,1,0\n"),
        ("trace", TRACE_HEADER + "1,0,0,0.5\n"),
        ("table", TABLE_HEADER + "01,UA,0.25\n"),
    ], ids=["mask", "trace", "table"])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xff\r"],
                             ids=["ff", "c3-paren", "surrogate", "ff-crlf"])
    def test_non_utf8_line_keeps_its_text(self, tmp_path, capsys, kind, text, bad):
        # A CRLF ending or a cell fault on the same line does not change its reason.
        path, err = self._error(tmp_path, capsys, kind, text.encode() + b"1," + bad + b"\n")
        assert err == f"error: {path}:3: not UTF-8 text\n"

    def test_escaped_bytes_are_no_name(self):
        assert re.fullmatch(textformat.NAME, "MA") is not None
        for name in ("MA\udcff", "\udc80", "\ud800"):
            assert re.fullmatch(textformat.NAME, name) is None
