"""Golden-file, round-trip, and malformed-input tests for the CSV and JSON formats."""

from __future__ import annotations

import json

import numpy as np
import pytest

from missdiag import (
    AblationTable,
    FileFormatError,
    GradTrace,
    IncompleteTableError,
    InvalidTraceError,
    MaskMatrix,
    PerfMetric,
    RateVector,
    assemble_trace,
)
from missdiag.equity import (
    read_ablation_tables,
    write_ablation_table,
    write_ablation_tables,
)
from missdiag.learning import (
    GRAD_SAMPLE_DTYPE,
    read_grad_samples,
    write_agg_trace,
    write_grad_samples,
)
from missdiag.protocol import (
    generate_mask_matrix,
    pattern_bitstrings,
    read_mask_matrix,
    write_mask_matrix,
)
from missdiag.report import (
    DiagnosticsReport,
    atomic_write_text,
    canonical_json,
    config_hash,
    file_sha256,
    merge_reports,
    read_report,
    sha256_hex,
    write_report,
)

from oracles import fstring_grad_samples_text, loop_agg_trace_text, plain_mask_csv

AWKWARD = 0.1 + 0.2  # 0.30000000000000004: only repr round-trips it


def mask_matrix() -> MaskMatrix:
    return MaskMatrix(
        rates=RateVector(("audio", "video"), (0.3, 0.4)),
        seed=5,
        masks=np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int8),
    )


def ua_table() -> AblationTable:
    # Scores of 01, 10 and 11, in canonical order.
    return AblationTable(M=2, metric=PerfMetric.named("UA"), scores=[0.5, AWKWARD, 0.9])


def mae_table() -> AblationTable:
    return AblationTable(M=2, metric=PerfMetric.named("MAE"), scores=[1.5, 0.75, 0.25])


class TestMaskMatrixFormat:
    GOLDEN = "sample_id,audio,video\n0,1,0\n1,1,1\n2,0,1\n"

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "masks.csv"
        write_mask_matrix(mask_matrix(), path)
        assert path.read_bytes() == self.GOLDEN.encode()

    # Row counts next to each power of ten cross every sample-id digit width up to 5.
    @pytest.mark.parametrize("M", [2, 3, 5, 12])
    @pytest.mark.parametrize("N", [1, 9, 10, 11, 99, 100, 101, 1000, 10001])
    def test_bytes_equal_plain_row_writer(self, tmp_path, M, N):
        rates = RateVector(tuple(f"m{m}" for m in range(M)), (0.5,) * M)
        matrix = generate_mask_matrix(rates, N, seed=M)
        path = tmp_path / "masks.csv"
        write_mask_matrix(matrix, path)
        assert path.read_bytes() == plain_mask_csv(rates.modality_names, matrix.masks)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "masks.csv"
        matrix = mask_matrix()
        write_mask_matrix(matrix, path)
        names, masks = read_mask_matrix(path)
        assert names == ("audio", "video")
        np.testing.assert_array_equal(masks, matrix.masks)
        assert masks.dtype == np.int8

    # Names outside the csv-special characters, as any user might pick them.
    ACCEPTED_NAMES = ["audio", "a b", " padded ", "α-β", "'single'", "tab\there",
                      "semi;colon", "0", "émoji 🎧", "back\\slash"]

    def test_accepted_names_round_trip(self, tmp_path):
        path = tmp_path / "masks.csv"
        for i in range(0, len(self.ACCEPTED_NAMES), 2):
            names = tuple(self.ACCEPTED_NAMES[i : i + 2]) + ("last",)
            matrix = generate_mask_matrix(RateVector(names, (0.3, 0.3, 0.3)), 20, seed=i)
            write_mask_matrix(matrix, path)
            got_names, masks = read_mask_matrix(path)
            assert got_names == names
            np.testing.assert_array_equal(masks, matrix.masks)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "masks.csv"
        path.write_text("id,audio,video\n0,1,0\n")
        with pytest.raises(FileFormatError, match="sample_id"):
            read_mask_matrix(path)

    def test_non_binary_cell_names_line(self, tmp_path):
        path = tmp_path / "masks.csv"
        path.write_text("sample_id,a,b\n0,1,0\n1,1,2\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_mask_matrix(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "masks.csv"
        path.write_text("sample_id,a,b\n0,1\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_mask_matrix(path)

    @pytest.mark.parametrize("body, line", [
        ("5,1,0\n5,0,1\n2,1,1\n", ":2:"),
        ("0,1,0\n0,0,1\n", ":3:"),
        ("0,1,0\n2,0,1\n1,1,1\n", ":3:"),
    ], ids=["not-from-zero", "duplicate", "out-of-order"])
    def test_sample_ids_must_count_from_zero(self, tmp_path, body, line):
        path = tmp_path / "masks.csv"
        path.write_text("sample_id,a,b\n" + body)
        with pytest.raises(FileFormatError, match=line + " sample_id"):
            read_mask_matrix(path)

    def test_all_missing_row_rejected(self, tmp_path):
        path = tmp_path / "masks.csv"
        path.write_text("sample_id,a,b\n0,1,1\n1,0,0\n")
        with pytest.raises(FileFormatError, match="all-missing"):
            read_mask_matrix(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "masks.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty"):
            read_mask_matrix(path)


class TestMaskMatrixGoldenHashes:
    """sha256 of whole `maskmatrix-v1` files at fixed (rates, seed, N).

    Mask bits come from integer Philox words and IEEE compares, with no
    BLAS call on the way, so these bytes are the same on every platform.
    20000 rows cross the sampler's row chunk; the M=5 and M=12 rates
    reject often enough that redraws cross the stream's 4-word blocks.
    """

    RATES = {
        3: (0.1, 0.2, 0.6),
        5: (0.85,) * 5,
        12: (0.9, 0.95, 0.97, 0.8, 0.99, 0.85, 0.9, 0.99, 0.6, 0.92, 0.85, 0.95),
    }
    SHA256 = {
        (3, 0): "77497bef7d1eae182c8e54f3d884cf5374d8c6c92d9cb5680ece94073a6d374d",
        (3, 2**64 - 1): "1fdcc6d440175bb7d181ac873bcacc581f105939e12aaf4666028009708b3de8",
        (5, 0): "d069be3e516719e76e9f39bea9d6f717b18f9d6d6bb0016cdce7683191dda932",
        (5, 2**64 - 1): "4d6f9f3008922d77829770a3c1d57048c7a06ae4d21855baf0cea59291d21ab7",
        (12, 0): "d6e69e1810ac07d4fe80302464381b41cc1fb46abaee49f02ac7f143d7d6c124",
        (12, 2**64 - 1): "aed9752467c328b36633ec45740b0853d3dba36f3689262078439abdfa6caf92",
    }

    @pytest.mark.parametrize("M, seed", list(SHA256), ids=[f"M{m}-seed{s}" for m, s in SHA256])
    def test_file_sha256(self, tmp_path, M, seed):
        rates = RateVector(tuple(f"m{m}" for m in range(M)), self.RATES[M])
        path = tmp_path / "masks.csv"
        write_mask_matrix(generate_mask_matrix(rates, 20_000, seed), path)
        assert file_sha256(path) == self.SHA256[M, seed]


class TestAblationTableFormat:
    GOLDEN = (
        "combination,metric,value\n"
        "01,UA,0.5\n"
        "10,UA,0.30000000000000004\n"
        "11,UA,0.9\n"
    )

    def test_golden_bytes_single_table(self, tmp_path):
        path = tmp_path / "table.csv"
        write_ablation_table(ua_table(), path)
        assert path.read_bytes() == self.GOLDEN.encode()

    def test_all_ones_row_is_last_per_metric(self, tmp_path):
        path = tmp_path / "table.csv"
        write_ablation_tables([ua_table(), mae_table()], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "combination,metric,value"
        assert [l.split(",")[0] for l in lines[1:]] == ["01", "10", "11"] * 2
        assert [l.split(",")[1] for l in lines[1:]] == ["UA"] * 3 + ["MAE"] * 3

    def test_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "table.csv"
        write_ablation_tables([ua_table(), mae_table()], path)
        tables = read_ablation_tables(path)
        assert set(tables) == {"UA", "MAE"}
        ua = tables["UA"]
        assert ua.perf_full == 0.9
        assert ua.score((1, 0)) == AWKWARD
        assert ua.metric.higher_is_better
        assert not tables["MAE"].metric.higher_is_better

    def test_reserialisation_is_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_ablation_tables([mae_table(), ua_table()], first)
        tables = read_ablation_tables(first)
        write_ablation_tables([tables[name] for name in sorted(tables)], second)
        reread = read_ablation_tables(second)
        write_ablation_tables([reread[name] for name in sorted(reread)], first)
        assert first.read_bytes() == second.read_bytes()

    def test_row_order_does_not_matter(self, tmp_path):
        rng = np.random.default_rng(5)
        scores = rng.uniform(size=31)
        path = tmp_path / "table.csv"
        table = AblationTable(M=5, metric=PerfMetric.named("UA"), scores=scores)
        write_ablation_table(table, path)
        header, *rows = path.read_text().splitlines()
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header, *rng.permutation(rows)]) + "\n")
        assert read_ablation_tables(shuffled)["UA"].scores.tolist() == scores.tolist()

    def test_orientation_override(self, tmp_path):
        path = tmp_path / "table.csv"
        write_ablation_table(ua_table(), path)
        tables = read_ablation_tables(path, {"UA": "lower-better"})
        assert not tables["UA"].metric.higher_is_better

    def test_missing_combination_names_bitstring(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n01,UA,0.5\n11,UA,0.9\n")
        with pytest.raises(IncompleteTableError, match="10"):
            read_ablation_tables(path)

    def test_missing_all_ones_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n01,UA,0.5\n10,UA,0.7\n")
        with pytest.raises(IncompleteTableError, match="11"):
            read_ablation_tables(path)

    def test_duplicate_combination_names_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "combination,metric,value\n01,UA,0.5\n01,UA,0.6\n10,UA,0.7\n11,UA,0.9\n"
        )
        with pytest.raises(FileFormatError, match=":3:"):
            read_ablation_tables(path)

    def test_all_missing_combination_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n00,UA,0.5\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_ablation_tables(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n01,UA,high\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_ablation_tables(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n01,UA,nan\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_ablation_tables(path)

    def test_inconsistent_width_names_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("combination,metric,value\n01,UA,0.5\n101,UA,0.7\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_ablation_tables(path)

    def test_mixed_m_in_one_file_rejected(self, tmp_path):
        three = AblationTable(M=3, metric=PerfMetric.named("WA"), scores=[0.5] * 6 + [0.9])
        with pytest.raises(Exception):
            write_ablation_tables([ua_table(), three], tmp_path / "t.csv")


def grad_samples() -> np.ndarray:
    return np.array([
        (1, 0, 0, 0.5),
        (1, 0, 1, 1.5),
        (1, 1, 0, 2.0),
        (1, 1, 1, 4.0),
        (2, 0, 0, AWKWARD),
        (2, 0, 1, 0.7),
        (2, 1, 0, 1.0),
        (2, 1, 1, 3.0),
    ], dtype=GRAD_SAMPLE_DTYPE)


class TestGradTraceFormat:
    GOLDEN = (
        "step,modality,module,grad_l2\n"
        "1,0,0,0.5\n"
        "1,0,1,1.5\n"
        "1,1,0,2.0\n"
        "1,1,1,4.0\n"
        "2,0,0,0.30000000000000004\n"
        "2,0,1,0.7\n"
        "2,1,0,1.0\n"
        "2,1,1,3.0\n"
    )

    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_grad_samples(grad_samples(), path)
        assert path.read_bytes() == self.GOLDEN.encode()

    def test_rows_sorted_regardless_of_input_order(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_grad_samples(grad_samples()[::-1], path)
        assert path.read_bytes() == self.GOLDEN.encode()

    def test_round_trip_full_precision(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_grad_samples(grad_samples(), path)
        rows = read_grad_samples(path)
        assert rows.dtype == GRAD_SAMPLE_DTYPE
        assert rows.tolist() == grad_samples().tolist()

    def test_sniffer(self, tmp_path):
        # The header names the format: a gradtrace-v1 file keeps its module column.
        path = tmp_path / "trace.csv"
        write_grad_samples(grad_samples(), path)
        assert read_grad_samples(path)["module"].tolist() == grad_samples()["module"].tolist()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,mod,grad\n1,0,0.5\n")
        with pytest.raises(FileFormatError) as info:
            read_grad_samples(path)
        assert str(info.value) == f"{path}: unrecognised trace header 'step,mod,grad'"

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,modality,module,grad_l2\n1,0,0,0.5\n2,0,x,0.5\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_grad_samples(path)

    def test_negative_norm_names_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,modality,module,grad_l2\n1,0,0,-0.5\n")
        with pytest.raises(FileFormatError, match=":2:"):
            read_grad_samples(path)


class TestAggTraceFormat:
    GOLDEN = (
        "step,modality,G\n"
        "1,0,1.0\n"
        "1,1,3.0\n"
        "2,0,0.5\n"
        "2,1,2.0\n"
    )

    def test_golden_bytes(self, tmp_path):
        trace = GradTrace(values=np.array([[1.0, 3.0], [0.5, 2.0]]))
        path = tmp_path / "agg.csv"
        write_agg_trace(trace, path)
        assert path.read_bytes() == self.GOLDEN.encode()

    def test_round_trip(self, tmp_path):
        values = np.array([[1.0, 3.0], [AWKWARD, 2.0], [0.25, 1e-17]])
        path = tmp_path / "agg.csv"
        write_agg_trace(GradTrace(values=values), path)
        rows = read_grad_samples(path)
        assert rows["module"].tolist() == [0] * values.size  # G_m(t) is module 0's norm
        trace = assemble_trace(rows)
        np.testing.assert_array_equal(trace.values, values)

    def test_reads_as_one_module_trace(self, tmp_path):
        # Gapped steps and an absent cell: rows, grids and warnings all agree.
        cells = [(1, 0, 1.0), (1, 1, 3.0), (4, 1, AWKWARD), (6, 0, 0.25), (6, 1, 1e-17)]
        agg_path, trace_path = tmp_path / "agg.csv", tmp_path / "trace.csv"
        agg_path.write_text("step,modality,G\n" + "".join(f"{t},{m},{g!r}\n" for t, m, g in cells))
        one_module = np.array([(t, m, 0, g) for t, m, g in cells], dtype=GRAD_SAMPLE_DTYPE)
        write_grad_samples(one_module, trace_path)
        rows = read_grad_samples(agg_path)
        assert rows.dtype == GRAD_SAMPLE_DTYPE
        assert rows.tolist() == read_grad_samples(trace_path).tolist() == one_module.tolist()
        trace = assemble_trace(rows)
        assert trace == assemble_trace(read_grad_samples(trace_path))
        assert trace.warnings == (
            "steps are not contiguous (3 distinct steps spanning 1..6); re-indexed to 1..3",
            "modality 0: imputed 1 undefined step(s)",
        )

    def test_aggregated_samples_round_trip_through_raw_format(self, tmp_path):
        # Writing per-module rows and re-assembling reproduces the
        # aggregated grid exactly (mean of 0.5 and 1.5 is exact, etc).
        path = tmp_path / "trace.csv"
        write_grad_samples(grad_samples(), path)
        trace = assemble_trace(read_grad_samples(path))
        np.testing.assert_array_equal(
            trace.values, [[1.0, 3.0], [(AWKWARD + 0.7) / 2.0, 2.0]]
        )


# Floats whose repr is easy to get wrong: both zeros, the smallest
# subnormal, a small and a large power of ten, and a sum that only repr
# round-trips.
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, 1e-05, 1e16, AWKWARD]


class TestColumnarTraceWriters:
    """The writers format columns in chunks; their bytes equal one f-string per row."""

    @staticmethod
    def random_samples(n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        rows = np.zeros(n, dtype=GRAD_SAMPLE_DTYPE)
        rows["step"] = rng.integers(0, 2**40, size=n)
        rows["step"][:3] = [2**31, 2**31 + 1, 2**63 - 1]
        rows["modality"] = rng.integers(0, 12, size=n)
        rows["module"] = rng.integers(0, 13, size=n)
        rows["grad_l2"] = rng.random(n) * 10.0 ** rng.integers(-300, 300, size=n)
        rows["grad_l2"][3 : 3 + len(AWKWARD_FLOATS)] = AWKWARD_FLOATS
        return rows

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    @pytest.mark.parametrize("n", [0, 1, 9, 1000])
    def test_gradtrace_equals_per_row_fstrings(self, tmp_path, monkeypatch, chunk, n):
        monkeypatch.setattr("missdiag.textformat._WRITE_CHUNK_ROWS", chunk)
        rows = self.random_samples(max(n, 9), seed=n)[:n]
        path = tmp_path / "trace.csv"
        write_grad_samples(rows, path)
        assert path.read_bytes() == fstring_grad_samples_text(rows).encode()

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    @pytest.mark.parametrize("shape", [(0, 3), (1, 2), (7, 3), (400, 5)])
    def test_gradagg_equals_per_cell_loop(self, tmp_path, monkeypatch, chunk, shape):
        monkeypatch.setattr("missdiag.textformat._WRITE_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(shape[0])
        values = rng.random(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        flat = values.reshape(-1)
        flat[: min(flat.size, len(AWKWARD_FLOATS))] = AWKWARD_FLOATS[: flat.size]
        path = tmp_path / "agg.csv"
        write_agg_trace(GradTrace(values=values), path)
        assert path.read_bytes() == loop_agg_trace_text(values).encode()

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    @pytest.mark.parametrize("M", [2, 5])
    def test_abltable_equals_per_row_fstrings(self, tmp_path, monkeypatch, chunk, M):
        # Metric names are a text column: a `%` in one is a cell, not a
        # format, and a trailing NUL, which a numpy string array drops, stays.
        monkeypatch.setattr("missdiag.textformat._WRITE_CHUNK_ROWS", chunk)
        rng = np.random.default_rng(M)
        tables = []
        for name in ("UA", "50%s d", "m\x00", "\u00fc MAE"):
            scores = rng.random((1 << M) - 1) * 10.0 ** rng.integers(-300, 300, size=(1 << M) - 1)
            scores[: len(AWKWARD_FLOATS)] = AWKWARD_FLOATS[: scores.size]
            tables.append(AblationTable(M=M, metric=PerfMetric.named(name), scores=-scores))
        path = tmp_path / "table.csv"
        write_ablation_tables(tables, path)
        want = "combination,metric,value\n" + "".join(
            f"{combo},{table.metric.name},{score!r}\n" for table in tables
            for combo, score in zip(pattern_bitstrings(M), table.scores.tolist()))
        assert path.read_bytes() == want.encode()
        assert list(read_ablation_tables(path).values()) == tables

    @pytest.mark.parametrize("field, value, message", [
        ("grad_l2", np.nan, "grad_l2 must be finite and >= 0, got nan"),
        ("grad_l2", -np.inf, "grad_l2 must be finite and >= 0, got -inf"),
        ("step", -1, r"step/modality/module must be nonnegative, got \(-1, 1, 2\)"),
    ])
    def test_gradtrace_writer_refuses_rows_its_reader_refuses(self, tmp_path, field, value,
                                                              message):
        rows = np.zeros(3, dtype=GRAD_SAMPLE_DTYPE)
        rows["step"], rows["modality"], rows["module"], rows["grad_l2"] = 1, 1, [0, 1, 2], 0.5
        rows[field][2] = value
        path = tmp_path / "trace.csv"
        with pytest.raises(InvalidTraceError, match=f"^{message}$"):
            write_grad_samples(rows, path)
        assert not path.exists()
        with pytest.raises(InvalidTraceError, match=f"^{message}$"):
            assemble_trace(rows)


class TestReportFormat:
    def test_round_trip(self, tmp_path):
        payload = {"alpha": 1, "nested": {"b": [1.5, AWKWARD]}, "s": "text"}
        report = DiagnosticsReport.build(payload)
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = read_report(path)
        assert loaded.payload == payload
        assert loaded.payload_sha256 == report.payload_sha256
        assert loaded.generated_at == report.generated_at

    def test_checksum_is_canonical_and_key_order_free(self):
        a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
        b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
        assert a == b
        assert sha256_hex(a) == sha256_hex(b)
        assert config_hash({"b": 1, "a": 2}) == config_hash({"a": 2, "b": 1})

    def test_non_finite_payload_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"inf": float("inf")})

    def test_tampered_payload_detected(self, tmp_path):
        path = tmp_path / "report.json"
        write_report(DiagnosticsReport.build({"value": 1}), path)
        doc = json.loads(path.read_text())
        doc["payload"]["value"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="checksum"):
            read_report(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError, match="JSON"):
            read_report(path)

    def test_non_report_json_rejected(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"other": 1}))
        with pytest.raises(FileFormatError):
            read_report(path)

    def test_merge_preserves_sources_and_checksums(self, tmp_path):
        p1 = tmp_path / "one.json"
        p2 = tmp_path / "two.json"
        r1 = DiagnosticsReport.build({"value": 1})
        r2 = DiagnosticsReport.build({"value": 2})
        write_report(r1, p1)
        write_report(r2, p2)
        merged = merge_reports([p1, p2])
        entries = merged.payload["merged_reports"]
        assert [e["source"] for e in entries] == ["one.json", "two.json"]
        assert entries[0]["payload"] == {"value": 1}
        assert entries[0]["payload_sha256"] == r1.payload_sha256
        # merged report verifies like any other
        merged_path = tmp_path / "merged.json"
        write_report(merged, merged_path)
        assert read_report(merged_path).payload == merged.payload

    def test_merge_requires_inputs(self):
        with pytest.raises(FileFormatError):
            merge_reports([])

    def test_file_sha256_matches_text_hash(self, tmp_path):
        path = tmp_path / "blob.txt"
        atomic_write_text(path, "payload\n")
        assert file_sha256(path) == sha256_hex("payload\n")

    def test_atomic_write_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "file.txt"
        atomic_write_text(path, "x")
        assert path.read_text() == "x"

    def test_atomic_write_replaces_existing(self, tmp_path):
        path = tmp_path / "file.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]  # no temp files left
