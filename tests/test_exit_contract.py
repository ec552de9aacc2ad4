"""The exit-code contract, swept: every malformed input is one `error:` line and its code.

README's exit-code table declares the codes: a config fault exits 2, a
file fault 3 with `path:` or `path:line:`, a domain fault in a
well-formed file 2, and a degenerate contribution profile 4. The cases
are derived, in the spirit of QuickCheck (Claessen and Hughes, ICFP
2000) but with the standard library only:

- config cases from `config.SCHEMA`: each wrong JSON type, NaN and
  ±Infinity for numbers, one step outside each range, an unknown key
  under each object and each required field missing, plus the library
  size bounds and the cross-field rules;
- file cases from the four formats' grammars and headers: an empty
  file, header only, a byte-order mark, a truncated last row, a
  duplicate row, a non-canonical number and a `"`-quoted header field;
  and trace rows whose modality or module index is far beyond the data;
- an `--out` that is a file, refused before any training step.

Each case runs in-process through `cli.main`; a seeded sample also runs
in a fresh interpreter. A config case runs under one of the three
commands that read a config, chosen by the seeded generator, and must
leave no output behind.
"""

from __future__ import annotations

import copy
import json
import math
import random

import pytest

from missdiag import protocol, simtrainer
from missdiag.cli import main
from missdiag.config import REQUIRED, SCHEMA, SEED_ENV_VAR, Interval
from missdiag.simtrainer import MAX_SIZE
from test_cli import run_cli_process

RNG = random.Random(20001)

# Case kind -> exit code, as README's exit-code table states them.
EXIT = {"ok": 0, "config": 2, "domain": 2, "file": 3, "degenerate": 4}

BASE = {
    "modalities": ["audio", "video"],
    "protocol": {"rates": [0.2, 0.5]},
    "seed": 11,
    "n_samples": 40,
    "divergence": "js",
    "epsilon": 1e-8,
    "mei_mode": "balanced-is-one",
    "metrics": ["UA"],
    "output_dir": "out",
    "simulation": {
        "task": "classification", "dims": [3, 2], "informativeness": [1.0, 1.0],
        "n_classes": 3, "label_noise": 0.25, "n_train": 16, "n_valid": 8, "n_test": 8,
        "data_seed": 5, "epochs": 1, "batch_size": 8, "learning_rate": 0.01, "hidden": 4,
        "mei_epoch_stride": 1, "grad_log_stride": 1, "resample_masks_per_epoch": False,
        "paired": False,
    },
}

# One JSON value of each kind and the SCHEMA types it has.
SAMPLES = [
    (3, {"integer", "number"}),
    (0.5, {"number"}),
    ("x", {"string"}),
    (True, {"boolean"}),
    (None, set()),
    ({}, {"object"}),
    ([1], {"list", "list of integers", "list of numbers"}),
    (["x"], {"list", "list of strings"}),
]
NON_FINITE = [math.nan, math.inf, -math.inf]
# Size fields and their lowest values; SynthSpec and TrainConfig hold the bounds.
SIZES = {"n_train": 1, "n_valid": 1, "n_test": 1, "n_classes": 2, "hidden": 1,
         "epochs": 1, "batch_size": 1}
DELETE = object()


def doc_with(path: str, value=DELETE, base: dict = BASE) -> dict:
    """BASE with the field at `path` set to `value`, or removed."""
    doc = copy.deepcopy(base)
    if path.startswith("protocol.shared_rate"):
        doc["protocol"] = {"shared_rate": 0.3}
    *parents, key = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if key.endswith("]"):
        key, _, index = key[:-1].partition("[")
        node, key = node[key], int(index)
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    return doc


def bad_values(path: str) -> list[tuple[object, str]]:
    """(value, message prefix) of each wrong JSON type and non-finite number at `path`."""
    field = SCHEMA[path]
    # A list of the wrong elements is an element fault; the element cases cover it.
    cases = [(v, f"'{path}' must be a JSON {field.type}, got ")
             for v, types in SAMPLES
             if field.type not in types and not (v is None and field.default is None)
             and not (isinstance(v, list) and field.type.startswith("list"))]
    if field.type in ("integer", "number"):
        cases += [(v, f"'{path}' must be a JSON {field.type}, got ") for v in NON_FINITE]
    return cases


def outside(allowed) -> list:
    """One step outside each finite end of a range, or a value that is not a choice."""
    if not isinstance(allowed, Interval):
        return ["x"]
    steps = []
    if math.isfinite(allowed.lo):
        steps.append(allowed.lo if allowed.open_lo else allowed.lo - 1)
    if math.isfinite(allowed.hi):
        steps.append(allowed.hi if allowed.open_hi else allowed.hi + 1)
    return steps


def config_cases() -> list[tuple[str, dict, list[str], str, str]]:
    """(id, document, extra argv, kind, message prefix) derived from SCHEMA."""
    cases = [("valid", BASE, [], "ok", "")]
    for path, field in SCHEMA.items():
        for value, message in bad_values(path):
            cases.append((f"{path}={json.dumps(value)}", doc_with(path, value), [],
                          "config", message))
        element_type = field.type.partition(" of ")[2][:-1]
        if element_type:
            for value, types in SAMPLES:
                if element_type not in types:
                    cases.append((f"{path}[0]={json.dumps(value)}",
                                  doc_with(f"{path}[0]", value), [], "config",
                                  f"'{path}[0]' must be a JSON {element_type}, got "))
        if field.type == "list of numbers":
            for value in NON_FINITE:
                cases.append((f"{path}[1]={json.dumps(value)}", doc_with(f"{path}[1]", value),
                              [], "config", f"'{path}[1]' must be a JSON number, got "))
        for value in outside(field.range) if field.range is not None else []:
            cases.append((f"{path}={json.dumps(value)}", doc_with(path, value), [], "config",
                          f"'{path}' must be "))
        if field.default is REQUIRED:
            cases.append((f"{path} missing", doc_with(path), [], "config",
                          f"config: missing required field '{path}'"))
        if field.type == "object":
            cases.append((f"{path}.zzz", doc_with(f"{path}.zzz", 1), [], "config",
                          f"unknown {path} fields: ['zzz']"))
    cases.append(("zzz", doc_with("zzz", 1), [], "config", "unknown config fields: ['zzz']"))
    cases.append(("seed missing", doc_with("seed"), [], "config",
                  "config: missing required field 'seed'"))
    for name, low in SIZES.items():
        for value in (low - 1, MAX_SIZE + 1, 2**63 - 1):
            cases.append((f"simulation.{name}={value}", doc_with(f"simulation.{name}", value),
                          [], "config", f"{name} must be in [{low}, 2^24], got {value}"))
    for value in (0, MAX_SIZE + 1, 2**63 - 1):
        cases.append((f"simulation.dims[1]={value}", doc_with("simulation.dims[1]", value),
                      [], "config", f"dims[1] must be in [1, 2^24], got {value}"))
    # Cross-field rules, checked after the walk.
    cases += [
        ("both protocol forms", doc_with("protocol.rates", [0.2, 0.5],
                                         doc_with("protocol.shared_rate", 0.3)), [], "config",
         "protocol must set exactly one of"),
        ("rates length", doc_with("protocol.rates", [0.2]), [], "config",
         "'protocol.rates' has 1 entries for 2 modalities"),
        ("dims length", doc_with("simulation.dims", [3]), [], "config",
         "'simulation.dims' has 1 entries for 2 modalities"),
        ("--seed -1", BASE, ["--seed", "-1"], "config", "--seed must be in [0, 2^64), got -1"),
        ("--seed 2^64", BASE, ["--seed", str(2**64)], "config", "--seed must be in"),
        ("rate 1.0", doc_with("protocol.rates[1]", 1.0), [], "config", "rate for 'video'"),
        ("no positive informativeness", doc_with("simulation.informativeness", [0, 0]), [],
         "config", "informativeness weights"),
    ]
    for name in ["a,b", "a\nb", "", 'a"b', "a\rb"]:
        cases.append((f"modality {name!r}", doc_with("modalities[1]", name), [], "config",
                      f"modality name {name!r} must be"))
    return cases


COMMANDS = [
    lambda out: ["mask", "generate", "--out", str(out / "masks.csv")],
    lambda out: ["simulate", "run", "--out", str(out)],
    lambda out: ["protocol", "mean-match"],
]
CONFIG_CASES = [(*case, RNG.randrange(len(COMMANDS))) for case in config_cases()]

TRACE_ROWS = [f"{t},{m},{k},0.{t + m + k}" for t in (1, 2, 3) for m in (0, 1) for k in (0, 1, 2)]
AGG_ROWS = [f"{t},{m},0.{2 * t + m}" for t in (1, 2, 3) for m in (0, 1)]
# Format -> (argv before the path, header, rows, the last row with a non-canonical number).
FORMATS = {
    "maskmatrix-v1": (["mask", "stats", "--file"], "sample_id,a,b",
                      ["0,1,0", "1,0,1", "2,1,1"], "02,1,1"),
    "abltable-v1": (["metrics", "mei", "--table"], "combination,metric,value",
                    ["01,UA,0.5", "10,UA,0.25", "11,UA,0.75"], "11,UA,7.5e-1"),
    "gradtrace-v1": (["metrics", "mli", "--trace"], "step,modality,module,grad_l2",
                     TRACE_ROWS, "3,1,2,6e-1"),
    "gradagg-v1": (["metrics", "mli", "--trace"], "step,modality,G", AGG_ROWS, "3,01,0.7"),
}


def lines(*rows: str) -> str:
    return "".join(f"{row}\n" for row in rows)


def file_cases() -> list[tuple[str, list[str], str, str, str]]:
    """(id, argv before the path, file text, kind, message after `error: path`)."""
    cases = []
    for fmt, (argv, header, rows, noncanonical) in FORMATS.items():
        first, rest = header.split(",", 1)
        # An exact duplicate trace row is tolerated: it repeats what is known.
        duplicate = "ok" if fmt.startswith("grad") else "file"
        cases += [
            (f"{fmt} valid", argv, lines(header, *rows), "ok", ""),
            (f"{fmt} empty", argv, "", "file", ": empty file"),
            (f"{fmt} header only", argv, lines(header), "file", ": no "),
            (f"{fmt} BOM", argv, "\ufeff" + lines(header, *rows), "file", ":1: "),
            (f"{fmt} truncated", argv, lines(header, *rows)[:-3], "file",
             f":{len(rows) + 1}: "),
            (f"{fmt} duplicate", argv, lines(header, *rows, rows[-1]), duplicate,
             f":{len(rows) + 2}: " if duplicate == "file" else ""),
            (f"{fmt} non-canonical", argv, lines(header, *rows[:-1], noncanonical), "file",
             f":{len(rows) + 1}: "),
            (f"{fmt} quoted header", argv, lines(f'"{first}",{rest}', *rows), "file", ":1: "),
            (f"{fmt} empty header field", argv, lines(f",{rest}", *rows), "file", ":1: "),
        ]
    mask_argv, _, _, _ = FORMATS["maskmatrix-v1"]
    abl_argv, abl_header, abl_rows, _ = FORMATS["abltable-v1"]
    trace_argv, trace_header, trace_rows, _ = FORMATS["gradtrace-v1"]
    cases += [
        ("maskmatrix-v1 all-missing row", mask_argv, lines("sample_id,a,b", "0,0,0"), "file",
         ": contains an all-missing row"),
        ("abltable-v1 one modality", abl_argv, lines(abl_header, "1,UA,0.25"), "file",
         ":2: combination length 1"),
        ("abltable-v1 21 modalities", abl_argv, lines(abl_header, "1" * 21 + ",UA,0.25"),
         "file", ":2: combination length 21"),
        ("abltable-v1 missing combination", abl_argv, lines(abl_header, *abl_rows[1:]),
         "domain", ""),
        ("abltable-v1 equal scores", abl_argv,
         lines(abl_header, "01,UA,0.5", "10,UA,0.5", "11,UA,0.5"), "degenerate", ""),
        ("gradtrace-v1 conflicting duplicate", trace_argv,
         lines(trace_header, *trace_rows, trace_rows[-1] + "5"), "domain", ""),
        ("gradtrace-v1 one step", trace_argv, lines(trace_header, *trace_rows[:6]), "domain",
         ""),
    ]
    # An index far beyond the data names the first gap; no grid that wide is built.
    agg_argv, agg_header, _, _ = FORMATS["gradagg-v1"]
    huge = 2**62
    cases += [
        ("gradtrace-v1 huge modality index", trace_argv,
         lines(trace_header, "1,0,0,0.5", f"1,{huge},0,0.5"), "domain",
         "modality 1 has no defined gradient values"),
        ("gradtrace-v1 huge module index", trace_argv,
         lines(trace_header, "1,0,0,0.5", f"1,0,{huge},0.5"), "domain",
         f"missing module entries: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, "
         f"16, 17, 18, 19, 20, ...] ({huge - 1} in all) at step 1, modality 0"),
        ("gradagg-v1 huge modality index", agg_argv,
         lines(agg_header, "1,0,0.5", f"1,{huge},0.5"), "domain",
         "modality 1 has no defined gradient values"),
    ]
    # Finite values whose trace, MLI or MEI arithmetic overflows float64, and
    # an infinite epsilon: each once printed a number or a misleading error
    # (with numpy warnings), a traceback, or read as a degenerate profile.
    cases += [
        ("gradtrace-v1 overflowing module sum", trace_argv,
         lines(trace_header, "1,0,0,1.7e+308", "1,0,1,1.7e+308", "1,1,0,1.0", "1,1,1,1.0",
               "2,0,0,1.0", "2,0,1,1.0", "2,1,0,1.0", "2,1,1,1.0"), "domain",
         "the 2 module norms at step 1, modality 0 do not sum to a finite value"),
        ("gradagg-v1 overflowing changes", agg_argv,
         lines(agg_header, "1,0,0.0", "1,1,0.0", "2,0,1.7e+308", "2,1,1.7e+308", "3,0,0.0",
               "3,1,1.0"), "domain", "step-to-step changes of the trace overflow float64"),
        ("abltable-v1 overflowing drops", abl_argv,
         lines(abl_header, "01,UA,-1.7e+308", "10,UA,1.0", "11,UA,1.7e+308"), "domain",
         "contribution of modality 0 to 'UA' overflows float64"),
        ("abltable-v1 overflowing ratios", abl_argv,
         lines(abl_header, "01,UA,0.0", "10,UA,0.0", "11,UA,1.7e+300"), "domain",
         "modality contributions |zeta| sum to inf"),
        ("abltable-v1 underflowing weights", abl_argv,
         lines(abl_header, "01,UA,0.0", "10,UA,0.0", "11,UA,1e-300"), "degenerate",
         "all contribution weights p_m underflow to zero"),
        ("abltable-v1 infinite epsilon", [*abl_argv[:-1], "--epsilon", "inf", abl_argv[-1]],
         lines(abl_header, *abl_rows), "domain", "epsilon must be finite and positive, got inf"),
    ]
    return cases


FILE_CASES = file_cases()


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def assert_contract(code: int, err: str, kind: str, prefix: str) -> None:
    assert code == EXIT[kind], err
    assert "Traceback" not in err
    if kind == "ok":
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.count("error:") == 1, err
        assert err.startswith(f"error: {prefix}"), err


def config_argv(tmp_path, doc, extra, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return [*COMMANDS[command](tmp_path / "out"), "--config", str(path), *extra]


def file_argv(tmp_path, argv, text):
    path = tmp_path / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return [*argv, str(path)], path


def test_base_document_covers_the_schema():
    paths = {f"{prefix}{key}" for prefix, obj in (("", BASE), ("protocol.", BASE["protocol"]),
                                                  ("simulation.", BASE["simulation"]))
             for key in obj}
    assert paths | {"protocol.shared_rate"} == set(SCHEMA)


@pytest.mark.parametrize("case_id, doc, extra, kind, prefix, command", CONFIG_CASES,
                         ids=[case[0] for case in CONFIG_CASES])
def test_config_case(tmp_path, capsys, case_id, doc, extra, kind, prefix, command):
    if kind == "ok":
        command = 0  # a valid document under `mask generate`; training is tested elsewhere
    code = main(config_argv(tmp_path, doc, extra, command))
    assert_contract(code, capsys.readouterr().err, kind, prefix)
    assert (tmp_path / "out").exists() == (kind == "ok")


# A numpy warning is an error here: the contract allows one stderr line.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case_id, argv, text, kind, prefix", FILE_CASES,
                         ids=[case[0] for case in FILE_CASES])
def test_file_case(tmp_path, capsys, case_id, argv, text, kind, prefix):
    argv, path = file_argv(tmp_path, argv, text)
    code = main(argv)
    out, err = capsys.readouterr()
    assert_contract(code, err, kind, f"{path}{prefix}" if kind == "file" else prefix)
    if kind != "ok":
        assert out == "", out  # no partial result beside the error line


@pytest.mark.parametrize("command", ["mask", "simulate", "merge"])
def test_out_that_is_a_file(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("taken\n")
    if command == "mask":
        out = f"{afile}/masks.csv"
        argv = ["mask", "generate", "--out", out]
    elif command == "simulate":
        out = str(afile)
        argv = ["simulate", "run", "--out", out]
    else:
        report = tmp_path / "report.json"
        assert main(["simulate", "run", "--out", str(tmp_path / "run"),
                     "--config", config_argv(tmp_path, BASE, [], 0)[-1]]) == 0
        report.write_bytes((tmp_path / "run" / "report.json").read_bytes())
        out = f"{afile}/merged.json"
        argv = ["report", "merge", str(report), str(report), "--out", out]
    if command != "merge":
        argv += ["--config", config_argv(tmp_path, BASE, [], 0)[-1]]
    capsys.readouterr()
    assert_contract(main(argv), capsys.readouterr().err, "file", f"--out {out}: ")
    assert afile.read_text() == "taken\n"


# Kept out of CONFIG_CASES, whose seeded draws pick the fresh-interpreter
# sample; each name runs under all three commands instead.
@pytest.mark.parametrize("command", range(len(COMMANDS)))
@pytest.mark.parametrize("name", [["x"], 5, None], ids=json.dumps)
def test_metric_name_that_is_not_a_string(tmp_path, capsys, name, command):
    doc = doc_with("metrics", [{"name": name}])
    code = main(config_argv(tmp_path, doc, [], command))
    assert_contract(code, capsys.readouterr().err, "config",
                    f"bad metric entry {{'name': {name!r}}}")
    assert not (tmp_path / "out").exists()


# A metric name is a cell of the ablation-table file, so one its reader
# would refuse is a config error before anything is written.
@pytest.mark.parametrize("command", range(len(COMMANDS)))
@pytest.mark.parametrize("name", ["a,b", ""], ids=json.dumps)
@pytest.mark.parametrize("entry", [lambda name: name, lambda name: {"name": name}],
                         ids=["string", "object"])
def test_metric_name_outside_the_table_grammar(tmp_path, capsys, entry, name, command):
    doc = doc_with("metrics", [entry(name)])
    code = main(config_argv(tmp_path, doc, [], command))
    assert_contract(code, capsys.readouterr().err, "config",
                    f"metric name {name!r} must be nonempty, without commas, double quotes "
                    "or line breaks")
    assert not (tmp_path / "out").exists()


# json.loads reads these as NaN or an infinity; JSON defines none of them.
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_merge_of_a_non_finite_payload_number(tmp_path, capsys, number):
    path = tmp_path / "nan.json"
    path.write_text(f'{{"payload": {{"x": {number}}}, "payload_sha256": "abc"}}\n')
    out = tmp_path / "m.json"
    code = main(["report", "merge", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert_contract(code, captured.err, "file", f"{path}: payload holds a non-finite number")
    assert captured.out == ""
    assert not out.exists()


# json.loads raises a plain ValueError, not JSONDecodeError, for an integer
# beyond Python's digit limit (4300 digits by default).
HUGE = "1" * 5000


@pytest.mark.parametrize("command", range(len(COMMANDS)))
def test_config_integer_beyond_the_digit_limit(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE).replace('"seed": 11', f'"seed": {HUGE}'), encoding="utf-8")
    code = main([*COMMANDS[command](tmp_path / "out"), "--config", str(path)])
    assert_contract(code, capsys.readouterr().err, "config", f"{path}: invalid JSON: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", range(len(COMMANDS)))
@pytest.mark.parametrize("key, value", [("seed", HUGE), ("protocol.rates", f"[0.1,{HUGE}]")],
                         ids=["seed", "rates"])
def test_override_integer_beyond_the_digit_limit(tmp_path, capsys, command, key, value):
    argv = config_argv(tmp_path, BASE, ["--set", f"{key}={value}"], command)
    assert_contract(main(argv), capsys.readouterr().err, "config", f"override {key!r}: ")
    assert not (tmp_path / "out").exists()


def test_merge_of_an_integer_beyond_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"payload": {{"x": {HUGE}}}, "payload_sha256": "abc"}}\n')
    out = tmp_path / "m.json"
    code = main(["report", "merge", str(path), "--out", str(out)])
    captured = capsys.readouterr()
    assert_contract(code, captured.err, "file", f"{path}: invalid JSON (")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("paired", [False, True])
@pytest.mark.parametrize("where", ["file", "under a file", "output_dir"])
def test_unusable_out_fails_before_training(tmp_path, capsys, monkeypatch, paired, where):
    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(simtrainer, "_step", no_step)
    afile = tmp_path / "afile"
    afile.write_text("taken\n")
    out = afile if where == "file" else afile / "run"
    doc = doc_with("simulation.paired", paired)
    if where == "output_dir":
        doc["output_dir"] = str(out)
        argv, prefix = ["simulate", "run"], f"config output_dir {out}: "
    else:
        argv, prefix = ["simulate", "run", "--out", str(out)], f"--out {out}: "
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main([*argv, "--config", str(path)])
    assert_contract(code, capsys.readouterr().err, "file", prefix)
    assert afile.read_text() == "taken\n"


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("cannot allocate the mask matrix")

    monkeypatch.setattr(protocol, "generate_mask_matrix", exhausted)
    code = main(config_argv(tmp_path, BASE, [], 0))
    assert_contract(code, capsys.readouterr().err, "config",
                    "out of memory: cannot allocate the mask matrix")


def test_mask_generate_beyond_the_enumeration_cap(tmp_path, capsys):
    M = protocol.MAX_ENUMERATED_MODALITIES + 1
    doc = {"modalities": [f"m{m}" for m in range(M)], "protocol": {"shared_rate": 0.5},
           "seed": 3, "n_samples": 30}
    code = main(config_argv(tmp_path, doc, [], 0))
    captured = capsys.readouterr()
    assert_contract(code, captured.err, "ok", "")
    assert captured.out.endswith(
        f"(pattern table omitted: M={M} exceeds the enumeration cap)\n")
    assert (tmp_path / "out" / "masks.csv").exists()


FRESH_SAMPLE = RNG.sample(range(len(CONFIG_CASES)), 4), RNG.sample(range(len(FILE_CASES)), 3)


@pytest.mark.parametrize("index", FRESH_SAMPLE[0], ids=lambda i: CONFIG_CASES[i][0])
def test_config_case_in_fresh_interpreter(tmp_path, index):
    case_id, doc, extra, kind, prefix, command = CONFIG_CASES[index]
    proc = run_cli_process(config_argv(tmp_path, doc, extra, 0 if kind == "ok" else command))
    assert_contract(proc.returncode, proc.stderr, kind, prefix)


@pytest.mark.parametrize("index", FRESH_SAMPLE[1], ids=lambda i: FILE_CASES[i][0])
def test_file_case_in_fresh_interpreter(tmp_path, index):
    case_id, argv, text, kind, prefix = FILE_CASES[index]
    argv, path = file_argv(tmp_path, argv, text)
    proc = run_cli_process(argv)
    assert_contract(proc.returncode, proc.stderr, kind,
                    f"{path}{prefix}" if kind == "file" else prefix)
    assert kind == "ok" or proc.stdout == ""
