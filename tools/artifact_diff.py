"""Compare what two missdiag source trees write for one fixed set of commands.

    python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the `missdiag` package, such as
the `src/` of a checkout. Every command runs in a fresh interpreter whose
PYTHONPATH is that directory alone, inside its own scratch directory and
with the same relative paths on both sides, so console output compares
as it is. The commands are the README paired simulation at seeds 1 and
2, the README simulation unpaired (one unnamed arm), `simulate run` on
the README config without its simulation block (an error and nothing
written), a 5-modality paired regression with per-epoch mask resampling, the
same regression with label noise that makes training diverge, an
8-modality paired run logging every third step, a 5-modality paired
classification whose input widths 4, 7, 4, 7, 3 make encoder groups of
two, two and one, a 4-modality paired classification with hidden width 1,
every second step logged, a short last batch and resampled masks, a
3-modality paired classification with two classes, hidden width 2 and a
last batch of one row, `mask generate` at M = 3, 5 and 12 with 20,000 rows
(seed 2^64 - 1 among the seeds) and at M = 3 with 100,001 rows, whose
sample ids take every width from 1 to 6 digits, `metrics mei` on an
M = 10 table and on four malformed M = 5 tables (a repeated row, the same
repeat as an unterminated last line, a missing combination and a
non-finite value), `metrics mli` on a seeded `gradtrace-v1` file (gapped
steps, absent modalities), the same kind of file with its rows shuffled
and five repeated exactly, and a seeded `gradagg-v1` file, `metrics mli`
on a trace row with a negative index and on one with a negative norm,
`protocol mean-match` at M = 14 with JS and with KL, and KL at M = 6
with one zero rate.

One line per artifact: `same`, or `differs` with the first line where the
two sides part. The artifacts are every file a command writes and its
console (exit status, stdout, stderr); `report.json` is compared without
its `generated_at` timestamp. Exits 0 when every artifact is the same,
1 when any differs, 2 on bad arguments.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

README_CONFIG = {
    "modalities": ["audio", "video", "text"],
    "protocol": {"rates": [0.1, 0.2, 0.6]},
    "seed": 1,
    "output_dir": "out",
    "simulation": {
        "dims": [16, 16, 16], "informativeness": [1.0, 1.0, 1.0],
        "n_train": 2000, "n_valid": 300, "n_test": 6000, "n_classes": 8,
        "epochs": 20, "batch_size": 48, "learning_rate": 0.015,
        "mei_epoch_stride": 20, "paired": True,
    },
}
# The one case that runs a single arm: one unnamed arm, written to the
# output directory itself, and its `run:` and `mei[...]` console lines.
README_UNPAIRED_CONFIG = {
    **README_CONFIG,
    "simulation": {**README_CONFIG["simulation"], "paired": False},
}
NO_SIMULATION_CONFIG = {k: v for k, v in README_CONFIG.items() if k != "simulation"}
RESAMPLE_CONFIG = {
    "modalities": ["m0", "m1", "m2", "m3", "m4"],
    "protocol": {"rates": [0.1, 0.3, 0.5, 0.2, 0.6]},
    "seed": 1,
    "simulation": {
        "task": "regression", "dims": [8, 6, 5, 7, 4],
        "informativeness": [1.0, 0.5, 1.0, 0.25, 1.0],
        "n_train": 600, "n_valid": 100, "n_test": 500, "epochs": 6,
        "batch_size": 32, "learning_rate": 0.01, "mei_epoch_stride": 3,
        "resample_masks_per_epoch": True, "paired": True,
    },
}
STRIDE_CONFIG = {
    "modalities": [f"m{m}" for m in range(8)],
    "protocol": {"rates": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]},
    "seed": 2,
    "simulation": {
        "dims": [4] * 8, "informativeness": [1.0] * 8, "n_train": 400,
        "n_valid": 100, "n_test": 400, "n_classes": 4, "epochs": 4,
        "batch_size": 32, "mei_epoch_stride": 2, "grad_log_stride": 3,
        "paired": True,
    },
}
# Encoder width groups of two, two and one: the one case whose encoders
# mix group sizes (README and stride3-m8 have one group, resample-m5 none).
MIXED_WIDTH_CONFIG = {
    "modalities": [f"m{m}" for m in range(5)],
    "protocol": {"rates": [0.15, 0.3, 0.45, 0.25, 0.6]},
    "seed": 3,
    "simulation": {
        "dims": [4, 7, 4, 7, 3], "informativeness": [1.0, 0.5, 1.0, 0.25, 1.0],
        "n_train": 400, "n_valid": 100, "n_test": 400, "n_classes": 4, "epochs": 4,
        "batch_size": 32, "mei_epoch_stride": 2, "grad_log_stride": 1, "paired": True,
    },
}
# Hidden width 1, where numpy orders the batch sums of the bias gradients
# differently, with every second step logged, resampled masks and a short
# last batch (250 = 7 x 32 + 26).
H1_CONFIG = {
    "modalities": [f"m{m}" for m in range(4)],
    "protocol": {"rates": [0.2, 0.5, 0.1, 0.4]},
    "seed": 4,
    "simulation": {
        "dims": [6, 3, 6, 5], "informativeness": [1.0, 0.5, 0.75, 1.0], "hidden": 1,
        "n_train": 250, "n_valid": 100, "n_test": 300, "n_classes": 3, "epochs": 4,
        "batch_size": 32, "mei_epoch_stride": 2, "grad_log_stride": 2,
        "resample_masks_per_epoch": True, "paired": True,
    },
}
# Two classes, hidden width 2 and a 1-row last batch (97 = 2 x 48 + 1):
# the smallest class, hidden and batch sizes of the bias-gradient batch
# sums that `einsum` takes.
C2_H2_CONFIG = {
    "modalities": ["m0", "m1", "m2"],
    "protocol": {"rates": [0.3, 0.1, 0.5]},
    "seed": 5,
    "simulation": {
        "dims": [5, 3, 5], "informativeness": [1.0, 0.5, 1.0], "hidden": 2,
        "n_train": 97, "n_valid": 60, "n_test": 200, "n_classes": 2, "epochs": 6,
        "batch_size": 48, "mei_epoch_stride": 3, "grad_log_stride": 1, "paired": True,
    },
}
# A paired regression whose labels overflow the squared loss: both sides
# must exit 2 with the same single `error:` line and write nothing.
DIVERGE_CONFIG = {
    **RESAMPLE_CONFIG,
    "simulation": {**RESAMPLE_CONFIG["simulation"], "label_noise": 1e154},
}
MASK_RATES = {
    3: [0.1, 0.2, 0.6],
    5: [0.85] * 5,
    12: [0.9, 0.95, 0.97, 0.8, 0.99, 0.85, 0.9, 0.99, 0.6, 0.92, 0.85, 0.95],
}
U64_MAX = str(2**64 - 1)
MEAN_MATCH_RATES = ",".join(repr(round(0.05 + 0.065 * m, 3)) for m in range(14))


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _mask_config(M: int, n: int) -> str:
    names = [f"m{m}" for m in range(M)]
    return _json({"modalities": names, "protocol": {"rates": MASK_RATES[M]},
                  "seed": 0, "n_samples": n})


def _ablation_table(M: int) -> str:
    rng = random.Random(M)
    rows = ["combination,metric,value"]
    for metric in ("UA", "MAE"):
        rows += [f"{code:0{M}b},{metric},{rng.random()!r}" for code in range(1, 2**M)]
    return "\n".join(rows) + "\n"


def _malformed_table(fault: str) -> str:
    """The M = 5 table with one fault, which `metrics mei` names with its line."""
    lines = _ablation_table(5).splitlines()
    if fault == "duplicate":
        lines.insert(40, lines[7])
    elif fault == "unterminated-duplicate":  # the missing LF is named, not the repeat
        return "\n".join(lines + [lines[7]])
    elif fault == "missing":
        del lines[20]
    else:
        lines[12] = lines[12].rsplit(",", 1)[0] + ",1e+999"
    return "\n".join(lines) + "\n"


def _grad_trace(seed: int) -> str:
    """A `gradtrace-v1` file: 3 modalities, 4 modules, every third step, some cells absent."""
    rng = random.Random(seed)
    rows = ["step,modality,module,grad_l2"]
    for step in range(0, 120, 3):
        for m in range(3):
            if rng.random() < 0.1:  # the modality was absent from the step's batch
                continue
            rows += [f"{step},{m},{k},{rng.random()!r}" for k in range(4)]
    return "\n".join(rows) + "\n"


def _shuffled_grad_trace(seed: int) -> str:
    """`_grad_trace(seed)` with its rows shuffled and a few repeated exactly: the sorting path."""
    rng = random.Random(seed)
    header, *rows = _grad_trace(seed).splitlines()
    rows += rng.sample(rows, 5)
    rng.shuffle(rows)
    return "\n".join([header, *rows]) + "\n"


def _grad_agg(seed: int) -> str:
    rng = random.Random(seed)
    rows = ["step,modality,G"]
    rows += [f"{t},{m},{10 * rng.random()!r}" for t in range(1, 61) for m in range(4)]
    return "\n".join(rows) + "\n"


def _mei(text: str) -> tuple[dict, list[str]]:
    return {"table.csv": text}, ["metrics", "mei", "--table", "table.csv"]


def _mli(text: str) -> tuple[dict, list[str]]:
    return {"trace.csv": text}, ["metrics", "mli", "--trace", "trace.csv"]


def _simulate(config: dict, *extra: str) -> tuple[dict, list[str]]:
    return ({"config.json": _json(config)},
            ["simulate", "run", "--config", "config.json", "--out", "out", *extra])


def _mask(M: int, seed: str, n: int = 20_000) -> tuple[dict, list[str]]:
    return ({"config.json": _mask_config(M, n)},
            ["mask", "generate", "--config", "config.json", "--seed", seed,
             "--out", "out/masks.csv"])


# Case name -> (input files by name, missdiag argv run in the case directory).
CASES: dict[str, tuple[dict, list[str]]] = {
    "readme-seed1": _simulate(README_CONFIG, "--seed", "1"),
    "readme-seed2": _simulate(README_CONFIG, "--seed", "2"),
    "readme-unpaired": _simulate(README_UNPAIRED_CONFIG),
    "simulate-no-simulation": _simulate(NO_SIMULATION_CONFIG),
    "resample-m5": _simulate(RESAMPLE_CONFIG),
    "stride3-m8": _simulate(STRIDE_CONFIG),
    "mixed-width-m5": _simulate(MIXED_WIDTH_CONFIG),
    "h1-stride2-m4": _simulate(H1_CONFIG),
    "c2-h2-lastrow1-m3": _simulate(C2_H2_CONFIG),
    "diverge-paired": _simulate(DIVERGE_CONFIG),
    "mask-m3-seed0": _mask(3, "0"),
    "mask-m3-seedmax": _mask(3, U64_MAX),
    "mask-m5-seed1": _mask(5, "1"),
    "mask-m12-seedmax": _mask(12, U64_MAX),
    "mask-m3-n100001": _mask(3, "7", 100_001),
    "mei-m10": _mei(_ablation_table(10)),
    "mei-duplicate-row": _mei(_malformed_table("duplicate")),
    "mei-unterminated-duplicate": _mei(_malformed_table("unterminated-duplicate")),
    "mei-missing-combination": _mei(_malformed_table("missing")),
    "mei-non-finite": _mei(_malformed_table("non-finite")),
    "mli-gradtrace": _mli(_grad_trace(3)),
    "mli-gradagg": _mli(_grad_agg(4)),
    "mli-shuffled": _mli(_shuffled_grad_trace(5)),
    "mli-negative-index": _mli("step,modality,module,grad_l2\n1,0,0,0.5\n-1,0,0,0.5\n"),
    "mli-negative-norm": _mli("step,modality,module,grad_l2\n1,0,0,0.5\n1,0,0,-0.5\n"),
    "js-m14": ({}, ["protocol", "mean-match", "--rates", MEAN_MATCH_RATES, "--kind", "js"]),
    "kl-m14": ({}, ["protocol", "mean-match", "--rates", MEAN_MATCH_RATES, "--kind", "kl"]),
    # A zero rate leaves every pattern that misses modality 2 without mass.
    "kl-zero-rate": ({}, ["protocol", "mean-match", "--rates", "0.3,0.1,0.0,0.45,0.2,0.6",
                          "--kind", "kl"]),
}


def _start(src: Path, workdir: Path, inputs: dict, argv: list[str]) -> subprocess.Popen:
    workdir.mkdir(parents=True)
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "MISSDIAG_SEED"}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen([sys.executable, "-m", "missdiag.cli", *argv], cwd=workdir,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def _outputs(workdir: Path, inputs: dict, proc: subprocess.Popen) -> dict[str, str]:
    """Artifact name -> comparable text: the console, then every written file."""
    stdout, stderr = proc.communicate()
    outputs = {"console": f"exit {proc.returncode}\n[stdout]\n{stdout}[stderr]\n{stderr}"}
    for path in sorted(workdir.rglob("*")):
        name = path.relative_to(workdir).as_posix()
        if not path.is_file() or name in inputs:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        if path.name == "report.json":
            try:
                doc = json.loads(text)
                doc.pop("generated_at", None)
                text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
            except ValueError:
                pass
        outputs[name] = text
    return outputs


def _first_difference(parent: str, change: str) -> str:
    a, b = parent.splitlines(), change.splitlines()
    for i, (x, y) in enumerate(zip(a, b), start=1):
        if x != y:
            return f"line {i}: parent {x[:100]!r} change {y[:100]!r}"
    i = min(len(a), len(b)) + 1
    if len(a) != len(b):
        side = "parent" if len(a) > len(b) else "change"
        return f"line {i}: only the {side} has it: {(a if len(a) > len(b) else b)[i - 1][:100]!r}"
    return "line endings differ"


def compare(parent_src: Path, change_src: Path, cases: dict = CASES) -> int:
    """Run every case on both trees, print one line per artifact; 1 if any differs."""
    differs = False
    with tempfile.TemporaryDirectory(prefix="artifact_diff.") as tmp:
        for case, (inputs, argv) in cases.items():
            dirs = [Path(tmp) / side / case for side in ("parent", "change")]
            procs = [_start(src, d, inputs, argv)
                     for src, d in zip((parent_src, change_src), dirs)]
            parent, change = (_outputs(d, inputs, p) for d, p in zip(dirs, procs))
            for name in sorted(parent.keys() | change.keys(), key=lambda n: (n != "console", n)):
                label = f"{case}/{name}"
                if name not in change or name not in parent:
                    side = "parent" if name in parent else "change"
                    print(f"differs {label}: written by the {side} only")
                elif parent[name] != change[name]:
                    print(f"differs {label}: {_first_difference(parent[name], change[name])}")
                else:
                    print(f"same    {label}")
                    continue
                differs = True
    return 1 if differs else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/artifact_diff.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "missdiag" / "__init__.py").is_file():
            print(f"error: {tree} holds no missdiag package", file=sys.stderr)
            return 2
    return compare(*trees)


if __name__ == "__main__":
    sys.exit(main())
