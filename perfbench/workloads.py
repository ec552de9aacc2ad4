"""The benchmark's two workloads, `sim-mask` and `analyze`.

`sim-mask` runs the trainer and the mask sampler: each operation is the
`PairedSim` part, then the `MaskScale` part. `analyze` runs neither and is
the control for changes to both.

Each workload makes its inputs from the workload seed only (`prepare`),
names the `missdiag` command lines of one operation (`commands`) and
checks one operation's outputs against references computed with the
independent oracles in `tests/oracles.py` (`check`). The program sees
only the generated argv and files.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

import oracles

TOL = 1e-12
# `mask` commands print rates with 6 decimals.
PRINTED_TOL = 5e-7 + TOL
MEI_EPSILON = 1e-8
MODES = {"balanced-is-one": "balanced", "dominance-is-one": "dominance"}
LOWER_BETTER = {"MAE"}
SEEDS_PER_RUN = 2


def _seeds(seed: int, tag: int) -> list[int]:
    """Program seeds an operation cycles through, derived from the workload seed."""
    state = np.random.SeedSequence([seed, tag]).generate_state(SEEDS_PER_RUN)
    return [int(s) for s in state]


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _value(text: str, key: str) -> float:
    """The number printed after `key: ` at the start of a line."""
    match = re.search(rf"^{re.escape(key)}: (\S+)", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no {key!r} line in output")
    return float(match.group(1))


def _table(text: str, header: str, n_rows: int) -> list[list[str]]:
    """The `n_rows` CSV rows printed after the line `header`."""
    lines = text.splitlines()
    start = lines.index(header) + 1
    return [line.split(",") for line in lines[start:start + n_rows]]


def _differs(what: str, got: float, want: float, tol: float = TOL) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, reference {want!r}"]


def _bit_tuple(bits: str) -> tuple[int, ...]:
    return tuple(int(c) for c in bits)


class Workload:
    name = ""

    def __init__(self, seed: int, toy: bool) -> None:
        self.seed = seed
        self.toy = toy

    def prepare(self, work: Path) -> None:
        """Write the inputs under `work` and compute the reference values."""
        raise NotImplementedError

    def commands(self, op: int, out: Path) -> list[list[str]]:
        """argv of each `missdiag` command in operation `op`, writing under `out`."""
        raise NotImplementedError

    def check(self, op: int, out: Path, outputs: list[tuple[str, str]]) -> list[str]:
        """Problems with operation `op`, given each command's (stdout, stderr)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# sim-mask, first part: `simulate run`


# The README's paired-simulation config.
PAIRED_CONFIG = {
    "modalities": ["audio", "video", "text"],
    "protocol": {"rates": [0.1, 0.2, 0.6]},
    "seed": 1,
    "output_dir": "out",
    "simulation": {
        "dims": [16, 16, 16],
        "informativeness": [1.0, 1.0, 1.0],
        "n_train": 2000,
        "n_valid": 300,
        "n_test": 6000,
        "n_classes": 8,
        "epochs": 20,
        "batch_size": 48,
        "learning_rate": 0.015,
        "mei_epoch_stride": 20,
        "paired": True,
    },
}
TOY_SIMULATION = {"n_train": 96, "n_valid": 40, "n_test": 60, "epochs": 2,
                  "mei_epoch_stride": 2}


def _agg_grid(path: Path) -> list[list[float]]:
    """A gradagg-v1 file as a T x M grid of floats."""
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    T = max(int(r[0]) for r in rows)
    M = max(int(r[1]) for r in rows) + 1
    grid = [[math.nan] * M for _ in range(T)]
    for step, modality, g in rows:
        grid[int(step) - 1][int(modality)] = float(g)
    return grid


def _abl_scores(path: Path) -> dict[str, dict[tuple[int, ...], float]]:
    """An abltable-v1 file as metric -> {bit tuple: score}."""
    scores: dict[str, dict[tuple[int, ...], float]] = {}
    for line in path.read_text(encoding="utf-8").splitlines()[1:]:
        bits, metric, value = line.split(",")
        scores.setdefault(metric, {})[_bit_tuple(bits)] = float(value)
    return scores


class PairedSim(Workload):
    """`simulate run` on the README's paired config."""

    def prepare(self, work: Path) -> None:
        config = json.loads(json.dumps(PAIRED_CONFIG))
        if self.toy:
            config["simulation"].update(TOY_SIMULATION)
        self.config_path = work / "paired.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.seeds = _seeds(self.seed, 1)
        self.manifests: dict[int, bytes] = {}

    def commands(self, op: int, out: Path) -> list[list[str]]:
        seed = self.seeds[op % len(self.seeds)]
        return [["simulate", "run", "--config", str(self.config_path),
                 "--seed", str(seed), "--out", str(out)]]

    def check(self, op: int, out: Path, outputs: list[tuple[str, str]]) -> list[str]:
        from missdiag import report

        problems = []
        seed = self.seeds[op % len(self.seeds)]
        manifest_bytes = (out / "manifest.json").read_bytes()
        manifest = json.loads(manifest_bytes)
        for name, entry in sorted(manifest["artifacts"].items()):
            if _sha256(out / entry["path"]) != entry["sha256"]:
                problems.append(f"{name}: sha256 does not match the manifest")
        payload = report.read_report(out / manifest["report"]).payload
        epsilon = manifest["config"]["epsilon"]
        for arm in ("imr", "smr"):
            want_mli, want_raw = oracles.brute_mli(_agg_grid(out / arm / "gradagg.csv"))
            got = payload[arm]["mli"]
            problems += _differs(f"{arm} mli", got["value"], want_mli)
            problems += _differs(f"{arm} mli raw_inner", got["raw_inner"], want_raw)
            for metric, scores in _abl_scores(out / arm / "abltable_test.csv").items():
                for mode, oracle_mode in MODES.items():
                    value, h2, _p = oracles.brute_mei(
                        scores, metric not in LOWER_BETTER, epsilon, oracle_mode)
                    got = payload[arm]["mei"][metric][mode]
                    problems += _differs(f"{arm} mei[{metric}][{mode}]", got["value"], value)
                    problems += _differs(f"{arm} h2[{metric}]", got["h2"], h2)
        first = self.manifests.setdefault(seed, manifest_bytes)
        if manifest_bytes != first:
            problems.append(f"seed {seed}: manifest differs from the first run with this seed")
        return problems


# ---------------------------------------------------------------------------
# sim-mask, second part: `mask generate` and `mask stats`


# (file stem, modality names, rates, rows, toy rows). The second protocol
# rejects the all-missing draw for ~44% of attempts.
MASK_PROTOCOLS = (
    ("m3", ("audio", "video", "text"), (0.1, 0.2, 0.6), 100_000, 600),
    ("m5", ("m0", "m1", "m2", "m3", "m4"), (0.85,) * 5, 20_000, 200),
)


class MaskScale(Workload):
    """`mask generate` then `mask stats`, at low and at high rejection."""

    def prepare(self, work: Path) -> None:
        self.protocols = []
        for stem, names, rates, rows, toy_rows in MASK_PROTOCOLS:
            n = toy_rows if self.toy else rows
            config_path = work / f"{stem}.json"
            config_path.write_text(json.dumps({
                "modalities": list(names), "protocol": {"rates": list(rates)},
                "seed": 0, "n_samples": n,
            }), encoding="utf-8")
            marginals = [oracles.enum_marginal(rates, m) for m in range(len(rates))]
            self.protocols.append((stem, config_path, names, n, marginals))
        self.seeds = _seeds(self.seed, 2)
        # (seed, stem) -> (sha256, problems, missing count per modality) of the first
        # file seen; a repeated seed must give the same bytes.
        self.files: dict[tuple[int, str], tuple[str, list[str], np.ndarray]] = {}

    def commands(self, op: int, out: Path) -> list[list[str]]:
        seed = str(self.seeds[op % len(self.seeds)])
        argv = []
        for stem, config_path, *_ in self.protocols:
            path = str(out / f"{stem}.csv")
            argv.append(["mask", "generate", "--config", str(config_path),
                         "--seed", seed, "--out", path])
            argv.append(["mask", "stats", "--file", path])
        return argv

    def check(self, op: int, out: Path, outputs: list[tuple[str, str]]) -> list[str]:
        problems = []
        seed = self.seeds[op % len(self.seeds)]
        for j, (stem, _config, names, n, marginals) in enumerate(self.protocols):
            path = out / f"{stem}.csv"
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if (seed, stem) not in self.files:
                self.files[(seed, stem)] = (digest, *_count_mask_file(data, names, n))
            first_digest, file_problems, missing = self.files[(seed, stem)]
            problems += [f"{stem}: {p}" for p in file_problems]
            if digest != first_digest:
                problems.append(f"seed {seed}: {stem}.csv differs from the first run")
            rates = (missing / n).tolist()
            generate_out, stats_out = outputs[2 * j][0], outputs[2 * j + 1][0]
            header = "modality,rate,exact_marginal,empirical_rate"
            for m, row in enumerate(_table(generate_out, header, len(names))):
                problems += _differs(f"{stem} exact marginal {m}", float(row[2]),
                                     marginals[m], PRINTED_TOL)
                problems += _differs(f"{stem} generate rate {m}", float(row[3]),
                                     rates[m], PRINTED_TOL)
            for m, row in enumerate(_table(stats_out, "modality,empirical_rate", len(names))):
                problems += _differs(f"{stem} stats rate {m}", float(row[1]),
                                     rates[m], PRINTED_TOL)
        return problems


def _count_mask_file(data: bytes, names: tuple[str, ...], n: int) -> tuple[list[str], np.ndarray]:
    """Problems with a maskmatrix-v1 file, and its missing count per modality."""
    text = data.decode("utf-8")
    lines = text.split("\n")
    problems = []
    if lines[0] != "sample_id," + ",".join(names) or lines[-1] != "":
        problems.append("bad header or no trailing newline")
    rows = np.array([line.split(",") for line in lines[1:-1]], dtype=np.int64)
    if rows.shape != (n, len(names) + 1):
        return problems + [f"shape {rows.shape}, expected {(n, len(names) + 1)}"], \
            np.zeros(len(names))
    bits = rows[:, 1:]
    if not (rows[:, 0] == np.arange(n)).all():
        problems.append("sample ids are not 0..N-1")
    if not np.isin(bits, (0, 1)).all():
        problems.append("mask values other than 0/1")
    if not bits.any(axis=1).all():
        problems.append("an all-missing row")
    return problems, (bits == 0).sum(axis=0)


# ---------------------------------------------------------------------------
# analyze


TRACE_M, TRACE_MODULES = 4, 5
ABSENT_SHARE = 0.05
ABL_METRICS = ("UA", "F1", "MAE")


class Analyze(Workload):
    """`metrics mli` on both trace formats, `metrics mei`, `protocol mean-match`."""

    name = "analyze"

    def prepare(self, work: Path) -> None:
        rng = np.random.default_rng([self.seed, 3])
        T, abl_M, rate_M = (80, 4, 5) if self.toy else (5000, 10, 14)
        self.trace_path = work / "gradtrace.csv"
        self.agg_path = work / "gradagg.csv"
        self.table_path = work / "abltable.csv"
        grid, self.imputed = _write_traces(rng, T, self.trace_path, self.agg_path)
        self.mli = oracles.brute_mli(grid)
        self.T = T
        self.mei = _write_abltable(rng, abl_M, self.table_path)
        self.rates = [float(r) for r in rng.uniform(0.05, 0.9, size=rate_M)]
        self.shared = sum(self.rates) / rate_M
        self.js = _js(oracles.enum_pattern_probs(self.rates),
                      oracles.enum_pattern_probs([self.shared] * rate_M))

    def commands(self, op: int, out: Path) -> list[list[str]]:
        return [
            ["metrics", "mli", "--trace", str(self.trace_path)],
            ["metrics", "mli", "--trace", str(self.agg_path)],
            ["metrics", "mei", "--table", str(self.table_path),
             "--epsilon", repr(MEI_EPSILON)],
            ["protocol", "mean-match", "--rates", ",".join(repr(r) for r in self.rates),
             "--kind", "js"],
        ]

    def check(self, op: int, out: Path, outputs: list[tuple[str, str]]) -> list[str]:
        problems = []
        for (stdout, _), fmt in zip(outputs[:2], ("gradtrace", "gradagg")):
            problems += _differs(f"{fmt} mli", _value(stdout, "mli"), self.mli[0])
            problems += _differs(f"{fmt} raw_inner", _value(stdout, "raw_inner"), self.mli[1])
            if _value(stdout, "T") != self.T:
                problems.append(f"{fmt}: T is not {self.T}")
        warned = dict(
            (int(m), int(k)) for m, k in
            re.findall(r"modality (\d+): imputed (\d+) undefined", outputs[0][1]))
        if warned != self.imputed:
            problems.append(f"imputation warnings {warned}, expected {self.imputed}")
        problems += _check_mei(outputs[2][0], self.mei)
        stdout = outputs[3][0]
        problems += _differs("shared rate", _value(stdout, "mean-matched shared rate"),
                             self.shared, 0.0)
        problems += _differs("js", _value(stdout, "divergence (js) vs mean-matched "
                                                  "shared-rate protocol"), self.js)
        return problems


def _write_traces(rng: np.random.Generator, T: int, trace_path: Path,
                  agg_path: Path) -> tuple[list[list[float]], dict[int, int]]:
    """Write a gradtrace-v1 file with absent (step, modality) cells and its gradagg-v1 form.

    Returns the reference G grid (module mean, carry-forward imputation,
    backfill at the start) and the number of imputed steps per modality.
    """
    M, K = TRACE_M, TRACE_MODULES
    base = rng.uniform(0.5, 2.0, size=(M, K))
    walk = np.cumsum(rng.normal(0.0, 0.05, size=(T, M, K)), axis=0)
    norms = (base * np.exp(walk)).tolist()
    absent = rng.random((T, M)) < ABSENT_SHARE
    absent[absent.all(axis=1), 0] = False  # keep every step present
    absent = absent.tolist()
    lines = ["step,modality,module,grad_l2"]
    grid: list[list[float | None]] = [[None] * M for _ in range(T)]
    for t in range(T):
        for m in range(M):
            if absent[t][m]:
                continue
            cell = norms[t][m]
            lines.extend(f"{t + 1},{m},{k},{cell[k]!r}" for k in range(K))
            grid[t][m] = sum(cell) / K
    _write(trace_path, lines)
    imputed = {}
    for m in range(M):
        column = [grid[t][m] for t in range(T)]
        last = next(g for g in column if g is not None)
        for t, g in enumerate(column):
            if g is None:
                grid[t][m] = last
            else:
                last = g
        if None in column:
            imputed[m] = column.count(None)
    _write(agg_path, ["step,modality,G"] + [
        f"{t + 1},{m},{grid[t][m]!r}" for t in range(T) for m in range(M)])
    return grid, imputed


def _write_abltable(rng: np.random.Generator, M: int, path: Path) -> dict:
    """Write an abltable-v1 file; returns metric -> mode -> (value, h2) from brute_mei."""
    codes = range(1, 1 << M)
    bits = [format(code, f"0{M}b") for code in codes]
    lines = ["combination,metric,value"]
    references = {}
    for metric in ABL_METRICS:
        weights = rng.uniform(0.01, 0.08, size=M)
        noise = rng.normal(0.0, 0.004, size=len(bits))
        higher = metric not in LOWER_BETTER
        base = rng.uniform(0.3, 0.5) if higher else rng.uniform(0.8, 1.0)
        scores = {}
        for b, e in zip(bits, noise.tolist()):
            gain = float(sum(w for w, c in zip(weights.tolist(), b) if c == "1"))
            score = base + gain + e if higher else base - gain + e
            scores[_bit_tuple(b)] = score
            lines.append(f"{b},{metric},{score!r}")
        references[metric] = {
            mode: oracles.brute_mei(scores, higher, MEI_EPSILON, oracle_mode)[:2]
            for mode, oracle_mode in MODES.items()
        }
    _write(path, lines)
    return references


def _check_mei(stdout: str, references: dict) -> list[str]:
    problems = []
    seen = set()
    metric = None
    for line in stdout.splitlines():
        if line.startswith("metric "):
            metric = line.split()[1]
        elif line.startswith("h2: "):
            want = references[metric]["balanced-is-one"][1]
            problems += _differs(f"h2[{metric}]", float(line.split()[1]), want)
        elif line.startswith("mei["):
            mode = line[4:line.index("]")]
            want = references[metric][mode][0]
            problems += _differs(f"mei[{metric}][{mode}]", float(line.split()[1]), want)
            seen.add((metric, mode))
    if len(seen) != len(references) * len(MODES):
        problems.append(f"mei printed for {sorted(seen)}, expected every metric and mode")
    return problems


def _js(p: dict, q: dict) -> float:
    """Jensen-Shannon divergence from two exact pattern distributions."""
    terms_p, terms_q = [], []
    for bits, p_exact in p.items():
        pi, qi = float(p_exact), float(q[bits])
        mi = 0.5 * (pi + qi)
        if pi > 0:
            terms_p.append(pi * math.log(pi / mi))
        if qi > 0:
            terms_q.append(qi * math.log(qi / mi))
    return 0.5 * math.fsum(terms_p) + 0.5 * math.fsum(terms_q)


class SimMask(Workload):
    """`PairedSim`'s command, then `MaskScale`'s four commands, as one operation.

    One workload instead of two so that each run can be long enough to hold
    a steady number of operations of each.
    """

    name = "sim-mask"

    def __init__(self, seed: int, toy: bool) -> None:
        super().__init__(seed, toy)
        self.parts = (PairedSim(seed, toy), MaskScale(seed, toy))

    def prepare(self, work: Path) -> None:
        for part in self.parts:
            part.prepare(work)

    def commands(self, op: int, out: Path) -> list[list[str]]:
        return [argv for i, part in enumerate(self.parts)
                for argv in part.commands(op, out / f"part{i}")]

    def check(self, op: int, out: Path, outputs: list[tuple[str, str]]) -> list[str]:
        problems, start = [], 0
        for i, part in enumerate(self.parts):
            size = len(part.commands(op, out / f"part{i}"))
            problems += part.check(op, out / f"part{i}", outputs[start:start + size])
            start += size
        return problems


WORKLOADS = {w.name: w for w in (SimMask, Analyze)}
