"""Experiment configuration: a single JSON document plus overrides.

The document shape:

    {
      "modalities": ["language", "visual", "acoustic"],
      "protocol": {"rates": [0.1, 0.2, 0.6]},     # or {"shared_rate": 0.3}
      "seed": 7,
      "n_samples": 100000,
      "divergence": "js",
      "epsilon": 1e-8,
      "mei_mode": "balanced-is-one",
      "metrics": ["UA", "WA", "F1"],
      "output_dir": "out",
      "simulation": { ... optional, see SCHEMA ... }
    }

`SCHEMA` states every field's JSON type, default and, for fields only
the config knows, its range or choices. `resolve_config` walks the
document against it, applies the cross-field rules, and builds the
library types (`RateVector`, `SynthSpec`, `TrainConfig`) whose checks
hold the other ranges, so a bad field fails before any command's work.
The commands use the objects it built.

Individual fields can be overridden on the command line with
`--set dotted.path=value` (values parsed as JSON, falling back to a
bare string). Seed precedence: --seed flag > MISSDIAG_SEED environment
variable > config. The resolved document (defaults applied) is what
gets hashed into provenance records.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, NamedTuple

from .equity import BALANCED_IS_ONE, HIGHER_BETTER, LOWER_BETTER, MEI_MODES, PerfMetric
from .errors import ConfigError
from .protocol import DIVERGENCE_KINDS, JS, RateVector
from .simtrainer import CLASSIFICATION, MAX_SIZE, SynthSpec, TrainConfig, default_metrics

SEED_ENV_VAR = "MISSDIAG_SEED"


# SCHEMA defaults that are not JSON values.
REQUIRED = object()  # the field must be present
OMITTED = object()  # no default: an absent field stays absent


@dataclass(frozen=True)
class Interval:
    """The numbers from lo to hi; an open end excludes its bound."""

    lo: float
    hi: float
    open_lo: bool = False
    open_hi: bool = False

    def __contains__(self, x: float) -> bool:
        above = self.lo < x if self.open_lo else self.lo <= x
        return above and (x < self.hi if self.open_hi else x <= self.hi)

    def __str__(self) -> str:
        def bound(x: float) -> str:
            if x == math.inf:
                return "inf"
            power = int(x).bit_length() - 1
            return f"2^{power}" if x >= 1024 and x == 2**power else str(x)

        return (f"{'(' if self.open_lo else '['}{bound(self.lo)}, "
                f"{bound(self.hi)}{')' if self.open_hi else ']'}")


class Field(NamedTuple):
    """One SCHEMA row: JSON type, default, and the range or choices the config checks."""

    type: str
    default: Any = OMITTED
    range: Interval | tuple[str, ...] | None = None


SEED_RANGE = Interval(0, 2**64, open_hi=True)

# Dotted path -> field. Values are validated, never coerced, so a valid
# document resolves (and hashes) exactly as written. Simulation ranges
# live in SynthSpec and TrainConfig, which resolve_config builds.
SCHEMA: dict[str, Field] = {
    "modalities": Field("list of strings", REQUIRED),
    "protocol": Field("object", REQUIRED),
    "protocol.shared_rate": Field("number"),
    "protocol.rates": Field("list of numbers"),
    "seed": Field("integer", range=SEED_RANGE),
    "n_samples": Field("integer", 1000, Interval(1, MAX_SIZE)),
    "divergence": Field("string", JS, DIVERGENCE_KINDS),
    "epsilon": Field("number", 1e-8, Interval(0, math.inf, open_lo=True, open_hi=True)),
    "mei_mode": Field("string", BALANCED_IS_ONE, MEI_MODES),
    "metrics": Field("list", None),
    "output_dir": Field("string", "out"),
    "simulation": Field("object", None),
    "simulation.task": Field("string", CLASSIFICATION),
    "simulation.dims": Field("list of integers", REQUIRED),
    "simulation.informativeness": Field("list of numbers", REQUIRED),
    "simulation.n_classes": Field("integer", 8),
    "simulation.label_noise": Field("number", 0.25),
    "simulation.n_train": Field("integer", REQUIRED),
    "simulation.n_valid": Field("integer", 1000),
    "simulation.n_test": Field("integer", 1000),
    "simulation.data_seed": Field("integer", range=SEED_RANGE),
    "simulation.epochs": Field("integer", 20),
    "simulation.batch_size": Field("integer", 48),
    "simulation.learning_rate": Field("number", 0.015),
    "simulation.hidden": Field("integer", 16),
    "simulation.mei_epoch_stride": Field("integer", 5),
    "simulation.grad_log_stride": Field("integer", 1),
    "simulation.resample_masks_per_epoch": Field("boolean", False),
    "simulation.paired": Field("boolean", False),
}


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# A number takes an integer too, but not NaN or Infinity, which json.loads
# accepts and JSON does not define.
_IS_TYPE = {
    "integer": _is_integer,
    "number": lambda v: _is_integer(v) or isinstance(v, float) and math.isfinite(v),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
}


def _check_type(path: str, kind: str, value: Any) -> None:
    """Raise unless `value` has JSON type `kind`; a list's elements are named by index."""
    base, _, elements = kind.partition(" of ")
    if not _IS_TYPE[base](value):
        raise ConfigError(f"'{path}' must be a JSON {kind}, got {json.dumps(value)}")
    for i, item in enumerate(value if elements else ()):
        _check_type(f"{path}[{i}]", elements[:-1], item)


def _check_range(name: str, allowed: Interval | tuple[str, ...], value: Any) -> None:
    if value not in allowed:
        what = (f"in {allowed}" if isinstance(allowed, Interval)
                else "one of " + ", ".join(json.dumps(c) for c in allowed))
        raise ConfigError(f"{name} must be {what}, got {json.dumps(value)}")


def _walk(prefix: str, obj: dict) -> dict:
    """`obj`, the JSON object at `prefix`, checked against SCHEMA with defaults filled.

    A field whose default is null also takes an explicit null.
    """
    fields = {path.rpartition(".")[2]: (path, field) for path, field in SCHEMA.items()
              if path.rpartition(".")[0] == prefix}
    unknown = set(obj) - fields.keys()
    if unknown:
        raise ConfigError(f"unknown {prefix or 'config'} fields: {sorted(unknown)}")
    out = {}
    for key, (path, field) in fields.items():
        if key not in obj:
            if field.default is REQUIRED:
                raise ConfigError(f"config: missing required field '{path}'")
            if field.default is not OMITTED:
                out[key] = field.default
            continue
        value = obj[key]
        if value is not None or field.default is not None:
            _check_type(path, field.type, value)
            if field.range is not None:
                _check_range(f"'{path}'", field.range, value)
            if field.type == "object":
                value = _walk(path, value)
        out[key] = value
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """The library objects `resolve_config` built, and the resolved document for hashing.

    `spec` and `train` are None when the document has no simulation block.
    """

    rates: RateVector
    seed: int
    n_samples: int
    divergence_kind: str
    mei_mode: str
    output_dir: str
    spec: SynthSpec | None
    train: TrainConfig | None
    paired: bool
    resolved: dict


def load_raw_config(path: str | Path) -> dict:
    """Parse the JSON document (structure validated later by resolve_config)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    try:
        raw = json.loads(text)
    # A plain ValueError, not JSONDecodeError, for an integer beyond
    # Python's digit limit (sys.get_int_max_str_digits, 4300 by default).
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Apply `dotted.path=value` overrides; values parsed as JSON when possible."""
    out = json.loads(json.dumps(raw))  # deep copy
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} is not of the form path=value")
        dotted, _, text = assignment.partition("=")
        if not dotted:
            raise ConfigError(f"override {assignment!r} has an empty path")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        except ValueError as exc:  # an integer beyond Python's digit limit
            raise ConfigError(f"override {dotted!r}: {exc}") from None
        node = out
        parts = dotted.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return out


def _parse_metrics(entries: Any) -> tuple[PerfMetric, ...]:
    if not entries:
        raise ConfigError("'metrics' must be a non-empty list")
    metrics = []
    for entry in entries:
        if isinstance(entry, str):
            metrics.append(PerfMetric.named(entry))
        elif (isinstance(entry, dict) and set(entry) <= {"name", "orientation"}
              and isinstance(entry.get("name"), str)):
            orientation = entry.get("orientation")
            if orientation is None:
                metrics.append(PerfMetric.named(entry["name"]))
            elif orientation in (HIGHER_BETTER, LOWER_BETTER):
                metrics.append(PerfMetric(entry["name"], orientation))
            else:
                raise ConfigError(
                    f"metric orientation must be {HIGHER_BETTER!r} or {LOWER_BETTER!r}, "
                    f"got {orientation!r}"
                )
        else:
            raise ConfigError(f"bad metric entry {entry!r}")
    if len({m.name for m in metrics}) != len(metrics):
        raise ConfigError("metric names must be unique")
    return tuple(metrics)


def _resolve_seed(doc: dict, seed_flag: int | None, env: Mapping[str, str]) -> int:
    """--seed, else MISSDIAG_SEED, else the document's seed (range-checked by the walk)."""
    if seed_flag is not None:
        seed, source = seed_flag, "--seed"
    elif env.get(SEED_ENV_VAR):
        try:
            seed = int(env[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(
                f"{SEED_ENV_VAR} must be an integer, got {env[SEED_ENV_VAR]!r}"
            ) from None
        source = SEED_ENV_VAR
    elif "seed" in doc:
        return doc["seed"]
    else:
        raise ConfigError("config: missing required field 'seed'")
    _check_range(source, SEED_RANGE, seed)
    return seed


def resolve_config(
    raw: Mapping,
    seed_flag: int | None = None,
    env: Mapping[str, str] | None = None,
) -> ExperimentConfig:
    """Validate the document, fill defaults, and resolve the seed.

    Seed precedence: `seed_flag` (the --seed option), then the
    MISSDIAG_SEED environment variable, then the document.
    """
    env = os.environ if env is None else env
    doc = _walk("", raw)
    modalities, protocol, simulation = doc["modalities"], doc["protocol"], doc["simulation"]
    if ("shared_rate" in protocol) == ("rates" in protocol):
        raise ConfigError("protocol must set exactly one of 'shared_rate' or 'rates'")
    for path, values in (("protocol.rates", protocol.get("rates")),
                         ("simulation.dims", simulation and simulation["dims"])):
        if values is not None and len(values) != len(modalities):
            raise ConfigError(
                f"'{path}' has {len(values)} entries for {len(modalities)} modalities"
            )
    doc["seed"] = _resolve_seed(doc, seed_flag, env)
    metrics = _parse_metrics(doc["metrics"]) if doc["metrics"] is not None else None
    doc["metrics"] = (
        [{"name": m.name, "orientation": m.orientation} for m in metrics] if metrics else None
    )
    doc["epsilon"] = float(doc["epsilon"])

    # The library types hold the remaining checks; built here, a bad field
    # fails before any work, the rates first.
    if "rates" in protocol:
        rates = RateVector(modalities, protocol["rates"])
    else:
        rates = RateVector.shared(modalities, protocol["shared_rate"])
    spec = train = None
    if simulation is not None:
        spec = SynthSpec(
            task=simulation["task"],
            dims=simulation["dims"],
            informativeness=simulation["informativeness"],
            n_train=simulation["n_train"],
            n_valid=simulation["n_valid"],
            n_test=simulation["n_test"],
            seed=simulation.get("data_seed", doc["seed"]),
            n_classes=simulation["n_classes"],
            label_noise=simulation["label_noise"],
        )
        train = TrainConfig(
            protocol=rates,
            epochs=simulation["epochs"],
            batch_size=simulation["batch_size"],
            learning_rate=simulation["learning_rate"],
            seed=doc["seed"],
            hidden=simulation["hidden"],
            mei_epoch_stride=simulation["mei_epoch_stride"],
            grad_log_stride=simulation["grad_log_stride"],
            resample_masks_per_epoch=simulation["resample_masks_per_epoch"],
            epsilon=doc["epsilon"],
            metrics=metrics or default_metrics(simulation["task"]),
        )
    return ExperimentConfig(
        rates=rates,
        seed=doc["seed"],
        n_samples=doc["n_samples"],
        divergence_kind=doc["divergence"],
        mei_mode=doc["mei_mode"],
        output_dir=doc["output_dir"],
        spec=spec,
        train=train,
        paired=simulation is not None and simulation["paired"],
        resolved=doc,
    )
