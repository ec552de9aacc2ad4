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
      "simulation": { ... optional, see SIMULATION_TYPES ... }
    }

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
from typing import Any, Mapping

from .equity import BALANCED_IS_ONE, HIGHER_BETTER, LOWER_BETTER, MEI_MODES, PerfMetric
from .errors import ConfigError
from .protocol import DIVERGENCE_KINDS, JS, RateVector
from .simtrainer import (
    CLASSIFICATION,
    TASKS,
    SynthSpec,
    TrainConfig,
    default_metrics,
)

SEED_ENV_VAR = "MISSDIAG_SEED"

TOP_KEYS = {
    "modalities",
    "protocol",
    "seed",
    "n_samples",
    "divergence",
    "epsilon",
    "mei_mode",
    "metrics",
    "output_dir",
    "simulation",
}
PROTOCOL_KEYS = {"shared_rate", "rates"}
# Simulation field -> JSON type; a tuple (T,) is a list of T. Fields are
# validated, never coerced, so a valid document resolves (and hashes)
# exactly as written. int rejects bool and float; float takes int too but
# not NaN or Infinity, which json.loads accepts and JSON does not define.
SIMULATION_TYPES: dict[str, type | tuple[type]] = {
    "task": str,
    "dims": (int,),
    "informativeness": (float,),
    "n_classes": int,
    "label_noise": float,
    "n_train": int,
    "n_valid": int,
    "n_test": int,
    "data_seed": int,
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "hidden": int,
    "mei_epoch_stride": int,
    "grad_log_stride": int,
    "resample_masks_per_epoch": bool,
    "paired": bool,
}
_TYPE_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string"}

_SIM_DEFAULTS = {
    "task": CLASSIFICATION,
    "n_classes": 8,
    "label_noise": 0.25,
    "n_valid": 1000,
    "n_test": 1000,
    "epochs": 20,
    "batch_size": 48,
    "learning_rate": 0.015,
    "hidden": 16,
    "mei_epoch_stride": 5,
    "grad_log_stride": 1,
    "resample_masks_per_epoch": False,
    "paired": False,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated configuration with the resolved document for hashing."""

    modalities: tuple[str, ...]
    shared_rate: float | None
    rates: tuple[float, ...] | None
    seed: int
    n_samples: int
    divergence_kind: str
    epsilon: float
    mei_mode: str
    metrics: tuple[PerfMetric, ...] | None
    output_dir: str
    simulation: dict | None
    resolved: dict

    def rate_vector(self) -> RateVector:
        if self.rates is not None:
            return RateVector(self.modalities, self.rates)
        return RateVector.shared(self.modalities, self.shared_rate)

    def synth_spec(self) -> SynthSpec:
        sim = self._simulation()
        return SynthSpec(
            task=sim["task"],
            dims=tuple(sim["dims"]),
            informativeness=tuple(sim["informativeness"]),
            n_train=sim["n_train"],
            n_valid=sim["n_valid"],
            n_test=sim["n_test"],
            seed=sim.get("data_seed", self.seed),
            n_classes=sim["n_classes"],
            label_noise=sim["label_noise"],
        )

    def train_config(self, protocol: RateVector | None = None) -> TrainConfig:
        sim = self._simulation()
        metrics = self.metrics or default_metrics(sim["task"])
        return TrainConfig(
            protocol=protocol if protocol is not None else self.rate_vector(),
            epochs=sim["epochs"],
            batch_size=sim["batch_size"],
            learning_rate=sim["learning_rate"],
            seed=self.seed,
            hidden=sim["hidden"],
            mei_epoch_stride=sim["mei_epoch_stride"],
            grad_log_stride=sim["grad_log_stride"],
            resample_masks_per_epoch=sim["resample_masks_per_epoch"],
            epsilon=self.epsilon,
            metrics=metrics,
        )

    @property
    def paired(self) -> bool:
        if self.simulation is None:
            return False
        return bool(self.simulation.get("paired", False))

    def _simulation(self) -> dict:
        if self.simulation is None:
            raise ConfigError("this command requires a 'simulation' block in the config")
        return self.simulation


def load_raw_config(path: str | Path) -> dict:
    """Parse the JSON document (structure validated later by resolve_config)."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
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


def _require(raw: Mapping, key: str, kind: type, where: str = "config") -> Any:
    if key not in raw:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = raw[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _is_json_type(value: Any, kind: type) -> bool:
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind)


def _check_type(field: str, kind: type | tuple[type], value: Any) -> None:
    if isinstance(kind, tuple):
        ok = isinstance(value, list) and all(_is_json_type(v, kind[0]) for v in value)
        expected = f"list of {_TYPE_NAMES[kind[0]]}s"
    else:
        ok = _is_json_type(value, kind)
        expected = _TYPE_NAMES[kind]
    if not ok:
        raise ConfigError(f"'{field}' must be a JSON {expected}, got {json.dumps(value)}")


def _check_seed(seed: Any, name: str) -> None:
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be an integer in [0, 2^64), got {seed!r}")


def _parse_metrics(entries: Any) -> tuple[PerfMetric, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'metrics' must be a non-empty list")
    metrics = []
    for entry in entries:
        if isinstance(entry, str):
            metrics.append(PerfMetric.named(entry))
        elif isinstance(entry, dict) and set(entry) <= {"name", "orientation"} and "name" in entry:
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
    unknown = set(raw) - TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")

    modalities = _require(raw, "modalities", list)
    if not all(isinstance(m, str) for m in modalities):
        raise ConfigError("'modalities' must be a list of strings")

    protocol = _require(raw, "protocol", dict)
    unknown = set(protocol) - PROTOCOL_KEYS
    if unknown:
        raise ConfigError(f"unknown protocol fields: {sorted(unknown)}")
    if ("shared_rate" in protocol) == ("rates" in protocol):
        raise ConfigError("protocol must set exactly one of 'shared_rate' or 'rates'")
    shared_rate = protocol.get("shared_rate")
    rates = protocol.get("rates")
    if shared_rate is not None and not isinstance(shared_rate, (int, float)):
        raise ConfigError("'protocol.shared_rate' must be a number")
    if rates is not None:
        if not isinstance(rates, list) or not all(
            isinstance(r, (int, float)) and not isinstance(r, bool) for r in rates
        ):
            raise ConfigError("'protocol.rates' must be a list of numbers")
        if len(rates) != len(modalities):
            raise ConfigError(
                f"'protocol.rates' has {len(rates)} entries for "
                f"{len(modalities)} modalities"
            )

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
    else:
        seed, source = _require(raw, "seed", int), "'seed'"
    _check_seed(seed, source)

    n_samples = raw.get("n_samples", 1000)
    _check_type("n_samples", int, n_samples)
    if n_samples < 1:
        raise ConfigError(f"'n_samples' must be a positive integer, got {n_samples!r}")

    kind = raw.get("divergence", JS)
    if kind not in DIVERGENCE_KINDS:
        raise ConfigError(f"'divergence' must be one of {DIVERGENCE_KINDS}, got {kind!r}")

    epsilon = raw.get("epsilon", 1e-8)
    _check_type("epsilon", float, epsilon)
    if not epsilon > 0:
        raise ConfigError(f"'epsilon' must be a positive number, got {epsilon!r}")

    mei_mode = raw.get("mei_mode", BALANCED_IS_ONE)
    if mei_mode not in MEI_MODES:
        raise ConfigError(f"'mei_mode' must be one of {MEI_MODES}, got {mei_mode!r}")

    metrics = _parse_metrics(raw["metrics"]) if "metrics" in raw else None

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("'output_dir' must be a string")

    simulation = None
    if raw.get("simulation") is not None:
        sim_raw = _require(raw, "simulation", dict)
        unknown = set(sim_raw) - SIMULATION_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown simulation fields: {sorted(unknown)}")
        for key, value in sim_raw.items():
            _check_type(f"simulation.{key}", SIMULATION_TYPES[key], value)
        simulation = dict(_SIM_DEFAULTS)
        simulation.update(sim_raw)
        if simulation["task"] not in TASKS:
            raise ConfigError(f"'simulation.task' must be one of {TASKS}")
        for key in ("dims", "informativeness", "n_train"):
            if key not in simulation:
                raise ConfigError(f"config: missing required field 'simulation.{key}'")
        if "data_seed" in simulation:
            _check_seed(simulation["data_seed"], "'simulation.data_seed'")
        if len(simulation["dims"]) != len(modalities):
            raise ConfigError(
                f"'simulation.dims' has {len(simulation['dims'])} entries for "
                f"{len(modalities)} modalities"
            )

    resolved = {
        "modalities": list(modalities),
        "protocol": dict(protocol),
        "seed": seed,
        "n_samples": n_samples,
        "divergence": kind,
        "epsilon": float(epsilon),
        "mei_mode": mei_mode,
        "metrics": [
            {"name": m.name, "orientation": m.orientation} for m in metrics
        ]
        if metrics
        else None,
        "output_dir": output_dir,
        "simulation": simulation,
    }
    config = ExperimentConfig(
        modalities=tuple(modalities),
        shared_rate=float(shared_rate) if shared_rate is not None else None,
        rates=tuple(float(r) for r in rates) if rates is not None else None,
        seed=seed,
        n_samples=n_samples,
        divergence_kind=kind,
        epsilon=float(epsilon),
        mei_mode=mei_mode,
        metrics=metrics,
        output_dir=output_dir,
        simulation=simulation,
        resolved=resolved,
    )
    config.rate_vector()  # validates rates/modality consistency eagerly
    return config
