"""Tests for experiment configuration loading, overrides, and seed resolution."""

from __future__ import annotations

import importlib.util
import json
import random
from dataclasses import replace
from pathlib import Path

import oracles
import pytest

from missdiag import ConfigError
from missdiag.config import (
    OMITTED,
    REQUIRED,
    SCHEMA,
    SEED_ENV_VAR,
    Interval,
    apply_overrides,
    load_raw_config,
    resolve_config,
)
from missdiag.protocol import RateVector
from missdiag.report import config_hash
from missdiag.simtrainer import TASKS, SynthSpec, TrainConfig, default_metrics

ROOT = Path(__file__).resolve().parents[1]


def base_raw(**overrides) -> dict:
    raw = {
        "modalities": ["audio", "video", "text"],
        "protocol": {"rates": [0.1, 0.2, 0.6]},
        "seed": 7,
    }
    raw.update(overrides)
    return raw


def sim_raw(**sim_overrides) -> dict:
    sim = {
        "dims": [8, 8, 8],
        "informativeness": [1.0, 1.0, 1.0],
        "n_train": 64,
        "n_valid": 16,
        "n_test": 16,
        "epochs": 2,
        "batch_size": 16,
    }
    sim.update(sim_overrides)
    return base_raw(simulation=sim)


class TestLoadRawConfig:
    def test_reads_json_document(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_raw()))
        assert load_raw_config(path)["seed"] == 7

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_raw_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_raw_config(path)


class TestApplyOverrides:
    def test_dotted_path_sets_nested_value(self):
        raw = base_raw()
        out = apply_overrides(raw, ["protocol.shared_rate=0.5", "seed=9"])
        assert out["protocol"]["shared_rate"] == 0.5
        assert out["seed"] == 9
        assert raw["seed"] == 7  # original untouched

    def test_values_parsed_as_json(self):
        out = apply_overrides(base_raw(), [
            "n_samples=500",
            "simulation.resample_masks_per_epoch=true",
            "output_dir=results",
            "protocol.rates=[0.1,0.2,0.3]",
        ])
        assert out["n_samples"] == 500
        assert out["simulation"]["resample_masks_per_epoch"] is True
        assert out["output_dir"] == "results"  # bare string kept as-is
        assert out["protocol"]["rates"] == [0.1, 0.2, 0.3]

    def test_intermediate_tables_created(self):
        out = apply_overrides({}, ["a.b.c=1"])
        assert out == {"a": {"b": {"c": 1}}}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="path=value"):
            apply_overrides(base_raw(), ["seed"])

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(base_raw(), ["=3"])


class TestResolveConfig:
    def test_minimal_document(self):
        config = resolve_config(base_raw(), env={})
        assert config.rates.rates == (0.1, 0.2, 0.6)
        assert config.seed == 7
        assert config.n_samples == 1000
        assert config.divergence_kind == "js"
        assert config.resolved["simulation"] is None
        assert config.spec is None and config.train is None

    def test_shared_rate_protocol(self):
        raw = base_raw(protocol={"shared_rate": 0.3})
        config = resolve_config(raw, env={})
        assert config.rates.rates == (0.3, 0.3, 0.3)

    def test_exactly_one_protocol_form(self):
        raw = base_raw(protocol={"shared_rate": 0.3, "rates": [0.1, 0.2, 0.3]})
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(raw, env={})
        with pytest.raises(ConfigError, match="exactly one"):
            resolve_config(base_raw(protocol={}), env={})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            resolve_config(base_raw(extra=1), env={})

    def test_unknown_protocol_field_rejected(self):
        raw = base_raw(protocol={"rates": [0.1, 0.2, 0.6], "mode": "x"})
        with pytest.raises(ConfigError, match="unknown protocol fields"):
            resolve_config(raw, env={})

    def test_unknown_simulation_field_rejected(self):
        raw = sim_raw(optimizer="adam")
        with pytest.raises(ConfigError, match="unknown simulation fields"):
            resolve_config(raw, env={})

    def test_rates_must_match_modalities(self):
        raw = base_raw(protocol={"rates": [0.1, 0.2]})
        with pytest.raises(ConfigError, match="3 modalities"):
            resolve_config(raw, env={})

    def test_rate_out_of_range_rejected_eagerly(self):
        raw = base_raw(protocol={"rates": [0.1, 0.2, 1.0]})
        with pytest.raises(Exception):
            resolve_config(raw, env={})

    def test_missing_seed_rejected(self):
        raw = base_raw()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(raw, env={})

    def test_seed_flag_beats_env_and_document(self):
        raw = base_raw()
        config = resolve_config(raw, seed_flag=99, env={SEED_ENV_VAR: "55"})
        assert config.seed == 99

    def test_env_beats_document(self):
        config = resolve_config(base_raw(), env={SEED_ENV_VAR: "55"})
        assert config.seed == 55

    def test_env_replaces_missing_document_seed(self):
        raw = base_raw()
        del raw["seed"]
        config = resolve_config(raw, env={SEED_ENV_VAR: "55"})
        assert config.seed == 55

    def test_bad_env_seed_rejected(self):
        with pytest.raises(ConfigError, match=SEED_ENV_VAR):
            resolve_config(base_raw(), env={SEED_ENV_VAR: "not-a-number"})

    def test_n_samples_validated(self):
        with pytest.raises(ConfigError, match="n_samples"):
            resolve_config(base_raw(n_samples=0), env={})
        with pytest.raises(ConfigError, match="n_samples"):
            resolve_config(base_raw(n_samples="many"), env={})

    def test_divergence_kind_validated(self):
        with pytest.raises(ConfigError, match="divergence"):
            resolve_config(base_raw(divergence="tv"), env={})

    def test_mei_mode_validated(self):
        with pytest.raises(ConfigError, match="mei_mode"):
            resolve_config(base_raw(mei_mode="other"), env={})

    def test_metrics_parsed(self):
        raw = base_raw(metrics=["UA", {"name": "RMSE", "orientation": "lower-better"}])
        config = resolve_config(raw, env={})
        assert config.resolved["metrics"] == [{"name": "UA", "orientation": "higher-better"},
                                              {"name": "RMSE", "orientation": "lower-better"}]
        train = resolve_config({**sim_raw(), "metrics": raw["metrics"]}, env={}).train
        assert [m.name for m in train.metrics] == ["UA", "RMSE"]
        assert not train.metrics[1].higher_is_better

    def test_duplicate_metric_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            resolve_config(base_raw(metrics=["UA", "UA"]), env={})

    def test_bad_metric_entry_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(base_raw(metrics=[42]), env={})

    def test_simulation_block_filled_with_defaults(self):
        config = resolve_config(sim_raw(), env={})
        assert config.resolved["simulation"]["task"] == "classification"
        assert config.resolved["simulation"]["hidden"] == 16
        spec = config.spec
        assert spec.dims == (8, 8, 8)
        assert spec.seed == 7  # data seed defaults to the run seed

    def test_simulation_types_checked_without_coercion(self):
        config = resolve_config(sim_raw(learning_rate=1, informativeness=[1, 2, 0.5]))
        sim = config.resolved["simulation"]
        assert type(sim["learning_rate"]) is int
        assert sim["informativeness"] == [1, 2, 0.5]
        with pytest.raises(ConfigError, match="'simulation.epochs' must be a JSON integer"):
            resolve_config(sim_raw(epochs=2.0))

    def test_simulation_data_seed_override(self):
        config = resolve_config(sim_raw(data_seed=1234), env={})
        assert config.spec.seed == 1234

    def test_simulation_requires_core_fields(self):
        raw = sim_raw()
        del raw["simulation"]["dims"]
        with pytest.raises(ConfigError, match="simulation.dims"):
            resolve_config(raw, env={})

    def test_simulation_dims_must_match_modalities(self):
        raw = sim_raw(dims=[8, 8])
        with pytest.raises(ConfigError, match="dims"):
            resolve_config(raw, env={})

    def test_train_config_derivation(self):
        config = resolve_config(sim_raw(), env={})
        train = config.train
        assert train.epochs == 2
        assert train.batch_size == 16
        assert train.seed == 7
        assert train.protocol.rates == (0.1, 0.2, 0.6)
        assert [m.name for m in train.metrics] == ["UA", "WA", "F1"]

    def test_train_config_accepts_protocol_substitute(self):
        config = resolve_config(sim_raw(), env={})
        swapped = replace(config.train, protocol=config.rates.mean_matched())
        assert swapped.protocol.rates == (swapped.protocol.rates[0],) * 3
        assert replace(swapped, protocol=config.rates) == config.train

    def test_simulation_commands_require_simulation_block(self):
        # `simulate run` refuses such a config (TestSimulateRun in test_cli).
        config = resolve_config(base_raw(), env={})
        assert config.spec is None and config.train is None

    @pytest.mark.parametrize("task", TASKS)
    def test_built_objects_equal_hand_built(self, task):
        config = resolve_config(sim_raw(task=task), env={})
        assert config.spec == SynthSpec(
            task=task, dims=(8, 8, 8), informativeness=(1.0, 1.0, 1.0), n_train=64,
            n_valid=16, n_test=16, seed=7, n_classes=8, label_noise=0.25)
        assert config.train == TrainConfig(
            protocol=RateVector(("audio", "video", "text"), (0.1, 0.2, 0.6)), epochs=2,
            batch_size=16, learning_rate=0.015, seed=7, hidden=16, mei_epoch_stride=5,
            grad_log_stride=1, resample_masks_per_epoch=False, epsilon=1e-8,
            metrics=default_metrics(task))
        assert config.rates == config.train.protocol
        assert config.arms == (("", config.train),) and config.pairs == ()

    def test_arms_and_pairs(self):
        paired = resolve_config(sim_raw(paired=True), env={})
        smr = replace(paired.train, protocol=paired.rates.mean_matched())
        assert paired.arms == (("imr", paired.train), ("smr", smr))
        assert paired.arms[0][1] is paired.train
        assert paired.pairs == (("imr", "smr"),)
        unpaired = resolve_config(sim_raw(), env={})
        assert unpaired.arms == (("", unpaired.train),)
        assert unpaired.arms[0][1] is unpaired.train
        assert unpaired.pairs == ()
        no_simulation = resolve_config(base_raw(), env={})
        assert no_simulation.arms == () and no_simulation.pairs == ()

    def test_resolved_document_is_hashable_json(self):
        config = resolve_config(sim_raw(), env={})
        text = json.dumps(config.resolved, sort_keys=True)
        assert json.loads(text) == config.resolved


class TestSchemaWalk:
    def test_non_object_named_with_its_value(self):
        with pytest.raises(ConfigError) as info:
            resolve_config(base_raw(protocol=[1]), env={})
        assert str(info.value) == "'protocol' must be a JSON object, got [1]"

    def test_range_message(self):
        with pytest.raises(ConfigError) as info:
            resolve_config(base_raw(n_samples=2**24 + 1), env={})
        assert str(info.value) == "'n_samples' must be in [1, 2^24], got 16777217"
        with pytest.raises(ConfigError) as info:
            resolve_config(base_raw(divergence="tv"), env={})
        assert str(info.value) == "'divergence' must be one of \"kl\", \"js\", got \"tv\""

    def test_null_where_the_default_is_null(self):
        config = resolve_config(base_raw(metrics=None, simulation=None), env={})
        assert config.resolved == resolve_config(base_raw(), env={}).resolved
        with pytest.raises(ConfigError, match="'seed' must be a JSON integer, got null"):
            resolve_config(base_raw(seed=None), env={})


def _readme_config() -> dict:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _known_configs(tmp_path) -> list[dict]:
    """README's config and every config the tests, the benchmark and artifact_diff use."""
    import test_cli
    import test_exit_contract

    workloads = _load(ROOT / "perfbench" / "workloads.py")
    artifact_diff = _load(ROOT / "tools" / "artifact_diff.py")
    toy = json.loads(json.dumps(workloads.PAIRED_CONFIG))
    toy["simulation"].update(workloads.TOY_SIMULATION)
    configs = [
        _readme_config(), workloads.PAIRED_CONFIG, toy,
        artifact_diff.README_CONFIG, artifact_diff.RESAMPLE_CONFIG,
        artifact_diff.STRIDE_CONFIG, test_exit_contract.BASE,
    ]
    configs += [{"modalities": list(names), "protocol": {"rates": list(rates)}, "seed": 0,
                 "n_samples": rows} for _, names, rates, rows, _ in workloads.MASK_PROTOCOLS]
    # Every `mask generate` config but the lone-surrogate name, which must not resolve.
    configs += [json.loads(inputs["config.json"])
                for case, (inputs, argv) in artifact_diff.CASES.items()
                if argv[:2] == ["mask", "generate"] and case != "mask-generate-surrogate-name"]
    configs += [
        base_raw(), base_raw(protocol={"shared_rate": 0.3}), base_raw(n_samples=500),
        base_raw(metrics=["UA", {"name": "RMSE", "orientation": "lower-better"}]),
        sim_raw(), sim_raw(data_seed=1234), sim_raw(paired=True),
        sim_raw(learning_rate=1, informativeness=[1, 2, 0.5]),
        base_raw(protocol={"shared_rate": 0}),
        # tests/test_acceptance.py, criterion 8
        {"modalities": ["audio", "video"], "protocol": {"rates": [0.2, 0.5]}, "seed": 11,
         "n_samples": 200, "simulation": {"dims": [6, 5], "informativeness": [1.0, 1.0],
                                          "n_train": 64, "n_valid": 16, "n_test": 16,
                                          "epochs": 2, "batch_size": 16, "n_classes": 3}},
    ]
    for paired in (False, True):
        path = test_cli.sim_config(tmp_path, paired=paired)
        configs.append(json.loads(Path(path).read_text()))
    configs.append(json.loads(Path(test_cli.mask_config(tmp_path)).read_text()))
    return configs


_NAMES = ["audio", "video", "text", "α", "a b", " pad ", "x-y", "'q'", "tab\there", "1"]
_METRICS = ["UA", "WA", "F1", "MAE", "Corr", "Acc-2", "RMSE"]


def _random_value(rng: random.Random, path: str, M: int):
    """A valid value for `path`, drawn from its SCHEMA type and the library ranges."""
    field = SCHEMA[path]
    if path == "modalities":
        return rng.sample(_NAMES, M)
    if path in ("protocol.rates", "protocol.shared_rate"):
        rate = lambda: rng.choice([0, 0.1, 0.5, 0.95, rng.random() * 0.99])  # noqa: E731
        return [rate() for _ in range(M)] if path.endswith("rates") else rate()
    if path == "metrics":
        names = rng.sample(_METRICS, rng.randint(1, 3))
        return [rng.choice([n, {"name": n}, {"name": n, "orientation": "lower-better"}])
                for n in names]
    if path == "simulation.task":
        return rng.choice(TASKS)
    if path == "simulation.dims":
        return [rng.randint(1, 40) for _ in range(M)]
    if path == "simulation.informativeness":
        return [rng.choice([1, 0.5, 2.0, 0]) for _ in range(M - 1)] + [1.0]
    if isinstance(field.range, tuple):
        return rng.choice(field.range)
    if isinstance(field.range, Interval):
        if field.type == "integer":
            hi = field.range.hi - 1 if field.range.open_hi else field.range.hi
            return rng.choice([field.range.lo, hi, rng.randint(field.range.lo, hi)])
        return rng.choice([1e-12, 1e-8, 0.5, 3])
    if field.type == "integer":
        return rng.randint(2, 64)
    if field.type == "number":
        return rng.choice([1, 0.015, 0.25, 1.5])
    if field.type == "boolean":
        return rng.random() < 0.5
    return f"dir{rng.randint(0, 99)}"


def _random_document(rng: random.Random) -> dict:
    M = rng.randint(2, 6)
    doc: dict = {}
    with_sim = rng.random() < 0.6
    form = rng.choice(["protocol.rates", "protocol.shared_rate"])
    for path, field in SCHEMA.items():
        parent, _, key = path.rpartition(".")
        if parent and parent not in doc or path.startswith("protocol.") and path != form:
            continue
        if field.type == "object":
            if field.default is REQUIRED or parent == "" and with_sim:
                doc[path] = {}
            continue
        if field.default is REQUIRED or path in (form, "seed") or rng.random() < 0.5:
            (doc[parent] if parent else doc)[key] = _random_value(rng, path, M)
    return doc


class TestResolveMatchesOracle:
    """Valid documents resolve, and hash, exactly as before the schema table."""

    @staticmethod
    def _assert_same(raw, seed_flag=None, env=None):
        env = {} if env is None else env
        want = oracles.resolve_config_v1(raw, seed_flag, env)
        got = resolve_config(raw, seed_flag=seed_flag, env=env).resolved
        assert got == want
        assert config_hash(got) == config_hash(want)

    def test_known_configs(self, tmp_path):
        configs = _known_configs(tmp_path)
        assert len(configs) >= 20
        for raw in configs:
            self._assert_same(raw)
            self._assert_same(raw, seed_flag=2**64 - 1)
            self._assert_same(raw, env={SEED_ENV_VAR: "55"})

    def test_random_valid_documents(self):
        rng = random.Random(909)
        for _ in range(250):
            raw = _random_document(rng)
            seed_flag = rng.choice([None, None, rng.randrange(2**64)])
            self._assert_same(json.loads(json.dumps(raw)), seed_flag)


class TestReadmeConfigTable:
    @staticmethod
    def _cell(value) -> str:
        if value is REQUIRED:
            return "required"
        if value is OMITTED:
            return "—"
        return f"`{json.dumps(value)}`"

    def test_rows_equal_schema(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("## Config fields\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        want = []
        for path, field in SCHEMA.items():
            if field.range is None:
                allowed = ""
            elif isinstance(field.range, Interval):
                allowed = f"`{field.range}`"
            else:
                allowed = ", ".join(f"`{json.dumps(c)}`" for c in field.range)
            want.append(f"| `{path}` | {field.type} | {self._cell(field.default)} | "
                        f"{allowed} |".replace("|  |", "| |"))
        assert rows == want
