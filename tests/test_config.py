"""Tests for experiment configuration loading, overrides, and seed resolution."""

from __future__ import annotations

import json

import pytest

from missdiag import ConfigError
from missdiag.config import (
    SEED_ENV_VAR,
    apply_overrides,
    load_raw_config,
    resolve_config,
)


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
        assert config.rate_vector().rates == (0.1, 0.2, 0.6)
        assert config.seed == 7
        assert config.n_samples == 1000
        assert config.divergence_kind == "js"
        assert config.simulation is None

    def test_shared_rate_protocol(self):
        raw = base_raw(protocol={"shared_rate": 0.3})
        config = resolve_config(raw, env={})
        assert config.rate_vector().rates == (0.3, 0.3, 0.3)

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
        assert [m.name for m in config.metrics] == ["UA", "RMSE"]
        assert not config.metrics[1].higher_is_better

    def test_duplicate_metric_names_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            resolve_config(base_raw(metrics=["UA", "UA"]), env={})

    def test_bad_metric_entry_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config(base_raw(metrics=[42]), env={})

    def test_simulation_block_filled_with_defaults(self):
        config = resolve_config(sim_raw(), env={})
        assert config.simulation["task"] == "classification"
        assert config.simulation["hidden"] == 16
        spec = config.synth_spec()
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
        assert config.synth_spec().seed == 1234

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
        train = config.train_config()
        assert train.epochs == 2
        assert train.batch_size == 16
        assert train.seed == 7
        assert train.protocol.rates == (0.1, 0.2, 0.6)
        assert [m.name for m in train.metrics] == ["UA", "WA", "F1"]

    def test_train_config_accepts_protocol_substitute(self):
        config = resolve_config(sim_raw(), env={})
        swapped = config.train_config(config.rate_vector().mean_matched())
        assert swapped.protocol.rates == (swapped.protocol.rates[0],) * 3

    def test_simulation_commands_require_simulation_block(self):
        config = resolve_config(base_raw(), env={})
        with pytest.raises(ConfigError, match="simulation"):
            config.synth_spec()

    def test_paired_flag(self):
        assert resolve_config(sim_raw(paired=True), env={}).paired
        assert not resolve_config(sim_raw(), env={}).paired
        assert not resolve_config(base_raw(), env={}).paired

    def test_resolved_document_is_hashable_json(self):
        config = resolve_config(sim_raw(), env={})
        text = json.dumps(config.resolved, sort_keys=True)
        assert json.loads(text) == config.resolved
