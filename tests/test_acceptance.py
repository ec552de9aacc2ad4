"""Release acceptance suite.

Nine numbered criteria gate a release. Each test prints exactly one
``ACCEPTANCE <n>: PASS/FAIL`` line (run pytest with ``-rA`` to see the
lines for passing tests) and enforces its own wall-clock budget.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np
from scipy import stats

from missdiag import (
    AblationTable,
    BALANCED_IS_ONE,
    CLASSIFICATION,
    DOMINANCE_IS_ONE,
    GRAD_SAMPLE_DTYPE,
    GradTrace,
    MaskMatrix,
    PerfMetric,
    RateVector,
    SynthSpec,
    TrainConfig,
    empirical_rates,
    gen_synthetic,
    generate_mask_matrix,
    marginal_missing_rates,
    mean_match_shared,
    mei,
    mei_from_table,
    mli,
    pattern_distribution,
    run_arms,
)
from missdiag.cli import main as cli_main
from missdiag.equity import write_ablation_table
from missdiag.learning import write_agg_trace, write_grad_samples
from missdiag.protocol import write_mask_matrix
from missdiag.report import read_report
from missdiag.simtrainer import init_model, loss_and_grads

from oracles import (
    bit_tuples,
    brute_mei,
    brute_mli,
    enum_marginal,
    fd_gradient,
    random_rate_vector,
    take,
)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    """Print one PASS/FAIL line per criterion and enforce its time budget."""
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_s:.0f}s"
        )
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(
        f"ACCEPTANCE {number}: PASS — {description} "
        f"[{elapsed:.1f}s < {budget_s:.0f}s]"
    )


def _rv(rates) -> RateVector:
    names = tuple(f"m{j}" for j in range(len(rates)))
    return RateVector(names, tuple(float(r) for r in rates))


def test_criterion_1_pattern_distribution_sums_and_sampling():
    with criterion(
        1,
        "pattern probabilities sum to 1 (1e-12, 200 vectors); "
        "chi-squared on 10x1e6 draws passes at p>0.001",
        budget_s=60.0,
    ):
        rng = np.random.default_rng(20260825)
        vectors = []
        for _ in range(200):
            M = int(rng.integers(2, 6))
            rv = _rv(random_rate_vector(rng, M))
            dist = pattern_distribution(rv)
            total = math.fsum(dist.probabilities)
            assert abs(total - 1.0) <= 1e-12
            vectors.append((rv, dist))

        # Pearson's test needs healthy expected counts, so draw frequencies
        # for the first 10 vectors whose rarest pattern still expects at
        # least 20 occurrences at n = 1e6.
        n = 1_000_000
        eligible = [
            (rv, dist) for rv, dist in vectors
            if min(dist.probabilities) * n >= 20.0
        ]
        assert len(eligible) >= 10
        for k, (rv, dist) in enumerate(eligible[:10]):
            M = rv.M
            draws = generate_mask_matrix(rv, n, seed=9_000 + k).masks
            codes = draws.astype(np.int64) @ (1 << np.arange(M - 1, -1, -1))
            counts = np.bincount(codes, minlength=2**M)
            assert counts[0] == 0  # the all-missing pattern never occurs
            expected = np.asarray(dist.probabilities) * n
            result = stats.chisquare(counts[1:], expected)
            assert result.pvalue > 0.001, (k, rv.rates, result.pvalue)


def test_criterion_2_mean_match_constants():
    with criterion(
        2,
        "mean-matched shared rates hit the four reference constants to 1e-15",
        budget_s=1.0,
    ):
        cases = [
            ((0.4, 0.5, 0.6), 0.5),
            ((0.1, 0.2, 0.6), 0.3),
            ((0.2, 0.5, 0.8), 0.5),
            ((0.4, 0.8, 0.9), 0.7),
        ]
        for rates, expected in cases:
            shared = mean_match_shared(_rv(rates))
            assert abs(shared - expected) <= 1e-15, (rates, shared)


def test_criterion_3_truncated_marginals_exact_and_empirical():
    with criterion(
        3,
        "marginals equal rational enumeration exactly (100 vectors, M<=6); "
        "empirical rates within 3 binomial sigma at n=1e5",
        budget_s=30.0,
    ):
        rng = np.random.default_rng(33)
        for _ in range(100):
            M = int(rng.integers(2, 7))
            rates = random_rate_vector(rng, M)
            exact = marginal_missing_rates(_rv(rates))
            for m in range(M):
                assert exact[m] == enum_marginal(rates, m), (rates, m)

        n = 100_000
        for k, M in enumerate((2, 3, 4, 5)):
            rates = tuple(
                float(r) for r in np.random.default_rng(330 + k).uniform(0.05, 0.9, M)
            )
            rv = _rv(rates)
            matrix = generate_mask_matrix(rv, n, seed=3_300 + k)
            empirical = empirical_rates(matrix)
            exact = marginal_missing_rates(rv)
            for m in range(M):
                sigma = math.sqrt(exact[m] * (1.0 - exact[m]) / n)
                assert abs(empirical[m] - exact[m]) <= 3.0 * sigma, (rates, m)


def test_criterion_4_mei_oracle_equivalence_and_fixture():
    with criterion(
        4,
        "MEI matches the brute-force oracle to 1e-12 (100 tables); "
        "zeta=(2,1,1) fixture within 1e-5; modes sum to exactly 1",
        budget_s=10.0,
    ):
        rng = np.random.default_rng(44)
        for i in range(100):
            M = int(rng.integers(2, 5))
            scores = {bits: float(rng.uniform(0.0, 1.0)) for bits in bit_tuples(M)}
            higher_better = i % 2 == 0
            metric = PerfMetric.named("UA" if higher_better else "MAE")
            table = AblationTable(
                M=M, metric=metric, scores=[scores[b] for b in bit_tuples(M)]
            )
            balanced = mei_from_table(table, mode=BALANCED_IS_ONE)
            dominance = mei_from_table(table, mode=DOMINANCE_IS_ONE)
            value_b, h2_b, p_b = brute_mei(scores, higher_better, 1e-8, "balanced")
            value_d, _, _ = brute_mei(scores, higher_better, 1e-8, "dominance")
            assert abs(balanced.value - value_b) <= 1e-12
            assert abs(balanced.h2 - h2_b) <= 1e-12
            assert abs(dominance.value - value_d) <= 1e-12
            for m in range(M):
                assert abs(balanced.profile.p[m] - p_b[m]) <= 1e-12
            assert balanced.value + dominance.value == 1.0

        # Hand fixture from bare contribution scores. The expected value
        # is recomputed here from the defining formula with the default
        # epsilon in the normalisation: p = z / (sum(z) + eps).
        zetas = (2.0, 1.0, 1.0)
        total = sum(zetas) + 1e-8
        p = [z / total for z in zetas]
        expected = -math.log(sum(x * x for x in p)) / math.log(3.0)
        assert abs(expected - 0.8927892652655685) <= 1e-12  # frozen oracle value
        fixture = mei(zetas)
        assert abs(fixture.value - expected) <= 1e-5
        assert fixture.value + mei(zetas, mode=DOMINANCE_IS_ONE).value == 1.0


def test_criterion_5_mli_fixture_and_properties():
    with criterion(
        5,
        "MLI fixture = 0.866025 (1e-6); static trace -> 0; scale and "
        "permutation invariance; oracle equivalence on 100 traces (1e-12)",
        budget_s=10.0,
    ):
        grid = np.array([[1.0, 1.0], [2.0, 1.0], [4.0, 1.0]])
        fixture = mli(GradTrace(values=grid))
        assert abs(fixture.value - 0.866025) <= 1e-6
        assert abs(fixture.value - math.sqrt(3.0) / 2.0) <= 1e-15

        # Identical per-modality series: every delta equals the mean delta.
        identical = np.array([[1.0, 1.0], [3.0, 3.0], [0.5, 0.5]])
        assert mli(GradTrace(values=identical)).value == 0.0

        rng = np.random.default_rng(55)
        for _ in range(100):
            T = int(rng.integers(2, 7))
            M = int(rng.integers(2, 5))
            values = rng.uniform(0.0, 5.0, size=(T, M))
            trace = GradTrace(values=values)
            result = mli(trace)
            oracle_value, oracle_raw = brute_mli(values.tolist())
            assert abs(result.value - oracle_value) <= 1e-12
            assert abs(result.raw_inner - oracle_raw) <= 1e-12

            scale = float(rng.uniform(0.1, 40.0))
            scaled = mli(GradTrace(values=values * scale))
            assert abs(scaled.value - result.value) <= 1e-12

            perm = rng.permutation(M)
            permuted = mli(GradTrace(values=values[:, perm]))
            assert abs(permuted.value - result.value) <= 1e-12


def test_criterion_6_backprop_matches_finite_differences():
    with criterion(
        6,
        "analytic gradients match central finite differences "
        "(rel err < 1e-4, >=100 probes)",
        budget_s=30.0,
    ):
        total_probes = 0
        for task, seed in ((CLASSIFICATION, 61), ("regression", 62)):
            rng = np.random.default_rng(seed)
            spec = SynthSpec(
                task=task,
                dims=(5, 4),
                informativeness=(1.0, 1.0),
                n_train=12,
                n_valid=8,
                n_test=8,
                seed=seed,
                n_classes=3,
            )
            model = init_model((5, 4), 6, task, 3, np.random.default_rng(seed))
            # Zero-imputed rows with zero biases would sit exactly on the
            # rectifier kink, where central differences measure half the
            # one-sided slope; nonzero biases move every probe off it.
            for m in range(2):
                model.enc_b[m][:] = rng.uniform(0.05, 0.25, model.enc_b[m].shape)
            feats, labels = take(gen_synthetic(spec).train, np.arange(12))
            mask = (rng.random((12, 2)) < 0.8).astype(np.float64)
            mask[:, 0] = np.maximum(mask[:, 0], 1.0 - mask[:, 1])
            for m in range(2):
                u = (feats[m] * mask[:, m : m + 1]) @ model.enc_W[m] + model.enc_b[m]
                assert np.abs(u).min() > 1e-3
            weights = rng.uniform(0.05, 0.3, size=12)
            _, grads = loss_and_grads(model, feats, mask, labels, weights)
            flat = {
                "enc_W0": (model.enc_W[0], grads["enc_W"][0]),
                "enc_W1": (model.enc_W[1], grads["enc_W"][1]),
                "enc_b0": (model.enc_b[0], grads["enc_b"][0]),
                "enc_b1": (model.enc_b[1], grads["enc_b"][1]),
                "fus_W": (model.fus_W, grads["fus_W"]),
                "fus_b": (model.fus_b, grads["fus_b"]),
            }
            names = sorted(flat)
            for i in range(60):
                name = names[i % len(names)]
                arr, grad = flat[name]
                index = tuple(int(rng.integers(s)) for s in arr.shape)

                def loss_at(values: np.ndarray, arr=arr) -> float:
                    saved = arr.copy()
                    arr[...] = values
                    loss, _ = loss_and_grads(model, feats, mask, labels, weights)
                    arr[...] = saved
                    return loss

                numeric = fd_gradient(loss_at, arr, index, step=1e-5)
                analytic = float(grad[index])
                scale = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / scale < 1e-4, (name, index)
                total_probes += 1
        assert total_probes >= 100


def test_criterion_7_imbalanced_protocol_is_detected():
    with criterion(
        7,
        "paired runs: MLI(imbalanced) > MLI(shared) in >=4/5 seeds; "
        "least-missing modality tops the profile in >=4/5 imbalanced runs",
        budget_s=120.0,
    ):
        imr = RateVector(("m0", "m1", "m2"), (0.1, 0.2, 0.6))
        smr = imr.mean_matched()
        assert smr.rates == (0.3, 0.3, 0.3)

        mli_wins = 0
        profile_wins = 0
        seeds = (1, 2, 3, 4, 5)
        for seed in seeds:
            spec = SynthSpec(
                task=CLASSIFICATION,
                dims=(16, 16, 16),
                informativeness=(1.0, 1.0, 1.0),
                n_train=2000,
                n_valid=300,
                n_test=6000,
                seed=seed,
                n_classes=8,
                label_noise=0.25,
            )

            def config_for(protocol: RateVector) -> TrainConfig:
                return TrainConfig(
                    protocol=protocol,
                    epochs=20,
                    batch_size=48,
                    learning_rate=0.015,
                    seed=seed,
                    hidden=16,
                    mei_epoch_stride=20,
                )

            run_imr = run_arms(spec, [config_for(imr)])[0]
            run_smr = run_arms(spec, [config_for(smr)])[0]
            if run_imr.mli_result.value > run_smr.mli_result.value:
                mli_wins += 1
            profile = run_imr.mei("UA", BALANCED_IS_ONE).profile
            if int(np.argmax(profile.p)) == 0:
                profile_wins += 1

        assert mli_wins >= 4, f"MLI separated only {mli_wins}/5 paired seeds"
        assert profile_wins >= 4, (
            f"least-missing modality led only {profile_wins}/5 profiles"
        )


def test_criterion_8_reruns_are_byte_identical(tmp_path, capsys):
    with criterion(
        8,
        "re-running every artifact-writing command with the same config "
        "and seed reproduces identical bytes (timestamps excluded)",
        budget_s=60.0,
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "modalities": ["audio", "video"],
            "protocol": {"rates": [0.2, 0.5]},
            "seed": 11,
            "n_samples": 200,
            "simulation": {
                "dims": [6, 5],
                "informativeness": [1.0, 1.0],
                "n_train": 64,
                "n_valid": 16,
                "n_test": 16,
                "epochs": 2,
                "batch_size": 16,
                "n_classes": 3,
            },
        }))

        mask_a = tmp_path / "mask_a.csv"
        mask_b = tmp_path / "mask_b.csv"
        for out in (mask_a, mask_b):
            code = cli_main(["mask", "generate", "--config", str(config_path),
                             "--out", str(out)])
            assert code == 0
        assert mask_a.read_bytes() == mask_b.read_bytes()

        run_a = tmp_path / "run_a"
        run_b = tmp_path / "run_b"
        for out in (run_a, run_b):
            code = cli_main(["simulate", "run", "--config", str(config_path),
                             "--out", str(out)])
            assert code == 0
        artifact_names = sorted(
            p.name for p in run_a.iterdir() if p.name != "report.json"
        )
        assert "manifest.json" in artifact_names
        assert "gradtrace.csv" in artifact_names
        for name in artifact_names:
            assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
        report_a = read_report(run_a / "report.json")
        report_b = read_report(run_b / "report.json")
        assert report_a.payload == report_b.payload
        assert report_a.payload_sha256 == report_b.payload_sha256

        merged_a = tmp_path / "merged_a.json"
        merged_b = tmp_path / "merged_b.json"
        for out in (merged_a, merged_b):
            code = cli_main(["report", "merge", str(run_a / "report.json"),
                             str(run_b / "report.json"), "--out", str(out)])
            assert code == 0
        assert (
            read_report(merged_a).payload_sha256
            == read_report(merged_b).payload_sha256
        )
        capsys.readouterr()  # discard CLI chatter; keep the PASS line below


def test_criterion_9_formats_round_trip_through_the_cli(tmp_path, capsys):
    with criterion(
        9,
        "trainer-written tables and traces re-ingest through the metrics "
        "commands at full precision; golden bytes for every format",
        budget_s=10.0,
    ):
        spec = SynthSpec(
            task=CLASSIFICATION,
            dims=(6, 5),
            informativeness=(1.0, 1.0),
            n_train=64,
            n_valid=16,
            n_test=16,
            seed=91,
            n_classes=3,
        )
        config = TrainConfig(
            protocol=RateVector(("audio", "video"), (0.2, 0.5)),
            epochs=2,
            batch_size=16,
            learning_rate=0.05,
            seed=91,
            hidden=6,
        )
        run = run_arms(spec, [config])[0]

        # Ablation table -> metrics mei at full precision.
        table = run.test_tables[0]
        table_path = tmp_path / "abltable.csv"
        write_ablation_table(table, table_path)
        assert cli_main(["metrics", "mei", "--table", str(table_path)]) == 0
        stdout = capsys.readouterr().out
        printed = {
            line.split(": ")[0]: float(line.split(": ")[1].split(" ")[0])
            for line in stdout.splitlines()
            if line.startswith("mei[") or line.startswith("h2:")
        }
        expected_balanced = mei_from_table(table, mode=BALANCED_IS_ONE)
        expected_dominance = mei_from_table(table, mode=DOMINANCE_IS_ONE)
        assert printed[f"mei[{BALANCED_IS_ONE}]"] == expected_balanced.value
        assert printed[f"mei[{DOMINANCE_IS_ONE}]"] == expected_dominance.value
        assert printed["h2"] == expected_balanced.h2

        # Gradient trace -> metrics mli at full precision, via both the
        # per-module and the aggregated file formats.
        expected_mli = run.mli_result.value
        raw_path = tmp_path / "gradtrace.csv"
        write_grad_samples(run.grad_samples(), raw_path)
        agg_path = tmp_path / "gradagg.csv"
        write_agg_trace(run.trace, agg_path)
        for path in (raw_path, agg_path):
            assert cli_main(["metrics", "mli", "--trace", str(path)]) == 0
            stdout = capsys.readouterr().out
            mli_line = next(
                line for line in stdout.splitlines() if line.startswith("mli: ")
            )
            assert float(mli_line.removeprefix("mli: ")) == expected_mli

        # Golden bytes, one per format, pinning separators, ordering,
        # repr-precision floats, and the trailing newline.
        awkward = 0.1 + 0.2  # 0.30000000000000004 survives only via repr
        golden_masks = "sample_id,audio,video\n0,1,0\n1,1,1\n2,0,1\n"
        masks_path = tmp_path / "golden_masks.csv"
        write_mask_matrix(
            MaskMatrix(
                rates=RateVector(("audio", "video"), (0.3, 0.4)),
                seed=5,
                masks=np.array([[1, 0], [1, 1], [0, 1]], dtype=np.int8),
            ),
            masks_path,
        )
        assert masks_path.read_bytes() == golden_masks.encode()

        golden_table = (
            "combination,metric,value\n"
            "01,UA,0.5\n"
            "10,UA,0.30000000000000004\n"
            "11,UA,0.9\n"
        )
        table_path = tmp_path / "golden_table.csv"
        write_ablation_table(
            # Scores of 01, 10 and 11, in canonical order.
            AblationTable(M=2, metric=PerfMetric.named("UA"), scores=[0.5, awkward, 0.9]),
            table_path,
        )
        assert table_path.read_bytes() == golden_table.encode()

        golden_trace = (
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
        trace_path = tmp_path / "golden_trace.csv"
        write_grad_samples(
            np.array(
                [
                    (1, 0, 0, 0.5),
                    (1, 0, 1, 1.5),
                    (1, 1, 0, 2.0),
                    (1, 1, 1, 4.0),
                    (2, 0, 0, awkward),
                    (2, 0, 1, 0.7),
                    (2, 1, 0, 1.0),
                    (2, 1, 1, 3.0),
                ],
                dtype=GRAD_SAMPLE_DTYPE,
            ),
            trace_path,
        )
        assert trace_path.read_bytes() == golden_trace.encode()

        golden_agg = "step,modality,G\n1,0,1.0\n1,1,3.0\n2,0,0.5\n2,1,2.0\n"
        agg_path = tmp_path / "golden_agg.csv"
        write_agg_trace(
            GradTrace(values=np.array([[1.0, 3.0], [0.5, 2.0]])), agg_path
        )
        assert agg_path.read_bytes() == golden_agg.encode()
