"""Command-line interface.

Subcommands:

    mask generate        write a maskmatrix-v1 file from a config
    mask stats           summarise an existing maskmatrix-v1 file
    protocol mean-match  shared rate with equal expected missing count
    protocol divergence  KL/JS divergence between two rate vectors
    metrics mei          equity index from an abltable-v1 file
    metrics mli          learning index from a gradtrace/gradagg file
    simulate run         train the toy model and emit all artifacts
    report merge         combine several report JSONs into one

Exit codes: 0 success; 2 configuration/validation error (out of memory
included); 3 I/O or file format error; 4 degenerate metric (e.g. no
measurable contribution).
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import config as cfg
from . import equity, learning, protocol, report, simtrainer
from .errors import ConfigError, FileFormatError, MissdiagError


def _parse_rate_list(text: str) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"bad rate list {text!r}; expected e.g. 0.4,0.5,0.6") from None
    if len(rates) < 2:
        raise ConfigError("a rate list needs at least 2 entries")
    return rates


def _generic_rate_vector(rates: tuple[float, ...]) -> protocol.RateVector:
    return protocol.RateVector(tuple(f"m{i}" for i in range(len(rates))), rates)


def _load_config(args: argparse.Namespace) -> cfg.ExperimentConfig:
    if not args.config:
        raise ConfigError("this command requires --config")
    raw = cfg.load_raw_config(args.config)
    raw = cfg.apply_overrides(raw, args.set or [])
    return cfg.resolve_config(raw, seed_flag=args.seed)


def _json_float(x: float) -> float | str:
    """Representation safe for strict JSON (infinities become strings)."""
    return x if math.isfinite(x) else repr(x)


@contextmanager
def _writing_out(args: argparse.Namespace, config: cfg.ExperimentConfig | None = None):
    """Name --out, else the config's output_dir, in an OS error raised while writing (exit 3)."""
    try:
        yield
    except OSError as exc:
        if args.out:
            raise OSError(f"--out {args.out}: {exc}") from exc
        if config is None:
            raise
        raise OSError(f"config output_dir {config.output_dir}: {exc}") from exc


def _print_pattern_table(masks: np.ndarray, rates: protocol.RateVector | None = None) -> None:
    """Count and frequency per pattern, plus its probability when the rates are known."""
    M = masks.shape[1]
    if M > protocol.MAX_ENUMERATED_MODALITIES:
        print(f"(pattern table omitted: M={M} exceeds the enumeration cap)")
        return
    probabilities = None if rates is None else protocol.pattern_distribution(rates).probabilities
    counts = protocol.pattern_counts(masks).tolist()
    print("pattern,count,frequency" + (",probability" if probabilities is not None else ""))
    for i, combo in enumerate(protocol.pattern_bitstrings(M)):
        line = f"{combo},{counts[i]},{counts[i] / masks.shape[0]:.6f}"
        if probabilities is not None:
            line += f",{probabilities[i]:.6f}"
        print(line)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_mask_generate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    rates = config.rate_vector()
    matrix = protocol.generate_mask_matrix(rates, config.n_samples, config.seed)
    out = Path(args.out) if args.out else Path(config.output_dir) / "masks.csv"
    with _writing_out(args, config):
        protocol.write_mask_matrix(matrix, out)
    print(f"wrote maskmatrix-v1: {out} (N={matrix.N}, M={matrix.M}, seed={config.seed})")
    empirical = protocol.empirical_rates(matrix)
    print("modality,rate,exact_marginal,empirical_rate")
    for m, name in enumerate(rates.modality_names):
        marginal = protocol.marginal_missing_rate(rates, m)
        print(f"{name},{rates.rates[m]},{marginal:.6f},{empirical[m]:.6f}")
    _print_pattern_table(matrix.masks, rates)
    return 0


def _cmd_mask_stats(args: argparse.Namespace) -> int:
    names, masks = protocol.read_mask_matrix(args.file)
    print(f"file: {args.file} (N={masks.shape[0]}, M={masks.shape[1]})")
    empirical = protocol.empirical_rates(masks)
    print("modality,empirical_rate")
    for name, rate in zip(names, empirical):
        print(f"{name},{rate:.6f}")
    _print_pattern_table(masks)
    return 0


def _rates_from_args(args: argparse.Namespace, attr: str = "rates") -> protocol.RateVector:
    text = getattr(args, attr, None)
    if text:
        return _generic_rate_vector(_parse_rate_list(text))
    if args.config:
        return _load_config(args).rate_vector()
    raise ConfigError(f"provide --{attr.replace('_', '-')} or --config")


def _cmd_mean_match(args: argparse.Namespace) -> int:
    rates = _rates_from_args(args)
    shared = protocol.mean_match_shared(rates)
    matched = rates.mean_matched()
    value = protocol.divergence(rates, matched, args.kind)
    print(f"rates: {','.join(repr(r) for r in rates.rates)}")
    print(f"mean-matched shared rate: {shared!r}")
    print(f"divergence ({args.kind}) vs mean-matched shared-rate protocol: {value!r}")
    return 0


def _cmd_divergence(args: argparse.Namespace) -> int:
    rates_a = _generic_rate_vector(_parse_rate_list(args.rates_a))
    rates_b = _generic_rate_vector(_parse_rate_list(args.rates_b))
    value = protocol.divergence(rates_a, rates_b, args.kind)
    print(f"divergence ({args.kind}): {value!r}")
    return 0


def _cmd_mei(args: argparse.Namespace) -> int:
    orientations = {}
    for name in args.lower_better or []:
        orientations[name] = equity.LOWER_BETTER
    tables = equity.read_ablation_tables(args.table, orientations)
    # Every metric is scored before anything is printed, so a failing
    # table leaves stdout empty beside its one error line.
    lines = []
    for metric_name in sorted(tables):
        table = tables[metric_name]
        results = {
            mode: equity.mei_from_table(table, args.epsilon, mode)
            for mode in equity.MEI_MODES
        }
        profile = results[equity.BALANCED_IS_ONE].profile
        lines.append(f"metric {metric_name} ({table.metric.orientation}), M={table.M}, "
                     f"epsilon={args.epsilon!r}")
        lines.append("modality,mu,sigma,zeta,p")
        for m in range(table.M):
            lines.append(f"{m},{profile.mu[m]!r},{profile.sigma[m]!r},"
                         f"{profile.zeta[m]!r},{profile.p[m]!r}")
        lines.append(f"h2: {results[equity.BALANCED_IS_ONE].h2!r}")
        for mode in equity.MEI_MODES:
            marker = " (selected)" if mode == args.mode else ""
            lines.append(f"mei[{mode}]: {results[mode].value!r}{marker}")
    for line in lines:
        print(line)
    return 0


def _cmd_mli(args: argparse.Namespace) -> int:
    fmt = learning.sniff_trace_format(args.trace)
    if fmt == "gradtrace-v1":
        samples = learning.read_grad_samples(args.trace)
        if not samples.size:
            raise FileFormatError(f"{args.trace}: no trace rows")
        trace = learning.assemble_trace(samples)
    else:
        trace = learning.read_agg_trace(args.trace)
    for warning in trace.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    result = learning.mli(trace, stride=args.stride)
    print(f"mli: {result.value!r}")
    print(f"raw_inner: {result.raw_inner!r}")
    print(f"clamped: {result.clamped}")
    print(f"T: {result.T}")
    print(f"M: {result.M}")
    print(f"max_mean_delta: {result.max_mean_delta!r}")
    return 0


def _mei_payload(run: simtrainer.RunLog) -> dict:
    payload: dict = {}
    for metric_name, result in run.mei_results:
        entry = payload.setdefault(metric_name, {})
        entry[result.mode] = {
            "value": result.value,
            "h2": result.h2,
            "profile": asdict(result.profile),
        }
    return payload


def _emit_run_artifacts(run: simtrainer.RunLog, out_dir: Path) -> dict:
    """Write one run's artifact files; returns name -> {path, sha256}."""
    artifacts: dict[str, dict] = {}

    def record(name: str, path: Path) -> None:
        artifacts[name] = {
            "path": str(path.relative_to(out_dir)),
            "sha256": report.file_sha256(path),
        }

    masks_path = out_dir / "masks.csv"
    protocol.write_mask_matrix(run.mask_matrices[0], masks_path)
    record("masks", masks_path)

    test_path = out_dir / "abltable_test.csv"
    equity.write_ablation_tables(list(run.test_tables), test_path)
    record("abltable_test", test_path)

    for epoch, tables in run.valid_tables:
        path = out_dir / f"abltable_valid_ep{epoch:03d}.csv"
        equity.write_ablation_tables(list(tables), path)
        record(f"abltable_valid_ep{epoch:03d}", path)

    trace_path = out_dir / "gradtrace.csv"
    learning.write_grad_samples(run.grad_samples(), trace_path)
    record("gradtrace", trace_path)

    agg_path = out_dir / "gradagg.csv"
    learning.write_agg_trace(run.trace, agg_path)
    record("gradagg", agg_path)
    return artifacts


def _run_payload(run: simtrainer.RunLog, divergence_kind: str, artifacts: dict) -> dict:
    rates = run.config.protocol
    matched = rates.mean_matched()
    empirical = protocol.empirical_rates(run.mask_matrices[0])
    return {
        "config_hash": run.config_hash,
        "seeds": {"data": run.spec.seed, "train": run.config.seed},
        "protocol": {
            "modalities": list(rates.modality_names),
            "rates": list(rates.rates),
            "mean_matched_shared_rate": protocol.mean_match_shared(rates),
        },
        "divergence_vs_mean_matched": {
            "kind": divergence_kind,
            "value": _json_float(protocol.divergence(rates, matched, divergence_kind)),
        },
        "empirical_rates": [float(r) for r in empirical],
        "exact_marginals": [
            protocol.marginal_missing_rate(rates, m) for m in range(rates.M)
        ],
        "task_scores_full": {
            table.metric.name: table.perf_full for table in run.test_tables
        },
        "mei": _mei_payload(run),
        "mli": asdict(run.mli_result),
        "trace_warnings": list(run.trace.warnings),
        "artifacts": artifacts,
    }


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out) if args.out else Path(config.output_dir)
    with _writing_out(args, config):
        _check_out_dir(out_dir)
        _simulate(config, out_dir)
    return 0


def _check_out_dir(path: Path) -> None:
    """Fail before any training when `path` or its nearest existing ancestor is not a directory."""
    for candidate in (path, *path.parents):
        if candidate.exists():
            if not candidate.is_dir():
                raise NotADirectoryError(
                    errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(candidate)
                )
            return


def _simulate(config: cfg.ExperimentConfig, out_dir: Path) -> None:
    """Train one run, or the paired IMR and SMR arms, and write every artifact."""
    spec = config.synth_spec()
    rates = config.rate_vector()

    if config.paired:
        arms = {"imr": rates, "smr": rates.mean_matched()}
        trained = simtrainer.run_arms(spec, [config.train_config(r) for r in arms.values()])
        runs = dict(zip(arms, trained))
        payloads = {}
        artifact_index = {}
        for arm, run in runs.items():
            artifacts = _emit_run_artifacts(run, out_dir / arm)
            for name, entry in artifacts.items():
                artifact_index[f"{arm}/{name}"] = {
                    "path": f"{arm}/{entry['path']}",
                    "sha256": entry["sha256"],
                }
            payloads[arm] = _run_payload(run, config.divergence_kind, artifacts)
        deltas = {
            "mli": runs["imr"].mli_result.value - runs["smr"].mli_result.value,
            "mei": {
                name: {
                    mode: payloads["imr"]["mei"][name][mode]["value"]
                    - payloads["smr"]["mei"][name][mode]["value"]
                    for mode in payloads["imr"]["mei"][name]
                }
                for name in payloads["imr"]["mei"]
            },
        }
        payload = {
            "paired": True,
            "imr": payloads["imr"],
            "smr": payloads["smr"],
            "deltas": deltas,
        }
        print(f"paired run: mli[imr]={runs['imr'].mli_result.value!r} "
              f"mli[smr]={runs['smr'].mli_result.value!r} delta={deltas['mli']!r}")
    else:
        run = simtrainer.run_experiment(spec, config.train_config())
        artifact_index = _emit_run_artifacts(run, out_dir)
        payload = _run_payload(run, config.divergence_kind, artifact_index)
        payload["paired"] = False
        print(f"run: mli={run.mli_result.value!r}")
        for metric_name, result in run.mei_results:
            if result.mode == config.mei_mode:
                print(f"mei[{metric_name}][{config.mei_mode}]: {result.value!r}")

    doc = report.DiagnosticsReport.build(payload)
    report_path = out_dir / "report.json"
    report.write_report(doc, report_path)
    manifest = {
        "config": config.resolved,
        "config_hash": report.config_hash(config.resolved),
        "artifacts": artifact_index,
        "report": report_path.name,
        "tool_version": report.TOOL_VERSION,
    }
    report.atomic_write_text(
        out_dir / "manifest.json", report.canonical_json(manifest) + "\n"
    )
    print(f"wrote report: {report_path}")
    print(f"wrote manifest: {out_dir / 'manifest.json'}")


def _cmd_report_merge(args: argparse.Namespace) -> int:
    merged = report.merge_reports(args.inputs)
    with _writing_out(args):
        report.write_report(merged, args.out)
    print(f"wrote merged report: {args.out} ({len(args.inputs)} inputs)")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to the experiment config JSON")
    parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="override a config field by dotted path (repeatable)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help=f"seed override (precedence: this flag > {cfg.SEED_ENV_VAR} > config)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="missdiag",
        description="Missing-modality protocols and modality equity/learning diagnostics",
    )
    top = parser.add_subparsers(dest="command", required=True)

    mask = top.add_parser("mask", help="mask matrix generation and inspection")
    mask_sub = mask.add_subparsers(dest="subcommand", required=True)
    gen = mask_sub.add_parser("generate", help="generate a maskmatrix-v1 file")
    _add_config_options(gen)
    gen.add_argument("--out", help="output file (default: <output_dir>/masks.csv)")
    gen.set_defaults(func=_cmd_mask_generate)
    stats = mask_sub.add_parser("stats", help="summarise a maskmatrix-v1 file")
    stats.add_argument("--file", required=True, help="maskmatrix-v1 file to read")
    stats.set_defaults(func=_cmd_mask_stats)

    proto = top.add_parser("protocol", help="rate-vector analysis")
    proto_sub = proto.add_subparsers(dest="subcommand", required=True)
    mm = proto_sub.add_parser("mean-match", help="mean-matched shared rate + divergence")
    _add_config_options(mm)
    mm.add_argument("--rates", help="comma-separated missing rates, e.g. 0.4,0.5,0.6")
    mm.add_argument("--kind", choices=protocol.DIVERGENCE_KINDS, default=protocol.JS)
    mm.set_defaults(func=_cmd_mean_match)
    div = proto_sub.add_parser("divergence", help="divergence between two rate vectors")
    div.add_argument("--rates-a", required=True, help="comma-separated rates")
    div.add_argument("--rates-b", required=True, help="comma-separated rates")
    div.add_argument("--kind", choices=protocol.DIVERGENCE_KINDS, default=protocol.JS)
    div.set_defaults(func=_cmd_divergence)

    metrics = top.add_parser("metrics", help="diagnostic metric computation")
    metrics_sub = metrics.add_subparsers(dest="subcommand", required=True)
    mei_p = metrics_sub.add_parser("mei", help="equity index from an abltable-v1 file")
    mei_p.add_argument("--table", required=True, help="abltable-v1 file")
    mei_p.add_argument("--epsilon", type=float, default=equity.DEFAULT_EPSILON)
    mei_p.add_argument("--mode", choices=equity.MEI_MODES, default=equity.BALANCED_IS_ONE)
    mei_p.add_argument(
        "--lower-better",
        action="append",
        metavar="METRIC",
        help="treat METRIC as lower-better (repeatable; MAE is by default)",
    )
    mei_p.set_defaults(func=_cmd_mei)
    mli_p = metrics_sub.add_parser(
        "mli", help="learning index from a gradtrace-v1 or gradagg-v1 file"
    )
    mli_p.add_argument("--trace", required=True, help="trace file")
    mli_p.add_argument("--stride", type=int, default=1, help="subsample every k-th step")
    mli_p.set_defaults(func=_cmd_mli)

    simulate = top.add_parser("simulate", help="toy-trainer experiments")
    simulate_sub = simulate.add_subparsers(dest="subcommand", required=True)
    run_p = simulate_sub.add_parser("run", help="train and emit diagnostics + artifacts")
    _add_config_options(run_p)
    run_p.add_argument("--out", help="output directory (default: config output_dir)")
    run_p.set_defaults(func=_cmd_simulate)

    rep = top.add_parser("report", help="report manipulation")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    merge = rep_sub.add_parser("merge", help="combine several reports into one")
    merge.add_argument("inputs", nargs="+", help="report JSON files")
    merge.add_argument("--out", required=True, help="merged report path")
    merge.set_defaults(func=_cmd_report_merge)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing leaves it as it was, so calls share it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MissdiagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
