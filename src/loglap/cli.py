"""Batch experiment runner: one config document, nine subcommands.

Every subcommand reads the same JSON config, writes its artifacts into the
output directory, prints a short summary, and exits 0 exactly when all of
its internal checks pass. Config problems exit 2 with the offending field
path; numerical failures exit 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calculus import grigoryan_check
from .config import (
    ConfigError,
    ExperimentConfig,
    config_isometry,
    config_model,
    config_observation,
    config_potential,
    config_sources,
    config_times,
    load_config,
)
from .extraction import (
    build_gelfand_data,
    compare_gelfand,
    supnorm_sanity_check,
    weyl_sanity_check,
)
from .models import verify_orthonormality
from .recovery import (
    heat_kernel_equality_check,
    isometry_gauge_check,
    recover_potential,
    ucp_nullspace_test,
)
from .serialize import (
    SerializationError,
    dump_gelfand,
    dump_manifest,
    dump_model,
    dump_record,
    dump_report,
    dump_solution,
    load_gelfand,
    match_report_to_csv,
    recovered_to_csv,
    solution_to_csv,
    spectrum_to_csv,
    trace_to_csv,
)
from .solver import Solution, cauchy_records, forward_map


def _emit(quiet: bool, *lines):
    if not quiet:
        for line in lines:
            print(line)


# subcommand handlers, each returns True iff its checks pass ------------------

def _cmd_spectrum(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    dump_model(model, out / "model.json")
    spectrum_to_csv(model, out / "spectrum.csv")
    report = verify_orthonormality(model)
    for k in range(model.truncation):
        _emit(quiet, f"  eigenvalue {model.eigenvalues[k]:.12g}  "
                     f"multiplicity {int(model.multiplicities[k])}")
    _emit(quiet, f"orthonormality defect {report.max_defect:.3e} "
                 f"({'ok' if report.passed else 'FAILED'})")
    return report.passed


def _cmd_solve(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    V = config_potential(cfg)
    obs = config_observation(cfg, model)
    src = config_sources(cfg, model, obs)[0]
    fmap = forward_map(model, cfg.m, V)
    u = fmap.solve(src.coefficients)
    residual = float(np.linalg.norm(fmap.matrix @ u - src.coefficients))
    dump_solution(Solution(kind=model.kind, truncation=model.truncation, mass=cfg.m,
                           source_id=src.source_id, potential_label=V.label,
                           coefficients=u, residual=residual),
                  out / "solution.json")
    solution_to_csv(model, model.node_basis() @ u, out / "solution.csv")
    ok = residual <= cfg.tolerances.solve_residual
    _emit(quiet, f"solved with source {src.source_id}: "
                 f"residual {residual:.3e} ({'ok' if ok else 'FAILED'})")
    return ok


def _cmd_cauchy(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    V = config_potential(cfg)
    obs = config_observation(cfg, model)
    records = cauchy_records(model, cfg.m, V, config_sources(cfg, model, obs), obs)
    entries = []
    for rec in records:
        name = f"record_{rec.source_id}.json"
        dump_record(rec, out / name)
        entries.append({"file": name, "source_id": rec.source_id,
                        "kind": rec.kind, "truncation": rec.truncation,
                        "mass": rec.mass})
    dump_manifest(entries, out / "manifest.json")
    ok = all(np.all(np.isfinite(r.u_values)) and np.all(np.isfinite(r.lu_values))
             for r in records)
    _emit(quiet, f"wrote {len(records)} records on {obs.size} nodes "
                 f"({'ok' if ok else 'FAILED'})")
    return ok


def _cmd_extract(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    V = config_potential(cfg)
    obs = config_observation(cfg, model)
    sources = config_sources(cfg, model, obs)
    data = build_gelfand_data(model, cfg.m, V, obs, sources,
                              times=config_times(cfg, model), mode=cfg.mode)
    for trace in data.traces:
        trace_to_csv(trace, out / f"trace_{trace.source_id}.csv")
    dump_gelfand(data, out / "gelfand.json")
    _emit(quiet, f"extracted {data.eigenvalues.size} eigenvalue blocks "
                 f"({cfg.mode} mode) from {len(sources)} sources")
    return True


def _cmd_compare(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    if cfg.compare is None:
        raise ConfigError("compare", "this subcommand needs compare.first/second")
    report = compare_gelfand(
        load_gelfand(cfg.compare.first), load_gelfand(cfg.compare.second),
        eig_rtol=cfg.tolerances.eig_rtol, angle_tol=cfg.tolerances.angle_tol)
    dump_report(report, out / "compare_report.json")
    match_report_to_csv(report, out / "compare_table.csv")
    for k in range(report.n_compared):
        _emit(quiet, f"  block {k}: gap {report.eigenvalue_gaps[k]:.3e}  "
                     f"mult {'=' if report.multiplicity_matches[k] else '!='}  "
                     f"angle {report.max_angles[k]:.3e}")
    _emit(quiet, f"comparison {'ok' if report.passed else 'FAILED'} "
                 f"over {report.n_compared} blocks")
    return report.passed


def _cmd_ucp(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    obs = config_observation(cfg, model)
    report = ucp_nullspace_test(
        model, cfg.m, obs,
        node_multiplier=cfg.ucp.node_multiplier, include_image=cfg.ucp.include_image)
    dump_report(report, out / "ucp_report.json")
    _emit(quiet, f"null dimension {report.null_dimension}, smallest singular "
                 f"value {report.smallest_singular:.3e} "
                 f"({'ok' if report.passed else 'FAILED'})")
    return report.passed


def _cmd_recover(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    V = config_potential(cfg)
    obs = config_observation(cfg, model)
    records = cauchy_records(model, cfg.m, V, config_sources(cfg, model, obs), obs)
    recovered = recover_potential(model, cfg.m, obs, V, records)
    recovered_to_csv(recovered, out / "recovered.csv")
    complement = np.setdiff1d(np.arange(len(recovered.values)),
                              recovered.observation_indices)
    covered = complement[recovered.mask[complement]]
    truth = V.values_at(model, model.nodes)
    err = (float(np.max(np.abs(recovered.values[covered] - truth[covered])))
           if covered.size else float("nan"))
    ok = recovered.covered_fraction == 1.0
    tol = cfg.tolerances.recover_tol
    if tol is not None:
        ok = ok and covered.size > 0 and err <= tol
    _emit(quiet, f"coverage {recovered.covered_fraction:.2%}, "
                 f"sup error on recovered nodes {err:.3e} "
                 f"({'ok' if ok else 'FAILED'})")
    return ok


def _cmd_gauge(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    V = config_potential(cfg)
    obs = config_observation(cfg, model)
    isometry = config_isometry(cfg)
    report = isometry_gauge_check(
        model, cfg.m, V, obs, isometry, seed=cfg.seed,
        tolerance=cfg.tolerances.gauge_tol)
    dump_report(report, out / "gauge_report.json")
    _emit(quiet, f"intertwining defect {report.intertwining_defect:.3e}, "
                 f"record defect {report.record_defect:.3e} "
                 f"({'ok' if report.passed else 'FAILED'})")
    return report.passed


def _cmd_heatcheck(cfg: ExperimentConfig, out: Path, quiet: bool) -> bool:
    model = config_model(cfg)
    obs = config_observation(cfg, model)
    times = np.asarray(cfg.heatcheck.times)
    equality = heat_kernel_equality_check(
        model, model, cfg.m, obs, obs, times, tolerance=cfg.tolerances.heat_tol)
    dump_report(equality, out / "heat_equality_report.json")
    gaussian = grigoryan_check(model, cfg.m,
                               np.geomspace(times.min(), times.max(), 12),
                               n_pairs=cfg.heatcheck.pairs,
                               seed=cfg.seed)
    dump_report(gaussian, out / "gaussian_bound_report.json")
    weyl = weyl_sanity_check(model)
    sup = supnorm_sanity_check(model, cfg.m)
    dump_report(weyl, out / "weyl_report.json")
    dump_report(sup, out / "supnorm_report.json")
    ok = (equality.passed and gaussian.passed
          and weyl.passed and sup.passed)
    _emit(quiet,
          f"kernel self-equality deviation {equality.max_deviation:.3e}",
          f"gaussian bound violations {gaussian.violations}/{gaussian.n_checked}",
          f"counting bound violations {weyl.violations}, "
          f"sup bound violations {sup.violations}",
          f"heat checks {'ok' if ok else 'FAILED'}")
    return ok


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "cauchy": _cmd_cauchy,
    "extract": _cmd_extract,
    "compare": _cmd_compare,
    "ucp": _cmd_ucp,
    "recover": _cmd_recover,
    "gauge": _cmd_gauge,
    "heatcheck": _cmd_heatcheck,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="experiment config (JSON)")
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's random seed")
    common.add_argument("--quiet", action="store_true",
                        help="suppress the summary lines")
    parser = argparse.ArgumentParser(
        prog="loglap",
        description="Spectral laboratory for a logarithmic Schrodinger "
                    "operator on closed model manifolds.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, doc in (
            ("spectrum", "dump model eigendata"),
            ("solve", "forward solve, emit coefficients and node values"),
            ("cauchy", "emit observation records and their manifest"),
            ("extract", "build and dump spectral data from heat traces"),
            ("compare", "compare two spectral data files"),
            ("ucp", "run the continuation rank test"),
            ("recover", "recover the potential outside the window"),
            ("gauge", "check record invariance under a symmetry"),
            ("heatcheck", "kernel equality and heat bound suite")):
        subs.add_parser(name, parents=[common], help=doc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        out = Path(args.out or cfg.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        passed = _HANDLERS[args.subcommand](cfg, out, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SerializationError, OSError) as exc:
        print(f"artifact error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
