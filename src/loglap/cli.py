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
from .calculus import (
    grigoryan_check,
    heat_kernel_equality_check,
    supnorm_sanity_check,
    weyl_sanity_check,
)
from .config import (
    ConfigError,
    ExperimentConfig,
    config_model,
    config_potential,
    config_sources,
    config_times,
    load_config,
)
from .extraction import build_gelfand_data, compare_gelfand
from .models import restrict_to_observation, verify_orthonormality
from .recovery import isometry_gauge_check, recover_potential, ucp_nullspace_test
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


# subcommand handlers: each writes its artifacts into `out` and returns
# (True iff its checks pass, its summary lines); the docstring is its help line

_NEEDS = {"observation": "an observation set", "isometry": "an isometry",
          "compare": "compare.first/second"}


def _section(cfg: ExperimentConfig, name: str):
    """The config section `name`, which this subcommand cannot run without."""
    value = getattr(cfg, name)
    if value is None:
        raise ConfigError(name, f"this subcommand needs {_NEEDS[name]}")
    return value


def _inputs(cfg: ExperimentConfig):
    """(model, V, obs): the model, potential and observation set of `cfg`."""
    model = config_model(cfg)
    V = config_potential(cfg)
    return model, V, restrict_to_observation(model, _section(cfg, "observation"))


def _cmd_spectrum(cfg: ExperimentConfig, out: Path):
    """dump model eigendata"""
    model = config_model(cfg)
    dump_model(model, out / "model.json")
    spectrum_to_csv(model, out / "spectrum.csv")
    report = verify_orthonormality(model)
    lines = [f"  eigenvalue {model.eigenvalues[k]:.12g}  "
             f"multiplicity {int(model.multiplicities[k])}" for k in range(model.truncation)]
    return report.passed, lines + [f"orthonormality defect {report.max_defect:.3e} "
                                   f"({'ok' if report.passed else 'FAILED'})"]


def _cmd_solve(cfg: ExperimentConfig, out: Path):
    """forward solve, emit coefficients and node values"""
    model, V, obs = _inputs(cfg)
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
    return ok, [f"solved with source {src.source_id}: "
                f"residual {residual:.3e} ({'ok' if ok else 'FAILED'})"]


def _cmd_cauchy(cfg: ExperimentConfig, out: Path):
    """emit observation records and their manifest"""
    model, V, obs = _inputs(cfg)
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
    return ok, [f"wrote {len(records)} records on {obs.size} nodes "
                f"({'ok' if ok else 'FAILED'})"]


def _cmd_extract(cfg: ExperimentConfig, out: Path):
    """build and dump spectral data from heat traces"""
    model, V, obs = _inputs(cfg)
    sources = config_sources(cfg, model, obs)
    data = build_gelfand_data(model, cfg.m, V, obs, sources,
                              times=config_times(cfg, model), mode=cfg.mode)
    for trace in data.traces:
        trace_to_csv(trace, out / f"trace_{trace.source_id}.csv")
    dump_gelfand(data, out / "gelfand.json")
    return True, [f"extracted {data.eigenvalues.size} eigenvalue blocks "
                  f"({cfg.mode} mode) from {len(sources)} sources"]


def _cmd_compare(cfg: ExperimentConfig, out: Path):
    """compare two spectral data files"""
    files = _section(cfg, "compare")
    report = compare_gelfand(
        load_gelfand(files.first), load_gelfand(files.second),
        eig_rtol=cfg.tolerances.eig_rtol, angle_tol=cfg.tolerances.angle_tol)
    dump_report(report, out / "compare_report.json")
    match_report_to_csv(report, out / "compare_table.csv")
    lines = [f"  block {k}: gap {report.eigenvalue_gaps[k]:.3e}  "
             f"mult {'=' if report.multiplicity_matches[k] else '!='}  "
             f"angle {report.max_angles[k]:.3e}" for k in range(report.n_compared)]
    return report.passed, lines + [f"comparison {'ok' if report.passed else 'FAILED'} "
                                   f"over {report.n_compared} blocks"]


def _cmd_ucp(cfg: ExperimentConfig, out: Path):
    """run the continuation rank test"""
    model, _, obs = _inputs(cfg)
    report = ucp_nullspace_test(
        model, cfg.m, obs,
        node_multiplier=cfg.ucp.node_multiplier, include_image=cfg.ucp.include_image)
    dump_report(report, out / "ucp_report.json")
    return report.passed, [f"null dimension {report.null_dimension}, smallest singular "
                           f"value {report.smallest_singular:.3e} "
                           f"({'ok' if report.passed else 'FAILED'})"]


def _cmd_recover(cfg: ExperimentConfig, out: Path):
    """recover the potential outside the window"""
    model, V, obs = _inputs(cfg)
    records = cauchy_records(model, cfg.m, V, config_sources(cfg, model, obs), obs)
    recovered = recover_potential(model, cfg.m, obs, V, records)
    recovered_to_csv(recovered, out / "recovered.csv")
    covered = np.flatnonzero(recovered.mask & recovered.off_window)
    truth = V.values_at(model, model.nodes)
    err = (float(np.max(np.abs(recovered.values[covered] - truth[covered])))
           if covered.size else float("nan"))
    ok = recovered.covered_fraction == 1.0
    tol = cfg.tolerances.recover_tol
    if tol is not None:
        ok = ok and covered.size > 0 and err <= tol
    return ok, [f"coverage {recovered.covered_fraction:.2%}, "
                f"sup error on recovered nodes {err:.3e} ({'ok' if ok else 'FAILED'})"]


def _cmd_gauge(cfg: ExperimentConfig, out: Path):
    """check record invariance under a symmetry"""
    model, V, obs = _inputs(cfg)
    report = isometry_gauge_check(
        model, cfg.m, V, obs, _section(cfg, "isometry"), seed=cfg.seed,
        tolerance=cfg.tolerances.gauge_tol)
    dump_report(report, out / "gauge_report.json")
    return report.passed, [f"intertwining defect {report.intertwining_defect:.3e}, "
                           f"record defect {report.record_defect:.3e} "
                           f"({'ok' if report.passed else 'FAILED'})"]


def _cmd_heatcheck(cfg: ExperimentConfig, out: Path):
    """kernel equality and heat bound suite"""
    model, _, obs = _inputs(cfg)
    times = np.asarray(cfg.heatcheck.times)
    reports = {
        "heat_equality": heat_kernel_equality_check(
            model, model, cfg.m, obs, obs, times, tolerance=cfg.tolerances.heat_tol),
        "gaussian_bound": grigoryan_check(
            model, cfg.m, np.geomspace(times.min(), times.max(), 12),
            n_pairs=cfg.heatcheck.pairs, seed=cfg.seed),
        "weyl": weyl_sanity_check(model),
        "supnorm": supnorm_sanity_check(model, cfg.m)}
    for name, report in reports.items():
        dump_report(report, out / f"{name}_report.json")
    ok = all(report.passed for report in reports.values())
    equality, gaussian, weyl, sup = reports.values()
    return ok, [f"kernel self-equality deviation {equality.max_deviation:.3e}",
                f"gaussian bound violations {gaussian.violations}/{gaussian.n_checked}",
                f"counting bound violations {weyl.violations}, "
                f"sup bound violations {sup.violations}",
                f"heat checks {'ok' if ok else 'FAILED'}"]


_HANDLERS = {fn.__name__.removeprefix("_cmd_"): fn for fn in (
    _cmd_spectrum, _cmd_solve, _cmd_cauchy, _cmd_extract, _cmd_compare,
    _cmd_ucp, _cmd_recover, _cmd_gauge, _cmd_heatcheck)}


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
    for name, handler in _HANDLERS.items():
        subs.add_parser(name, parents=[common], help=handler.__doc__)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        out = Path(args.out or cfg.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        passed, lines = _HANDLERS[args.subcommand](cfg, out)
        if not args.quiet:
            print("\n".join(lines))
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
