"""The benchmark workloads and the extraction working-range probe.

Each workload is a class built from the run seed.  Its constructor is the
set-up (shared inputs, reference data), `warm_up` runs a reduced op so that
lazy imports and first-call library costs are paid before timing, and `op`
runs one unit of user work and raises `OracleError` when an output is wrong.
Sizes shrink under `smoke=True` so the smoke test runs in seconds.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from loglap.errors import LoglapError
from loglap.extraction import build_gelfand_data, default_time_grid, heat_trace_of_solution
from loglap.models import (
    AngularInterval,
    SphericalCap,
    TorusBox,
    build_model,
    restrict_to_observation,
)
from loglap.recovery import ucp_nullspace_test
from loglap.solver import PotentialField, cauchy_record, make_source_basis
from spans import SUBCOMMANDS

TORUS_EDGES = (2.0 * np.pi, 2.0 * np.pi)
# lets `spans.instrument` trace the loglap functions this module imported
_TRACE_TARGET = True


class OracleError(Exception):
    """An op ran but its output failed the benchmark's own check."""


def _require(ok, message):
    if not ok:
        raise OracleError(message)


# ------------------------------------------------------------ sphere_forward


class SphereForward:
    """Sphere K=24 (D=576), cap of radius 1.2, 16 bump sources.  One op runs
    `cauchy_record` and `heat_trace_of_solution` for every source."""

    def __init__(self, seed, smoke=False, workdir=None):
        rng = np.random.default_rng(seed)
        K, count = (8, 4) if smoke else (24, 16)
        self.m = 2.0
        self.model = build_model("sphere", K)
        self.obs = restrict_to_observation(self.model, SphericalCap((0.0, 0.0), 1.2))
        a = rng.uniform(-0.3, 0.3, size=4)
        self.V = PotentialField(
            lambda p: (a[0] + a[1] * np.cos(p[:, 0])
                       + a[2] * np.sin(p[:, 0]) * np.cos(p[:, 1])
                       + a[3] * np.cos(2.0 * p[:, 0])),
            label="seeded-zonal+tesseral")
        self.sources = list(make_source_basis(
            self.model, self.obs, count, order=3,
            seed=int(rng.integers(2**31))))
        self.times = default_time_grid(self.model, self.m)
        # oracle operator, assembled here from eigenvalues and quadrature
        mu = self.model.flat_eigenvalues() + self.m
        B = self.model.node_basis()
        v = self.V.node_values(self.model)
        self.H = np.diag(mu * np.log(mu)) + B.T @ ((self.model.weights * v)[:, None] * B)

    def _one(self, src):
        rec = cauchy_record(self.model, self.m, self.V, src, self.obs)
        trace = heat_trace_of_solution(self.model, self.m, self.V, src, self.obs,
                                       self.times)
        f = src.coefficients
        res = np.linalg.norm(self.H @ rec.solution.values - f) / np.linalg.norm(f)
        _require(res <= 1e-10, f"{src.source_id}: relative residual {res:.2e}")
        _require(np.all(np.isfinite(rec.u_values)) and np.all(np.isfinite(rec.lu_values))
                 and np.all(np.isfinite(trace.values)),
                 f"{src.source_id}: non-finite record or trace")

    def warm_up(self):
        self._one(self.sources[0])

    def op(self, i):
        for src in self.sources:
            self._one(src)


# ---------------------------------------------------------------- ucp_sweep


class UcpSweep:
    """The acceptance-07 grid: circle, torus and sphere at K in {8, 16, 32},
    three seeded windows each, both `ucp_nullspace_test` variants."""

    def __init__(self, seed, smoke=False, workdir=None):
        rng = np.random.default_rng(seed)
        sizes = (8,) if smoke else (8, 16, 32)
        windows = {
            "circle": [AngularInterval(0.0, float(e))
                       for e in rng.uniform(4.7, 5.7, size=3)],
            "torus": [TorusBox(tuple((float(a), float(b))
                                     for a, b in zip(rng.uniform(0.3, 1.0, size=2),
                                                     rng.uniform(5.3, 5.9, size=2))))
                      for _ in range(3)],
            "sphere": [SphericalCap((0.0, 0.0), float(r))
                       for r in rng.uniform(2.4, 2.8, size=3)],
        }
        self.cases = []
        for kind, descs in windows.items():
            kwargs = {"edges": TORUS_EDGES} if kind == "torus" else {}
            for K in sizes:
                model = build_model(kind, K, **kwargs)
                for desc in descs:
                    self.cases.append((model, restrict_to_observation(model, desc)))

    def _one(self, model, obs):
        full = ucp_nullspace_test(model, 2.0, obs)
        sol = ucp_nullspace_test(model, 2.0, obs, include_image=False)
        tag = f"{model.kind} K={model.truncation} {obs.descriptor}"
        _require(full.passed and full.null_dimension == 0,
                 f"{tag}: null dimension {full.null_dimension}")
        _require(full.smallest_singular > sol.smallest_singular,
                 f"{tag}: full test does not beat the solution-only test")

    def warm_up(self):
        self._one(*self.cases[0])

    def op(self, i):
        for model, obs in self.cases:
            self._one(model, obs)


# ---------------------------------------------------------------- cli_batch

# artifacts each subcommand must leave; `*` stands for one file per source
ARTIFACTS = {
    "spectrum": ["model.json", "spectrum.csv"],
    "solve": ["solution.json", "solution.csv"],
    "cauchy": ["manifest.json", "record_bump*.json"],
    "extract": ["gelfand.json", "trace_bump*.csv"],
    "compare": ["compare_report.json", "compare_table.csv"],
    "ucp": ["ucp_report.json"],
    "recover": ["recovered.csv"],
    "gauge": ["gauge_report.json"],
    "heatcheck": ["heat_equality_report.json", "gaussian_bound_report.json",
                  "weyl_report.json", "supnorm_report.json"],
}


def cli_configs(seed, smoke=False):
    """Config documents for the nine subcommands, drawn from the seed."""
    rng = np.random.default_rng(seed)
    circle = {
        "model": {"kind": "circle", "truncation": 8 if smoke else 16},
        "m": 2.0,
        "potential": {"id": "harmonic", "terms": [
            {"form": "cos", "amplitude": round(float(rng.uniform(0.1, 0.4)), 6)}]},
        "observation": {"kind": "interval", "start": 0.0, "end": float(np.pi)},
        "sources": {"count": 6, "order": 3},
        "tolerances": {"solve_residual": 1e-8},
    }
    sphere = {
        "model": {"kind": "sphere", "truncation": 4 if smoke else 5},
        "m": 2.0,
        "potential": {"id": "harmonic", "terms": [
            {"form": "cos", "amplitude": round(float(rng.uniform(0.1, 0.4)), 6)}]},
        "observation": {"kind": "cap", "center": [0.0, 0.0], "radius": 1.2},
        "sources": {"count": 16},
    }
    gauge = {
        "model": {"kind": "sphere", "truncation": 8},
        "m": 2.0,
        "potential": {"id": "harmonic", "terms": [
            {"form": "cos", "amplitude": round(float(rng.uniform(0.1, 0.5)), 6)}]},
        "observation": {"kind": "cap", "center": [0.0, 0.0], "radius": 1.0},
        "isometry": {"kind": "sphere_axial_rotation",
                     "angle": round(float(rng.uniform(0.2, 1.2)), 6)},
    }
    return {"circle": circle, "extract": sphere, "gauge": gauge}


class CliBatch:
    """One op is one batch: a fresh `loglap <subcommand> --seed <s> --quiet`
    process for each of the nine subcommands in turn (about 7 s; a single
    process is too short to average over this host's CPU-speed swings).
    Set-up writes the configs and makes the two `extract` outputs that
    `compare` reads.  The first batch holds the artifacts that later
    batches, on the same config and seed, must reproduce byte for byte; the
    worker runs at least two batches so every subcommand is checked."""

    def __init__(self, seed, smoke=False, workdir=None):
        self.seed = seed
        self.root = Path(workdir)
        self.env = dict(os.environ)
        self.wrapper = None
        self.tracer = None
        cfgs = cli_configs(seed, smoke)
        cfg_dir = self.root / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, doc in cfgs.items():
            paths[name] = cfg_dir / f"{name}.json"
            paths[name].write_text(json.dumps(doc, indent=2, sort_keys=True))
        inputs = []
        for k in (0, 1):
            out = self.root / f"compare_input{k}"
            proc = subprocess.run(self._command("extract", paths["extract"], out, seed + k),
                                  env=self.env, capture_output=True, text=True, timeout=120)
            _require(proc.returncode == 0, f"extract for compare: exit {proc.returncode}: "
                                           f"{proc.stderr.strip()[-300:]}")
            inputs.append(str(out / "gelfand.json"))
        compare = dict(cfgs["extract"], compare={"first": inputs[0], "second": inputs[1]})
        paths["compare"] = cfg_dir / "compare.json"
        paths["compare"].write_text(json.dumps(compare, indent=2, sort_keys=True))
        self.config = {sub: paths.get(sub, paths["circle"]) for sub in SUBCOMMANDS}
        self.reference = {}

    def _command(self, sub, config, out, seed):
        prefix = [sys.executable, "-m", "loglap.cli"]
        if self.wrapper is not None:
            prefix = [sys.executable, str(self.wrapper), str(out / "spans.json")]
        return prefix + [sub, "--config", str(config), "--out", str(out),
                         "--seed", str(seed), "--quiet"]

    def warm_up(self):
        pass

    def op(self, i):
        for sub in SUBCOMMANDS:
            self._run(sub, self.root / "ops" / f"{i:05d}-{sub}")

    def _run(self, sub, out):
        run = functools.partial(subprocess.run, env=self.env, capture_output=True,
                                text=True, timeout=120)
        command = self._command(sub, self.config[sub], out, self.seed)
        try:
            if self.tracer is None:
                proc = run(command)
            else:
                proc = self.tracer.call(f"cli.{sub}", run, (command,), {})
            _require(proc.returncode == 0,
                     f"{sub}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            tree = _read_tree(out)
            if self.tracer is not None:
                child = json.loads(tree.pop("spans.json"))
                self.tracer.merge(child["spans"], child["counts"])
            _check_artifacts(sub, tree)
            _require(tree == self.reference.setdefault(sub, tree),
                     f"{sub}: artifacts differ from an earlier run of the same "
                     "config and seed")
        finally:
            _remove_tree(out)


def _read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(Path(root).iterdir()) if p.is_file()}


def _check_artifacts(sub, tree):
    for pattern in ARTIFACTS[sub]:
        if "*" in pattern:
            head, tail = pattern.split("*")
            ok = any(n.startswith(head) and n.endswith(tail) for n in tree)
        else:
            ok = pattern in tree
        _require(ok, f"{sub}: missing artifact {pattern}")


def _remove_tree(root):
    root = Path(root)
    if root.exists():
        for p in root.iterdir():
            p.unlink()
        root.rmdir()


WORKLOADS = {
    "sphere_forward": SphereForward,
    "ucp_sweep": UcpSweep,
    "cli_batch": CliBatch,
}


# -------------------------------------------------------------------- probe

PROBE_LADDER = range(1, 13)


def _probe_case(kind, K):
    kwargs = {"edges": TORUS_EDGES} if kind == "torus" else {}
    model = build_model(kind, K, **kwargs)
    if kind == "circle":
        desc, count = AngularInterval(0.0, np.pi), K
        V = PotentialField(lambda th: 0.3 * np.cos(th), label="0.3*cos")
    elif kind == "torus":
        desc, count = TorusBox(((0.0, np.pi), (0.0, np.pi))), 16
        V = PotentialField(lambda p: 0.3 * np.cos(p[:, 0]), label="0.3*cos(x)")
    else:
        desc, count = SphericalCap((0.0, 0.0), 1.2), 16
        V = PotentialField(lambda p: 0.3 * np.cos(p[:, 0]), label="0.3*cos(colat)")
    obs = restrict_to_observation(model, desc)
    build_gelfand_data(model, 2.0, V, obs, make_source_basis(model, obs, count, seed=0))


def working_range():
    """Largest K per model such that internal-mode extraction succeeds at
    every K' <= K on a fixed ladder with fixed inputs.  The failure that
    ends a ladder is the measurement, so it is returned, not raised."""
    result = {}
    for kind in ("circle", "torus", "sphere"):
        best, stop = 0, "ladder end"
        for K in PROBE_LADDER:
            try:
                _probe_case(kind, K)
            except LoglapError as exc:
                stop = f"K={K}: {type(exc).__name__}"
                break
            best = K
        result[kind] = (best, stop)
    return result
