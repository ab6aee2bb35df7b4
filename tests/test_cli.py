"""Config validation and end-to-end subcommand runs (in-process)."""

import copy
import json
import os
import re
import subprocess
import sys
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loglap
from loglap import config as config_module
from loglap.cli import main
from loglap.config import (
    ConfigError,
    ExperimentConfig,
    config_model,
    config_potential,
    config_sources,
    load_config,
    validate_config,
)
from loglap.errors import FieldError, LoglapError
from loglap.models import (ISOMETRIES, WINDOWS, AngularInterval, SphericalCap,
                           build_model, interior_points, restrict_to_observation)
from loglap.serialize import (SerializationError, load_gelfand, load_record,
                              load_report, load_solution, load_manifest)
from test_recovery import dense_certificate


def circle_config(**overrides):
    cfg = {
        "model": {"kind": "circle", "truncation": 5},
        "m": 2.0,
        "potential": {"id": "harmonic",
                      "terms": [{"form": "cos", "amplitude": 0.3}]},
        "observation": {"kind": "interval", "start": 0.0, "end": float(np.pi)},
        "sources": {"count": 5},
        "seed": 0,
    }
    cfg.update(overrides)
    return cfg


def torus_config(**overrides):
    return circle_config(**{
        "model": {"kind": "torus", "truncation": 4, "edges": [6.0, 6.0]},
        "observation": {"kind": "box", "intervals": [[0.5, 4.5], [1.0, 5.0]]},
        **overrides})


def sphere_config(**overrides):
    return circle_config(**{
        "model": {"kind": "sphere", "truncation": 4},
        "observation": {"kind": "cap", "center": [0.0, 0.0], "radius": 1.0},
        **overrides})


# every section filled in, so that a mutation can reach every field
FULL_CONFIGS = [
    circle_config(
        model={"kind": "circle", "truncation": 5, "radius": 1.0, "quadrature": 64},
        potential={"id": "harmonic", "terms": [
            {"form": "sin", "amplitude": 0.3, "phase": 0.1, "frequency": 2, "axis": 0}]},
        sources={"count": 2, "radius": 0.3, "order": 2, "centers": [[1.2], 1.8]},
        times={"kind": "uniform", "start": 0.01, "stop": 1.0, "samples": 16},
        tolerances={"eig_rtol": 1e-6}, out="out", mode="blind",
        compare={"first": "a.json", "second": "b.json"},
        isometry={"kind": "circle_reflection", "axis": 1.5},
        ucp={"node_multiplier": 4, "include_image": True}, heatcheck={"pairs": 5}),
    torus_config(potential={"id": "constant", "value": 0.5},
                 sources={"count": 1, "centers": [[2.0, 3.0]]},
                 times={"kind": "default", "samples": 8},
                 isometry={"kind": "torus_axis_reflection", "axis": 1, "center": 0.5}),
    sphere_config(model={"kind": "sphere", "truncation": 4, "quadrature": [8, 16]},
                  potential={"id": "harmonic", "terms": [
                      {"form": "cos", "amplitude": 0.2, "axis": 1}]},
                  isometry={"kind": "sphere_axial_rotation", "angle": 0.3}),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


def get_path(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def field_paths(doc, prefix=()):
    """The key path of every field and list entry, at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, prefix + (key,))


# every key a config mapping may hold; any other key is unknown
KNOWN_KEYS = {"kind"} | {f.name for cls in (*WINDOWS, *ISOMETRIES, *(
    c for c in vars(config_module).values() if isinstance(c, type) and is_dataclass(c)))
    for f in fields(cls)}


README = Path(__file__).resolve().parent.parent / "README.md"


def config_field_paths(cls, prefix=""):
    """(path, default) of every config field: sections are expanded, windows
    and isometries are one field, a list of terms is a field and so is each
    term field."""
    for f in fields(cls):
        hint, path = typing.get_type_hints(cls)[f.name], prefix + f.name
        arms = [a for a in typing.get_args(hint) if a is not type(None)]
        if typing.get_origin(hint) is typing.Union and len(arms) == 1:
            hint = arms[0]  # Optional[section]
        if is_dataclass(hint):
            yield from config_field_paths(hint, path + ".")
        elif typing.get_origin(hint) is tuple and is_dataclass(typing.get_args(hint)[0]):
            yield path, f.default
            yield from config_field_paths(typing.get_args(hint)[0], path + "[i].")
        else:
            yield path, f.default


def dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).removeprefix(".")


def child_env(env):
    """`env` with the directory holding this loglap first on PYTHONPATH, so a
    child process imports it whether or not the package is installed."""
    src = str(Path(loglap.__file__).resolve().parent.parent)
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(sub, cfg_path, out, *extra):
    return main([sub, "--config", cfg_path, "--out", str(out), "--quiet", *extra])


class TestValidation:

    def test_missing_m_names_field(self):
        cfg = circle_config()
        del cfg["m"]
        with pytest.raises(ConfigError, match="^m:"):
            validate_config(cfg)

    def test_m_must_exceed_one(self):
        with pytest.raises(ConfigError, match="^m:"):
            validate_config(circle_config(m=1.0))

    def test_missing_model_kind(self):
        with pytest.raises(ConfigError, match="model.kind"):
            validate_config(circle_config(model={"truncation": 5}))

    def test_unknown_model_kind(self):
        with pytest.raises(ConfigError, match="model.kind"):
            validate_config(circle_config(
                model={"kind": "klein", "truncation": 5}))

    def test_truncation_floor(self):
        with pytest.raises(ConfigError, match="model.truncation"):
            validate_config(circle_config(
                model={"kind": "circle", "truncation": 1}))

    def test_torus_needs_edges(self):
        with pytest.raises(ConfigError, match="model.edges"):
            validate_config(circle_config(
                model={"kind": "torus", "truncation": 4},
                observation={"kind": "box", "intervals": [[0.5, 4.5], [1, 5]]}))

    def test_unknown_potential(self):
        with pytest.raises(ConfigError, match="potential.id"):
            validate_config(circle_config(potential={"id": "quartic"}))

    def test_harmonic_term_amplitude(self):
        with pytest.raises(ConfigError, match=r"potential.terms\[0\].amplitude"):
            validate_config(circle_config(
                potential={"id": "harmonic", "terms": [{"form": "cos"}]}))

    def test_observation_kind_matches_model(self):
        with pytest.raises(ConfigError, match="observation.kind"):
            validate_config(circle_config(
                observation={"kind": "cap", "center": [0, 0], "radius": 1.0}))

    def test_tolerances_positive(self):
        with pytest.raises(ConfigError, match="tolerances.angle_tol"):
            validate_config(circle_config(tolerances={"angle_tol": 0.0}))

    def test_seed_integer(self):
        with pytest.raises(ConfigError, match="^seed:"):
            validate_config(circle_config(seed=0.5))

    def test_bad_isometry(self):
        with pytest.raises(ConfigError, match="isometry"):
            validate_config(circle_config(isometry={"kind": "glide"}))

    def test_full_configs_are_valid(self):
        for cfg in FULL_CONFIGS:
            validate_config(cfg)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_field_mutation_raises_only_config_error(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(FULL_CONFIGS)))
        path = data.draw(st.sampled_from(list(field_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(json_values)
        try:
            validate_config(doc)
        except ConfigError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_unknown_key_is_named(self, data):
        doc = copy.deepcopy(data.draw(st.sampled_from(FULL_CONFIGS)))
        mappings = [()] + [p for p in field_paths(doc) if isinstance(get_path(doc, p), dict)]
        path = data.draw(st.sampled_from(mappings))
        key = data.draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in KNOWN_KEYS))
        get_path(doc, path)[key] = data.draw(json_values)
        with pytest.raises(ConfigError) as info:
            validate_config(doc)
        assert str(info.value).startswith(f"{dotted(path + (key,))}: unknown field")

    def test_readme_config_blocks_are_valid(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        assert blocks
        for block in blocks:
            validate_config(json.loads(block))

    def test_readme_reference_lists_every_field(self):
        reference = README.read_text().split("### Config reference")[1].split("\n#")[0]
        rows = re.findall(r"^\| `([^`]+)` \| [^|]* \| ([^|]*) \|$", reference, re.M)
        defaults = dict(config_field_paths(ExperimentConfig))
        assert sorted(name for name, _ in rows) == sorted(defaults)
        for name, cell in rows:  # a default written as a JSON literal must be the field's
            try:
                documented = json.loads(cell.strip("`"))
            except ValueError:
                continue
            default = defaults[name]
            assert documented == (list(default) if isinstance(default, tuple) else default), name

    def test_bad_json_document(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_builders_from_valid_config(self):
        cfg = validate_config(circle_config())
        model = config_model(cfg)
        assert model.kind == "circle" and model.truncation == 5
        V = config_potential(cfg)
        theta = model.nodes[:, 0]
        assert np.allclose(V.values_at(model, model.nodes), 0.3 * np.cos(theta))
        obs = restrict_to_observation(model, AngularInterval(0, np.pi))
        sources = config_sources(cfg, model, obs)
        assert len(sources) == 5

    def test_sources_seeded_jitter_is_deterministic(self):
        cfg3 = validate_config(circle_config(seed=3))
        cfg4 = validate_config(circle_config(seed=4))
        model = config_model(cfg3)
        obs = restrict_to_observation(model, AngularInterval(0, np.pi))
        a = config_sources(cfg3, model, obs)
        b = config_sources(cfg3, model, obs)
        c = config_sources(cfg4, model, obs)
        assert all(np.array_equal(x.center, y.center) for x, y in zip(a, b))
        assert any(not np.array_equal(x.center, y.center) for x, y in zip(a, c))


class TestSubcommands:

    def test_spectrum_table(self, tmp_path):
        cfg = write_config(tmp_path, circle_config(
            model={"kind": "circle", "truncation": 4}))
        out = tmp_path / "out"
        assert run_cli("spectrum", cfg, out) == 0
        rows = (out / "spectrum.csv").read_text().strip().splitlines()[1:]
        table = {float(r.split(",")[1]): int(r.split(",")[2]) for r in rows}
        assert table == {0.0: 1, 1.0: 2, 4.0: 2, 9.0: 2}

    def test_solve_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, circle_config())
        out = tmp_path / "out"
        assert run_cli("solve", cfg, out) == 0
        sol = load_solution(out / "solution.json")
        assert sol.residual <= 1e-10
        assert sol.coefficients.size == build_model("circle", 5).total_dim
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header == "node_id,x0,value"

    def test_cauchy_manifest(self, tmp_path):
        cfg = write_config(tmp_path, circle_config())
        out = tmp_path / "out"
        assert run_cli("cauchy", cfg, out) == 0
        entries = load_manifest(out / "manifest.json")
        assert len(entries) == 5
        for entry in entries:
            rec = load_record(out / entry["file"])
            assert rec.source_id == entry["source_id"]
            assert np.all(np.isfinite(rec.u_values))

    def test_extract_then_compare_across_seeds(self, tmp_path):
        cfg = write_config(tmp_path, circle_config())
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run_cli("extract", cfg, out1, "--seed", "1") == 0
        assert run_cli("extract", cfg, out2, "--seed", "2") == 0
        cmp_cfg = write_config(tmp_path, circle_config(
            compare={"first": str(out1 / "gelfand.json"),
                     "second": str(out2 / "gelfand.json")}), "cmp.json")
        out3 = tmp_path / "cmp"
        assert run_cli("compare", cmp_cfg, out3) == 0
        header = (out3 / "compare_table.csv").read_text().splitlines()[0]
        assert header == "block,eigenvalue_gap,multiplicity_match,max_angle"

    def test_extract_is_byte_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, circle_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("extract", cfg, out1, "--seed", "7") == 0
        assert run_cli("extract", cfg, out2, "--seed", "7") == 0
        assert ((out1 / "gelfand.json").read_bytes()
                == (out2 / "gelfand.json").read_bytes())
        assert ((out1 / "trace_bump00.csv").read_bytes()
                == (out2 / "trace_bump00.csv").read_bytes())

    def test_compare_detects_different_models(self, tmp_path):
        base = circle_config()
        bigger = circle_config(
            model={"kind": "circle", "truncation": 5, "radius": 1.01})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("extract", write_config(tmp_path, base, "a.json"),
                       out1) == 0
        assert run_cli("extract", write_config(tmp_path, bigger, "b.json"),
                       out2) == 0
        cmp_cfg = write_config(tmp_path, circle_config(
            compare={"first": str(out1 / "gelfand.json"),
                     "second": str(out2 / "gelfand.json")}), "cmp.json")
        assert run_cli("compare", cmp_cfg, tmp_path / "cmp") == 1

    def test_ucp_pass_and_fail(self, tmp_path):
        ok = write_config(tmp_path, circle_config(), "ok.json")
        assert run_cli("ucp", ok, tmp_path / "out1") == 0
        # a quarter window at K=16 concentrates below the rank threshold
        degenerate = write_config(tmp_path, circle_config(
            model={"kind": "circle", "truncation": 16},
            observation={"kind": "interval", "start": 0.0,
                         "end": float(np.pi / 2)}), "deg.json")
        assert run_cli("ucp", degenerate, tmp_path / "out2") == 1
        # a cap centred on the sphere's pole takes the per-order route and
        # must certify what the dense sample matrix certifies
        polar = write_config(tmp_path, sphere_config(
            model={"kind": "sphere", "truncation": 16},
            observation={"kind": "cap", "center": [0.0, 0.0], "radius": 2.6}),
            "polar.json")
        assert run_cli("ucp", polar, tmp_path / "out3") == 0
        report = load_report(tmp_path / "out3" / "ucp_report.json")
        model = build_model("sphere", 16)
        obs = restrict_to_observation(model, SphericalCap((0.0, 0.0), 2.6))
        null_dim, sv = dense_certificate(model, 2.0, obs, include_image=True)
        assert report.null_dimension == null_dim == 0
        assert report.passed
        points = interior_points(model, obs.descriptor, 4 * model.total_dim)
        assert report.n_points == points.shape[0]
        assert abs(report.smallest_singular - sv[-1]) <= 1e-10 * sv[0]

    def test_recover_run(self, tmp_path):
        cfg = write_config(tmp_path, circle_config(
            m=1.1,
            model={"kind": "circle", "truncation": 16},
            sources={"count": 6, "radius": 1.2, "order": 3,
                     "centers": [[c] for c in np.linspace(1.26, 1.88, 6)]},
            tolerances={"recover_tol": 2e-3}))
        out = tmp_path / "out"
        assert run_cli("recover", cfg, out) == 0
        rows = (out / "recovered.csv").read_text().strip().splitlines()
        assert rows[0] == "node_id,x0,value,mask,window,disagreement"
        assert len(rows) == build_model("circle", 16).nodes.shape[0] + 1

    def test_gauge_run(self, tmp_path):
        cfg = write_config(tmp_path, circle_config(
            isometry={"kind": "circle_reflection",
                      "axis": float(np.pi / 2)}))
        assert run_cli("gauge", cfg, tmp_path / "out") == 0

    def test_heatcheck_run(self, tmp_path):
        cfg = write_config(tmp_path, circle_config())
        out = tmp_path / "out"
        assert run_cli("heatcheck", cfg, out) == 0
        payload = json.loads((out / "heat_equality_report.json").read_text())
        assert payload["passed"] is True


class TestExitCodes:

    def test_missing_m_exits_two(self, tmp_path, capsys):
        cfg = circle_config()
        del cfg["m"]
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert "m: missing required field" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, message", [
        (circle_config(m=float("inf")), "m: expected a finite number"),
        (circle_config(potential={"id": "harmonic", "terms": [
            {"form": "cos", "amplitude": 0.3, "phase": "half"}]}),
         "potential.terms[0].phase: expected a finite number"),
    ])
    def test_bad_number_exits_two(self, tmp_path, capsys, cfg, message):
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("sub, cfg, message", [
        ("solve", torus_config(observation={
            "kind": "box", "intervals": [["a", 2.0], [1.0, 5.0]]}),
         "observation.intervals[0][0]: expected a finite number"),
        ("solve", sphere_config(observation={
            "kind": "cap", "center": ["x", 0], "radius": 1.0}),
         "observation.center[0]: expected a finite number"),
        ("solve", circle_config(observation={
            "kind": "interval", "start": 0.0, "end": 7.0}),
         "observation.end: bounds must satisfy"),
        ("gauge", circle_config(isometry={"kind": "circle_rotation", "angle": None}),
         "isometry.angle: expected a finite number"),
        ("gauge", sphere_config(isometry={"kind": "torus_translation",
                                          "shift": [0.1, 0.2]}),
         "isometry.kind: expected one of"),
        ("spectrum", circle_config(model={"kind": "circle", "truncation": 5,
                                          "quadrature": "abc"}),
         "model.quadrature: expected an integer"),
        ("spectrum", circle_config(model={"kind": "circle", "truncation": 5,
                                          "quadrature": [64, 64]}),
         "model.quadrature: expected 1 entries, one per chart axis"),
        ("spectrum", circle_config(potential={"id": "harmonic", "terms": [
            {"form": "cos", "amplitude": 0.3, "axis": 1}]}),
         "potential.terms[0].axis: expected a chart axis in [0, 1)"),
        ("solve", circle_config(potential={"id": "harmonic", "terms": [
            {"form": "cos", "amplitude": 0.3, "axis": 1}]}),
         "potential.terms[0].axis: expected a chart axis in [0, 1)"),
        ("solve", circle_config(sources={"count": 2, "centers": [["a"], [1.0]]}),
         "sources.centers[0][0]: expected a finite number"),
        ("solve", circle_config(sources={"count": 2, "centers": [[1.0]]}),
         "sources.centers: expected a list of 2 centers"),
        ("solve", circle_config(sources={"count": 2, "centers": [[1.0, 1.2, 1.4], [1.5]]}),
         "sources.centers[0]: expected a list of 1 chart coordinates"),
        ("spectrum", circle_config(observation={
            "kind": "interval", "start": 0.0, "end": 3.0, "stop": 1.0}),
         "observation.stop: unknown field of 'interval'"),
        ("heatcheck", circle_config(heatcheck={"times": "x"}),
         "heatcheck.times: expected a list"),
        ("heatcheck", circle_config(heatcheck={"pairs": "x"}),
         "heatcheck.pairs: expected an integer"),
        ("heatcheck", circle_config(heatcheck={"times": []}),
         "heatcheck.times: expected a nonempty list of positive times"),
        ("heatcheck", circle_config(heatcheck={"times": [0.1, -0.2]}),
         "heatcheck.times: expected a nonempty list of positive times"),
        ("compare", circle_config(compare={"first": 1, "second": "b.json"}),
         "compare.first: expected a string"),
        ("ucp", circle_config(ucp={"include_image": "no"}),
         "ucp.include_image: expected a boolean"),
        ("solve", circle_config(tolerances={"solve_residul": 1e-8}),
         "tolerances.solve_residul: unknown field"),
        ("solve", circle_config(sources={"count": 2, "oder": 3}),
         "sources.oder: unknown field"),
        ("spectrum", circle_config(modell={"kind": "circle", "truncation": 5}),
         "modell: unknown field"),
        ("extract", circle_config(times={"kind": "default", "start": 0.1}),
         "times.start: only for a uniform grid"),
        ("spectrum", circle_config(model={"kind": "circle", "truncation": 5,
                                          "edges": [6.0]}),
         "model.edges: not a parameter of a circle"),
        ("spectrum", sphere_config(model={"kind": "sphere", "truncation": 4,
                                          "edges": [6.0, 6.0]}),
         "model.edges: not a parameter of a sphere"),
        ("spectrum", torus_config(model={"kind": "torus", "truncation": 4,
                                         "edges": [6.0, 6.0], "radius": 2.0}),
         "model.radius: not a parameter of a torus"),
        ("spectrum", circle_config(observation={
            "kind": "interval", "start": 0.0, "end": float(2.0 * np.pi)}),
         "observation.end: observation window must leave a nonempty complement"),
        ("spectrum", sphere_config(observation={
            "kind": "cap", "center": [0.0, 0.0], "radius": float(np.pi)}),
         "observation.radius: must be < pi"),
        ("spectrum", circle_config(**{".": 1}), ".: unknown field"),
    ])
    def test_window_and_isometry_mistakes_exit_two(self, tmp_path, capsys,
                                                   sub, cfg, message):
        path = write_config(tmp_path, cfg)
        assert run_cli(sub, path, tmp_path / "out") == 2
        assert message in capsys.readouterr().err

    def test_ucp_node_multiplier_one_exits_two(self, tmp_path, capsys):
        # one sample point per basis column cannot overdetermine the basis,
        # so the value is a config mistake, not a failed certificate
        path = write_config(tmp_path, circle_config(ucp={"node_multiplier": 1}))
        assert run_cli("ucp", path, tmp_path / "out") == 2
        assert "ucp.node_multiplier: must be >= 2" in capsys.readouterr().err
        path = write_config(tmp_path, circle_config(ucp={"node_multiplier": 2}), "two.json")
        assert run_cli("ucp", path, tmp_path / "two") == 0

    def test_config_and_artifact_errors_are_loglap_errors(self):
        assert issubclass(ConfigError, LoglapError)
        assert issubclass(SerializationError, LoglapError)
        assert issubclass(FieldError, LoglapError) and issubclass(FieldError, ValueError)

    def test_missing_config_file_exits_two(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_domain_error_exits_one(self, tmp_path, capsys):
        # a source radius exceeding the window margin cannot be placed
        cfg = write_config(tmp_path, circle_config(
            sources={"count": 1, "radius": 3.0}))
        assert run_cli("solve", cfg, tmp_path / "out") == 1
        assert "SupportViolationError" in capsys.readouterr().err

    def test_malformed_artifact_exits_one_naming_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, circle_config())
        assert run_cli("extract", cfg, tmp_path / "run") == 0
        good = tmp_path / "run" / "gelfand.json"
        payload = json.loads(good.read_text())
        del payload["families"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        cmp_cfg = write_config(tmp_path, circle_config(
            compare={"first": str(bad), "second": str(good)}), "cmp.json")
        assert run_cli("compare", cmp_cfg, tmp_path / "cmp") == 1
        err = capsys.readouterr().err
        assert err.startswith("artifact error:") and "families: missing required field" in err

    def test_gauge_needs_isometry(self, tmp_path, capsys):
        cfg = write_config(tmp_path, circle_config())
        assert run_cli("gauge", cfg, tmp_path / "out") == 2
        assert "isometry" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, circle_config(seed=0))
        out1, out2, out3 = (tmp_path / d for d in ("s0", "s9", "s9b"))
        assert run_cli("extract", cfg, out1) == 0
        assert run_cli("extract", cfg, out2, "--seed", "9") == 0
        assert run_cli("extract", cfg, out3, "--seed", "9") == 0
        b1 = (out1 / "gelfand.json").read_bytes()
        b2 = (out2 / "gelfand.json").read_bytes()
        b3 = (out3 / "gelfand.json").read_bytes()
        assert b2 == b3 and b1 != b2


class TestProcessLevel:

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, circle_config(
            model={"kind": "circle", "truncation": 4}))
        proc = subprocess.run(
            [sys.executable, "-m", "loglap.cli", "spectrum",
             "--config", cfg, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(os.environ))
        assert proc.returncode == 0
        assert "multiplicity" in proc.stdout

    SCIPY_MODULES = ("import sys; from loglap.cli import main; status = main(sys.argv[1:]); "
                     "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")

    def test_import_loads_no_scipy(self):
        code = ("import sys, loglap.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(os.environ))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("sub, mode", [
        *(pytest.param(sub, "internal", id=sub)
          for sub in ("spectrum", "solve", "cauchy", "extract", "compare",
                      "ucp", "recover", "gauge", "heatcheck")),
        pytest.param("extract", "blind", id="extract-blind")])
    def test_subcommand_loads_no_scipy(self, tmp_path, sub, mode):
        cfg = sphere_config(isometry={"kind": "sphere_axial_rotation", "angle": 0.3},
                            sources={"count": 16}, mode=mode)
        if sub == "compare":
            for name in ("a", "b"):
                assert run_cli("extract", write_config(tmp_path, cfg), tmp_path / name) == 0
            cfg["compare"] = {"first": str(tmp_path / "a" / "gelfand.json"),
                              "second": str(tmp_path / "b" / "gelfand.json")}
        argv = [sub, "--config", write_config(tmp_path, cfg, "run.json"),
                "--out", str(tmp_path / "out"), "--quiet"]
        proc = subprocess.run([sys.executable, "-c", self.SCIPY_MODULES, *argv],
                              capture_output=True, text=True, env=child_env(os.environ))
        assert proc.stdout.strip() == "0 []", proc.stderr

    def test_thread_env_override(self):
        code = ("import os; os.environ['LOGLAP_THREADS']='3'; "
                "import loglap; print(os.environ['OMP_NUM_THREADS'])")
        env = child_env({k: v for k, v in os.environ.items()
                         if k not in ("OMP_NUM_THREADS", "LOGLAP_THREADS")})
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.stdout.strip() == "3"
