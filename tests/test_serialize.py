"""Round-trip and determinism tests for the artifact serializers."""

import importlib
import json
import pkgutil
import re
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import loglap
from loglap.calculus import GrigoryanReport, HeatTrace, KernelMatchReport, SanityReport
from loglap.errors import FieldError
from loglap.extraction import GelfandData, MatchReport, build_gelfand_data
from loglap.fields import encode
from loglap.models import (
    AngularInterval,
    CircleReflection,
    CircleRotation,
    Isometry,
    ObservationSet,
    SphereAxialRotation,
    SphereMeridianReflection,
    SphericalCap,
    TorusAxisReflection,
    TorusBox,
    TorusTranslation,
    Window,
    build_model,
    restrict_to_observation,
    with_mixed_blocks,
)
from loglap.recovery import (
    GaugeReport,
    RecoveredPotential,
    UcpReport,
    recover_potential,
    ucp_nullspace_test,
)
from loglap.serialize import (
    _REPORT_TYPES,
    SerializationError,
    dump_gelfand,
    dump_manifest,
    dump_model,
    dump_record,
    dump_report,
    dump_solution,
    from_payload,
    load_gelfand,
    load_manifest,
    load_model,
    load_record,
    load_report,
    load_solution,
    recovered_from_csv,
    recovered_to_csv,
    spectrum_to_csv,
    trace_from_csv,
    trace_to_csv,
)
from loglap.solver import (CauchyRecord, PotentialField, Solution, cauchy_record,
                           make_source_basis, zero_potential)


def payload_equal(a, b) -> bool:
    """Equality on what an artifact stores (in-memory fields are not part of it)."""
    return type(a) is type(b) and encode(a) == encode(b)


def in_window(payload, **changes):
    """A record or spectral-data payload with `changes` made to its window."""
    return {**payload, "window": {**payload["window"], **changes}}


def half_circle(K=5, m=2.0):
    model = build_model("circle", K)
    obs = restrict_to_observation(model, AngularInterval(0.0, np.pi))
    return model, obs, m


class TestModelDump:

    @pytest.mark.parametrize("kind,kwargs", [
        ("circle", {}),
        ("torus", {"edges": (2 * np.pi, 2 * np.pi)}),
        ("sphere", {}),
    ])
    def test_round_trip(self, tmp_path, kind, kwargs):
        model = build_model(kind, 4, **kwargs)
        path = tmp_path / "model.json"
        dump_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        assert np.array_equal(loaded.eigenvalues, model.eigenvalues)
        assert np.array_equal(loaded.multiplicities, model.multiplicities)
        assert np.array_equal(loaded.nodes, model.nodes)
        assert np.array_equal(loaded.weights, model.weights)

    def test_byte_deterministic(self, tmp_path):
        model = build_model("circle", 6)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_model(model, a)
        dump_model(model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_mixed_blocks_refused(self, tmp_path):
        model = with_mixed_blocks(build_model("circle", 4), seed=0)
        with pytest.raises(SerializationError):
            dump_model(model, tmp_path / "m.json")

    @pytest.mark.parametrize("doctor, message", [
        (lambda doc: doc.update(extra=1), "extra: unknown field of StoredModel"),
        (lambda doc: doc.pop("weights"), "weights: missing required field"),
        (lambda doc: doc.update(truncation=4.0), "truncation: expected an integer"),
    ])
    def test_doctored_model_names_file_and_field(self, tmp_path, doctor, message):
        path = tmp_path / "model.json"
        dump_model(build_model("circle", 4), path)
        doc = json.loads(path.read_text())
        doctor(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match=re.escape(f"{path}: {message}")):
            load_model(path)

    def test_foreign_parameter_refused(self, tmp_path):
        # a circle takes a radius only; the edges of a torus do not rebuild it
        path = tmp_path / "model.json"
        dump_model(build_model("circle", 4), path)
        doc = json.loads(path.read_text())
        doc["params"]["edges"] = [6.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(SerializationError, match=re.escape(
                f"{path}: cannot rebuild the stored model: edges: not a parameter of a circle")):
            load_model(path)

    def test_wrong_format_rejected(self, tmp_path):
        model = build_model("circle", 4)
        path = tmp_path / "m.json"
        dump_model(model, path)
        with pytest.raises(SerializationError):
            load_gelfand(path)

    def test_spectrum_table(self, tmp_path):
        model = build_model("circle", 4)
        path = tmp_path / "spectrum.csv"
        spectrum_to_csv(model, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "block,eigenvalue,multiplicity"
        assert [r.split(",")[1:] for r in rows[1:]] == [
            ["0.0", "1"], ["1.0", "2"], ["4.0", "2"], ["9.0", "2"]]


class TestDescriptorCodecs:

    @pytest.mark.parametrize("descriptor", [
        AngularInterval(0.25, 2.5),
        TorusBox(((0.5, 4.5), (1.0, 5.0))),
        SphericalCap((0.3, 1.2), 0.8),
    ])
    def test_descriptor_round_trip(self, descriptor):
        assert from_payload(Window, encode(descriptor)) == descriptor

    @pytest.mark.parametrize("isometry", [
        CircleRotation(0.7),
        CircleReflection(1.5),
        TorusTranslation((0.3, 1.1)),
        TorusAxisReflection(1, center=2.5),
        SphereAxialRotation(0.4),
        SphereMeridianReflection(0.9),
    ])
    def test_isometry_round_trip(self, isometry):
        assert from_payload(Isometry, encode(isometry)) == isometry

    def test_unknown_kind(self):
        with pytest.raises(SerializationError):
            from_payload(Window, {"kind": "pentagon"})
        with pytest.raises(SerializationError):
            from_payload(Isometry, {"kind": "glide"})


class TestRecordDump:

    def test_round_trip(self, tmp_path):
        model, obs, m = half_circle()
        V = PotentialField(func=lambda th: 0.3 * np.cos(th), label="cos")
        src = make_source_basis(model, obs, 1)[0]
        rec = cauchy_record(model, m, V, src, obs)
        path = tmp_path / "rec.json"
        dump_record(rec, path)
        loaded = load_record(path)
        assert payload_equal(rec, loaded)
        assert loaded.solution is None

    @staticmethod
    def _record():
        """A record of the 31-node window (0, pi) of the circle K=6."""
        model, obs, m = half_circle(6)
        return cauchy_record(model, m, zero_potential, make_source_basis(model, obs, 1)[0], obs)

    @pytest.mark.parametrize("name", ["node_indices", "weights", "u_values", "lu_values"])
    def test_disagreeing_lengths_refused(self, name):
        record = self._record()
        owner = record.window if name in ("node_indices", "weights") else record
        with pytest.raises(FieldError, match=f"^{name}: expected 31 entries, one per node"):
            replace(owner, **{name: getattr(owner, name)[:3]})

    @pytest.mark.parametrize("doctor, message", [
        (lambda p: in_window({**p, "u_values": p["u_values"][:3]},
                             weights=p["window"]["weights"][:1]),
         "window.weights: expected 31 entries, one per node"),
        (lambda p: in_window(p, nodes=p["window"]["nodes"][1:]),
         "window.node_indices: expected 30 entries"),
        (lambda p: {**p, "lu_values": [p["lu_values"]]}, "lu_values: expected 31 entries"),
    ], ids=["u-and-weights", "nodes", "lu_values"])
    def test_disagreeing_lengths_name_file_and_field(self, tmp_path, doctor, message):
        path = tmp_path / "rec.json"
        dump_record(self._record(), path)
        path.write_text(json.dumps(doctor(json.loads(path.read_text()))))
        with pytest.raises(SerializationError, match=re.escape(f"{path}: {message}")):
            load_record(path)

    @pytest.mark.parametrize("shift", [lambda i: i + 0.5, lambda i: -1 - i],
                             ids=["fractional", "negative"])
    def test_indices_not_counts_refused(self, tmp_path, shift):
        record = self._record()
        with pytest.raises(FieldError, match="^node_indices: expected integers >= 0"):
            replace(record.window, node_indices=shift(record.window.node_indices))
        path = tmp_path / "rec.json"
        dump_record(record, path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps(in_window(payload, node_indices=[
            shift(i) for i in range(len(payload["window"]["node_indices"]))])))
        with pytest.raises(SerializationError, match=re.escape(
                f"{path}: window.node_indices: expected integers >= 0")):
            load_record(path)

    def test_manifest(self, tmp_path):
        entries = [{"file": "record_bump00.json", "source_id": "bump00",
                    "kind": "circle", "truncation": 5, "mass": 2.0}]
        path = tmp_path / "manifest.json"
        dump_manifest(entries, path)
        assert load_manifest(path) == entries


class TestGelfandDump:

    def test_internal_round_trip(self, tmp_path):
        model, obs, m = half_circle()
        sources = list(make_source_basis(model, obs, 5))
        data = build_gelfand_data(model, m, zero_potential, obs, sources)
        path = tmp_path / "gd.json"
        dump_gelfand(data, path)
        loaded = load_gelfand(path)
        assert payload_equal(data, loaded)
        assert len(data.traces) == 5 and loaded.traces is None

    def test_blind_round_trip(self, tmp_path):
        model, obs, m = half_circle()
        sources = list(make_source_basis(model, obs, 5))
        data = build_gelfand_data(model, m, zero_potential, obs, sources, mode="blind")
        path = tmp_path / "gd.json"
        dump_gelfand(data, path)
        loaded = load_gelfand(path)
        assert payload_equal(data, loaded)

    def test_byte_deterministic(self, tmp_path):
        model, obs, m = half_circle()
        sources = list(make_source_basis(model, obs, 5))
        data = build_gelfand_data(model, m, zero_potential, obs, sources)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_gelfand(data, a)
        dump_gelfand(data, b)
        assert a.read_bytes() == b.read_bytes()


class TestReportDump:

    def _cases(self):
        return [
            UcpReport(truncation=8, descriptor=AngularInterval(0.0, 4.7),
                      null_dimension=0, smallest_singular=1.3e-4, passed=True,
                      n_points=16, include_image=True),
            MatchReport(passed=False,
                        eigenvalue_gaps=np.array([0.0, 2e-2]),
                        multiplicity_matches=np.array([True, False]),
                        max_angles=np.array([1e-8, 3e-1]),
                        failure_index=1, n_compared=2, count_mismatch=False,
                        eig_rtol=1e-6, angle_tol=1e-5),
            SanityReport(constant=3.0, exponent=0.5, violations=0, n_checked=8),
            KernelMatchReport(passed=True, max_deviation=2e-12,
                              deviations=np.array([1e-13, 2e-12]),
                              times=np.array([0.05, 0.3]), tolerance=1e-10),
            GaugeReport(passed=True, intertwining_defect=3e-16,
                        record_defect=5e-14, tolerance=1e-10,
                        isometry=SphereAxialRotation(0.7)),
            GrigoryanReport(passed=True, rate=0.24, prefactor=1.8,
                            violations=0, n_checked=240, max_log_ratio=-0.02),
        ]

    def test_round_trip_each(self, tmp_path):
        for i, report in enumerate(self._cases()):
            path = tmp_path / f"report{i}.json"
            dump_report(report, path)
            assert payload_equal(load_report(path), report), type(report).__name__

    def test_machine_readable_pass_flag(self, tmp_path):
        import json
        for i, report in enumerate(self._cases()):
            path = tmp_path / f"report{i}.json"
            dump_report(report, path)
            payload = json.loads(path.read_text())
            assert isinstance(payload["passed"], bool)
        # reports without a stored flag derive it from the violation count
        dump_report(SanityReport(constant=1.0, exponent=0.5, violations=2,
                                 n_checked=8), tmp_path / "bad.json")
        import json as _json
        assert _json.loads((tmp_path / "bad.json").read_text())["passed"] is False

    def test_real_ucp_report(self, tmp_path):
        model, obs, m = half_circle(8)
        report = ucp_nullspace_test(model, m, obs)
        path = tmp_path / "ucp.json"
        dump_report(report, path)
        assert payload_equal(load_report(path), report)


class TestTables:

    def test_trace_round_trip(self, tmp_path):
        times = np.array([0.1, 0.2, 0.4])
        values = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        trace = HeatTrace(times=times, values=values,
                          node_indices=np.array([3, 5, 8, 13]))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        t2, ids, v2 = trace_from_csv(path)
        assert np.array_equal(t2, times)
        assert np.array_equal(ids, [3, 5, 8, 13])
        assert np.array_equal(v2, values)

    def test_trace_header_checked(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SerializationError):
            trace_from_csv(path)

    def test_recovered_round_trip(self, tmp_path):
        model, obs, m = half_circle(6)
        V = PotentialField(func=lambda th: 0.3 * np.cos(th), label="cos")
        sources = list(make_source_basis(model, obs, 3))
        records = [cauchy_record(model, m, V, s, obs) for s in sources]
        recovered = recover_potential(model, m, obs, V, records)
        path = tmp_path / "recovered.csv"
        recovered_to_csv(recovered, path)
        loaded = recovered_from_csv(path)
        assert np.array_equal(loaded.nodes, np.atleast_2d(recovered.nodes))
        assert np.array_equal(loaded.values, recovered.values, equal_nan=True)
        assert np.array_equal(loaded.mask, recovered.mask)
        assert np.array_equal(loaded.disagreement, recovered.disagreement,
                              equal_nan=True)
        assert np.array_equal(np.sort(loaded.observation_indices),
                              np.sort(recovered.observation_indices))
        assert loaded.covered_fraction == recovered.covered_fraction

    def test_recovered_nan_survives(self, tmp_path):
        recovered = RecoveredPotential(
            nodes=np.array([[0.0], [1.0], [2.0]]),
            values=np.array([0.5, np.nan, 0.25]),
            mask=np.array([True, False, True]),
            disagreement=np.array([0.0, np.nan, 1e-9]),
            observation_indices=np.array([0]))
        path = tmp_path / "r.csv"
        recovered_to_csv(recovered, path)
        loaded = recovered_from_csv(path)
        assert np.isnan(loaded.values[1])
        assert not loaded.mask[1]
        assert loaded.covered_fraction == 0.5

    def test_spectrum_bytes(self, tmp_path):
        path = tmp_path / "spectrum.csv"
        spectrum_to_csv(build_model("circle", 3), path)
        assert path.read_text() == "block,eigenvalue,multiplicity\n0,0.0,1\n1,1.0,2\n2,4.0,2\n"

    def test_trace_bytes(self, tmp_path):
        path = tmp_path / "trace.csv"
        trace_to_csv(HeatTrace(times=np.array([0.1, 0.25]),
                               values=np.array([[1 / 3, -0.0], [1e-300, 2.5]]),
                               node_indices=np.array([4, 9])), path)
        assert path.read_text() == ("time,node_id,value\n0.1,4,0.3333333333333333\n"
                                    "0.1,9,-0.0\n0.25,4,1e-300\n0.25,9,2.5\n")

    def test_recovered_bytes(self, tmp_path):
        path = tmp_path / "recovered.csv"
        recovered_to_csv(RecoveredPotential(
            nodes=np.array([[0.0, 0.5], [1.0, 1.5]]), values=np.array([0.25, np.nan]),
            mask=np.array([True, False]), disagreement=np.array([np.nan, np.nan]),
            observation_indices=np.array([0])), path)
        assert path.read_text() == ("node_id,x0,x1,value,mask,window,disagreement\n"
                                    "0,0.0,0.5,0.25,1,1,nan\n1,1.0,1.5,nan,0,0,nan\n")

    @pytest.mark.parametrize("text, message", [
        ("time,node,value\n0.1,0,1.0\n", "header: expected time,node_id,value"),
        ("", "header: expected time,node_id,value"),
        ("time,node_id,value\n0.1,0,1.0\n0.1,1\n", "expected 3 numbers in every row"),
        ("time,node_id,value\n0.1,0,1.0\n0.1,1,x\n", "could not convert string to float"),
        ("time,node_id,value\n0.1,0,1.0\n0.1,1,2.0\n0.2,0,3.0\n", "one block of rows per time"),
        ("time,node_id,value\n0.1,0,1.0\n0.1,1,2.0\n0.2,1,3.0\n0.2,0,4.0\n",
         "the same node ids in the same order"),
        ("time,node_id,value\n0.1,0,1.0\n0.1,1,2.0\n0.2,0,3.0\n0.3,1,4.0\n",
         "one block of rows per time"),
        ("time,node_id,value\n0.1,0.5,1.0\n", "node_id: expected integers >= 0"),
        ("time,node_id,value\n0.1,-3,1.0\n0.1,-7,2.0\n", "node_id: expected integers >= 0"),
        ("time,node_id,value\n0.1,1e30,1.0\n", "node_id: expected integers >= 0"),
        ("time,node_id,value\n0.1,nan,1.0\n", "node_id: expected integers >= 0"),
    ], ids=["header", "empty", "short-row", "text", "ragged-block", "node-order", "split-block",
            "fractional-id", "negative-ids", "huge-id", "nan-id"])
    def test_malformed_trace_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(SerializationError, match=f"^{re.escape(str(path))}: ") as info:
            trace_from_csv(path)
        assert message in str(info.value)

    @pytest.mark.parametrize("text, message", [
        ("node_id,x0,value,mask,window\n0,0.0,1.0,1,1\n",
         "header: expected node_id,value,mask,window,disagreement"),
        ("node_id,x1,value,mask,window,disagreement\n0,0.0,1.0,1,1,nan\n",
         "header: expected node_id,x0,value"),
        ("node_id,x0,value,mask,window,disagreement\n0,0.0,1.0,1,1\n",
         "expected 6 numbers in every row"),
        ("node_id,x0,value,mask,window,disagreement\n0,0.0,one,1,1,nan\n",
         "could not convert string to float"),
        ("node_id,x0,value,mask,window,disagreement\n0,0.0,1.0,2,1,nan\n",
         "mask, window: expected 0 or 1"),
    ], ids=["header", "coordinate-name", "short-row", "text", "flag"])
    def test_malformed_recovered_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "recovered.csv"
        path.write_text(text)
        with pytest.raises(SerializationError, match=f"^{re.escape(str(path))}: ") as info:
            recovered_from_csv(path)
        assert message in str(info.value)

    def test_binary_table_names_the_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(SerializationError, match=f"^{re.escape(str(path))}: not a CSV table"):
            trace_from_csv(path)


class TestSolutionDump:

    def test_round_trip(self, tmp_path):
        model = build_model("circle", 5)
        coeffs = np.linspace(-1, 1, model.total_dim)
        path = tmp_path / "solution.json"
        dump_solution(Solution(kind="circle", truncation=5, mass=2.0, source_id="bump00",
                               potential_label="zero", coefficients=coeffs,
                               residual=3e-16), path)
        loaded = load_solution(path)
        assert loaded.kind == "circle"
        assert loaded.mass == 2.0
        assert loaded.residual == 3e-16
        assert np.array_equal(loaded.coefficients, coeffs)

    @pytest.mark.parametrize("doctor, message", [
        (lambda p: {k: v for k, v in p.items() if k != "residual"},
         "residual: missing required field"),
        (lambda p: {**p, "mass": "x"}, "mass: expected a finite number"),
    ], ids=["missing", "mistyped"])
    def test_malformed_solution_names_the_field(self, tmp_path, doctor, message):
        model = build_model("circle", 5)
        path = tmp_path / "solution.json"
        dump_solution(Solution(kind="circle", truncation=5, mass=2.0, source_id="bump00",
                               potential_label="zero",
                               coefficients=np.zeros(model.total_dim), residual=0.0), path)
        path.write_text(json.dumps(doctor(json.loads(path.read_text()))))
        with pytest.raises(SerializationError, match=re.escape(f"{path}: {message}")):
            load_solution(path)


# generated artifacts ---------------------------------------------------------
# Strategies follow the dataclass annotations, as the codec does: arrays of
# any shape (empty included) in float64, int64 or bool, but integers >= 0 for
# node indices; windows for `Window` fields and isometries for `Isometry`
# fields; finite floats (JSON refuses NaN).

finite = st.floats(allow_nan=False, allow_infinity=False)
shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)


def arrays_of(shape):
    return st.one_of(hnp.arrays(np.float64, shape, elements=finite),
                     hnp.arrays(np.int64, shape),
                     hnp.arrays(np.bool_, shape))


def indices_of(shape):
    return hnp.arrays(np.int64, shape, elements=st.integers(0, 2 ** 62))


masses = st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)
modes = st.sampled_from(["internal", "blind"])


arrays = arrays_of(shapes)
pairs = st.tuples(finite, finite)
KINDS = {Window: st.one_of(
    st.builds(AngularInterval, finite, finite),
    st.builds(TorusBox, st.lists(pairs, min_size=1, max_size=3).map(tuple)),
    st.builds(SphericalCap, pairs, finite)), Isometry: st.one_of(
    st.builds(CircleRotation, finite), st.builds(CircleReflection, finite),
    st.builds(TorusTranslation, st.lists(finite, min_size=1, max_size=3).map(tuple)),
    st.builds(TorusAxisReflection, st.integers(0, 3), finite),
    st.builds(SphereAxialRotation, finite), st.builds(SphereMeridianReflection, finite))}
SCALARS = {bool: st.booleans(), int: st.integers(), float: finite, str: st.text(max_size=8)}


def values_of(hint):
    if hint in KINDS:
        return KINDS[hint]
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return st.none() | values_of(next(a for a in args if a is not type(None)))
    if hint is np.ndarray:
        return arrays
    if hint is list or typing.get_origin(hint) is list:
        return st.lists(values_of(args[0]) if args else st.text(max_size=8), max_size=4)
    return SCALARS[hint]


@st.composite
def windows(draw, n_nodes):
    """An ObservationSet of `n_nodes` nodes, as its own checks require: at
    least one node, and one node index (an integer >= 0) and one weight per
    node."""
    return ObservationSet(draw(KINDS[Window]), draw(indices_of(n_nodes)),
                          draw(arrays_of((n_nodes, draw(st.integers(1, 3))))),
                          draw(arrays_of(n_nodes)))


@st.composite
def gelfand_data(draw):
    """GelfandData whose shapes agree, as its own checks require: a window,
    one multiplicity and family per eigenvalue, families[k] of width
    multiplicities[k] and a row per window node, a mode of the two and a
    mass > 1.  There is at least one node, since an empty family cannot keep
    its width through JSON."""
    n_nodes = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(0, 3), max_size=4))
    return GelfandData(
        eigenvalues=draw(arrays_of(len(widths))),
        multiplicities=np.array(widths, dtype=np.int64),
        families=[draw(arrays_of((n_nodes, w))) for w in widths],
        window=draw(windows(n_nodes)), mass=draw(masses), mode=draw(modes),
        provenance=draw(st.lists(st.text(max_size=8), max_size=4)))


def built(cls, **fixed):
    """`cls` with each payload field drawn by its annotation, or from `fixed`."""
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **fixed, **{f.name: values_of(hints[f.name]) for f in fields(cls)
                                      if not f.metadata.get("in_memory") and f.name not in fixed})


@st.composite
def cauchy_records(draw):
    """CauchyRecord whose arrays agree, as its own checks require: a window,
    one u and Lu sample per window node, and a mass > 1."""
    n_nodes = draw(st.integers(1, 4))
    per_node = dict.fromkeys(("u_values", "lu_values"), arrays_of(n_nodes))
    return draw(built(CauchyRecord, window=windows(n_nodes), mass=masses, **per_node))


def instances(cls):
    if cls is GelfandData:
        return gelfand_data()
    if cls is CauchyRecord:
        return cauchy_records()
    return built(cls)


def array_pairs(a, b):
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if is_dataclass(x) and is_dataclass(y):
            yield from array_pairs(x, y)
        elif isinstance(x, list) and isinstance(y, list):
            yield from (pair for pair in zip(x, y) if isinstance(pair[0], np.ndarray))
        elif isinstance(x, np.ndarray):
            yield x, y


def assert_round_trip(obj, loaded):
    assert payload_equal(obj, loaded)
    for x, y in array_pairs(obj, loaded):
        assert isinstance(y, np.ndarray)
        # JSON keeps int, float and bool apart, but an empty list has no
        # element to tell: empty arrays load as float64 with shape (0,) or
        # (n, 0), where the per-field codecs gave int/bool dtypes.
        assert y.dtype == (x.dtype if x.size else np.float64)
        if x.size:
            assert y.shape == x.shape


ROUND_TRIP = settings(max_examples=60, deadline=None,
                      suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestGeneratedRoundTrips:

    @ROUND_TRIP
    @given(record=instances(CauchyRecord))
    def test_record(self, tmp_path, record):
        dump_record(record, tmp_path / "rec.json")
        loaded = load_record(tmp_path / "rec.json")
        assert_round_trip(record, loaded)
        assert loaded.solution is None

    @ROUND_TRIP
    @given(data=instances(GelfandData))
    def test_gelfand(self, tmp_path, data):
        dump_gelfand(data, tmp_path / "gd.json")
        assert_round_trip(data, load_gelfand(tmp_path / "gd.json"))

    @ROUND_TRIP
    @given(report=st.sampled_from(list(_REPORT_TYPES.values())).flatmap(instances))
    def test_report(self, tmp_path, report):
        dump_report(report, tmp_path / "report.json")
        assert_round_trip(report, load_report(tmp_path / "report.json"))
        envelope = json.loads((tmp_path / "report.json").read_text())
        assert envelope["passed"] is bool(report.passed)


class TestFieldCoverage:
    """A payload is its dataclass's fields, minus the in-memory ones, so a new
    field needs no serializer edit."""

    SKIPPED = {CauchyRecord: {"solution"}, GelfandData: {"traces"}}

    @pytest.mark.parametrize("cls", [CauchyRecord, GelfandData, *_REPORT_TYPES.values()],
                             ids=lambda cls: cls.__name__)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_payload_keys_are_the_fields(self, cls, data):
        obj = data.draw(instances(cls))
        expected = {f.name for f in fields(cls)} - self.SKIPPED.get(cls, set())
        assert set(encode(obj)) == expected


def window_fields() -> list:
    """(class, field) for every dataclass field in the package annotated `ObservationSet`."""
    modules = [importlib.import_module(f"loglap.{info.name}")
               for info in pkgutil.iter_modules(loglap.__path__)]
    classes = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and is_dataclass(cls)}
    return sorted(((cls, name) for cls in classes
                   for name, hint in typing.get_type_hints(cls).items()
                   if hint is ObservationSet), key=lambda pair: pair[0].__name__)


class TestWindowFields:
    """Every field that holds a window refuses what is not one, naming itself."""

    FIELDS = window_fields()

    def test_records_and_spectral_data_hold_windows(self):
        assert set(self.FIELDS) >= {(CauchyRecord, "window"), (GelfandData, "window")}

    @pytest.mark.parametrize("cls, name", FIELDS,
                             ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS])
    @pytest.mark.parametrize("value", [None, "x", AngularInterval(0.0, 1.0)],
                             ids=["none", "text", "descriptor"])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_non_window_refused(self, cls, name, value, data):
        obj = data.draw(instances(cls))
        with pytest.raises(FieldError) as info:
            replace(obj, **{name: value})
        assert info.value.field == name

    @pytest.mark.parametrize("dump, load", [(dump_record, load_record),
                                            (dump_gelfand, load_gelfand)],
                             ids=["record", "gelfand"])
    def test_loaded_window_is_read_only(self, tmp_path, dump, load):
        model, obs, m = half_circle()
        sources = make_source_basis(model, obs, 2)
        made = (cauchy_record(model, m, zero_potential, sources[0], obs) if dump is dump_record
                else build_gelfand_data(model, m, zero_potential, obs, sources))
        dump(made, tmp_path / "artifact.json")
        loaded = load(tmp_path / "artifact.json")
        for window in (made.window, loaded.window):
            for name in ("node_indices", "nodes", "weights"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(window, name)[0] = 1


def _gelfand_path(tmp_path):
    model, obs, m = half_circle()
    data = build_gelfand_data(model, m, zero_potential, obs,
                              list(make_source_basis(model, obs, 5)))
    path = tmp_path / "gd.json"
    dump_gelfand(data, path)
    return path


class TestMalformedArtifacts:

    @pytest.mark.parametrize("doctor, message", [
        (lambda p: {k: v for k, v in p.items() if k != "families"},
         "families: missing required field"),
        (lambda p: {**p, "extra": 1}, "extra: unknown field"),
        (lambda p: {**p, "ambient": [[[1.0, 0.0], [0.0, 1.0]]]},
         "ambient: unknown field of GelfandData"),
        (lambda p: [p], "expected a JSON object, found list"),
        (lambda p: {**p, "mass": "two"}, "mass: expected a finite number"),
        (lambda p: {**p, "mode": 3}, "mode: expected one of ['internal', 'blind'], found 3"),
        (lambda p: {**p, "mode": "nonsense"},
         "mode: expected one of ['internal', 'blind'], found 'nonsense'"),
        (lambda p: {**p, "mass": 0.5}, "mass: must be > 1"),
        (lambda p: in_window(p, node_indices=[[1, 2], [3]]),
         "window.node_indices: not a rectangular array"),
        (lambda p: {**p, "families": [["a"]]}, "families[0]: expected an array of numbers"),
        (lambda p: {**p, "families": {"0": []}}, "families: expected a list"),
        (lambda p: {**p, "version": 2}, "version: unsupported version 2"),
        (lambda p: {**p, "format": "loglap/record"}, "format: expected 'loglap/gelfand'"),
        (lambda p: {**p, "families": [p["families"][0], p["families"][1][1:],
                                      *p["families"][2:]]}, "families[1]: expected shape"),
        (lambda p: {**p, "multiplicities": p["multiplicities"][1:]},
         "multiplicities: expected 5 entries, one per eigenvalue"),
        (lambda p: in_window(p, weights=p["window"]["weights"][1:]),
         "window.weights: expected 31 entries, one per node"),
        (lambda p: in_window(p, node_indices=[i + 0.5 for i in p["window"]["node_indices"]]),
         "window.node_indices: expected integers >= 0"),
        (lambda p: in_window(p, node_indices=[-1 - i for i in p["window"]["node_indices"]]),
         "window.node_indices: expected integers >= 0"),
        (lambda p: {**p, "multiplicities": [float(k) for k in p["multiplicities"]]},
         "multiplicities: expected integers >= 0"),
        (lambda p: {**{k: v for k, v in p.items() if k != "window"},
                    **{k: v for k, v in p["window"].items() if k != "descriptor"}},
         "node_indices: unknown field of GelfandData"),
    ], ids=["missing", "unknown", "ambient", "list", "scalar", "string", "mode", "low-mass",
            "ragged", "strings", "not-a-list", "version", "format", "family-shape",
            "multiplicities", "weights", "fractional-indices", "negative-indices",
            "float-multiplicities", "flat-window"])
    def test_gelfand_errors_name_the_field(self, tmp_path, doctor, message):
        path = _gelfand_path(tmp_path)
        path.write_text(json.dumps(doctor(json.loads(path.read_text()))))
        with pytest.raises(SerializationError, match=f"^{path}: ") as info:
            load_gelfand(path)
        assert message in str(info.value)

    @pytest.mark.parametrize("doctor, message", [
        (lambda p: in_window(p, weights=p["window"]["weights"][1:]),
         "window.weights: expected 31 entries, one per node"),
        (lambda p: {**p, "mass": 0.5}, "mass: must be > 1"),
        (lambda p: {**{k: v for k, v in p.items() if k != "window"}, **p["window"]},
         "descriptor: unknown field of CauchyRecord"),
    ], ids=["window-weights", "low-mass", "flat-window"])
    def test_record_errors_name_the_field(self, tmp_path, doctor, message):
        # a file written before records nested their window is refused, by
        # the first of its window fields in sorted order
        path = tmp_path / "rec.json"
        dump_record(TestRecordDump._record(), path)
        path.write_text(json.dumps(doctor(json.loads(path.read_text()))))
        with pytest.raises(SerializationError, match=f"^{re.escape(f'{path}: {message}')}"):
            load_record(path)

    def test_truncated_json(self, tmp_path):
        path = _gelfand_path(tmp_path)
        path.write_text(path.read_text()[:200])
        with pytest.raises(SerializationError, match="not valid JSON"):
            load_gelfand(path)

    @pytest.mark.parametrize("doctor, message", [
        (lambda p: {**p, "fields": {**p["fields"], "descriptor": {"kind": "pentagon"}}},
         "fields.descriptor.kind: expected one of"),
        (lambda p: {**p, "fields": {**p["fields"], "descriptor": {
            **p["fields"]["descriptor"], "radius": 1.0}}},
         "fields.descriptor.radius: unknown field of 'interval'"),
        (lambda p: {**p, "fields": None}, "fields: expected the fields of a UcpReport"),
        (lambda p: {**p, "report": "PaperReport"}, "report: unknown report type"),
    ], ids=["descriptor", "descriptor-field", "fields", "type"])
    def test_report_errors_name_the_field(self, tmp_path, doctor, message):
        path = tmp_path / "ucp.json"
        dump_report(UcpReport(truncation=8, descriptor=AngularInterval(0.0, 4.7),
                              null_dimension=0, smallest_singular=1.3e-4, passed=True,
                              n_points=16, include_image=True), path)
        path.write_text(json.dumps(doctor(json.loads(path.read_text()))))
        with pytest.raises(SerializationError, match=message):
            load_report(path)
