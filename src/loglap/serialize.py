"""Versioned text artifacts for models, records, spectral data, and reports.

Structured documents are JSON with sorted keys and a format/version header;
columnar tables are CSV with a fixed header row. Floats are written with
Python's shortest round-trip repr, so identical inputs produce
byte-identical files and every numeric value survives write -> read exactly.
NaN is confined to the CSV tables (coverage gaps); JSON payloads refuse it.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

from .calculus import HeatTrace
from .errors import FieldError, LoglapError
from .extraction import GelfandData, MatchReport, SanityReport
from .models import ISOMETRIES, WINDOWS, SpectralModel, build_model, from_fields
from .recovery import GaugeReport, KernelMatchReport, RecoveredPotential, UcpReport
from .calculus import GrigoryanReport
from .solver import CauchyRecord

FORMAT_VERSION = 1


class SerializationError(LoglapError):
    """An artifact is malformed or cannot represent the object."""


def _listify(a):
    return np.asarray(a).tolist()


def _write_json(payload: dict, path) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _read_json(path, expected_format: str) -> dict:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != expected_format:
        raise SerializationError(
            f"expected format {expected_format!r}, found {payload.get('format')!r}")
    if payload.get("version") != FORMAT_VERSION:
        raise SerializationError(f"unsupported version {payload.get('version')!r}")
    return payload


# descriptors and symmetries --------------------------------------------------
# {"kind": <the class's JSON name>, <field>: <value>, ...}; tuples become lists.

def _plain(value):
    if isinstance(value, (tuple, list, np.ndarray)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _to_dict(obj) -> dict:
    if type(obj) not in WINDOWS + ISOMETRIES:
        raise SerializationError(f"cannot serialize {type(obj).__name__}")
    return {"kind": obj.name, **{f.name: _plain(getattr(obj, f.name))
                                 for f in dataclasses.fields(obj)}}


def _decoder(family):
    def decode(d: dict):
        try:
            return from_fields(d, family)
        except FieldError as exc:
            raise SerializationError(str(exc)) from exc
    return decode


descriptor_to_dict = isometry_to_dict = _to_dict
descriptor_from_dict, isometry_from_dict = _decoder(WINDOWS), _decoder(ISOMETRIES)


# models ----------------------------------------------------------------------

def dump_model(model: SpectralModel, path) -> None:
    """Versioned eigendata dump; the builder arguments travel with the tables."""
    if model.block_mixers is not None:
        raise SerializationError("derived models with mixed blocks are not serializable")
    payload = {
        "format": "loglap/model",
        "version": FORMAT_VERSION,
        "kind": model.kind,
        "truncation": int(model.truncation),
        "params": {k: (_listify(v) if isinstance(v, (tuple, list, np.ndarray)) else v)
                   for k, v in model.params.items()},
        "quadrature": _listify(model.quadrature_spec),
        "eigenvalues": _listify(model.eigenvalues),
        "multiplicities": _listify(model.multiplicities),
        "nodes": _listify(model.nodes),
        "weights": _listify(model.weights),
    }
    _write_json(payload, path)


def load_model(path) -> SpectralModel:
    """Rebuild from the stored builder arguments and verify the tables."""
    p = _read_json(path, "loglap/model")
    try:
        model = build_model(p["kind"], p["truncation"],
                            quadrature=tuple(p["quadrature"]), **p["params"])
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"cannot rebuild the stored model: {exc}") from exc
    stored = {"eigenvalues": np.asarray(p["eigenvalues"]),
              "multiplicities": np.asarray(p["multiplicities"]),
              "nodes": np.asarray(p["nodes"]).reshape(model.nodes.shape),
              "weights": np.asarray(p["weights"])}
    for name, arr in stored.items():
        if not np.array_equal(arr, getattr(model, name)):
            raise SerializationError(f"stored {name} disagree with the rebuilt model")
    return model


# Cauchy records --------------------------------------------------------------

def dump_record(record: CauchyRecord, path) -> None:
    """Observation payload only; the full solution field stays in memory."""
    payload = {
        "format": "loglap/record",
        "version": FORMAT_VERSION,
        "kind": record.kind,
        "truncation": int(record.truncation),
        "mass": float(record.mass),
        "source_id": record.source_id,
        "potential_label": record.potential_label,
        "descriptor": descriptor_to_dict(record.descriptor),
        "node_indices": _listify(record.node_indices),
        "nodes": _listify(record.nodes),
        "weights": _listify(record.weights),
        "u_values": _listify(record.u_values),
        "lu_values": _listify(record.lu_values),
    }
    _write_json(payload, path)


def load_record(path) -> CauchyRecord:
    p = _read_json(path, "loglap/record")
    return CauchyRecord(
        kind=p["kind"], truncation=p["truncation"], mass=p["mass"],
        source_id=p["source_id"], potential_label=p["potential_label"],
        descriptor=descriptor_from_dict(p["descriptor"]),
        node_indices=np.asarray(p["node_indices"], dtype=int),
        nodes=np.asarray(p["nodes"], dtype=float),
        weights=np.asarray(p["weights"], dtype=float),
        u_values=np.asarray(p["u_values"], dtype=float),
        lu_values=np.asarray(p["lu_values"], dtype=float),
        solution=None)


def records_equal(a: CauchyRecord, b: CauchyRecord) -> bool:
    """Equality on the serialized payload (the in-memory solution is not part of it)."""
    return (a.kind == b.kind and a.truncation == b.truncation
            and a.mass == b.mass and a.source_id == b.source_id
            and a.potential_label == b.potential_label
            and a.descriptor == b.descriptor
            and np.array_equal(a.node_indices, b.node_indices)
            and np.array_equal(a.nodes, b.nodes)
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.u_values, b.u_values)
            and np.array_equal(a.lu_values, b.lu_values))


def dump_manifest(entries: list, path) -> None:
    """entries: list of {file, source_id, kind, truncation, mass}."""
    payload = {"format": "loglap/manifest", "version": FORMAT_VERSION,
               "records": entries}
    _write_json(payload, path)


def load_manifest(path) -> list:
    return _read_json(path, "loglap/manifest")["records"]


# spectral data ---------------------------------------------------------------

def dump_gelfand(data: GelfandData, path) -> None:
    payload = {
        "format": "loglap/gelfand",
        "version": FORMAT_VERSION,
        "eigenvalues": _listify(data.eigenvalues),
        "multiplicities": _listify(data.multiplicities),
        "families": [_listify(f) for f in data.families],
        "nodes": _listify(data.nodes),
        "weights": _listify(data.weights),
        "node_indices": _listify(data.node_indices),
        "mass": float(data.mass),
        "mode": data.mode,
        "provenance": list(data.provenance),
        "ambient": None if data.ambient is None else [_listify(a) for a in data.ambient],
    }
    _write_json(payload, path)


def load_gelfand(path) -> GelfandData:
    p = _read_json(path, "loglap/gelfand")
    return GelfandData(
        eigenvalues=np.asarray(p["eigenvalues"], dtype=float),
        multiplicities=np.asarray(p["multiplicities"], dtype=int),
        families=[np.asarray(f, dtype=float) for f in p["families"]],
        nodes=np.asarray(p["nodes"], dtype=float),
        weights=np.asarray(p["weights"], dtype=float),
        node_indices=np.asarray(p["node_indices"], dtype=int),
        mass=p["mass"], mode=p["mode"], provenance=list(p["provenance"]),
        ambient=None if p["ambient"] is None
        else [np.asarray(a, dtype=float) for a in p["ambient"]])


def gelfand_equal(a: GelfandData, b: GelfandData) -> bool:
    base = (np.array_equal(a.eigenvalues, b.eigenvalues)
            and np.array_equal(a.multiplicities, b.multiplicities)
            and len(a.families) == len(b.families)
            and all(np.array_equal(x, y) for x, y in zip(a.families, b.families))
            and np.array_equal(a.nodes, b.nodes)
            and np.array_equal(a.weights, b.weights)
            and np.array_equal(a.node_indices, b.node_indices)
            and a.mass == b.mass and a.mode == b.mode
            and list(a.provenance) == list(b.provenance))
    if not base:
        return False
    if (a.ambient is None) != (b.ambient is None):
        return False
    if a.ambient is None:
        return True
    return (len(a.ambient) == len(b.ambient)
            and all(np.array_equal(x, y) for x, y in zip(a.ambient, b.ambient)))


# reports ---------------------------------------------------------------------

_ARRAY_FIELDS = {
    "MatchReport": {"eigenvalue_gaps": float, "multiplicity_matches": bool,
                    "max_angles": float},
    "KernelMatchReport": {"deviations": float, "times": float},
}

_SPECIAL_FIELDS = {
    "UcpReport": {"descriptor": (descriptor_to_dict, descriptor_from_dict)},
    "GaugeReport": {"isometry": (isometry_to_dict, isometry_from_dict)},
}

_REPORT_TYPES = {cls.__name__: cls for cls in
                 (UcpReport, MatchReport, SanityReport, KernelMatchReport,
                  GaugeReport, GrigoryanReport)}


def _report_passed(report) -> bool:
    if hasattr(report, "passed"):
        return bool(report.passed)
    return int(report.violations) == 0


def dump_report(report, path) -> None:
    """Any diagnostic report, with a machine-readable top-level pass flag."""
    name = type(report).__name__
    if name not in _REPORT_TYPES:
        raise SerializationError(f"unknown report type {name}")
    arrays = _ARRAY_FIELDS.get(name, {})
    special = _SPECIAL_FIELDS.get(name, {})
    fields = {}
    for key, value in vars(report).items():
        if key in special:
            fields[key] = special[key][0](value)
        elif key in arrays:
            fields[key] = _listify(value)
        elif isinstance(value, (np.floating, np.integer, np.bool_)):
            fields[key] = value.item()
        else:
            fields[key] = value
    payload = {"format": "loglap/report", "version": FORMAT_VERSION,
               "report": name, "passed": _report_passed(report),
               "fields": fields}
    _write_json(payload, path)


def load_report(path):
    p = _read_json(path, "loglap/report")
    name = p["report"]
    if name not in _REPORT_TYPES:
        raise SerializationError(f"unknown report type {name}")
    arrays = _ARRAY_FIELDS.get(name, {})
    special = _SPECIAL_FIELDS.get(name, {})
    fields = dict(p["fields"])
    for key, dtype in arrays.items():
        fields[key] = np.asarray(fields[key], dtype=dtype)
    for key, (_, decode) in special.items():
        fields[key] = decode(fields[key])
    return _REPORT_TYPES[name](**fields)


def reports_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    arrays = _ARRAY_FIELDS.get(type(a).__name__, {})
    for key, va in vars(a).items():
        vb = getattr(b, key)
        same = np.array_equal(va, vb) if key in arrays else va == vb
        if not same:
            return False
    return True


def dump_solution(model: SpectralModel, mass: float, source_id: str,
                  potential_label: str, coefficients: np.ndarray,
                  residual: float, path) -> None:
    payload = {"format": "loglap/solution", "version": FORMAT_VERSION,
               "kind": model.kind, "truncation": int(model.truncation),
               "mass": float(mass), "source_id": source_id,
               "potential_label": potential_label,
               "coefficients": _listify(coefficients),
               "residual": float(residual)}
    _write_json(payload, path)


def load_solution(path) -> dict:
    p = _read_json(path, "loglap/solution")
    p["coefficients"] = np.asarray(p["coefficients"], dtype=float)
    return {k: v for k, v in p.items() if k not in ("format", "version")}


# columnar tables -------------------------------------------------------------

def _open_csv_writer(path):
    fh = open(path, "w", newline="")
    return fh, csv.writer(fh, lineterminator="\n")


def trace_to_csv(trace: HeatTrace, path) -> None:
    """Long-form table (time, node id, value), one row per sample."""
    ids = (trace.node_indices if trace.node_indices is not None
           else np.arange(trace.values.shape[1]))
    fh, writer = _open_csv_writer(path)
    with fh:
        writer.writerow(["time", "node_id", "value"])
        for i, t in enumerate(trace.times):
            for j, nid in enumerate(ids):
                writer.writerow([repr(float(t)), int(nid),
                                 repr(float(trace.values[i, j]))])


def trace_from_csv(path):
    """Returns (times, node_ids, values) with values shaped (n_times, n_nodes)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["time", "node_id", "value"]:
        raise SerializationError("not a trace table")
    times, ids = [], []
    for t, nid, _ in rows[1:]:
        tf = float(t)
        if not times or tf != times[-1]:
            times.append(tf)
        if len(times) == 1:
            ids.append(int(nid))
    values = np.array([float(r[2]) for r in rows[1:]]).reshape(len(times), len(ids))
    return np.asarray(times), np.asarray(ids, dtype=int), values


def recovered_to_csv(recovered: RecoveredPotential, path) -> None:
    """Node/value/mask table; window rows are flagged, gaps carry nan."""
    nodes = np.asarray(recovered.nodes, dtype=float)
    n, d = nodes.shape
    window = np.zeros(n, dtype=int)
    window[recovered.observation_indices] = 1
    fh, writer = _open_csv_writer(path)
    with fh:
        writer.writerow(["node_id"] + [f"x{i}" for i in range(d)]
                        + ["value", "mask", "window", "disagreement"])
        for i in range(n):
            writer.writerow([i] + [repr(float(c)) for c in nodes[i]]
                            + [repr(float(recovered.values[i])),
                               int(recovered.mask[i]), int(window[i]),
                               repr(float(recovered.disagreement[i]))])


def recovered_from_csv(path) -> RecoveredPotential:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "node_id" or rows[0][-1] != "disagreement":
        raise SerializationError("not a recovered-potential table")
    d = len(rows[0]) - 5
    body = rows[1:]
    nodes = np.array([[float(r[1 + i]) for i in range(d)] for r in body])
    values = np.array([float(r[1 + d]) for r in body])
    mask = np.array([bool(int(r[2 + d])) for r in body])
    window = np.array([bool(int(r[3 + d])) for r in body])
    disagreement = np.array([float(r[4 + d]) for r in body])
    complement = ~window
    covered = float(np.mean(mask[complement])) if complement.any() else 1.0
    return RecoveredPotential(nodes=nodes, values=values, mask=mask,
                              disagreement=disagreement,
                              observation_indices=np.nonzero(window)[0],
                              covered_fraction=covered)


def spectrum_to_csv(model: SpectralModel, path) -> None:
    fh, writer = _open_csv_writer(path)
    with fh:
        writer.writerow(["block", "eigenvalue", "multiplicity"])
        for k in range(model.truncation):
            writer.writerow([k, repr(float(model.eigenvalues[k])),
                             int(model.multiplicities[k])])


def match_report_to_csv(report: MatchReport, path) -> None:
    """Blockwise comparison table behind a MatchReport."""
    fh, writer = _open_csv_writer(path)
    with fh:
        writer.writerow(["block", "eigenvalue_gap", "multiplicity_match", "max_angle"])
        for k in range(report.n_compared):
            writer.writerow([k, repr(float(report.eigenvalue_gaps[k])),
                             int(report.multiplicity_matches[k]),
                             repr(float(report.max_angles[k]))])


def solution_to_csv(model: SpectralModel, values: np.ndarray, path) -> None:
    """Node table of a solved field (node id, coordinates, value)."""
    nodes = model.nodes
    fh, writer = _open_csv_writer(path)
    with fh:
        writer.writerow(["node_id"] + [f"x{i}" for i in range(nodes.shape[1])]
                        + ["value"])
        for i in range(nodes.shape[0]):
            writer.writerow([i] + [repr(float(c)) for c in nodes[i]]
                            + [repr(float(values[i]))])
