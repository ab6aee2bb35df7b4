"""Versioned text artifacts for models, records, spectral data, and reports.

Structured documents are JSON with sorted keys and a format/version header;
columnar tables are CSV with a fixed header row. Floats are written with
Python's shortest round-trip repr, so identical inputs produce
byte-identical files and every numeric value survives write -> read exactly.
NaN is confined to the CSV tables (coverage gaps); JSON payloads refuse it.

Records, spectral data and reports are dataclasses, and their JSON payload
is their fields (`to_payload`, `from_payload`): arrays are nested lists,
numpy scalars plain numbers, windows and isometries {"kind": name, ...}.
Loading reads each field back by its annotation, so adding a field needs no
edit here. A field whose metadata sets "in_memory" (CauchyRecord.solution)
is left out of the payload and takes its default on load.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json

import numpy as np

from .calculus import GrigoryanReport, HeatTrace
from .errors import FieldError, SerializationError
from .extraction import GelfandData, MatchReport, SanityReport
from .fields import decode, payload_fields
from .models import ISOMETRIES, WINDOWS, Isometry, SpectralModel, Window, build_model
from .recovery import GaugeReport, KernelMatchReport, RecoveredPotential, UcpReport
from .solver import CauchyRecord, Solution

FORMAT_VERSION = 1


def _write_json(path, fmt: str, payload: dict) -> None:
    text = json.dumps({"format": fmt, "version": FORMAT_VERSION, **payload},
                      sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def _read_json(path, expected_format: str) -> dict:
    """The document's fields, without its format/version header."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SerializationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise SerializationError(f"{path}: expected a JSON object, found "
                                 f"{type(payload).__name__}")
    if payload.pop("format", None) != expected_format:
        raise SerializationError(f"{path}: format: expected {expected_format!r}")
    version = payload.pop("version", None)
    if version != FORMAT_VERSION:
        raise SerializationError(f"{path}: version: unsupported version {version!r}")
    return payload


# the dataclass codec ---------------------------------------------------------

def _plain(value):
    if type(value) in WINDOWS + ISOMETRIES:
        return {"kind": value.name, **{f.name: _plain(getattr(value, f.name))
                                       for f in dataclasses.fields(value)}}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def to_payload(obj) -> dict:
    """The JSON payload of a record, spectral data or report: its fields."""
    return {f.name: _plain(getattr(obj, f.name)) for f in payload_fields(type(obj))}


def from_payload(cls, payload, source: str = "payload", root: str = ""):
    """`payload` read back as `cls`, a dataclass or any annotation that
    `fields.decode` reads; SerializationError names `source`, then the field
    path below `root`."""
    try:
        return decode(cls, payload, root)
    except FieldError as exc:
        raise SerializationError(f"{source}: {exc}") from exc


descriptor_to_dict = isometry_to_dict = _plain
descriptor_from_dict = functools.partial(from_payload, Window)
isometry_from_dict = functools.partial(from_payload, Isometry)


# models ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StoredModel:
    """The JSON form of a model: its builder arguments and the tables that
    rebuilding from them must reproduce."""

    kind: str
    truncation: int
    params: dict
    quadrature: tuple[int, ...]
    eigenvalues: np.ndarray
    multiplicities: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray


_MODEL_TABLES = ("eigenvalues", "multiplicities", "nodes", "weights")


def dump_model(model: SpectralModel, path) -> None:
    """Versioned eigendata dump; the builder arguments travel with the tables."""
    if model.block_mixers is not None:
        raise SerializationError("derived models with mixed blocks are not serializable")
    _write_json(path, "loglap/model", to_payload(StoredModel(
        model.kind, int(model.truncation), model.params, model.quadrature_spec,
        *(getattr(model, name) for name in _MODEL_TABLES))))


def load_model(path) -> SpectralModel:
    """Rebuild from the stored builder arguments and verify the tables."""
    stored = from_payload(StoredModel, _read_json(path, "loglap/model"), path)
    try:
        model = build_model(stored.kind, stored.truncation,
                            quadrature=stored.quadrature, **stored.params)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{path}: cannot rebuild the stored model: {exc}") from exc
    for name in _MODEL_TABLES:
        if not np.array_equal(getattr(stored, name), getattr(model, name)):
            raise SerializationError(f"{path}: {name}: disagrees with the rebuilt model")
    return model


# Cauchy records --------------------------------------------------------------

def dump_record(record: CauchyRecord, path) -> None:
    """Observation payload only; the full solution field stays in memory."""
    _write_json(path, "loglap/record", to_payload(record))


def load_record(path) -> CauchyRecord:
    return from_payload(CauchyRecord, _read_json(path, "loglap/record"), path)


def dump_manifest(entries: list, path) -> None:
    """entries: list of {file, source_id, kind, truncation, mass}."""
    _write_json(path, "loglap/manifest", {"records": entries})


def load_manifest(path) -> list:
    return from_payload(list[dict], _read_json(path, "loglap/manifest").get("records"),
                        path, "records")


# spectral data ---------------------------------------------------------------

def dump_gelfand(data: GelfandData, path) -> None:
    _write_json(path, "loglap/gelfand", to_payload(data))


def load_gelfand(path) -> GelfandData:
    return from_payload(GelfandData, _read_json(path, "loglap/gelfand"), path)


# reports ---------------------------------------------------------------------

_REPORT_TYPES = {cls.__name__: cls for cls in
                 (UcpReport, MatchReport, SanityReport, KernelMatchReport,
                  GaugeReport, GrigoryanReport)}


def dump_report(report, path) -> None:
    """Any diagnostic report, with a machine-readable top-level pass flag."""
    name = type(report).__name__
    if _REPORT_TYPES.get(name) is not type(report):
        raise SerializationError(f"unknown report type {name}")
    _write_json(path, "loglap/report", {"report": name, "passed": bool(report.passed),
                                        "fields": to_payload(report)})


def load_report(path):
    p = _read_json(path, "loglap/report")
    cls = _REPORT_TYPES.get(str(p.get("report")))
    if cls is None:
        raise SerializationError(f"{path}: report: unknown report type {p.get('report')!r}")
    return from_payload(cls, p.get("fields"), path, "fields")


def dump_solution(solution: Solution, path) -> None:
    _write_json(path, "loglap/solution", to_payload(solution))


def load_solution(path) -> Solution:
    return from_payload(Solution, _read_json(path, "loglap/solution"), path)


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
