"""Versioned text artifacts for models, records, spectral data, and reports.

Structured documents are JSON with sorted keys and a format/version header;
columnar tables are CSV, each a map of named columns written by
`_write_table` and read by `_read_table`. Floats are written with
Python's shortest round-trip repr, so identical inputs produce
byte-identical files and every numeric value survives write -> read exactly.
NaN is confined to the CSV tables (coverage gaps); JSON payloads refuse it.

Records, spectral data and reports are dataclasses, whose JSON payload is
their fields (a window nests as an object), written by `fields.encode` and
read back by `from_payload` from the annotations: a new field needs no edit.
A field whose metadata sets "in_memory" (CauchyRecord.solution) is left out
of the payload and takes its default on load.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

from .calculus import GrigoryanReport, HeatTrace, KernelMatchReport, SanityReport
from .errors import FieldError, SerializationError
from .extraction import GelfandData, MatchReport
from .fields import as_indices, decode, encode
from .models import SpectralModel, build_model
from .recovery import GaugeReport, RecoveredPotential, UcpReport
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


def from_payload(cls, payload, source: str = "payload", root: str = ""):
    """`payload` read back as `cls`, a dataclass or any annotation that
    `fields.decode` reads; SerializationError names `source`, then the field
    path below `root`."""
    try:
        return decode(cls, payload, root)
    except FieldError as exc:
        raise SerializationError(f"{source}: {exc}") from exc


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
    if model.transform is not None:
        raise SerializationError("models with a basis transform are not serializable")
    _write_json(path, "loglap/model", encode(StoredModel(
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
    _write_json(path, "loglap/record", encode(record))


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
    _write_json(path, "loglap/gelfand", encode(data))


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
                                        "fields": encode(report)})


def load_report(path):
    p = _read_json(path, "loglap/report")
    cls = _REPORT_TYPES.get(str(p.get("report")))
    if cls is None:
        raise SerializationError(f"{path}: report: unknown report type {p.get('report')!r}")
    return from_payload(cls, p.get("fields"), path, "fields")


def dump_solution(solution: Solution, path) -> None:
    _write_json(path, "loglap/solution", encode(solution))


def load_solution(path) -> Solution:
    return from_payload(Solution, _read_json(path, "loglap/solution"), path)


# columnar tables -------------------------------------------------------------

def _write_table(path, columns: dict) -> None:
    """A CSV table: the column names as its header row, then one row per
    entry.  `tolist` hands csv Python numbers, which it writes as ints or in
    the shortest round-trip float repr; flag columns are passed as ints."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns.values()), strict=True))


def _read_table(path, header) -> np.ndarray:
    """The body of the CSV table at `path` as floats, one column per name.
    `header(width)` is the header row expected of a table `width` columns
    wide; a malformed table raises SerializationError naming `path`."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError, NUL bytes
        raise SerializationError(f"{path}: not a CSV table ({exc})") from exc
    expected = header(len(rows[0]) if rows else 0)
    if not rows or rows[0] != expected:
        raise SerializationError(f"{path}: header: expected {','.join(expected)}")
    try:
        return np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(expected))
    except ValueError as exc:
        raise SerializationError(f"{path}: expected {len(expected)} numbers in "
                                 f"every row ({exc})") from exc


def _coordinates(d: int) -> list:
    return [f"x{i}" for i in range(d)]


def _node_columns(nodes) -> dict:
    """The node_id, x0 .. x{d-1} columns that open every node table."""
    nodes = np.asarray(nodes, dtype=float)
    return {"node_id": np.arange(len(nodes)), **dict(zip(_coordinates(nodes.shape[1]), nodes.T))}


def trace_to_csv(trace: HeatTrace, path) -> None:
    """Long-form table (time, node id, value), one row per sample."""
    n_times, n_nodes = trace.values.shape
    ids = trace.node_indices if trace.node_indices is not None else np.arange(n_nodes)
    _write_table(path, {"time": np.repeat(trace.times, n_nodes),
                        "node_id": np.tile(np.asarray(ids, dtype=int), n_times),
                        "value": trace.values.ravel()})


def trace_from_csv(path):
    """Returns (times, node_ids, values) with values shaped (n_times, n_nodes)."""
    time, node_id, value = _read_table(path, lambda width: ["time", "node_id", "value"]).T
    try:
        node_id = as_indices(node_id, "node_id")
    except FieldError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
    n_nodes = int(np.argmax(np.append(time != time[:1], True)))  # rows at the first time
    times, ids = time[::max(n_nodes, 1)], node_id[:n_nodes]
    if not (np.array_equal(time, np.repeat(times, n_nodes))
            and np.array_equal(node_id, np.tile(ids, times.size))):
        raise SerializationError(f"{path}: expected one block of rows per time, each "
                                 "listing the same node ids in the same order")
    return times, ids, value.reshape(times.size, n_nodes)


def recovered_to_csv(recovered: RecoveredPotential, path) -> None:
    """Node/value/mask table; window rows are flagged, gaps carry nan."""
    _write_table(path, {**_node_columns(recovered.nodes), "value": recovered.values,
                        "mask": np.asarray(recovered.mask, dtype=int),
                        "window": np.asarray(~recovered.off_window, dtype=int),
                        "disagreement": recovered.disagreement})


def recovered_from_csv(path) -> RecoveredPotential:
    table = _read_table(path, lambda width: ["node_id", *_coordinates(width - 5), "value",
                                             "mask", "window", "disagreement"])
    values, mask, window, disagreement = table[:, -4:].T
    if not np.all(np.isin(table[:, -3:-1], (0, 1))):
        raise SerializationError(f"{path}: mask, window: expected 0 or 1")
    return RecoveredPotential(nodes=table[:, 1:-4], values=values, mask=mask == 1,
                              disagreement=disagreement,
                              observation_indices=np.nonzero(window == 1)[0])


def spectrum_to_csv(model: SpectralModel, path) -> None:
    _write_table(path, {"block": np.arange(model.truncation),
                        "eigenvalue": model.eigenvalues,
                        "multiplicity": model.multiplicities})


def match_report_to_csv(report: MatchReport, path) -> None:
    """Blockwise comparison table behind a MatchReport."""
    _write_table(path, {"block": np.arange(report.n_compared),
                        "eigenvalue_gap": report.eigenvalue_gaps,
                        "multiplicity_match": np.asarray(report.multiplicity_matches, dtype=int),
                        "max_angle": report.max_angles})


def solution_to_csv(model: SpectralModel, values: np.ndarray, path) -> None:
    """Node table of a solved field (node id, coordinates, value)."""
    _write_table(path, {**_node_columns(model.nodes), "value": values})
