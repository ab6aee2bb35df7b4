"""Golden fingerprints: every subcommand's output on three stored configs.

`golden/configs.json` holds the config documents of the benchmark's CLI
batch at seeds 7, 42 and 100 (a circle config, a sphere `extract` config
and a sphere `gauge` config per seed).  Each seed runs the nine
subcommands in-process through `loglap.cli.main`, `compare` on two
`extract` outputs made here at the seed and the next one, and
`golden/fingerprints.json` keeps one small fingerprint per run and
artifact:

- the exit code and the stdout and stderr lines, compared exactly;
- for a JSON artifact its tree: strings, integers, booleans and null
  exactly, a float at 1e-12 relative, and a list of numbers as an array;
- for a CSV table its header and one array per column;
- for an array of integers or booleans its shape and three seeded integer
  projections, compared exactly; for an array of floats its shape, the
  positions of its non-finite entries as such a projection, and three
  seeded Gaussian projections of its finite entries (non-finite ones read
  as 0), each compared at 1e-12 of the 2-norm of its terms: what moves
  when every entry moves by 1e-12 relative, at random.

No byte digest is kept, so a value that moves in its last bits passes.
Values at rounding level (the compare report's gaps and angles, the gauge
defects and the output lines that print them) can move further on another
CPU or BLAS; there, and after an intended change of output, rewrite the
fingerprints:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from loglap.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SUBCOMMANDS = ("spectrum", "solve", "cauchy", "extract", "compare", "ucp", "recover", "gauge",
               "heatcheck")
CONFIG_OF = {"extract": "extract", "compare": "compare", "gauge": "gauge"}  # else "circle"
RTOL = 1e-12
N_PROJECTIONS = 3


def run(argv: list) -> dict:
    """`loglap.cli.main(argv)` as its exit code and output lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue().splitlines(),
            "stderr": err.getvalue().splitlines()}


def _weights(n: int, integer: bool) -> np.ndarray:
    rng = np.random.default_rng(n)
    if integer:
        return rng.integers(-1000, 1001, size=(N_PROJECTIONS, n))
    return rng.standard_normal((N_PROJECTIONS, n))


def _int_projections(values: np.ndarray) -> list:
    return [int(p) for p in _weights(values.size, True) @ values.ravel().astype(np.int64)]


def array_print(values: np.ndarray) -> dict:
    """The shape and projections of a rectangular array of numbers."""
    if values.dtype.kind in "biu":
        return {"ints": list(values.shape), "proj": _int_projections(values)}
    flat = values.ravel()
    finite = np.isfinite(flat)
    terms = _weights(flat.size, False) * np.where(finite, flat, 0.0)
    out = {"floats": list(values.shape), "proj": terms.sum(axis=1).tolist(),
           "scale": [float(f"{s:.1e}") for s in np.linalg.norm(terms, axis=1)]}
    if not finite.all():  # 1 for -inf, 2 for nan, 3 for +inf
        out["nonfinite"] = _int_projections(np.where(finite, 0,
                                                     1 + np.isnan(flat) + 2 * (flat > 0)))
    return out


def tree_print(value):
    """A JSON value with each list of numbers replaced by its `array_print`."""
    if isinstance(value, dict):
        return {key: tree_print(item) for key, item in value.items()}
    if isinstance(value, list):
        try:
            values = np.array(value)
        except ValueError:  # ragged
            values = None
        if values is not None and values.size and values.dtype.kind in "biuf":
            return array_print(values)
        return [tree_print(item) for item in value]
    return value


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def file_print(path: Path):
    """The fingerprint of one artifact, a JSON document or a CSV table."""
    text = path.read_text()
    if path.suffix == ".json":
        return tree_print(json.loads(text))
    header, *rows = list(csv.reader(io.StringIO(text)))
    columns = zip(*[[_cell(cell) for cell in row] for row in rows], strict=True)
    return {"header": header,
            "columns": [array_print(np.array(column)) for column in columns]}


def fingerprints(root: Path) -> dict:
    """Run every subcommand on every stored config under `root` and
    fingerprint what each prints and writes."""
    prints = {}
    for seed, docs in json.loads((GOLDEN / "configs.json").read_text()).items():
        base = root / seed
        base.mkdir(parents=True)
        configs = {}
        for name, doc in docs.items():
            configs[name] = base / f"{name}.json"
            configs[name].write_text(json.dumps(doc))
        inputs = []
        for k in (0, 1):
            out = base / f"compare_input{k}"
            made = run(["extract", "--config", str(configs["extract"]), "--out", str(out),
                        "--seed", str(int(seed) + k), "--quiet"])
            assert made["exit"] == 0, made
            inputs.append(str(out / "gelfand.json"))
        configs["compare"] = base / "compare.json"
        configs["compare"].write_text(json.dumps(
            dict(docs["extract"], compare={"first": inputs[0], "second": inputs[1]})))
        for sub in SUBCOMMANDS:
            out = base / sub
            result = run([sub, "--config", str(configs[CONFIG_OF.get(sub, "circle")]),
                          "--out", str(out), "--seed", seed])
            prints[f"{seed}/{sub}"] = result
            prints |= {f"{seed}/{sub}/{path.name}": file_print(path)
                       for path in sorted(out.iterdir())}
    return prints


def differences(want, got, path: str = "") -> list:
    """Where fingerprint `got` departs from `want`, as readable paths."""
    if isinstance(want, dict) and "floats" in want:
        if not (isinstance(got, dict) and got.get("floats") == want["floats"]
                and got.get("nonfinite") == want.get("nonfinite")):
            return [f"{path}: shape or non-finite entries moved"]
        return [f"{path}: projection {i} {w!r} -> {g!r}"
                for i, (w, g, s) in enumerate(zip(want["proj"], got["proj"], got["scale"]))
                if not abs(g - w) <= RTOL * s]
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(want)} -> "
                    f"{sorted(got) if isinstance(got, dict) else got!r}"]
        return [d for key in want for d in differences(want[key], got[key], f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if want == got or np.isnan(want) and np.isnan(got) or abs(got - want) <= RTOL * abs(want):
            return []
    return [] if type(want) is type(got) and want == got else [f"{path}: {want!r} -> {got!r}"]


def test_no_output_moves(tmp_path):
    want = json.loads((GOLDEN / "fingerprints.json").read_text())
    found = differences(want, fingerprints(tmp_path))
    assert not found, "outputs moved (see tests/test_golden.py to rewrite):\n" + "\n".join(
        found[:40])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --write")
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        prints = fingerprints(Path(tmp))
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(prints.items())]  # one line per fingerprint
    (GOLDEN / "fingerprints.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(lines)} fingerprints to {GOLDEN / 'fingerprints.json'}")
