"""The names other code reaches by string resolve.

The benchmark's tracer (`perfbench/spans.py`) patches the functions listed
in `LAYERS` by module and name, and `__all__` lists what a module exports;
a rename or deletion that leaves either list stale fails here, not at run
time of the benchmark, and so does a change that breaks one op of the
`sphere_forward` or `ucp_sweep` workloads or lowers the extraction probe's
working range.  The package's modules import only the standard
library, numpy and each other, so that the package needs numpy alone.  No code branches on a manifold's kind tag:
what differs between manifolds is a method or class data of the manifold
class, the catalog is one table of those classes, and the window and
isometry families are read from it, each class in one manifold's family.
`make_manifold` takes only the parameters of the kind's constructor.  Only
the count rule (`fields.require_count`) tests for an integer, only the
index rule (`fields.require_indices`) tests an array's dtype for one, and only
`fields.py` lists a dataclass's fields: the JSON codec has one home.  Only
`fields.py` calls `np.shape`: arrays are read by one rule.  Only
`ObservationSet` declares a window's node indices and weights: records and
spectral data hold the window they were made on.  Every
error class is raised somewhere in the package or is a base of one that is,
and the package raises no class that `errors.py` does not define.  Building
a model and running the continuation certificate on it import no
`numpy.ma`, which every fresh CLI process would pay for.
"""

import ast
import builtins
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import loglap
from loglap import models
from loglap.errors import FieldError
from loglap.solver import ForwardMap

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def resolves(module: str, qualname: str) -> bool:
    owner = importlib.import_module(module)
    for attr in qualname.split("."):
        if not hasattr(owner, attr):
            return False
        owner = getattr(owner, attr)
    return callable(owner)


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{qualname}" for module, qualname, _, _ in spans.LAYERS
               if not resolves(module, qualname)]
    assert not missing, f"spans.LAYERS names missing functions {missing}"


def test_benchmark_ops_and_probe_run(monkeypatch):
    # each workload's oracle raises on a wrong output, so a library change
    # that breaks an op, its oracle or the extraction probe fails here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    monkeypatch.syspath_prepend(str(PERFBENCH))  # for the workloads' `spans` import
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    sphere = workloads.SphereForward(42, smoke=True)
    for workload in (sphere, workloads.UcpSweep(42, smoke=True)):
        workload.warm_up()
        workload.op(0)
    # a record and a trace of one source share one solve: over an op, count
    # the solves that ForwardMap does not serve from the one it keeps
    fresh, solve_columns = [], ForwardMap._solve_columns

    def counting(fmap, F):
        fresh.append(F.shape)
        return solve_columns(fmap, F)

    monkeypatch.setattr(ForwardMap, "_solve_columns", counting)
    sphere.op(1)
    assert len(fresh) == len(sphere.sources), fresh
    reached = {kind: best for kind, (best, _) in workloads.working_range().items()}
    assert reached["circle"] >= 8 and reached["torus"] >= 10 and reached["sphere"] >= 7, reached


def test_exported_names_exist():
    missing = []
    for info in pkgutil.iter_modules(loglap.__path__):
        module = importlib.import_module(f"loglap.{info.name}")
        missing += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, f"__all__ lists missing names {missing}"


def foreign_imports(tree: ast.AST):
    """(line, module) of every import, at module level or in a body, of a
    module outside the standard library, numpy and loglap."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue  # relative imports stay inside loglap
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ("numpy", "loglap"):
                yield node.lineno, name


def test_modules_import_only_stdlib_numpy_and_loglap():
    # numpy is the one runtime dependency; scipy is a test extra, and every
    # CLI process pays for what the package imports
    root = Path(loglap.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{line} {name}"
             for path in sorted(root.rglob("*.py"))
             for line, name in foreign_imports(ast.parse(path.read_text(), str(path)))]
    assert not found, f"imports beyond the standard library and numpy at {found}"


CERTIFICATE_RUN = """
import sys
import numpy as np
from loglap.models import (AngularInterval, SphericalCap, TorusBox, build_model,
                           restrict_to_observation)
from loglap.recovery import ucp_nullspace_test
for kind, geometry, desc in [
        ("circle", {}, AngularInterval(0.0, 4.7)),
        ("torus", {"edges": (2 * np.pi, 2 * np.pi)}, TorusBox(((0.5, 4.5), (1.0, 5.0)))),
        ("sphere", {}, SphericalCap((0.0, 0.0), 2.4))]:
    model = build_model(kind, 8, **geometry)
    obs = restrict_to_observation(model, desc)
    for include_image in (True, False):
        ucp_nullspace_test(model, 2.0, obs, include_image=include_image)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_certificate_imports_no_masked_arrays():
    # `np.unique` imports numpy.ma on first use (about 10 ms); a fresh
    # interpreter shows what building models and certifying windows load
    src = str(Path(loglap.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CERTIFICATE_RUN], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


KIND_TAGS = {"circle", "torus", "sphere"}


def kind_comparisons(tree: ast.AST):
    """Line numbers of comparisons (==, !=, in, not in) with a kind tag."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                   for op in node.ops):
            continue
        operands = [node.left, *node.comparators]
        literals = [elt for operand in operands
                    for elt in (operand.elts if isinstance(operand, (ast.Tuple, ast.List,
                                                                     ast.Set))
                                else [operand])]
        if any(isinstance(lit, ast.Constant) and lit.value in KIND_TAGS
               for lit in literals):
            yield node.lineno


def test_no_branch_on_the_kind_tag():
    root = Path(loglap.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{line}"
             for path in sorted(root.rglob("*.py"))
             for line in kind_comparisons(ast.parse(path.read_text(), str(path)))]
    assert not found, f"comparisons with a kind tag at {found}"


MANIFOLDS = list(models._MANIFOLDS.values())


def families(cls) -> list:
    """The window and isometry classes of manifold class `cls`."""
    return [cls.window, *cls.isometries]


def test_window_and_isometry_classes_belong_to_one_manifold():
    tagged = [obj for obj in vars(models).values()
              if isinstance(obj, type) and isinstance(vars(obj).get("name"), str)]
    owners = {t.__name__: [cls.kind for cls in MANIFOLDS if t in families(cls)]
              for t in tagged}
    assert all(len(kinds) == 1 for kinds in owners.values()), owners
    assert set(tagged) == set(models.WINDOWS + models.ISOMETRIES)
    assert models.WINDOWS == tuple(cls.window for cls in MANIFOLDS)
    assert models.ISOMETRIES == tuple(iso for cls in MANIFOLDS for iso in cls.isometries)
    assert [cls.kind for cls in MANIFOLDS] == ["circle", "torus", "sphere"]


def parameters(cls) -> set:
    return set(inspect.signature(cls).parameters)


@pytest.mark.parametrize("cls", MANIFOLDS, ids=lambda cls: cls.kind)
def test_make_manifold_rejects_parameters_of_other_kinds(cls):
    foreign = set().union(*map(parameters, MANIFOLDS)) - parameters(cls)
    assert foreign
    for name in sorted(foreign):
        with pytest.raises(FieldError) as info:
            models.make_manifold(cls.kind, **{name: 1.0})
        assert (info.value.field, info.value.reason) == (name, f"not a parameter of a "
                                                               f"{cls.kind}")


def integral_uses(tree: ast.AST):
    """Line numbers of every use of `Integral`, imports aside, outside the
    count rule `require_count`."""
    rule = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "require_count"
            for node in ast.walk(fn)}
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name == "Integral" and id(node) not in rule:
            yield node.lineno


def test_only_the_count_rule_tests_for_an_integer():
    root = Path(loglap.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{line}"
             for path in sorted(root.rglob("*.py"))
             for line in integral_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, f"integer tests outside the count rule at {found}"


def integer_dtype_tests(tree: ast.AST):
    """Line numbers of every test of an array's dtype for integers outside
    the index rule `require_indices`: a `.dtype.kind` compared with integer
    kinds alone ("i", "u", "iu"), or a use of `np.integer`."""
    rule = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "require_indices"
            for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if id(node) in rule:
            continue
        left = getattr(node, "left", None)
        if (isinstance(node, ast.Compare) and isinstance(left, ast.Attribute)
                and left.attr == "kind" and getattr(left.value, "attr", None) == "dtype"
                and any(isinstance(c, ast.Constant) and isinstance(c.value, str) and c.value
                        and set(c.value) <= set("iu") for c in node.comparators)
                or isinstance(node, ast.Attribute) and node.attr == "integer"):
            yield node.lineno


def test_only_the_index_rule_tests_an_integer_dtype():
    # a window's node indices are checked where it is built, so no later
    # stage repeats the test
    root = Path(loglap.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{line}"
             for path in sorted(root.rglob("*.py"))
             for line in integer_dtype_tests(ast.parse(path.read_text(), str(path)))]
    assert not found, f"integer dtype tests outside the index rule at {found}"


def shape_reads(tree: ast.AST):
    """(line, name) of every call of `np.shape` and every use of the names
    the array rule replaced."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "shape" and getattr(node.func.value, "id", None) == "np"):
            yield node.lineno, "np.shape"
        name = (node.id if isinstance(node, ast.Name)
                else getattr(node, "attr", getattr(node, "name", None)))
        if name in ("as_floats", "_has_shape"):
            yield node.lineno, name


def test_only_the_array_rule_reads_a_shape():
    # `fields.require_array` and its shape test `fields.has_shape` read
    # every array argument and record field, so a ragged or text array
    # raises a FieldError naming it, never numpy's own error
    root = Path(loglap.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{line} {name}"
             for path in sorted(root.rglob("*.py"))
             for line, name in shape_reads(ast.parse(path.read_text(), str(path)))
             if not (path.name == "fields.py" and name == "np.shape")]
    assert not found, f"shapes read outside the array rule at {found}"


def field_listings(tree: ast.AST):
    """Line numbers of every call of `dataclasses.fields`, by any import of
    it, or of `payload_fields`."""
    aliases = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
               for alias in node.names if alias.name == "fields"}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if (isinstance(fn, ast.Name) and fn.id in aliases | {"payload_fields"}
                or isinstance(fn, ast.Attribute) and fn.attr == "fields"
                and isinstance(fn.value, ast.Name) and fn.value.id == "dataclasses"):
            yield node.lineno


def test_the_codec_has_one_home():
    # encode and decode alone decide which fields a payload holds and how a
    # tagged class is spotted, so an artifact is written as it is read
    root = Path(loglap.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{line}"
             for path in sorted(root.rglob("*.py")) if path.name != "fields.py"
             for line in field_listings(ast.parse(path.read_text(), str(path)))]
    assert not found, f"dataclass fields listed outside fields.py at {found}"
    names = {node.id if isinstance(node, ast.Name) else node.name
             for node in ast.walk(ast.parse((root / "serialize.py").read_text()))
             if isinstance(node, (ast.Name, ast.alias))}
    assert not names & {"WINDOWS", "ISOMETRIES"}, "serialize.py names the tagged families"


def window_declarations(tree: ast.AST):
    """(line, name) of every class whose body declares both `node_indices`
    and `weights`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            declared = {stmt.target.id for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
            if {"node_indices", "weights"} <= declared:
                yield node.lineno, node.name


def test_the_window_has_one_home():
    root = Path(loglap.__file__).resolve().parent
    found = [(f"{path.relative_to(root.parent)}:{line}", name)
             for path in sorted(root.rglob("*.py"))
             for line, name in window_declarations(ast.parse(path.read_text(), str(path)))]
    assert [name for _, name in found] == ["ObservationSet"], f"window fields declared at {found}"


def instance_dict_uses(tree: ast.AST):
    """Line numbers of every `.__dict__` attribute outside the kept-value
    helper `kept`."""
    rule = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "kept"
            for node in ast.walk(fn)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__" and id(node) not in rule:
            yield node.lineno


def test_kept_values_have_one_home():
    # `models.kept` alone stores values on an object between calls, keyed by
    # all the inputs of each value
    root = Path(loglap.__file__).resolve().parent
    found = [f"{path.relative_to(root.parent)}:{line}"
             for path in sorted(root.rglob("*.py"))
             for line in instance_dict_uses(ast.parse(path.read_text(), str(path)))]
    assert not found, f"`__dict__` used outside models.kept at {found}"


def raised_names(tree: ast.AST):
    """(line, name) of every `raise Name(...)` or `raise Name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_every_error_class_is_raised():
    root = Path(loglap.__file__).resolve().parent
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse((root / "errors.py").read_text()).body
             if isinstance(node, ast.ClassDef)}
    live = set()
    pending = [name for path in sorted(root.rglob("*.py"))
               for _, name in raised_names(ast.parse(path.read_text(), str(path)))
               if name in bases]
    while pending:
        name = pending.pop()
        if name not in live:
            live.add(name)
            pending += [b for b in bases[name] if b in bases]
    dead = sorted(set(bases) - live)
    assert not dead, f"errors.py defines classes nothing raises: {dead}"


def test_only_package_errors_are_raised():
    # a raised name that resolves to a class in its module (or the builtins)
    # must be one of errors.py; `raise max(...)` or `raise exc` raise values
    found = []
    modules = [loglap] + [importlib.import_module(f"loglap.{info.name}")
                          for info in pkgutil.iter_modules(loglap.__path__)]
    for module in modules:
        tree = ast.parse(Path(module.__file__).read_text(), module.__file__)
        for line, name in raised_names(tree):
            cls = getattr(module, name, getattr(builtins, name, None))
            if isinstance(cls, type) and cls.__module__ != "loglap.errors":
                found.append(f"{module.__name__}:{line} {name}")
    assert not found, f"raises of classes errors.py does not define at {found}"
