import ast
import contextlib
import copy
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import toricomplex
from toricomplex.cli import (EXIT_CLAIM, EXIT_INTERNAL, EXIT_INVALID, EXIT_IO,
                             EXIT_OK, run)
from toricomplex.lattice import (ClaimFailedError, InternalInvariantError,
                                 InvalidInputError, ToricomplexError)

P2_DOC = {
    "rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
    "max_cones": [[0, 1], [1, 2], [0, 2]],
    "boundary": ["1", "1", "1"],
}

BLP2_DOC = {
    "rank": 2, "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
    "max_cones": [[0, 2], [0, 3], [1, 2], [1, 3]],
    "boundary": ["1", "1", "1", "1"],
}

A1_GERM_DOC = {
    "rank": 2, "rays": [[0, 1], [2, 1]], "max_cones": [[0, 1]],
    "v": [1, 1],
}

# A germ whose orbifold optimum is twisted: c_fine 35/12, c_orb 17/6.
TWISTED_GERM_DOC = {
    "rank": 3, "rays": [[0, -1, 1], [1, 1, 1], [3, 4, 1], [3, 3, 1], [1, 0, 1]],
    "max_cones": [[0, 1, 2, 3, 4]],
    "boundary": ["7/12", "1/3", "1/12", "1/3", "7/12"],
    "mode": "local", "cone": [0, 1, 2, 3, 4],
}

TORSION_GERM_DOC = {
    "rank": 2, "rays": [[1, 2], [1, -2]], "max_cones": [[0, 1]],
    "v": [1, 0],
}


def invoke(capsys, args, doc=None, monkeypatch=None):
    if doc is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code = run(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, args, doc, monkeypatch):
    code, out, err = invoke(capsys, args + ["--format", "json"], doc,
                            monkeypatch)
    return code, (json.loads(out) if out else None), err


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_reads_a_file(capsys, tmp_path):
    path = write_doc(tmp_path, P2_DOC)
    code, out, _ = invoke(capsys, ["validate", "--input", path])
    assert code == EXIT_OK
    assert "ok: true" in out
    assert "log_cy: true" in out


def test_validate_reads_stdin_by_default(capsys, monkeypatch):
    code, out, _ = invoke(capsys, ["validate"], P2_DOC, monkeypatch)
    assert code == EXIT_OK
    assert "rays: 3" in out


def test_exit_codes_by_failure_class(capsys, tmp_path, monkeypatch):
    # parse failure
    monkeypatch.setattr("sys.stdin", io.StringIO('{"rank":'))
    assert run(["validate"]) == EXIT_IO
    # missing file
    assert run(["validate", "--input", str(tmp_path / "no.json")]) == EXIT_IO
    capsys.readouterr()
    # malformed pair document
    bad = dict(P2_DOC, mode="affine")
    code, _, err = invoke(capsys, ["validate"], bad, monkeypatch)
    assert code == EXIT_INVALID and "invalid input" in err
    # usage problems never collide with the claim-failure code
    assert run(["frobnicate"]) == EXIT_INVALID
    assert run(["minimize", "--orbifold-cap", "0"]) == EXIT_INVALID
    assert run(["minimize", "--orbifold-cap", "65"]) == EXIT_INVALID
    assert run(["complexity", "--cone", "a,b"]) == EXIT_INVALID
    capsys.readouterr()


def test_json_output_is_deterministic(capsys, tmp_path):
    path = write_doc(tmp_path, P2_DOC)
    args = ["minimize", "--input", path, "--format", "json"]
    code, first, _ = invoke(capsys, args)
    assert code == EXIT_OK
    _, second, _ = invoke(capsys, args)
    assert first == second
    payload = json.loads(first)
    assert (payload["c"], payload["c_fine"], payload["c_orb"]) == \
        ("0", "0", "0")
    assert payload["nonnegative"] is True
    assert payload["cl_rank"] == 1


def test_classgroup_reports_torsion(capsys, monkeypatch):
    doc = {"rank": 2, "rays": [[1, 2], [1, -2]], "max_cones": [[0, 1]]}
    code, payload, _ = invoke_json(capsys, ["classgroup"], doc, monkeypatch)
    assert code == EXIT_OK
    assert payload["free_rank"] == 0
    assert payload["torsion"] == [4]
    assert [c["torsion"] for c in payload["ray_classes"]] == [[1], [3]]


def test_complexity_defaults_to_prime_decomposition(capsys, monkeypatch):
    explicit = dict(P2_DOC, decomposition=[
        {"b": "1", "support": {str(i): "1"}} for i in range(3)])
    code, a, _ = invoke_json(capsys, ["complexity"], P2_DOC, monkeypatch)
    assert code == EXIT_OK
    code, b, _ = invoke_json(capsys, ["complexity"], explicit, monkeypatch)
    assert code == EXIT_OK
    assert a == b
    assert a["c"] == "0" and a["norm"] == "3"


def test_complexity_with_orbifold_entries(capsys, monkeypatch):
    doc = dict(P2_DOC, orbifold={"0": 2}, decomposition=[
        {"b": "1/2", "support": {"0": "1"}},
        {"b": "1", "support": {"1": "1"}},
        {"b": "1", "support": {"2": "1"}},
    ])
    code, payload, _ = invoke_json(capsys, ["complexity"], doc, monkeypatch)
    assert code == EXIT_OK
    # plain and fine values are undefined once a multiplicity exceeds one
    assert payload["c"] is None and payload["c_fine"] is None
    assert payload["c_orb"] == "1/2"


# each spelling parses with int() to ray 2 of P2, but only "2" names it
RAY_ALIASES = ["02", " 2", "2 ", "+2", "0_2"]


def _three_lines(key):
    return dict(P2_DOC, decomposition=[
        {"b": "1", "support": {"0": "1"}},
        {"b": "1", "support": {"1": "1"}},
        {"b": "1", "support": {key: "1"}},
    ])


def test_canonical_ray_keys_are_read(capsys, monkeypatch):
    code, payload, _ = invoke_json(capsys, ["complexity"], _three_lines("2"),
                                   monkeypatch)
    assert code == EXIT_OK and payload["c"] == "0"
    doc = dict(P2_DOC, orbifold={"2": 2})
    code, payload, _ = invoke_json(capsys, ["complexity"], doc, monkeypatch)
    assert code == EXIT_OK and payload["c_orb"] == "1/2"


@pytest.mark.parametrize("key", RAY_ALIASES)
def test_support_keys_must_be_canonical(capsys, monkeypatch, key):
    code, out, err = invoke(capsys, ["complexity"], _three_lines(key),
                            monkeypatch)
    assert code == EXIT_INVALID and out == ""
    assert repr(key) in err


@pytest.mark.parametrize("key", RAY_ALIASES)
def test_orbifold_keys_must_be_canonical(capsys, monkeypatch, key):
    doc = dict(P2_DOC, orbifold={key: 2})
    code, out, err = invoke(capsys, ["complexity"], doc, monkeypatch)
    assert code == EXIT_INVALID and out == ""
    assert repr(key) in err


def test_aliased_keys_cannot_overwrite_a_ray(capsys, monkeypatch):
    doc = dict(P2_DOC, boundary=["1", "1", "1"], decomposition=[
        {"b": "1/2", "support": {"0": "1", "1": "1", "01": "0"}},
        {"b": "1", "support": {"2": "1"}},
    ])
    code, out, _ = invoke(capsys, ["complexity"], doc, monkeypatch)
    assert code == EXIT_INVALID and out == ""


# Run as `python [-O] -c WRONG_C_ORB <expected optimize flag> <cli args>`:
# makes the orbifold half of minimize's one search report F one too
# high, so the reported c_orb no longer matches its decomposition.
WRONG_C_ORB = """
import importlib, sys
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(99)
C = importlib.import_module("toricomplex.complexity")
search = C._search_fine
def wrong(*args):
    fine, (f, groups) = search(*args)
    return fine, (f + 1, groups)
C._search_fine = wrong
from toricomplex.cli import run
sys.exit(run(sys.argv[2:]))
"""


# The same, but makes the evaluator that birational binds report every
# value of its second call, the contracted side, one too high.
WRONG_TARGET_VALUE = """
import importlib, sys
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(99)
B = importlib.import_module("toricomplex.birational")
values = B.complexity_values
calls = []
def wrong(*args):
    calls.append(None)
    return tuple(v if v is None or len(calls) == 1 else v + 1
                 for v in values(*args))
B.complexity_values = wrong
from toricomplex.cli import run
sys.exit(run(sys.argv[2:]))
"""


# The same, but raises a KeyError inside minimize's search: after the
# document is built, a built-in error is a library fault, not bad input.
INJECTED_KEY_ERROR = """
import importlib, sys
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(99)
C = importlib.import_module("toricomplex.complexity")
def injected(*args):
    raise KeyError("injected")
C._search_fine = injected
from toricomplex.cli import run
sys.exit(run(sys.argv[2:]))
"""


# The same, but makes star_fan report the first wall's lattice index one
# too high, so adjunction's wall-by-wall Cartier index check fails.
WRONG_WALL_INDEX = """
import importlib, sys
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(99)
A = importlib.import_module("toricomplex.adjunction")
star_fan = A.star_fan
def wrong(*args):
    star = star_fan(*args)
    first = star.partners[0]
    return star._replace(multiplicity={
        p: m + (p == first) for p, m in star.multiplicity.items()})
A.star_fan = wrong
from toricomplex.cli import run
sys.exit(run(sys.argv[2:]))
"""


# The same, but makes minimize realize its groups with every part's
# weight doubled, so its own decompositions overrun the boundary.
DOUBLED_WEIGHTS = """
import importlib, sys
if sys.flags.optimize != int(sys.argv[1]):
    sys.exit(99)
C = importlib.import_module("toricomplex.complexity")
realize = C._realizing_decomposition
def doubled(*args):
    dec = realize(*args)
    return dec._replace(parts=tuple(
        p._replace(weight=2 * p.weight) for p in dec.parts))
C._realizing_decomposition = doubled
from toricomplex.cli import run
sys.exit(run(sys.argv[2:]))
"""


def _child_env():
    """The environment with this checkout's package first on the path."""
    src = str(Path(toricomplex.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_failed_self_check_exits_internal(tmp_path, flags):
    env = _child_env()
    half = dict(P2_DOC, boundary=["1/2", "1/2", "1"])
    for script, doc, args, needle in [
            (WRONG_C_ORB, P2_DOC, ["minimize"], "c_orb"),
            (WRONG_TARGET_VALUE, CONTRACT_DOC, ["check", "contract"],
             "contraction"),
            (DOUBLED_WEIGHTS, half, ["minimize"],
             "total coefficient 1 at ray 0 exceeds boundary 1/2"),
            (INJECTED_KEY_ERROR, P2_DOC, ["minimize"], "KeyError: 'injected'"),
            (WRONG_WALL_INDEX, P2_DOC, ["adjoin", "--ray", "0"],
             "the Cartier index is the wall's lattice index")]:
        path = write_doc(tmp_path, doc)
        proc = subprocess.run(
            [sys.executable, *flags, "-c", script, str(len(flags)),
             *args, "--input", path],
            capture_output=True, text=True, env=env)
        assert proc.returncode == EXIT_INTERNAL, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("toricomplex: internal error: ")
        assert needle in proc.stderr


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_self_checks_survive_optimize():
    """No assert and no AssertionError in the library: ``python -O``
    strips the one, and the other escapes the CLI as a traceback."""
    package = Path(toricomplex.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                    isinstance(node, ast.Raise) and node.exc is not None
                    and _raises_assertion_error(node)):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


def _unused_imports(path):
    """Names a module imports and never names again, with their lines."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    """Every imported name of the package and the tests is used; the
    package's re-exports in ``__init__`` are exempt."""
    package = Path(toricomplex.__file__).resolve().parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).resolve().parent.glob("*.py"))
    assert [hit for path in paths for hit in _unused_imports(path)] == []


def _exported_strings(node):
    """String constants in an ``__all__`` or ``_LAZY`` assignment."""
    if not isinstance(node, ast.Assign) or not any(
            isinstance(t, ast.Name) and t.id in ("__all__", "_LAZY")
            for t in node.targets):
        return set()
    return {n.value for n in ast.walk(node.value)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _public_definitions(tree):
    """Public top-level functions and classes, and the public methods
    of the public classes, as dotted names."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or \
                node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and \
                        not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def test_every_public_library_name_has_a_library_caller():
    """No helper without a caller: each public top-level function or
    class of the package, and each public method of a public class, is
    named somewhere in the package, by a call, an attribute, an import,
    ``__all__`` or ``__init__``'s lazy table."""
    package = Path(toricomplex.__file__).resolve().parent
    defined, referenced = [], set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined += [(path.stem, dotted, name)
                    for dotted, name in _public_definitions(tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.asname or node.name)
            referenced |= _exported_strings(node)
    assert [f"{mod}.{dotted}" for mod, dotted, name in defined
            if name not in referenced] == []


def test_every_top_level_definition_has_a_caller():
    """No helper without a caller: every top-level function or class of
    the package, private ones included, is used by name somewhere in
    the package (an import alone does not count) or is exported by
    ``__init__``, through its imports or its lazy table."""
    package = Path(toricomplex.__file__).resolve().parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = set()
    for node in ast.walk(init):
        if isinstance(node, ast.alias):
            exported.add(node.asname or node.name)
        exported |= _exported_strings(node)
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        defined += [(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [f"{mod}.{name}" for mod, name in defined
            if name not in used and name not in exported
            and not (mod == "__init__" and name == "__getattr__")] == []


def test_complexity_mode_override_builds_a_germ(capsys, monkeypatch):
    doc = {"rank": 2, "rays": [[0, 1], [2, 1]], "max_cones": [[0, 1]],
           "boundary": ["1", "1"]}
    args = ["complexity", "--mode", "local", "--cone", "0,1"]
    code, payload, _ = invoke_json(capsys, args, doc, monkeypatch)
    assert code == EXIT_OK
    assert payload["mode"] == "local"
    assert payload["c_orb"] == "0"
    # without the override the incomplete fan cannot be projective
    code, _, err = invoke(capsys, ["complexity"], doc, monkeypatch)
    assert code == EXIT_INVALID and "complete" in err


def test_adjoin_requires_the_wall_hypothesis(capsys, monkeypatch):
    # the prime over (-1,-1) shares no wall with the center (1,1)
    code, _, err = invoke(capsys, ["adjoin", "--ray", "3"], BLP2_DOC,
                          monkeypatch)
    assert code == EXIT_CLAIM and "claim failed" in err
    good = dict(BLP2_DOC, decomposition=[
        {"b": "1", "support": {"0": "1"}},
        {"b": "1", "support": {"1": "1"}},
        {"b": "1", "support": {"3": "1"}},
    ])
    code, payload, _ = invoke_json(capsys, ["adjoin", "--ray", "3"], good,
                                   monkeypatch)
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert (payload["value_e"], payload["value_x"]) == ("0", "1")
    assert payload["sigma_is_boundary"] is True


def test_adjoin_rejects_out_of_range_ray(capsys, monkeypatch):
    code, _, err = invoke(capsys, ["adjoin", "--ray", "9"], BLP2_DOC,
                          monkeypatch)
    assert code == EXIT_INVALID and "out of range" in err


def test_cone_identifies_the_quadric_germ(capsys, monkeypatch):
    code, payload, _ = invoke_json(capsys, ["cone"], A1_GERM_DOC, monkeypatch)
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert payload["e_fan"]["rank"] == 1
    assert sorted(payload["polarization"]) == ["0", "2"]
    assert sorted(payload["ray_map"]) == [0, 1]


def _count_smith_forms(monkeypatch):
    """A list that grows by one entry per snf call in the library."""
    modules = [importlib.import_module(f"toricomplex.{name}")
               for name in ("lattice", "conecox", "fan", "divisor")]
    calls = []
    real = modules[0].snf

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in modules:
        if hasattr(module, "snf"):
            monkeypatch.setattr(module, "snf", counting)
    return calls


def test_cone_takes_one_smith_form(capsys, monkeypatch):
    """The kernel of the center and its dual form come from one Smith
    form; the library has no integral solve."""
    calls = _count_smith_forms(monkeypatch)
    for doc in (A1_GERM_DOC, TORSION_GERM_DOC):
        calls.clear()
        code, payload, _ = invoke_json(capsys, ["cone"], doc, monkeypatch)
        assert code == EXIT_OK and payload["ok"] is True
        assert len(calls) == 1
    assert not hasattr(importlib.import_module("toricomplex.lattice"),
                       "solve_integral")


def test_torsion_cover_step_takes_one_smith_form(capsys, monkeypatch):
    """Refining the lattice by a torsion character solves every ray and
    the center from one Smith form of the refined basis, and the monoid
    is read in Z^n with no kernel basis: 7 snf calls on the index-4
    germ, two class groups per Cox-degree reading, the refinement's
    kernel and basis, and one simplex of the monoid.  The witness reads
    the Smith form kept on Y for its class group, one fewer per step."""
    calls = _count_smith_forms(monkeypatch)
    code, payload, _ = invoke_json(capsys, ["hilbert", "--torsion-cover"],
                                   TORSION_GERM_DOC, monkeypatch)
    assert code == EXIT_OK and len(payload["cover_steps"]) == 1
    assert len(calls) == 7


def test_cone_rejects_boundary_vectors(capsys, monkeypatch):
    doc = dict(A1_GERM_DOC, v=[0, 1])
    code, _, err = invoke(capsys, ["cone"], doc, monkeypatch)
    assert code == EXIT_INVALID and "interior" in err


@pytest.mark.parametrize("command", ["cone", "hilbert"])
def test_rank_one_germs_have_no_interior_vector(capsys, monkeypatch, command):
    """The interior of a rank-one cone is its ray, which subdividing
    does not add: the document is invalid, not a fault of the library."""
    doc = {"rank": 1, "rays": [[1]], "max_cones": [[0]], "v": [1]}
    code, out, err = invoke(capsys, [command], doc, monkeypatch)
    assert code == EXIT_INVALID and out == ""
    assert "is the ray of the cone" in err


def test_hilbert_quadric_monoid(capsys, monkeypatch):
    code, payload, _ = invoke_json(capsys, ["hilbert"], A1_GERM_DOC,
                                   monkeypatch)
    assert code == EXIT_OK
    assert payload["generators"] == [[0, 2, 1], [1, 1, 1], [2, 0, 1]]
    assert payload["tau"] == [1, 1, 1]
    assert payload["cover_steps"] == []


def test_hilbert_torsion_needs_the_cover_flag(capsys, monkeypatch):
    code, _, err = invoke(capsys, ["hilbert"], TORSION_GERM_DOC, monkeypatch)
    assert code == EXIT_CLAIM and "--torsion-cover" in err
    code, payload, _ = invoke_json(capsys, ["hilbert", "--torsion-cover"],
                                   TORSION_GERM_DOC, monkeypatch)
    assert code == EXIT_OK
    assert payload["class_torsion"] == [2]
    assert len(payload["cover_steps"]) == 1
    assert payload["cover_steps"][0]["order"] == 2
    assert payload["tau"] == [1, 1, 1]


def test_check_contract_blowdown(capsys, monkeypatch):
    doc = {
        "pair": BLP2_DOC,
        "target": {"rays": P2_DOC["rays"], "max_cones": P2_DOC["max_cones"]},
        "ray": 3,
    }
    code, payload, _ = invoke_json(capsys, ["check", "contract"], doc,
                                   monkeypatch)
    assert code == EXIT_OK
    assert payload["ok"] is True
    assert payload["dropped_norm"] == "1"
    assert payload["equality_plain"] is True
    assert payload["values_target"]["c"] == "0"


def test_check_small_flop(capsys, monkeypatch):
    conifold = [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
    doc = {
        "pair": {"rank": 3, "rays": conifold,
                 "max_cones": [[0, 1, 3], [0, 2, 3]],
                 "boundary": ["1"] * 4, "mode": "birational"},
        "target": {"rays": conifold, "max_cones": [[0, 1, 2], [1, 2, 3]]},
    }
    code, payload, _ = invoke_json(capsys, ["check", "small"], doc,
                                   monkeypatch)
    assert code == EXIT_OK
    assert payload["values_source"] == payload["values_target"]


def test_check_extract_accepts_lc_places_only(capsys, monkeypatch):
    good = {"pair": P2_DOC, "vectors": [[1, 1]]}
    code, payload, _ = invoke_json(capsys, ["check", "extract"], good,
                                   monkeypatch)
    assert code == EXIT_OK
    assert payload["discrepancies"] == ["0"]
    bad = {"pair": dict(P2_DOC, boundary=["1", "1", "0"]),
           "vectors": [[0, -1]]}
    code, _, err = invoke(capsys, ["check", "extract"], bad, monkeypatch)
    assert code == EXIT_CLAIM and "log discrepancy" in err


def test_check_suite_is_green_in_bundled_order(capsys):
    code, out, _ = invoke(capsys, ["check", "suite", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [row["fan"] for row in payload["fans"]] == \
        ["P1", "P2", "P3", "P1xP1", "BlP2", "F1", "F2"]
    assert all(row["ok"] for row in payload["fans"])


# The 12-ray polygon of the search-time ladder in the README, with
# coefficient 11/12 (five orbifold options) at its first seven rays.
ELEVEN_TWELFTHS_DOC = {
    "rank": 2,
    "rays": [[1, 0], [2, 1], [1, 1], [1, 2], [0, 1], [-1, 1], [-1, 0],
             [-2, -1], [-1, -1], [-1, -2], [0, -1], [1, -1]],
    "max_cones": [sorted([i, (i + 1) % 12]) for i in range(12)],
    "boundary": ["11/12"] * 7 + ["1"] * 5,
}


def test_search_over_its_work_budget_exits_invalid(capsys, monkeypatch):
    C = importlib.import_module("toricomplex.complexity")
    monkeypatch.setattr(C, "_CLOSE_BUDGET", 2000)
    code, _, _ = invoke(capsys, ["check", "suite"])
    assert code == EXIT_OK
    code, out, err = invoke(capsys, ["minimize"], ELEVEN_TWELFTHS_DOC,
                            monkeypatch)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("toricomplex: ")
    assert "closed more than 2000 groups" in err


def test_hilbert_over_its_box_budget_exits_invalid(capsys, monkeypatch):
    """The degree-zero cone of this germ is one simplex whose box holds
    4,000,000 points, past the budget: it stops before listing any."""
    doc = {"rank": 3, "rays": [[1, 0, 0], [0, 1, 0], [3, 7, 2000]],
           "max_cones": [[0, 1, 2]], "v": [1, 1, 1]}
    code, out, err = invoke(capsys, ["hilbert", "--torsion-cover"], doc,
                            monkeypatch)
    assert code == EXIT_INVALID and out == ""
    assert "would enumerate 4000000 box points" in err


def test_module_entry_point_runs(tmp_path):
    path = write_doc(tmp_path, P2_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "toricomplex.cli", "validate",
         "--input", path],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "ok: true" in proc.stdout


def test_surgery_documents_are_validated(capsys, monkeypatch):
    code, _, err = invoke(capsys, ["check", "contract"], {"ray": 3},
                          monkeypatch)
    assert code == EXIT_INVALID and "pair" in err
    code, _, err = invoke(capsys, ["check", "contract"],
                          {"pair": BLP2_DOC, "ray": 3}, monkeypatch)
    assert code == EXIT_INVALID and "target" in err
    code, _, err = invoke(capsys, ["check", "extract"], {"pair": P2_DOC},
                          monkeypatch)
    assert code == EXIT_INVALID and "vectors" in err


CONTRACT_DOC = {
    "pair": BLP2_DOC,
    "target": {"rays": P2_DOC["rays"], "max_cones": P2_DOC["max_cones"]},
    "ray": 3,
}


@pytest.mark.parametrize("args, doc", [
    (["cone"], dict(A1_GERM_DOC, v=[1, True])),
    (["cone"], dict(A1_GERM_DOC, v=[1.0, 1])),
    (["check", "contract"], dict(CONTRACT_DOC, ray=True)),
    (["check", "contract"], dict(CONTRACT_DOC, ray=3.0)),
    (["check", "contract"], dict(CONTRACT_DOC, target={
        "rays": [[1, 0], [0, 1], [-1, -1.0]],
        "max_cones": P2_DOC["max_cones"]})),
    (["check", "extract"], {"pair": P2_DOC, "vectors": [[1.0, 1]]}),
    (["check", "extract"], {"pair": P2_DOC, "vectors": [[True, 1]]}),
    (["validate"], dict(P2_DOC, rank=True)),
    (["validate"], dict(P2_DOC, rank=2.9)),
    (["validate"], dict(P2_DOC, max_cones=[[0, 1.0], [1, 2], [0, 2]])),
])
def test_non_integers_are_rejected(capsys, monkeypatch, args, doc):
    """Numbers are never truncated: 2.9, 1.0 and true are not integers."""
    code, out, err = invoke(capsys, args, doc, monkeypatch)
    assert code == EXIT_INVALID, err
    assert out == "" and "integer" in err


@pytest.mark.parametrize("breakage, message", [
    ({"orbifold": {"0": 0}}, "positive integer"),
    ({"orbifold": {"7": 2}}, "out of range"),
    ({"decomposition": [{"support": {"0": "1"}}]}, '"b"'),
    ({"decomposition": [{"b": "1", "support": {"0": "x"}}]}, "rational"),
])
def test_bad_decomposition_documents(capsys, monkeypatch, breakage, message):
    doc = dict(P2_DOC, **breakage)
    code, _, err = invoke(capsys, ["complexity"], doc, monkeypatch)
    assert code == EXIT_INVALID
    assert message in err


@pytest.mark.parametrize("fan", [
    {"rank": 2, "rays": [[1, 0, 4], [0, 1]], "max_cones": [[0, 1]]},
    {"rank": 2, "rays": [[1, 0], [0, 0]], "max_cones": [[0, 1]]},
    {"rank": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]},
    {"rank": 2, "rays": [[1, 0], [1, 0]], "max_cones": [[0], [1]]},
    {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 2]]},
    {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[-1, 0]]},
    {"rank": 2, "rays": [[1, 0], [-1, 0], [0, 1]],
     "max_cones": [[0, 1, 2]]},
])
def test_classgroup_rejects_invalid_fans(capsys, monkeypatch, fan):
    """A class group is read off a valid fan only: ragged, zero,
    non-primitive and duplicate rays, missing ray indices and a
    non-pointed cone are invalid input, never a traceback."""
    code, out, err = invoke(capsys, ["classgroup"], fan, monkeypatch)
    assert code == EXIT_INVALID, err
    assert out == ""
    assert err.startswith("toricomplex: invalid input")
    assert "Traceback" not in err


def _cube_fan_doc():
    """The complete fan over the 3-cube: one cone per square face."""
    rays = [[a, b, c] for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    cones = [[i for i, r in enumerate(rays) if r[axis] == sign]
             for axis in range(3) for sign in (-1, 1)]
    return {"rank": 3, "rays": rays, "max_cones": cones,
            "boundary": ["1"] * 8}


def test_extract_checks_the_decomposition_before_the_surgery(
        capsys, monkeypatch):
    """The document's decomposition is validated before the extraction
    is built, so a bad decomposition is invalid input (exit 1) even
    where the extraction itself fails its claim (exit 2).  Dropping
    that first validation would turn the second exit into a 2."""
    pair = _cube_fan_doc()
    doc = {"pair": pair, "vectors": [[1, 0, 0]]}
    code, out, err = invoke(capsys, ["check", "extract"], doc, monkeypatch)
    assert code == EXIT_CLAIM and out == ""
    assert "not simplicial" in err
    bad = dict(pair, decomposition=[{"b": "2", "support": {"0": "1"}}])
    code, out, err = invoke(capsys, ["check", "extract"],
                            dict(doc, pair=bad), monkeypatch)
    assert code == EXIT_INVALID and out == ""
    assert err.startswith("toricomplex: invalid input")


# ---------------------------------------------------------------------------
# malformed pair documents


LOCAL_DOC = {
    "rank": 2, "rays": [[0, 1], [2, 1]], "max_cones": [[0, 1]],
    "boundary": ["1", "1"], "mode": "local", "cone": [0, 1],
}

# Numbers that are not integers: JSON floats, integral ones such as 2.0
# included, and booleans, which Python reads as 1 and 0.
NOT_INTEGERS = st.one_of(st.booleans(), st.floats(-3, 3),
                         st.sampled_from([0.0, 1.0, 2.0, -1.0]))
# Values no field accepts.
JUNK = st.one_of(st.none(), NOT_INTEGERS, st.text("ab/ ", max_size=3),
                 st.lists(st.none(), max_size=2),
                 st.dictionaries(st.text("ab", max_size=2),
                                 st.integers(-2, 2), max_size=2))
# The same inside a list.
JUNK_ENTRY = st.one_of(st.none(), NOT_INTEGERS, st.text("ab/ ", max_size=3),
                       st.lists(st.integers(0, 1), max_size=2),
                       st.dictionaries(st.text("ab", max_size=2),
                                       st.integers(-2, 2), max_size=2))
BAD_FRACTIONS = ("1/0", "abc", "1/2/3", "", "3/2", "-1/2", "2", 0.5, None,
                 True, [1], {"p": 1})
# Geometric faults: non-pointed, overlapping, zero, non-primitive,
# duplicate and stray rays, nested cones.
BAD_FANS = (
    (2, [[1, 0], [-1, 0], [0, 1]], [[0, 1, 2]]),
    (2, [[1, 0], [0, 1], [1, 1]], [[0, 1], [1, 2], [0, 2]]),
    (2, [[1, 0], [0, 1], [0, 0]], [[0, 1], [1, 2]]),
    (2, [[1, 0], [0, 1], [-2, -2]], [[0, 1], [1, 2], [0, 2]]),
    (2, [[1, 0], [0, 1], [1, 0]], [[0, 1], [1, 2]]),
    (2, [[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [0, 2]]),
    (2, [[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2], [0]]),
)


@st.composite
def malformed_documents(draw):
    """Document text that no pair command may accept."""
    doc = copy.deepcopy(draw(st.sampled_from((P2_DOC, LOCAL_DOC))))
    kind = draw(st.sampled_from((
        "junk-field", "missing-key", "ragged-ray", "junk-coordinate",
        "index-out-of-range", "junk-index", "junk-local-cone", "bad-fraction",
        "boundary-length", "bad-fan", "bad-schema", "not-an-object",
        "not-json")))
    rays, cones = doc["rays"], doc["max_cones"]
    if kind == "junk-field":
        key = draw(st.sampled_from(
            ("rank", "rays", "max_cones", "boundary", "mode", "cone",
             "nef_part")))
        # a null cone or nef part is simply absent
        doc[key] = draw(JUNK.filter(
            lambda v: v is not None or key not in ("cone", "nef_part")))
    elif kind == "missing-key":
        del doc[draw(st.sampled_from(
            ("rank", "rays", "max_cones", "boundary")))]
    elif kind == "ragged-ray":
        ray = rays[draw(st.integers(0, len(rays) - 1))]
        if draw(st.booleans()):
            ray.append(draw(st.integers(-2, 2)))
        else:
            ray.pop()
    elif kind == "junk-coordinate":
        ray = rays[draw(st.integers(0, len(rays) - 1))]
        ray[draw(st.integers(0, len(ray) - 1))] = draw(JUNK_ENTRY)
    elif kind in ("index-out-of-range", "junk-index"):
        cone = cones[draw(st.integers(0, len(cones) - 1))]
        cone[draw(st.integers(0, len(cone) - 1))] = draw(
            st.integers(len(rays), 9) | st.integers(-5, -1)
            if kind == "index-out-of-range" else JUNK_ENTRY)
    elif kind == "junk-local-cone":
        doc = copy.deepcopy(LOCAL_DOC)
        doc["cone"][draw(st.integers(0, 1))] = draw(JUNK_ENTRY)
    elif kind == "bad-fraction":
        doc["boundary"][draw(st.integers(0, len(rays) - 1))] = draw(
            st.sampled_from(BAD_FRACTIONS))
    elif kind == "boundary-length":
        doc["boundary"] = doc["boundary"][:draw(st.integers(0, len(rays) - 1))]
    elif kind == "bad-fan":
        rank, rays, cones = draw(st.sampled_from(BAD_FANS))
        doc = {"rank": rank, "rays": rays, "max_cones": cones,
               "boundary": ["1"] * len(rays)}
    elif kind == "bad-schema":
        doc["schema"] = draw(st.sampled_from((2, 0, "1", None)))
    elif kind == "not-an-object":
        doc = draw(st.sampled_from(([], 3, "pair", None, [P2_DOC])))
    else:
        return draw(st.sampled_from(('{"rank":', "", "nul", "{'rank': 2}")))
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(("validate", "minimize", "complexity")),
       malformed_documents())
def test_malformed_pair_documents_are_rejected(command, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command])
    assert code in (EXIT_INVALID, EXIT_IO), (code, err.getvalue())
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert err.getvalue().startswith("toricomplex: ")


FLOP_DOC = {
    "pair": {"rank": 3, "rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
             "max_cones": [[0, 1, 3], [0, 2, 3]],
             "boundary": ["1"] * 4, "mode": "birational"},
    "target": {"rays": [[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
               "max_cones": [[0, 1, 2], [1, 2, 3]]},
}


# the primes meeting the center (1, 1) of BlP2 along a wall
ADJOIN_DOC = dict(BLP2_DOC, decomposition=[
    {"b": "1", "support": {str(i): "1"}} for i in (0, 1, 3)])


def test_each_decomposition_is_evaluated_once(capsys, monkeypatch):
    """One validation and one span per decomposition a call handles;
    the CLI validates the document's decomposition once more, first."""
    # the package exports a function named complexity, so the modules
    # are looked up by their full names
    adjunction, birational, complexity, cli_module, pairmodel = (
        importlib.import_module(f"toricomplex.{name}") for name in
        ("adjunction", "birational", "complexity", "cli", "pairmodel"))
    calls = {"validations": 0, "spans": 0}

    def counting(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    validate = counting("validations", complexity.validate_decomposition)
    for module in (complexity, adjunction, birational, cli_module):
        if hasattr(module, "validate_decomposition"):
            monkeypatch.setattr(module, "validate_decomposition", validate)
    monkeypatch.setattr(complexity, "q_span_dim",
                        counting("spans", complexity.q_span_dim))

    def counted(f, *args):
        calls.update(dict.fromkeys(calls, 0))
        f(*args)
        return calls["validations"], calls["spans"]

    blp2 = pairmodel.pair_from_dict(BLP2_DOC)
    primes = cli_module._decomposition_from_doc(BLP2_DOC, blp2)
    p2 = pairmodel.pair_from_dict(P2_DOC)
    flop = pairmodel.pair_from_dict(FLOP_DOC["pair"])
    target = cli_module._target_fan(CONTRACT_DOC, 2)
    cases = [
        (adjunction.check_adjunction, blp2,
         cli_module._decomposition_from_doc(ADJOIN_DOC, blp2), 3),
        (birational.check_contraction, blp2,
         birational.contraction(blp2.fan, target, 3), primes),
        (birational.check_small, flop,
         birational.small_modification(
             flop.fan, cli_module._target_fan(FLOP_DOC, 3)),
         cli_module._decomposition_from_doc(FLOP_DOC["pair"], flop)),
        (birational.check_extraction, p2,
         birational.extraction(p2.fan, [(1, 1)]),
         cli_module._decomposition_from_doc(P2_DOC, p2)),
    ]
    for f, *args in cases:
        assert counted(f, *args) == (2, 2), f.__name__
    # the plain decomposition is validated, not spanned; the orbifold
    # one is evaluated only where it differs from the fine one
    half = pairmodel.pair_from_dict(dict(P2_DOC, boundary=["1", "1/2", "1/2"]))
    assert counted(complexity.minimize, half) == (2, 1)
    twisted = pairmodel.pair_from_dict(TWISTED_GERM_DOC)
    assert counted(complexity.minimize, twisted) == (3, 2)

    for args, doc, expected in [
            (["complexity"], P2_DOC, (2, 1)),
            (["adjoin", "--ray", "3"], ADJOIN_DOC, (3, 2)),
            (["check", "contract"], CONTRACT_DOC, (3, 2)),
            (["check", "small"], FLOP_DOC, (3, 2)),
            (["check", "extract"], {"pair": P2_DOC, "vectors": [[1, 1]]},
             (3, 2))]:
        calls.update(dict.fromkeys(calls, 0))
        code, _, err = invoke(capsys, args, doc, monkeypatch)
        assert code == EXIT_OK, err
        assert (calls["validations"], calls["spans"]) == expected, args


# ---------------------------------------------------------------------------
# what a command loads, and how its errors exit


# Runs cli.run in a fresh interpreter, then names on standard error the
# package modules it loaded, and dataclasses if anything loaded it.
MODULES_AFTER_RUN = """
import sys
from toricomplex.cli import run
code = run(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m == "dataclasses"
                    or m.startswith("toricomplex.")), file=sys.stderr)
"""

# The modules every command loads with cli itself.
CORE_MODULES = {"toricomplex.cli", "toricomplex.lattice", "toricomplex.fan",
                "toricomplex.divisor", "toricomplex.pairmodel",
                "toricomplex.complexity"}


# Each command on a valid document, with the modules it loads beyond
# CORE_MODULES.
COMMAND_MODULES = [
    (["validate"], P2_DOC, set()),
    (["classgroup"], P2_DOC, set()),
    (["complexity"], P2_DOC, set()),
    (["minimize"], P2_DOC, set()),
    (["adjoin", "--ray", "3"], ADJOIN_DOC, {"adjunction"}),
    (["cone"], A1_GERM_DOC, {"conecox"}),
    (["hilbert"], A1_GERM_DOC, {"conecox"}),
    (["check", "contract"], CONTRACT_DOC, {"birational"}),
    (["check", "small"], FLOP_DOC, {"birational"}),
    (["check", "extract"], {"pair": P2_DOC, "vectors": [[1, 1]]},
     {"birational"}),
    (["check", "suite"], None, set()),
]


@pytest.mark.parametrize("args, doc, extra", COMMAND_MODULES,
                         ids=[" ".join(args) for args, _, _ in COMMAND_MODULES])
def test_each_command_loads_only_the_modules_it_uses(tmp_path, args, doc,
                                                     extra):
    """A child process pays for each module it loads, so a command
    loads the adjunction, surgery or cone module only when it uses it,
    and no record of the package loads dataclasses."""
    if doc is not None:
        args = args + ["--input", write_doc(tmp_path, doc)]
    proc = subprocess.run([sys.executable, "-c", MODULES_AFTER_RUN, *args],
                          capture_output=True, text=True, env=_child_env())
    code, *modules = proc.stderr.split()
    assert code == str(EXIT_OK), proc.stderr
    assert set(modules) == CORE_MODULES | {f"toricomplex.{m}" for m in extra}


# Every error class of the package, with the exit code the command line
# gives it; None: no verdict, the error escapes run.
EXIT_VERDICTS = {
    "InvalidInputError": EXIT_INVALID,
    "ClaimFailedError": EXIT_CLAIM,
    "InternalInvariantError": EXIT_INTERNAL,
    "NotPointedError": None,
    "InvalidFanError": EXIT_INVALID,
    "NotQCartierError": EXIT_INVALID,
    "InvalidPairError": EXIT_INVALID,
    "InvalidDecompositionError": EXIT_INVALID,
    "IncompatibleOrbifoldError": EXIT_INVALID,
    "NotLogCanonicalError": EXIT_CLAIM,
    "NotFullDimensionalError": EXIT_INVALID,
    "InputTooLargeError": EXIT_INVALID,
    "NotDivisorialCenterError": EXIT_INVALID,
    "LcViolationError": EXIT_CLAIM,
    "HypothesisViolationError": EXIT_CLAIM,
    "SurgeryMismatchError": EXIT_INVALID,
    "SurgeryPreconditionError": EXIT_CLAIM,
    "NotLcPlaceError": EXIT_CLAIM,
    "CrepancyError": EXIT_CLAIM,
    "NotAmpleError": EXIT_CLAIM,
    "NotInteriorError": EXIT_INVALID,
    "TorsionObstructionError": EXIT_CLAIM,
    "InvalidDocumentError": EXIT_INVALID,
}


def _package_errors():
    for name in ("adjunction", "birational", "conecox"):
        importlib.import_module(f"toricomplex.{name}")
    found, todo = [], [ToricomplexError]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("toricomplex."):
                found.append(cls)
                todo.append(cls)
    return found


def test_each_error_class_has_one_exit_verdict(capsys, monkeypatch):
    """An error's base class sets its exit code.  The table names every
    error class of the package, so a new one must be placed in it."""
    errors = _package_errors()
    verdicts = {}
    for cls in errors:
        bases = [code for base, code in (
            (InvalidInputError, EXIT_INVALID), (ClaimFailedError, EXIT_CLAIM),
            (InternalInvariantError, EXIT_INTERNAL)) if issubclass(cls, base)]
        assert len(bases) <= 1, cls
        verdicts[cls.__name__] = bases[0] if bases else None
    assert verdicts == EXIT_VERDICTS
    injected = [(cls.__new__(cls), verdicts[cls.__name__]) for cls in errors]
    injected += [(ValueError("x"), EXIT_INVALID),
                 (TypeError("x"), EXIT_INVALID), (KeyError("x"), EXIT_INVALID),
                 (OSError("x"), EXIT_IO),
                 (json.JSONDecodeError("x", "", 0), EXIT_IO),
                 (UnicodeDecodeError("utf-8", b"", 0, 1, "x"), EXIT_IO)]
    handlers = importlib.import_module("toricomplex.cli")._HANDLERS
    for exc, expected in injected:
        def fail(job, exc=exc):
            raise exc
        monkeypatch.setitem(handlers, "validate", fail)
        if expected is None:
            with pytest.raises(type(exc)):
                run(["validate"])
        else:
            assert run(["validate"]) == expected, type(exc).__name__
        assert capsys.readouterr().out == ""


def test_builtin_errors_after_the_document_is_built_exit_internal(
        capsys, monkeypatch):
    """A handler reads the document and returns its report step.
    ValueError, TypeError and KeyError from the report step are library
    faults (exit 4); package errors keep their verdicts there."""
    handlers = importlib.import_module("toricomplex.cli")._HANDLERS
    for exc, expected in [
            (ValueError("x"), EXIT_INTERNAL), (TypeError("x"), EXIT_INTERNAL),
            (KeyError("x"), EXIT_INTERNAL), (OSError("x"), EXIT_IO),
            (InvalidInputError("x"), EXIT_INVALID),
            (ClaimFailedError("x"), EXIT_CLAIM),
            (InternalInvariantError("x"), EXIT_INTERNAL)]:
        def report(exc=exc):
            raise exc
        monkeypatch.setitem(handlers, "validate", lambda job, r=report: r)
        assert run(["validate"]) == expected, type(exc).__name__
        captured = capsys.readouterr()
        assert captured.out == ""
        if expected == EXIT_INTERNAL:
            assert captured.err.startswith("toricomplex: internal error: ")
