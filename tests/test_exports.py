"""The public name list of the tcc package, and the functions the bench trace wraps."""

import ast
import importlib
import inspect
from pathlib import Path

import tcc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SRC = Path(tcc.__file__).resolve().parent


def test_all_names_resolve_once():
    assert len(tcc.__all__) == len(set(tcc.__all__))
    missing = [name for name in tcc.__all__ if not hasattr(tcc, name)]
    assert missing == []


def test_eigenbasis_stays_out_of_the_package_namespace():
    # spectrum prints D from its closed form; the explicit eigenbasis is a test oracle.
    eigenbasis = {"DefectiveMatrixError", "Diagonalization", "diagonalize"}
    assert eigenbasis.isdisjoint(tcc.__all__)
    assert not any(hasattr(tcc, name) for name in eigenbasis)
    assert len(tcc.__all__) == 25


def test_one_solve_entry_for_every_matrix():
    # centralizer_code recognises x*J + y*I itself; no second, comb-only solver is exported.
    assert "comb_centralizer" not in tcc.__all__
    assert not hasattr(tcc, "comb_centralizer")
    assert not hasattr(tcc.centralizer, "comb_centralizer")


def test_comb_batch_stays_a_module_name():
    # verify hands its (x, y, a) triples to centralizer.comb_codes; the spec batch is gone.
    assert not hasattr(tcc.centralizer, "centralizer_codes")
    assert not hasattr(tcc, "centralizer_codes")
    assert "comb_codes" not in tcc.__all__
    assert inspect.isfunction(tcc.centralizer.comb_codes)
    assert len(tcc.__all__) == 25


def test_a_solve_returns_the_code_itself():
    # centralizer_code returns the checked LinearCode; no wrapper type holds it, and the
    # names no command reaches stay names of their modules only.
    gone = {
        "CentralizerBasis", "code_from_basis", "inverse", "SingularMatrixError", "kronecker", "is_member",
        "FieldMismatchError",
    }
    assert gone.isdisjoint(tcc.__all__)
    assert not any(hasattr(tcc, name) for name in gone)
    assert not hasattr(tcc.centralizer, "CentralizerBasis")
    assert tcc.centralizer.centralizer_code.__annotations__["return"] is tcc.LinearCode


def test_per_word_api_stays_out_of_the_package_namespace():
    per_word = {"AMBIGUOUS", "DecodeResult", "UNIQUE", "decode_nearest", "encode", "inject_errors"}
    assert per_word.isdisjoint(tcc.__all__)
    assert not any(hasattr(tcc, name) for name in per_word | {"Vector"})


def test_matrix_is_a_value_with_no_arithmetic():
    # Products and shifts run on .array with matmul_mod; a Matrix validates, compares, hashes and prints.
    arithmetic = {
        "zeros", "identity", "T", "__getitem__",
        "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__matmul__",
    }
    assert not any(hasattr(tcc.Matrix, name) for name in arithmetic)
    # TwistSpec equality and hashing rest on __eq__ and __hash__; the brute-force oracles put matrices in sets.
    value = {
        "__init__", "prime", "array", "rows", "cols", "shape", "is_square",
        "__repr__", "__str__", "__eq__", "__hash__",
    }
    assert value <= set(vars(tcc.Matrix))
    assert len(tcc.__all__) == 25


def test_every_public_name_has_a_caller_in_src():
    # A name loaded nowhere in src/ but its own definition and __init__.py serves no CLI path.
    sources = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py") if path.name != "__init__.py"}
    unused = []
    for name in tcc.__all__:
        home = sources[getattr(tcc, name).__module__.rsplit(".", 1)[1]]
        own = next(
            node for node in home.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        )
        inside = {id(node) for node in ast.walk(own)}
        if not any(
            isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
            and id(node) not in inside
            for tree in sources.values()
            for node in ast.walk(tree)
        ):
            unused.append(name)
    assert unused == []


def _wrapped() -> dict[str, tuple[str, ...]]:
    """WRAPPED from bench/tracing.py, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPPED":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACING}")


def test_every_traced_name_is_a_function_of_its_layer():
    # The trace refuses to install when one of these is gone, so `--trace 1` would fail.
    wrapped = _wrapped()
    assert wrapped
    missing = [
        f"tcc.{layer}.{name}"
        for layer, names in wrapped.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"tcc.{layer}"), name, None))
    ]
    assert missing == []
