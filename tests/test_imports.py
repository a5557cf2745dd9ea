"""What each part of the package imports.

sympy stays behind the one fallback that needs it: polynomials._sympy_gcd,
the last resort of poly_gcd, is the only use of sympy in the package;
every other module runs on integer arithmetic alone, so a sympy import
anywhere else fails here.

Each CLI process loads only the modules its subcommand uses: the package
root exports its names lazily, and a cache hit replays stored bytes
without loading any math module, a corpus directory included.  Records
are NamedTuples or plain classes with __slots__, so no process imports
dataclasses, whose import (inspect, ast, dis, tokenize) and per-class code
generation cost a short command a noticeable share of its run time.
Records are also built only by their constructors, which check them.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arithdyn
from arithdyn.corpus import build_corpus, serialize_entry
from arithdyn.projmaps import RationalMapPN, write_map_spec

SRC = Path(__file__).resolve().parents[1] / "src" / "arithdyn"


def _importers(package):
    """The modules of src/arithdyn that import package or a submodule."""
    def imports(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(n == package or n.startswith(package + ".")
                   for n in names):
                return True
        return False
    return sorted(path.name for path in SRC.glob("*.py")
                  if imports(ast.parse(path.read_text())))


def test_only_polynomials_imports_sympy():
    assert _importers("sympy") == ["polynomials.py"]


def test_no_module_imports_dataclasses():
    assert _importers("dataclasses") == []


def _referrers(name):
    """The modules of src/arithdyn whose code refers to name: as a loaded
    or stored name, an attribute or an imported name, not in a string."""
    def refers(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == name or \
                    isinstance(node, ast.Attribute) and node.attr == name or \
                    isinstance(node, ast.alias) and \
                    node.name.rpartition(".")[2] == name:
                return True
        return False
    return sorted(path.name for path in SRC.glob("*.py")
                  if refers(ast.parse(path.read_text())))


@pytest.mark.parametrize("name", ["_CERT_PRIME", "fp_gcd"])
def test_only_polynomials_computes_modulo_the_certificate_prime(name):
    assert _referrers(name) == ["polynomials.py"]


def test_records_are_built_by_their_constructors():
    """No module makes an object with object.__new__, which would skip the
    checks of its class's __init__ (errors.Record subclasses check their
    input)."""
    bypasses = [f"{path.name}:{node.lineno}"
                for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"]
    assert bypasses == []


# --- the package root's public names ----------------------------------------

# every name the package root exported when it imported each module eagerly,
# by defining module
EXPORTS = {
    "errors": ["ArithDynError", "ConeNotPreserved", "ContractViolation",
               "DegreeMismatch", "IndeterminatePoint", "NonMorphism",
               "NotAPoint", "NotOnTorus", "ResourceCapExceeded"],
    "polynomials": ["MultiPoly", "format_poly", "parse_poly", "poly_compose",
                    "poly_content", "poly_gcd", "poly_mul",
                    "poly_primitive_part"],
    "heights": ["HeightSequence", "HeightValue", "ProjPointQ",
                "format_point", "heights_from_values", "normalize",
                "parse_point", "weil_height"],
    "projmaps": ["DegreeSequence", "DynDegEstimate", "OrbitRecord",
                 "RationalMapPN", "compose_normalized", "degree_sequence",
                 "dyndeg_estimate", "map_evaluate", "orbit", "parse_map_spec",
                 "serialize_map_spec", "sylvester_resultant"],
    "monomial": ["FactoredTorusPoint", "MonomialMap", "factor_point",
                 "mon_dyndeg", "monomial_arithdeg", "monomial_step",
                 "monomial_to_projective", "reconstruct", "torus_height"],
    "spectral": ["IntMat", "SpectralEstimate", "birkhoff_cone_eigvec",
                 "char_poly", "parse_matrix", "power_norms",
                 "spectral_radius", "submult_check", "supnorm"],
    "degrees": ["ArithDegreeEstimate", "CanonicalHeightResult",
                "CanHtChecks", "CountingReport", "GrowthFit",
                "InequalityReport", "PreperiodicReport",
                "arithdeg_estimate", "canht_functional_checks",
                "canonical_height", "counting_function",
                "fundamental_inequality_check", "growth_fit",
                "growth_profile_nondiverging", "heights_from_orbit",
                "p1_height_walk", "p1_step_constant", "preperiodic_detect",
                "recursion_bound_check"],
}
EXPORTED = [(mod, name) for mod, names in EXPORTS.items() for name in names]


def test_package_exports_exactly_the_pinned_names():
    assert sorted(arithdyn.__all__) == sorted(name for _, name in EXPORTED)
    assert arithdyn.__version__ == "0.1.0"


@pytest.mark.parametrize("mod, name", EXPORTED,
                         ids=[name for _, name in EXPORTED])
def test_exported_name_is_the_defining_modules_object(mod, name):
    scope = {}
    exec(f"from arithdyn import {name}", scope)
    home = importlib.import_module("arithdyn." + mod)
    assert scope[name] is getattr(home, name)
    assert name in dir(arithdyn)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        arithdyn.no_such_name
    with pytest.raises(ImportError):
        exec("from arithdyn import no_such_name", {})


# --- modules loaded by each CLI process -------------------------------------

ROOT_ONLY = {"arithdyn", "arithdyn.cli", "arithdyn.errors"}
HEAVY = {"arithdyn.projmaps", "arithdyn.degrees", "arithdyn.monomial",
         "arithdyn.corpus", "arithdyn.campaign"}


@pytest.fixture(scope="module")
def square_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "square.json"
    write_map_spec(RationalMapPN.from_strings(["x^2", "y^2"], ["x", "y"]),
                   path)
    return str(path)


def cli_imports(*argv):
    """Every module that ``python -m arithdyn ARGV`` imports, read from the
    interpreter's own -X importtime report."""
    path = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.pop("ARITHDYN_CACHE_DIR", None)
    run = subprocess.run([sys.executable, "-X", "importtime", "-m",
                          "arithdyn", *argv], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return set(re.findall(r"^import time:.*\|\s*([\w.]+)\s*$", run.stderr,
                          re.MULTILINE))


def cli_modules(*argv):
    """The arithdyn modules that ``python -m arithdyn ARGV`` imports."""
    return {m for m in cli_imports(*argv)
            if m == "arithdyn" or m.startswith("arithdyn.")}


def test_spectral_loads_no_map_module():
    loaded = cli_modules("spectral", "--matrix", "2,1;1,1")
    assert "arithdyn.spectral" in loaded
    assert not loaded & HEAVY
    assert "arithdyn.polynomials" not in loaded


@pytest.mark.parametrize("argv", [
    ["orbit", "--point", "2,1", "--n", "4"],
    ["dyndeg", "--n", "4"],
], ids=["orbit", "dyndeg"])
def test_projective_commands_skip_degrees_and_campaign(argv, square_spec):
    loaded = cli_modules(argv[0], "--map", square_spec, *argv[1:])
    assert "arithdyn.projmaps" in loaded
    assert not loaded & {"arithdyn.degrees", "arithdyn.campaign"}


@pytest.mark.parametrize("argv", [
    ["arithdeg", "--point", "2,1", "--n", "4"],
    ["count", "--point", "2,1", "--n", "4", "--B", "5"],
], ids=["arithdeg", "count"])
def test_height_commands_skip_campaign(argv, square_spec):
    loaded = cli_modules(argv[0], "--map", square_spec, *argv[1:])
    assert "arithdyn.degrees" in loaded
    assert "arithdyn.campaign" not in loaded


def test_corpus_cache_hit_loads_no_math_module(tmp_path):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    (corpus_dir / "00_square.json").write_text(
        json.dumps(serialize_entry(build_corpus()[0])))
    argv = ["campaign", "--corpus", str(corpus_dir),
            "--cache-dir", str(tmp_path / "cache")]
    assert "arithdyn.campaign" in cli_modules(*argv)   # the miss runs it
    # the hit lists the directory to key the cache, and nothing more
    assert cli_modules(*argv) == ROOT_ONLY | {"arithdyn.corpus"}


def test_cache_hit_and_version_load_no_math_module(square_spec, tmp_path):
    argv = ["canht", "--map", square_spec, "--point", "2,1", "--beta", "2",
            "--cache-dir", str(tmp_path)]
    assert "arithdyn.degrees" in cli_modules(*argv)    # the miss runs it
    assert cli_modules(*argv) == ROOT_ONLY
    assert cli_modules("--version") == ROOT_ONLY


# one command line per subcommand, plus --version
FOOTPRINT_ARGV = {
    "orbit": ["orbit", "--map", "SQUARE", "--point", "2,1", "--n", "4"],
    "dyndeg": ["dyndeg", "--map", "SQUARE", "--n", "4"],
    "arithdeg": ["arithdeg", "--map", "SQUARE", "--point", "2,1", "--n", "4"],
    "canht": ["canht", "--map", "SQUARE", "--point", "2,1", "--beta", "2",
              "--certified"],
    "count": ["count", "--map", "SQUARE", "--point", "2,1", "--n", "4",
              "--B", "5"],
    "spectral": ["spectral", "--matrix", "2,1;1,1"],
    "campaign": ["campaign"],
    "version": ["--version"],
}


@pytest.mark.parametrize("name", [*FOOTPRINT_ARGV, "cache-hit"])
def test_no_command_imports_dataclasses_or_inspect(name, square_spec,
                                                   tmp_path):
    if name == "cache-hit":
        argv = FOOTPRINT_ARGV["canht"] + ["--cache-dir", str(tmp_path)]
        cli_imports(*[square_spec if a == "SQUARE" else a for a in argv])
    else:
        argv = FOOTPRINT_ARGV[name]
    loaded = cli_imports(*[square_spec if a == "SQUARE" else a for a in argv])
    assert "arithdyn.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


# --- every definition in the package has a caller ---------------------------

REPO = SRC.parents[1]


def _identifiers(tree):
    """The names an AST refers to: loaded and stored names, attributes,
    imported names, and string constants that are dotted identifiers (the
    tracer targets name their functions in strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)):
            out.update(node.value.split("."))
    return out


def uncalled_definitions(src, perfbench, readme):
    """Module-level functions and classes of src/arithdyn, dunders aside,
    that nothing reaches: no other statement of src names them, the
    package does not export them, perfbench does not name them and the
    README does not document them as arithdyn.<module>.<name>."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    named = [(mod, stmt, _identifiers(stmt))
             for mod, tree in trees.items() for stmt in tree.body]
    used = set(arithdyn.__all__)
    for path in perfbench.glob("*.py"):
        used |= _identifiers(ast.parse(path.read_text()))
    used |= {name for _, name in
             re.findall(r"arithdyn\.(\w+)\.(\w+)", readme.read_text())}
    orphans = []
    for mod, stmt, _ in named:
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = stmt.name
        if name.startswith("__") or name in used:
            continue
        if not any(name in ids for _, other, ids in named
                   if other is not stmt):
            orphans.append(f"{mod}.{name}")
    return orphans


def test_src_holds_no_uncalled_code():
    assert uncalled_definitions(SRC, REPO / "perfbench",
                                REPO / "README.md") == []
