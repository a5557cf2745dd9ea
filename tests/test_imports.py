"""sympy stays behind the one fallback that needs it.

polynomials._sympy_gcd, the last resort of poly_gcd, is the only use of
sympy in the package; every other module runs on integer arithmetic
alone, so a sympy import anywhere else fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arithdyn"


def _imports_sympy(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            return True
    return False


def test_only_polynomials_imports_sympy():
    users = sorted(path.name for path in SRC.glob("*.py")
                   if _imports_sympy(ast.parse(path.read_text())))
    assert users == ["polynomials.py"]
