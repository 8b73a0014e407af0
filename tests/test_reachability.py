"""Every top-level definition in ``src/repro`` is reached from an entry point.

A top-level ``def`` / ``class`` is *reached* when its name is loaded (an AST
``Name`` or ``Attribute``) by live code: the module-level code of
``src/repro``, anything under ``bench/``, ``benchmarks/`` or ``examples/``, or
the body of another reached definition.  The rule is applied to a fixed point,
so a helper that only an orphan calls is an orphan too.  Imports are not
loads, so a package ``__init__`` re-export keeps nothing alive.  Two kinds of
definition are exempt: those registered through a ``register_*`` decorator
(module-level ``register_*(Thing)`` calls are live code already) and
``typing.Protocol`` declarations.

The checkers (:data:`CHECKERS`: ``repro.analysis`` and the ``verify``
command) are swept like the rest, but what they load reaches only their
own definitions: verified code must be used code, so a production
definition that only the verifier calls is an orphan.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List

import pytest

ROOT = Path(__file__).resolve().parents[1]

# "module:name" -> one-line reason it stays unreached.  Keep it empty.
ALLOWED: dict = {}

#: Modules (``package/module``, and everything under a package) and
#: ``module:name`` definitions whose loads keep no production code alive.
CHECKERS = ("repro/analysis", "repro/cli:_verify")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loads(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def _name_of(expr: ast.AST) -> str:
    target = expr.func if isinstance(expr, ast.Call) else expr
    return getattr(target, "id", None) or getattr(target, "attr", "")


def _exempt(node: ast.AST) -> bool:
    if any(_name_of(dec).startswith("register") for dec in node.decorator_list):
        return True
    return isinstance(node, ast.ClassDef) and any(
        _name_of(base) == "Protocol" for base in node.bases
    )


def _is_checker(label: str, checkers: Iterable[str]) -> bool:
    return any(label == c or label.startswith((c + "/", c + ":")) for c in checkers)


def unreached(src: Path, roots: Iterable[Path], checkers: Iterable[str] = ()) -> List[str]:
    """``module:name`` of every top-level definition under ``src`` nothing live loads.

    A name loaded by ``checkers`` code (see :data:`CHECKERS`) reaches
    ``checkers`` definitions only."""
    # live[True]: loads by checker code; live[False]: by everything else.
    live, pending = {False: set(), True: set()}, {}
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).with_suffix("").as_posix()
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(stmt, _DEFS):
                live[_is_checker(module, checkers)] |= _loads(stmt)
                continue
            label = f"{module}:{stmt.name}"
            checker = _is_checker(label, checkers)
            if _exempt(stmt):
                live[checker] |= _loads(stmt) - {stmt.name}
            else:
                pending[label] = (stmt, checker)
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            live[False] |= _loads(ast.parse(path.read_text(), str(path)))
    changed = True
    while changed:
        changed = False
        for label, (stmt, checker) in list(pending.items()):
            if stmt.name in live[False] or (checker and stmt.name in live[True]):
                live[checker] |= _loads(stmt) - {stmt.name}
                del pending[label]
                changed = True
    return sorted(pending)


def test_every_src_definition_is_reached():
    roots = [ROOT / name for name in ("bench", "benchmarks", "examples")]
    orphans = [
        label for label in unreached(ROOT / "src", roots, CHECKERS) if label not in ALLOWED
    ]
    assert orphans == []


def test_sweep_reports_an_orphan_and_what_only_it_calls(tmp_path):
    src, examples = tmp_path / "src" / "pkg", tmp_path / "examples"
    src.mkdir(parents=True)
    examples.mkdir()
    (src / "__init__.py").write_text("from pkg.a import orphan\n__all__ = ['orphan']\n")
    (src / "a.py").write_text(
        "from typing import Protocol\n"
        "def used(): return _helper()\n"
        "def _helper(): return 1\n"
        "def orphan(): return _only_orphan_calls()\n"
        "def _only_orphan_calls(): return 2\n"
        "def recursive(n): return recursive(n - 1) if n else 0\n"
        "class Like(Protocol): ...\n"
        "@register_codec('x')\n"
        "class Codec: ...\n"
    )
    (examples / "main.py").write_text("from pkg.a import used\nused()\n")
    assert unreached(tmp_path / "src", [examples]) == [
        "pkg/a:_only_orphan_calls",
        "pkg/a:orphan",
        "pkg/a:recursive",
    ]


# One clause of the rule each: (src/pkg/a.py, root directory, root/main.py,
# what the sweep reports).  A root directory under ``src/pkg`` is swept as
# source, not passed as a root; ``pkg/check`` and ``pkg/a:_verify`` are the
# checkers.
RULE_CASES = {
    "loaded-from-bench": ("def f(): ...\n", "bench", "from pkg.a import f\nf()\n", []),
    "loaded-from-benchmarks": ("def f(): ...\n", "benchmarks", "from pkg.a import f\nf()\n", []),
    "loaded-from-examples": ("def f(): ...\n", "examples", "from pkg.a import f\nf()\n", []),
    "attribute-load-counts": ("def f(): ...\n", "examples", "import pkg.a\npkg.a.f()\n", []),
    "import-alone-is-no-load": ("def f(): ...\n", "examples", "from pkg.a import f\n", ["pkg/a:f"]),
    "store-is-no-load": ("def f(): ...\n", "examples", "f = 1\n", ["pkg/a:f"]),
    "module-level-src-code-is-live": ("def f(): ...\nTABLE = {'f': f}\n", "examples", "", []),
    "reached-body-reaches-callees": (
        "def f(): return g()\ndef g(): ...\n", "examples", "from pkg.a import f\nf()\n", []
    ),
    "unreached-body-reaches-nothing": (
        "def f(): return g()\ndef g(): ...\n", "examples", "", ["pkg/a:f", "pkg/a:g"]
    ),
    "self-reference-is-no-load": (
        "def f(n): return f(n - 1) if n else 0\n", "examples", "", ["pkg/a:f"]
    ),
    "class-method-calls-count": (
        "class C:\n    def run(self): return g()\ndef g(): ...\n",
        "examples",
        "from pkg.a import C\nC().run()\n",
        [],
    ),
    "register-decorator-is-exempt": (
        "@register_backend('x')\nclass B: ...\n", "examples", "", []
    ),
    "register-call-is-live-code": ("class B: ...\nregister_codec(B)\n", "examples", "", []),
    "exempt-body-reaches-callees": (
        "@register_codec('x')\ndef h(): return g()\ndef g(): ...\n", "examples", "", []
    ),
    "protocol-is-exempt": (
        "from typing import Protocol\nclass P(Protocol): ...\n", "examples", "", []
    ),
    "typing-dot-protocol-is-exempt": (
        "import typing\nclass P(typing.Protocol): ...\n", "examples", "", []
    ),
    "loaded-only-from-a-checker-package-is-reported": (
        "def f(): ...\n", "src/pkg/check", "from pkg.a import f\nf()\n", ["pkg/a:f"]
    ),
    "loaded-only-by-a-checker-definition-is-reported": (
        "def f(): ...\ndef _verify(): return f()\nCOMMANDS = [_verify]\n",
        "examples", "", ["pkg/a:f"],
    ),
    "checker-loads-reach-checker-definitions": (
        "def _verify(): return run()\nCOMMANDS = [_verify]\n",
        "src/pkg/check", "def run(): return _helper()\ndef _helper(): ...\n", [],
    ),
    "unreached-checker-definition-is-reported": (
        "def f(): ...\n", "src/pkg/check", "def orphan(): ...\n",
        ["pkg/a:f", "pkg/check/main:orphan"],
    ),
}


@pytest.mark.parametrize("case", RULE_CASES)
def test_sweep_rule(case, tmp_path):
    source, root_name, root_source, expected = RULE_CASES[case]
    src, root = tmp_path / "src" / "pkg", tmp_path / root_name
    root.mkdir(parents=True)
    src.mkdir(parents=True, exist_ok=True)
    (src / "__init__.py").write_text("from pkg.a import *\n")
    (src / "a.py").write_text(source)
    (root / "main.py").write_text(root_source)
    roots = [] if root_name.startswith("src/") else [root]
    assert unreached(tmp_path / "src", roots, ("pkg/check", "pkg/a:_verify")) == expected
