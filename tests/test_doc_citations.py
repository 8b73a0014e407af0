"""The documents cite only files that exist.

Every ``benchmarks/``, ``bench/``, ``tests/``, ``examples/`` and ``src/`` path
(and the dotted module form, ``benchmarks.bench_x``) and every
``BENCH_*.json`` name cited in ``README.md``, the verify skill or a docstring
under ``src/repro`` must name a file or directory of the repository.  A
deleted script then takes its citations with it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]

_TOPS = r"(?:benchmarks|bench|tests|examples|src)"
_PATH = re.compile(rf"(?<![\w./-]){_TOPS}/[\w./*-]*")
_MODULE = re.compile(rf"(?<![\w./-]){_TOPS}\.\w[\w.]*\w")
_RESULT = re.compile(r"\bBENCH_\w+\.json")


def _docstrings(path: Path) -> str:
    tree = ast.parse(path.read_text(), str(path))
    nodes = [tree] + [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return "\n".join(filter(None, (ast.get_docstring(node, clean=False) for node in nodes)))


def _documents() -> Dict[str, str]:
    docs = {name: (ROOT / name).read_text() for name in ("README.md", ".claude/skills/verify/SKILL.md")}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        docs[path.relative_to(ROOT).as_posix()] = _docstrings(path)
    return docs


def citations(text: str) -> List[str]:
    """Repository paths ``text`` cites, each as a path or glob from the root."""
    cited = [match.rstrip(".") for match in _PATH.findall(text) + _RESULT.findall(text)]
    cited += [match.replace(".", "/") + "*" for match in _MODULE.findall(text)]
    return cited


def _exists(cited: str) -> bool:
    return any(ROOT.glob(cited)) if "*" in cited else (ROOT / cited).exists()


def test_documents_cite_only_existing_files():
    missing = {
        document: [c for c in citations(text) if not _exists(c)]
        for document, text in _documents().items()
    }
    assert {document: cited for document, cited in missing.items() if cited} == {}


def test_citation_forms():
    text = (
        "Run `python bench/run.py --check` and tests/test_simtime.py::TestSkew; "
        "see :mod:`benchmarks.bench_observability`, the tests/test_*.py files, "
        "examples/. and BENCH_sharded.json (not prose: bench. and mybench/x)."
    )
    assert citations(text) == [
        "bench/run.py",
        "tests/test_simtime.py",
        "tests/test_*.py",
        "examples/",
        "BENCH_sharded.json",
        "benchmarks/bench_observability*",
    ]
