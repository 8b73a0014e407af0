"""Repo-specific AST lint: rules a generic linter cannot know.

Each rule encodes an invariant of *this* codebase — conventions whose
violation has already caused (or would cause) a real bug, but which look
like perfectly ordinary Python to flake8-style tools:

``literal-tag``
    No integer-literal tags to ``send``/``recv``-family calls outside
    :mod:`repro.comm.tags`.  Raw tag constants are how two subsystems end
    up colliding in the same tag range; every reserved tag must be minted
    through the layout helpers.  Literal ``0`` (the default/user tag) and
    ``-1`` (``ANY_TAG``) are allowed.

``shm-unlink``
    A module that creates POSIX shared memory
    (``SharedMemory(..., create=True)``) must also call ``.unlink()``
    somewhere: segments outlive the process and leak in ``/dev/shm``
    otherwise.

``pickle-ndarray``
    In the framing transports, ``pickle.dumps`` of an array-ish value
    (``payload``, ``buf``, ``grad``, ...) is only allowed in functions
    that dispatch on ``isinstance(x, np.ndarray)`` first — arrays must
    take the zero-copy framed path, not the pickle path (a pickled array
    is a silent 3-5x slowdown that still works, the worst kind of bug).

``silent-array-copy``
    In hot-path packages, ``np.array(x)`` without an explicit ``copy=``
    argument silently duplicates ``x`` when it is already an ndarray.
    Write ``np.asarray(x)`` (no copy) or ``np.array(x, copy=True)``
    (copy on purpose).  Display literals (``np.array([1, 2])``) cannot
    alias an existing array and are exempt.

``valueerror-no-value``
    A ``raise ValueError(...)`` (in any package) whose message is a
    plain constant cannot name the offending value; interpolate the
    value (f-string, format, concatenation) so the error is actionable
    at a P=512 deployment, not just in a unit test.

``time-time``
    No ``time.time()`` in the timing-sensitive packages (comm,
    collectives, training, serving).  Wall clocks step and smear under
    NTP, which shears interval measurements and trace timestamps; use
    ``time.perf_counter()`` / ``time.perf_counter_ns()``
    (``CLOCK_MONOTONIC``) for intervals, as the flight recorder does.

``param-rebind``
    In the step-path packages (nn, training, serving, compression), no
    assignment to a ``.data`` / ``.grad`` of anything but ``self``: those
    arrays are views of the model's flat arena (:mod:`repro.nn.parameters`),
    ``param.grad = g`` detaches one, and the next ``flatten_*`` re-adopts
    with a model-sized copy.  Write ``param.grad[...] = g`` (or ``+=``).

Entry point: ``python -m repro lint [paths...]`` (see :mod:`repro.cli`);
:func:`lint_paths` is the API.  Scope control lives in
:data:`RULE_SCOPES` — rules apply only where their invariant holds, so a
clean run means something.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

#: send/recv-family method names whose ``tag`` argument is checked.
_TAGGED_CALLS = frozenset({
    "send", "recv", "recv_message", "recv_into", "poll",
})
#: ``tag`` positional index per callable (after ``self``): send(payload,
#: dest, tag), recv(source, tag), recv_into(out, source, tag), ...
_TAG_POSITION = {
    "send": 2, "recv_into": 2,
    "recv": 1, "recv_message": 1, "poll": 1,
}
#: Tag literals that are always fine: default user tag and ANY_TAG.
_ALLOWED_TAG_LITERALS = frozenset({0, -1})

#: Variable names treated as "probably an ndarray" by ``pickle-ndarray``.
_ARRAYISH_NAMES = frozenset({
    "payload", "data", "arr", "array", "grad", "gradient", "buf", "buffer",
})


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _call_name(node: ast.Call) -> Optional[str]:
    """Trailing attribute/function name of a call, e.g. ``comm.send`` -> ``send``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _is_int_literal(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) is int
    ):
        return -node.operand.value
    return None


def _enclosing_functions(tree: ast.AST) -> List[ast.AST]:
    return [
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


# ---------------------------------------------------------------------------
# rules
# ---------------------------------------------------------------------------
def rule_literal_tag(path: str, tree: ast.AST, source: str) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name not in _TAGGED_CALLS:
            continue
        tag_arg: Optional[ast.AST] = None
        for kw in node.keywords:
            if kw.arg == "tag":
                tag_arg = kw.value
        if tag_arg is None:
            pos = _TAG_POSITION[name]
            if len(node.args) > pos:
                tag_arg = node.args[pos]
        if tag_arg is None:
            continue
        value = _is_int_literal(tag_arg)
        if value is not None and value not in _ALLOWED_TAG_LITERALS:
            findings.append(LintFinding(
                path, tag_arg.lineno, "literal-tag",
                f"literal tag {value} passed to {name}(); mint reserved tags "
                f"through repro.comm.tags helpers so ranges stay disjoint",
            ))
    return findings


def rule_shm_unlink(path: str, tree: ast.AST, source: str) -> List[LintFinding]:
    creates: List[ast.Call] = []
    has_unlink = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name == "SharedMemory" and any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            ):
                creates.append(node)
            elif name == "unlink":
                has_unlink = True
    if creates and not has_unlink:
        return [LintFinding(
            path, creates[0].lineno, "shm-unlink",
            "SharedMemory(create=True) without any .unlink() call in this "
            "module: the segment leaks in /dev/shm after the process exits",
        )]
    return []


def rule_pickle_ndarray(path: str, tree: ast.AST, source: str) -> List[LintFinding]:
    findings: List[LintFinding] = []

    def has_ndarray_dispatch(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and _call_name(node) == "isinstance"
                and len(node.args) == 2
            ):
                target = node.args[1]
                names = [target] + (
                    list(target.elts) if isinstance(target, ast.Tuple) else []
                )
                for cand in names:
                    if isinstance(cand, ast.Attribute) and cand.attr == "ndarray":
                        return True
        return False

    for fn in _enclosing_functions(tree):
        guarded = has_ndarray_dispatch(fn)
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and _call_name(node) == "dumps"):
                continue
            if not (
                isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "pickle"
            ):
                continue
            for arg in node.args[:1]:
                argname = None
                if isinstance(arg, ast.Name):
                    argname = arg.id
                elif isinstance(arg, ast.Attribute):
                    argname = arg.attr
                if argname in _ARRAYISH_NAMES and not guarded:
                    findings.append(LintFinding(
                        path, node.lineno, "pickle-ndarray",
                        f"pickle.dumps({argname}) in a framing transport "
                        f"without an isinstance(..., np.ndarray) dispatch: "
                        f"arrays must take the zero-copy framed path",
                    ))
    return findings


def rule_silent_array_copy(path: str, tree: ast.AST, source: str) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "array"
            and isinstance(func.value, ast.Name)
            and func.value.id == "np"
        ):
            continue
        if any(kw.arg == "copy" for kw in node.keywords):
            continue
        # A display literal cannot alias an existing array: np.array([...])
        # always allocates and is the idiomatic constructor.
        if node.args and isinstance(node.args[0], (ast.List, ast.Tuple)):
            continue
        findings.append(LintFinding(
            path, node.lineno, "silent-array-copy",
            "np.array(x) without copy= silently duplicates ndarray input in "
            "a hot path; use np.asarray(x) or state copy= explicitly",
        ))
    return findings


def rule_time_time(path: str, tree: ast.AST, source: str) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id == "time"
        ):
            findings.append(LintFinding(
                path, node.lineno, "time-time",
                "time.time() is a steppable wall clock; use "
                "time.perf_counter() / perf_counter_ns() for intervals "
                "and trace timestamps",
            ))
    return findings


def rule_param_rebind(path: str, tree: ast.AST, source: str) -> List[LintFinding]:
    findings: List[LintFinding] = []
    # ``x.grad += g`` stores to the attribute too, but the same object.
    in_place = {id(n.target) for n in ast.walk(tree) if isinstance(n, ast.AugAssign)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and id(node) not in in_place
            and node.attr in ("data", "grad")
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            findings.append(LintFinding(
                path, node.lineno, "param-rebind",
                f"rebinding .{node.attr} detaches the parameter from its model's flat "
                f"arena (a model-sized copy at the next flatten); write x.{node.attr}[...] = ...",
            ))
    return findings


def rule_valueerror_no_value(path: str, tree: ast.AST, source: str) -> List[LintFinding]:
    findings: List[LintFinding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if not (
            isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name)
            and exc.func.id == "ValueError"
            and len(exc.args) == 1
        ):
            continue
        msg = exc.args[0]
        constant_str = (
            isinstance(msg, ast.Constant) and isinstance(msg.value, str)
        )
        # Adjacent-literal concatenation parses as a single Constant, so
        # plain strings are the only shape flagged; any JoinedStr
        # (f-string), BinOp (% / +) or .format() call interpolates.
        if constant_str:
            findings.append(LintFinding(
                path, exc.lineno, "valueerror-no-value",
                "ValueError message is a plain constant; interpolate the "
                "offending value so the error is actionable in production",
            ))
    return findings


# ---------------------------------------------------------------------------
# scoping: where each rule's invariant actually holds
# ---------------------------------------------------------------------------
Rule = Callable[[str, ast.AST, str], List[LintFinding]]


def _in_packages(*packages: str) -> Callable[[str], bool]:
    def predicate(relpath: str) -> bool:
        parts = Path(relpath).parts
        return any(pkg in parts for pkg in packages)
    return predicate


def _is_transport(relpath: str) -> bool:
    """Any ``*_backend.py``: the modules that frame payloads onto a wire
    (``comm/backend.py``, the registry, is not one)."""
    return Path(relpath).name.endswith("_backend.py")


#: rule -> (callable, file predicate).  ``repro/comm/tags.py`` is the one
#: place allowed to spell raw tag arithmetic, the schedule verifier's
#: seeded mutants *deliberately* mint rogue tags (that is what they test),
#: and test/demo trees are out of scope entirely (lint_paths only walks
#: what it is given).
RULE_SCOPES: Tuple[Tuple[str, Rule, Callable[[str], bool]], ...] = (
    ("literal-tag", rule_literal_tag,
     lambda p: Path(p).name not in ("tags.py", "schedule_verifier.py")),
    ("shm-unlink", rule_shm_unlink, lambda p: True),
    ("pickle-ndarray", rule_pickle_ndarray, _is_transport),
    ("silent-array-copy", rule_silent_array_copy,
     _in_packages("comm", "collectives", "training", "compression")),
    ("valueerror-no-value", rule_valueerror_no_value, lambda p: True),
    ("time-time", rule_time_time,
     _in_packages("comm", "collectives", "training", "serving")),
    # nn/module.py and nn/parameters.py own the arrays and the arena.
    ("param-rebind", rule_param_rebind,
     lambda p: _in_packages("nn", "training", "serving", "compression")(p)
     and Path(p).name not in ("module.py", "parameters.py")),
)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one unit of Python source with every applicable rule."""
    tree = ast.parse(source, filename=path)
    findings: List[LintFinding] = []
    for _name, rule, applies in RULE_SCOPES:
        if applies(path):
            findings.extend(rule(path, tree, source))
    return findings


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def lint_paths(paths: Sequence[str]) -> List[LintFinding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[LintFinding] = []
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(LintFinding(
                str(file), 0, "unreadable", f"cannot lint: {exc}"
            ))
            continue
        try:
            findings.extend(lint_source(source, str(file)))
        except SyntaxError as exc:
            findings.append(LintFinding(
                str(file), exc.lineno or 0, "syntax-error", str(exc.msg)
            ))
    return findings
