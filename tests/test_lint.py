"""Repo lint rules: each fires on a synthetic snippet, and src/ is clean."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths, lint_source


def _lint(snippet: str, path: str) -> list:
    return lint_source(textwrap.dedent(snippet), path)


# ---------------------------------------------------------------------------
# literal-tag
# ---------------------------------------------------------------------------
def test_literal_tag_fires_on_raw_constants():
    findings = _lint(
        """
        def f(comm):
            comm.send(x, 1, tag=12345)
            comm.recv(source=0, tag=99)
            comm.recv_into(out, 0, 4242)
        """,
        "src/repro/collectives/thing.py",
    )
    assert [f.rule for f in findings] == ["literal-tag"] * 3


def test_literal_tag_allows_defaults_and_minted_tags():
    findings = _lint(
        """
        def f(comm):
            comm.send(x, 1, tag=0)
            comm.recv(source=0, tag=-1)
            comm.send(x, 1, tag=tags.sync_tag(0, 1, 2))
            comm.probe(0, some_tag)
        """,
        "src/repro/collectives/thing.py",
    )
    assert findings == []


def test_literal_tag_checks_positional_arguments():
    findings = _lint(
        "def f(comm):\n    comm.send(x, 1, 777)\n",
        "src/repro/collectives/thing.py",
    )
    assert [f.rule for f in findings] == ["literal-tag"]


def test_literal_tag_exempts_the_tag_table_itself():
    findings = _lint(
        "def f(comm):\n    comm.send(x, 1, tag=777)\n",
        "src/repro/comm/tags.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# shm-unlink
# ---------------------------------------------------------------------------
def test_shm_create_without_unlink_fires():
    findings = _lint(
        """
        def make():
            return SharedMemory(name="x", create=True, size=64)
        """,
        "src/repro/comm/somewhere.py",
    )
    assert [f.rule for f in findings] == ["shm-unlink"]


def test_shm_create_with_unlink_passes():
    findings = _lint(
        """
        def make():
            return SharedMemory(name="x", create=True, size=64)

        def cleanup(seg):
            seg.unlink()
        """,
        "src/repro/comm/somewhere.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# pickle-ndarray
# ---------------------------------------------------------------------------
#: Every module that frames payloads today (the rule must cover them all).
_TRANSPORT_MODULES = sorted(
    str(p) for p in (Path(__file__).parent.parent / "src/repro/comm").glob("*_backend.py")
)


def test_transport_modules_found():
    assert any(p.endswith("process_backend.py") for p in _TRANSPORT_MODULES)


@pytest.mark.parametrize("path", _TRANSPORT_MODULES, ids=lambda p: Path(p).name)
def test_pickle_of_arrayish_name_fires_in_transports(path):
    findings = _lint(
        """
        def pack(payload):
            return pickle.dumps(payload)
        """,
        path,
    )
    assert [f.rule for f in findings] == ["pickle-ndarray"]


def test_pickle_rule_skips_the_backend_registry():
    findings = _lint(
        "def pack(payload):\n    return pickle.dumps(payload)\n",
        "src/repro/comm/backend.py",
    )
    assert findings == []


def test_pickle_with_ndarray_dispatch_passes():
    findings = _lint(
        """
        def pack(payload):
            if isinstance(payload, np.ndarray):
                return frame(payload)
            return pickle.dumps(payload)
        """,
        "src/repro/comm/process_backend.py",
    )
    assert findings == []


def test_pickle_rule_is_scoped_to_transports():
    findings = _lint(
        "def pack(payload):\n    return pickle.dumps(payload)\n",
        "src/repro/training/runner.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# silent-array-copy
# ---------------------------------------------------------------------------
def test_np_array_without_copy_fires_in_hot_paths():
    findings = _lint(
        "def f(x):\n    return np.array(x)\n",
        "src/repro/collectives/sync.py",
    )
    assert [f.rule for f in findings] == ["silent-array-copy"]


def test_np_array_literal_and_explicit_copy_pass():
    findings = _lint(
        """
        def f(x):
            a = np.array([1.0, 2.0])
            b = np.array((x, x))
            c = np.array(x, copy=True)
            d = np.asarray(x)
            return a, b, c, d
        """,
        "src/repro/collectives/sync.py",
    )
    assert findings == []


def test_np_array_rule_scoped_to_hot_packages():
    findings = _lint(
        "def f(x):\n    return np.array(x)\n",
        "src/repro/experiments/fig9.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# valueerror-no-value
# ---------------------------------------------------------------------------
def test_constant_valueerror_fires():
    findings = _lint(
        """
        def f(x):
            if x < 0:
                raise ValueError("x must be >= 0")
        """,
        "src/repro/collectives/sync.py",
    )
    assert [f.rule for f in findings] == ["valueerror-no-value"]


def test_interpolated_valueerror_passes():
    findings = _lint(
        """
        def f(x):
            if x < 0:
                raise ValueError(f"x must be >= 0, got {x}")
            if x > 9:
                raise ValueError("too big: %r" % x)
        """,
        "src/repro/collectives/sync.py",
    )
    assert findings == []


def test_valueerror_rule_scoped_out_of_experiments():
    findings = _lint(
        'def f():\n    raise ValueError("nope")\n',
        "src/repro/experiments/fig9.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# time-time
# ---------------------------------------------------------------------------
def test_time_time_fires_in_timing_sensitive_packages():
    findings = _lint(
        """
        import time
        def f():
            start = time.time()
            return time.time() - start
        """,
        "src/repro/serving/thing.py",
    )
    assert [f.rule for f in findings] == ["time-time", "time-time"]


def test_monotonic_clocks_pass():
    findings = _lint(
        """
        import time
        def f():
            a = time.perf_counter()
            b = time.perf_counter_ns()
            time.sleep(0.01)
            return a, b, time.monotonic()
        """,
        "src/repro/comm/thing.py",
    )
    assert findings == []


def test_time_time_rule_scoped_out_of_experiments():
    findings = _lint(
        "import time\ndef f():\n    return time.time()\n",
        "src/repro/experiments/fig9.py",
    )
    assert findings == []


# ---------------------------------------------------------------------------
# param-rebind
# ---------------------------------------------------------------------------
def test_rebinding_a_parameter_array_fires_in_step_packages():
    findings = _lint(
        """
        def backward(layer, g, w):
            layer.W.grad = g
            layer.b.data: object = w
            other, layer.W.data = 1, w
        """,
        "src/repro/nn/layers/thing.py",
    )
    assert [f.rule for f in findings] == ["param-rebind"] * 3
    assert [f.line for f in findings] == [3, 4, 5]


def test_writing_through_the_view_and_own_attributes_pass():
    findings = _lint(
        """
        class Holder:
            def __init__(self, data):
                self.data = data
                self.grad = None
        def backward(layer, g):
            layer.W.grad[...] = g
            layer.W.grad += g
            layer.W.grad[0] = 1.0
            data = layer.W.data
            return data
        """,
        "src/repro/training/thing.py",
    )
    assert findings == []


@pytest.mark.parametrize("path", [
    "src/repro/nn/module.py", "src/repro/nn/parameters.py", "src/repro/experiments/fig9.py",
])
def test_param_rebind_exempts_the_arena_s_owners_and_other_packages(path):
    assert _lint("def f(p, v):\n    p.data = v\n", path) == []


# ---------------------------------------------------------------------------
# the repo itself is clean
# ---------------------------------------------------------------------------
def test_src_tree_lints_clean():
    src = Path(__file__).resolve().parent.parent / "src"
    if not src.is_dir():
        pytest.skip("src/ layout not present")
    findings = lint_paths([str(src)])
    assert findings == [], [str(f) for f in findings]
