"""The per-iteration modules call numpy's C-level forms, without its wrappers.

At the benchmark sizes (n = 8 to 128) an iteration is bound by the cost
of each numpy call, not by flops, and np.max, np.linalg.norm, np.eye and
the like each pass through a Python-level wrapper of a microsecond or
more before reaching the ufunc, method or slice write they come down
to. The ndarray reduction methods (x.max(), mask.all(), ...) are such
wrappers too: each forwards to a Python function in numpy's _methods
module, which calls the ufunc reduction. The modules on the iteration
path call the ufunc reduction (with axis=None, since ufunc.reduce
defaults to axis 0) or write the slice directly, and every 1-d vector
norm goes through model.norm, which repeats np.linalg.norm's float path
and so returns its bits.
"""

import ast
import struct
from pathlib import Path

import numpy as np
import pytest

import curvsqp
from curvsqp.model import norm

SRC = Path(curvsqp.__file__).parent
# off the iteration path: the independent checks, the command line and
# the problem-file parser, which runs once per file
EXEMPT = ("oracle", "cli", "problemfile")
# every other module, the nine an iteration runs among them
LINTED = sorted(path.stem for path in SRC.glob("*.py") if path.stem not in EXEMPT)
PER_ITERATION = ("driver", "certify", "classify", "curvature", "merit", "model", "factor",
                 "qpstep", "workset")
# numpy functions that reach a method, ufunc or slice write through a wrapper
WRAPPERS = {
    "numpy." + name
    for name in ("max", "min", "amax", "amin", "any", "all", "sum", "argmax", "argmin",
                 "flatnonzero", "linalg.norm", "eye", "fill_diagonal", "clip", "sort",
                 "searchsorted", "unravel_index", "diag", "diagflat", "diagonal")
}
# ndarray methods that forward to a Python function before their ufunc
METHODS = ("max", "min", "sum", "prod", "all", "any", "mean", "clip")


def _dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def wrapper_uses(source):
    """(line, name) of every use of a WRAPPERS function in the source."""
    tree = ast.parse(source)
    # the local names numpy and numpy.linalg are imported under
    aliases = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    local = alias.asname or alias.name.split(".")[0]
                    aliases[local] = alias.name if alias.asname else "numpy"
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("numpy"):
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if name in WRAPPERS:
                    found.append((node.lineno, name))
                elif name == "numpy.linalg":
                    aliases[alias.asname or alias.name] = name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted is None:
                continue
            root, _, rest = dotted.partition(".")
            if root in aliases and f"{aliases[root]}.{rest}" in WRAPPERS:
                found.append((node.lineno, f"{aliases[root]}.{rest}"))
    return sorted(found)


def method_calls(source):
    """(line, ".name") of every call of a METHODS method in the source.

    A call on an imported name (np.sum, math.prod) is a module's function,
    not a method: wrapper_uses judges numpy's.
    """
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in METHODS):
            dotted = _dotted(node.func.value)
            if dotted is None or dotted.split(".")[0] not in imported:
                found.append((node.lineno, "." + node.func.attr))
    return sorted(found)


def test_every_per_iteration_module_is_linted():
    assert set(PER_ITERATION) <= set(LINTED)


@pytest.mark.parametrize("module", LINTED)
def test_module_calls_no_numpy_wrapper(module):
    path = SRC / f"{module}.py"
    uses = wrapper_uses(path.read_text())
    assert not uses, f"{path.name} calls numpy wrappers: {uses}"


@pytest.mark.parametrize(
    "source, name",
    [
        ("import numpy as np\nnp.max(x, initial=0.0)\n", "numpy.max"),
        ("import numpy\ny = numpy.any(mask)\n", "numpy.any"),
        ("import numpy as np\nf = np.linalg.norm\n", "numpy.linalg.norm"),
        ("from numpy import linalg as la\nla.norm(x)\n", "numpy.linalg.norm"),
        ("import numpy.linalg as la\nla.norm(x)\n", "numpy.linalg.norm"),
        ("from numpy import flatnonzero\n", "numpy.flatnonzero"),
        ("import numpy as np\nL = np.eye(n)\n", "numpy.eye"),
        ("import numpy\nnumpy.fill_diagonal(A, d)\n", "numpy.fill_diagonal"),
        ("from numpy import clip\n", "numpy.clip"),
        ("import numpy as np\nrows = np.sort(perm[k:])\n", "numpy.sort"),
        ("import numpy as xp\nk = xp.searchsorted(grid, t)\n", "numpy.searchsorted"),
        ("import numpy as np\nq, r = np.unravel_index(flat, S.shape)\n", "numpy.unravel_index"),
        ("import numpy as np\nK = np.diag(d)\n", "numpy.diag"),
        ("import numpy\nA = numpy.diagflat(d)\n", "numpy.diagflat"),
        ("from numpy import diagonal\n", "numpy.diagonal"),
    ],
)
def test_the_lint_sees_each_spelling(source, name):
    assert [found for _, found in wrapper_uses(source)] == [name]


@pytest.mark.parametrize(
    "source, name",
    [
        ("a = np.abs(x).max(initial=0.0)\n", ".max"),
        ("lowest = float(x_t.min(initial=0.0))\n", ".min"),
        ("row_sums = np.abs(S).sum(axis=1)\n", ".sum"),
        ("volume = self.widths.prod()\n", ".prod"),
        ("ok = (trial > 0.0).all()\n", ".all"),
        ("if mask.any():\n    pass\n", ".any"),
        ("center = x.mean()\n", ".mean"),
        ("y_E = y.clip(-cap, cap)\n", ".clip"),
    ],
)
def test_the_lint_sees_each_method(source, name):
    source = "import numpy as np\n" + source
    assert [found for _, found in method_calls(source)] == [name]


@pytest.mark.parametrize("module", PER_ITERATION)
def test_per_iteration_module_calls_no_reduction_method(module):
    path = SRC / f"{module}.py"
    calls = method_calls(path.read_text())
    assert not calls, f"{path.name} calls ndarray reduction methods: {calls}"


def test_the_lint_passes_ufunc_reductions():
    source = (
        "import math\n"
        "import numpy as np\n"
        "a = np.maximum.reduce(np.abs(x), None, initial=0.0) + np.add.reduce(S, 1)\n"
        "b = np.logical_and.reduce(np.isfinite(x), None) or np.logical_or.reduce(m, None)\n"
        "c = np.minimum(np.maximum(y, -cap), cap)\n"
        "d = max(a, b) + min(a, b) + math.prod(v) + x.argmax() + x.dot(x)\n"
        "e = mask.nonzero()[0]\n"
        "K.ravel()[::n + 1] = -mu\n"
        "f = K.diagonal() + K.ravel()[::n + 1]\n"
    )
    assert wrapper_uses(source) == []
    assert method_calls(source) == []


def _bits(value):
    return struct.pack("<d", value)


_RNG = np.random.default_rng(7)
_DENSE = _RNG.standard_normal(37)
_MATRIX = _RNG.standard_normal((9, 7))

VECTORS = {
    "contiguous": _DENSE,
    "strided": _DENSE[::3],
    "reversed": _DENSE[::-1],
    "column": _MATRIX[:, 2],
    "empty": np.zeros(0),
    "zeros": np.zeros(4),
    "negative-zeros": np.full(3, -0.0),
    "+inf": np.array([1.0, np.inf, -2.0]),
    "-inf": np.array([-np.inf, 0.5]),
    "nan": np.array([1.0, np.nan, 3.0]),
    "inf-and-nan": np.array([np.inf, np.nan]),
    "subnormal": np.array([5e-324, -1e-310, 2.5e-320]),
    "square-overflows": np.array([1e200, -3e200, 1.0]),
    "square-underflows": np.array([1e-170, 3e-200]),
    "wide-range": np.array([1e150, 1e-150, 3.0, -7e100]),
}


@pytest.mark.parametrize("name", VECTORS)
def test_norm_is_numpys_norm_bit_for_bit(name):
    x = VECTORS[name]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        expected = np.linalg.norm(x)
        got = norm(x)
    assert type(got) is float
    assert _bits(got) == _bits(float(expected))


def test_norm_reads_a_reversed_view_in_memory_order():
    # ravel(order="K") keeps memory order, so the sum runs as numpy's does
    x = _DENSE[::-1]
    assert _bits(norm(x)) == _bits(float(np.linalg.norm(x)))
    assert _bits(norm(x)) == _bits(norm(_DENSE))
