"""ckn.lapack: scipy.linalg's LAPACK routines without the scipy package.

Each test runs in a fresh interpreter, so no other test's imports count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ckn

SRC = str(Path(ckn.__file__).resolve().parents[1])


def _fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_only_the_one_scipy_extension_module():
    out = _fresh("import sys, ckn.cli; ckn.cli.build_parser()\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                 "print([m for m in ('numpy.f2py', 'numpy.testing') if m in sys.modules])")
    assert out.splitlines() == ["['scipy.linalg._flapack']", "[]"]


def test_factor_size_loads_only_the_one_scipy_extension_module():
    # the layer trace reads U.nnz and L.nnz of every factor; the band's
    # stored entries are counted without scipy.sparse
    out = _fresh("import sys\n"
                 "import numpy as np\n"
                 "from ckn.eigensolver import _BandCholesky\n"
                 "ab = np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0]], order='F')\n"
                 "factor = _BandCholesky(ab)\n"
                 "print(factor.info, factor.U.nnz, factor.L.nnz)\n"
                 "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.splitlines() == ["0 5 5", "['scipy.linalg._flapack']"]


_SHARED = """
import numpy as np
import scipy.linalg
import ckn.lapack
from scipy.linalg import _flapack
assert ckn.lapack.dpbtrf is scipy.linalg.lapack.dpbtrf
assert ckn.lapack.dsyev is scipy.linalg.lapack.dsyev
assert _flapack is sys.modules['scipy.linalg._flapack']
ab = np.array([[0.0, -1.0, -1.0], [2.0, 2.0, 2.0]])
x = scipy.linalg.solveh_banded(ab, np.array([1.0, 0.0, 1.0]))
assert np.allclose(x, [1.0, 1.0, 1.0]), x
print("ok")
"""


@pytest.mark.parametrize("first", ["import ckn", "import scipy.linalg"])
def test_ckn_and_scipy_linalg_share_the_routines_in_either_import_order(first):
    assert _fresh(f"import sys\n{first}\n{_SHARED}") == "ok"


def test_a_failed_direct_load_falls_back_to_scipy_linalg():
    # the finder sees no extension module until scipy/__init__ has run, as
    # with a wheel whose shared libraries only that init makes loadable
    code = ("import sys\n"
            "from importlib.machinery import PathFinder\n"
            "find = PathFinder.find_spec\n"
            "def hidden(name, path=None, target=None):\n"
            "    if name.startswith('scipy.linalg._f') and 'scipy' not in sys.modules:\n"
            "        return None\n"
            "    return find(name, path, target)\n"
            "PathFinder.find_spec = staticmethod(hidden)\n"
            "import ckn.lapack\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "import scipy.linalg.lapack\n"
            "assert ckn.lapack.dgtsv is scipy.linalg.lapack.dgtsv\n"
            "assert ckn.lapack.dpttrs is scipy.linalg.lapack.dpttrs\n"
            "from ckn import io\n"
            "assert io._scipy_version() == sys.modules['scipy'].__version__\n"
            "print('ok')")
    assert _fresh(code) == "ok"
