"""The LAPACK and BLAS routines ckn calls, loaded without the scipy package.

They come from scipy.linalg's f2py extension modules _flapack and _fblas.
Importing them as scipy.linalg.lapack would also run scipy's package
init, whose array-API layer loads some 300 more modules (numpy.f2py and
numpy.testing among them) in every ckn process.  So each module is found
beside scipy with PathFinder, executed and registered under its scipy
name: a later `import scipy.linalg` reuses it, and
scipy.linalg.lapack.dpbtrf is this module's dpbtrf.  Where the direct
load fails, as with a wheel whose shared libraries are found only once
scipy/__init__ has run, scipy.linalg is imported the ordinary way; the
routines are the same, only the import costs more.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder


def _extension(name: str):
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and PathFinder.find_spec(
        full, [os.path.join(p, "linalg") for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"{full} not found beside the scipy package")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


try:
    _flapack, _fblas = _extension("_flapack"), _extension("_fblas")
except ImportError:
    from scipy.linalg import _fblas, _flapack

dgtsv, dpbtrf, dpbtrs = _flapack.dgtsv, _flapack.dpbtrf, _flapack.dpbtrs
dpttrf, dpttrs, dsyev = _flapack.dpttrf, _flapack.dpttrs, _flapack.dsyev
ddot = _fblas.ddot
