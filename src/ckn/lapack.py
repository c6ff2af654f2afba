"""The LAPACK routines ckn calls, loaded without the scipy package.

All six come from one f2py extension module, scipy.linalg._flapack.
Importing them as scipy.linalg.lapack would also run scipy's package
init, whose array-API layer loads some 300 more modules (numpy.f2py and
numpy.testing among them) in every ckn process.  So the module is found
beside scipy with PathFinder, executed and registered under its scipy
name: a later `import scipy.linalg` reuses it, and
scipy.linalg.lapack.dpbtrf is this module's dpbtrf.  The run manifest
reads scipy's version the same way, from scipy/version.py.  Where the direct
load fails, as with a wheel whose shared libraries are found only once
scipy/__init__ has run, scipy.linalg is imported the ordinary way; the
routines are the same, only the import costs more.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder


def scipy_module(name: str):
    """The module scipy.`name`, found beside the installed scipy package and
    executed without the package's init; not registered in sys.modules."""
    scipy = importlib.util.find_spec("scipy")
    *package, _ = name.split(".")
    spec = scipy and PathFinder.find_spec(
        f"scipy.{name}", [os.path.join(p, *package) for p in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"scipy.{name} not found beside the scipy package")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


try:
    _flapack = sys.modules.get("scipy.linalg._flapack") or scipy_module("linalg._flapack")
except ImportError:
    from scipy.linalg import _flapack
sys.modules["scipy.linalg._flapack"] = _flapack

dgtsv, dpbtrf, dpbtrs = _flapack.dgtsv, _flapack.dpbtrf, _flapack.dpbtrs
dpttrf, dpttrs, dsyev = _flapack.dpttrf, _flapack.dpttrs, _flapack.dsyev
