"""Equilibria and bifurcation branches of age- and space-structured
population models with nonlinear diffusion on the unit interval.

Import each name from its module; `import agequil` sets the BLAS thread
cap below and loads every module but `cli`."""

import os

# The dense solves here are small, and a BLAS thread pool costs more on
# them than it saves, so each numerical library gets one thread unless the
# caller set its variable.  This acts only if numpy is not loaded yet.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del os, _var

from . import continuation, discretize, evolution, expr, fixedpoint, linearized, model, reproduction, tridiag

__version__ = "0.1.0"
