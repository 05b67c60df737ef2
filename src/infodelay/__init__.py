"""Delay-induced oscillations in a two-population interaction model.

The package splits along the natural workflow: model (equilibria and
their delay-free verdicts), stability (characteristic equation and
critical delays), normal_form (direction and amplitude of the
bifurcating cycle), integrator (time-domain validation), cli (config
driven runs producing reports, tables and figures).

The package namespace is the union of the modules' ``__all__`` lists,
which are the one statement of the public API.
"""
from . import cli, cubic, integrator, model, normal_form, plots, stability
from .model import *
from .cubic import *
from .stability import *
from .normal_form import *
from .integrator import *
from .plots import *
from .cli import *

__version__ = "0.1.0"

__all__ = [name for module in (model, cubic, stability, normal_form, integrator, plots, cli)
           for name in module.__all__] + ["__version__"]
