"""Delay-induced oscillations in a two-population interaction model.

The package splits along the natural workflow: model (equilibria and
their delay-free verdicts), stability (characteristic equation and
critical delays), normal_form (direction and amplitude of the
bifurcating cycle), integrator (time-domain validation), cli (config
driven runs producing reports, tables and figures).

The package namespace is the union of the modules' ``__all__`` lists,
which are the one statement of the public API. Names load on first
use: ``import infodelay`` imports no submodule, a submodule name
imports that submodule alone, and any other public name, ``__all__``
or ``dir()`` imports the seven modules in the order above and binds
their names once.
"""
import importlib

__version__ = "0.1.0"

# the modules whose __all__ lists make up the namespace, in import order
_MODULES = ("model", "cubic", "stability", "normal_form", "integrator", "plots", "cli")


def _load() -> None:
    """Import the modules and bind their public names, as star-imports in
    _MODULES order would."""
    if "__all__" in globals():
        return
    names = []
    for sub in _MODULES:
        module = importlib.import_module(f"{__name__}.{sub}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names + ["__version__"]


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("_"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load()
    return sorted(globals())
