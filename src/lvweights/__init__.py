"""Exact combinatorics of the Lusztig-Vogan bijection for GL_n.

Forward map on dominant weights, its prime-division iteration, the
distinguished weights that iterate to zero, and their enumeration,
counting, and growth asymptotics.  Each module's ``__all__`` is the one
list of its public names.  The package's ``__getattr__`` looks a name up
in those lists on first access, so ``Rational`` (``fractions.Fraction``)
loads only when it is read.
"""

from . import core, counting, enumeration, lv_algorithm, modular_iteration

__version__ = "0.1.0"
_MODULES = (core, counting, enumeration, lv_algorithm, modular_iteration)
__all__ = [*(name for m in _MODULES for name in m.__all__), "__version__"]


def __getattr__(name: str):
    for module in _MODULES:
        if name in module.__all__:
            globals()[name] = value = getattr(module, name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
