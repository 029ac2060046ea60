"""Exact combinatorics of the Lusztig-Vogan bijection for GL_n.

Forward map on dominant weights, its prime-division iteration, the
distinguished weights that iterate to zero, and their enumeration,
counting, and growth asymptotics.  Each module's ``__all__`` is the one
list of its public names; the package exports them all.
"""

from . import core, counting, enumeration, lv_algorithm, modular_iteration
from .core import *  # noqa: F401,F403
from .counting import *  # noqa: F401,F403
from .enumeration import *  # noqa: F401,F403
from .lv_algorithm import *  # noqa: F401,F403
from .modular_iteration import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *counting.__all__, *enumeration.__all__,
           *lv_algorithm.__all__, *modular_iteration.__all__, "__version__"]
