"""Blocking-time analysis for fixed-priority jobs under basic priority
inheritance: deadlock precheck, polynomial assignment bound, admissibility
screening and exact best-first search, plus a brute-force oracle for
desk-scale verification.  Each public name is listed once, in its
module's ``__all__``; the package re-exports those nine lists."""

from . import admissibility, analysis, bound, deadlock, definitions, oracle, relevance, search, taskset
from .admissibility import *
from .analysis import *
from .bound import *
from .deadlock import *
from .definitions import *
from .oracle import *
from .relevance import *
from .search import *
from .taskset import *

__version__ = "0.1.0"

__all__ = []
__all__ += admissibility.__all__
__all__ += analysis.__all__
__all__ += bound.__all__
__all__ += deadlock.__all__
__all__ += definitions.__all__
__all__ += oracle.__all__
__all__ += relevance.__all__
__all__ += search.__all__
__all__ += taskset.__all__
