"""Tetrahedron and n-simplex operator families, the Toffoli gate families
they contain, and numerical verification of the simplex equations."""

from .gates import *
from .operators import *
from .su2 import *
from .tensor import *
from .verify import *

__version__ = "0.1.0"
