"""Binary Parseval frames over GF(2): construction, verification,
factorization and exhaustive catalogs."""

from . import catalog, equiv, errors, frames, gf2, gramfactor, naimark
from .catalog import *
from .equiv import *
from .errors import *
from .frames import *
from .gf2 import *
from .gramfactor import *
from .naimark import *

__version__ = "1.0.0"

# each public name is listed once, in the __all__ of its module
__all__ = []
__all__ += catalog.__all__
__all__ += equiv.__all__
__all__ += errors.__all__
__all__ += frames.__all__
__all__ += gf2.__all__
__all__ += gramfactor.__all__
__all__ += naimark.__all__
