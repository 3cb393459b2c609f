"""Energy-optimal live prefetching for computation offloading.

Closed-form slow-fading policies, threshold policies for i.i.d. fast
fading, brute-force verification oracles and a Monte-Carlo sweep harness.
The package exports every module's ``__all__``.
"""

from .model import *
from .slow import *
from .demand import *
from .prefetch import *
from .oracles import *
from .sweep import *

__version__ = "0.1.0"
