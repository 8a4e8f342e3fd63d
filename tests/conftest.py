import math
import sys

import numpy as np
import pytest
import scipy

from kepler_billiard.kepler import OrbitalElements, Params, cartesian_from_elements


@pytest.fixture
def params():
    return Params(alpha=1.0, g=0.0, h=1.0)


@pytest.fixture
def reference_elements():
    """Generic bound ellipse of the conservation reference (A = -1/2)."""
    return OrbitalElements(A=-0.5, a=math.sqrt(0.32), theta0=1.2, alpha=1.0)


@pytest.fixture
def reference_state(reference_elements, params):
    """Start at the perihelion (below the wall)."""
    return cartesian_from_elements(reference_elements, 0.0)


@pytest.fixture
def pinned_toolchain():
    """Skip unless the toolchain is the one whose data hashes the tests pin:
    Python 3.11, numpy 2.4.6 and scipy 1.17.1, as CI installs them."""
    have = (sys.version_info[:2], np.__version__, scipy.__version__)
    if have != ((3, 11), "2.4.6", "1.17.1"):
        pytest.skip(f"data hashes are pinned for Python 3.11, numpy 2.4.6, scipy 1.17.1; "
                    f"this is Python {have[0][0]}.{have[0][1]}, numpy {have[1]}, scipy {have[2]}")
