import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
import scipy

from kepler_billiard import billiard
from kepler_billiard.kepler import OrbitalElements, Params, cartesian_from_elements

# Hypothesis reports a failing example through hypothesis.extra._patching,
# whose first import may load libcst, and libcst imports a deprecated
# mypy_extensions name.  Under filterwarnings = error (or -W error) that
# DeprecationWarning would abort the run with INTERNALERROR and lose the
# example, so the module is imported once here with it ignored.  Every other
# warning stays an error.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


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


# how far lift_hit moves a hit off the wall: 1 + 2**-36 is exact, so |y - h| is too
OFF_WALL = 2.0**-36


@pytest.fixture
def lift_hit(monkeypatch):
    """``lift_hit(k, off)`` makes the k-th wall hit (from 1) of either route
    come back ``off`` above the wall, as if the flow had carried it there,
    and returns ``|y - h|`` of that hit."""
    crossing, revolving = billiard.wall_crossing, billiard.next_revolving_crossing

    def lift(k, off=OFF_WALL):
        hits = []

        def kepler_hit(geometry, E_now, h, t0):
            E_hit, r, lam, x, y, px, py, t = crossing(geometry, E_now, h, t0)
            hits.append(y)
            return E_hit, r, lam, x, h + off if len(hits) == k else y, px, py, t

        def revolving_hit(orb, p, t0=0.0):
            E, hit = revolving(orb, p, t0)
            hits.append(hit.y)
            return E, dataclasses.replace(hit, y=p.h + off) if len(hits) == k else hit

        monkeypatch.setattr(billiard, "wall_crossing", kepler_hit)
        monkeypatch.setattr(billiard, "next_revolving_crossing", revolving_hit)
        return abs((1.0 + off) - 1.0)  # h = 1

    return lift
