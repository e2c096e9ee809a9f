import pytest

from qpgaps import arithmetic, duality
from qpgaps.cocycle import amo_potential


@pytest.fixture(scope="session")
def golden():
    return arithmetic.golden_mean(depth=40)


@pytest.fixture(scope="session")
def amo():
    return amo_potential()


@pytest.fixture(scope="session")
def upper_edge(golden, amo):
    """The dossier's Bloch search at lam = 0.25 (AMO, golden mean): the upper
    edge of the gap `rec` of the p/q approximant, searched as `analyze_gap`
    searches it."""
    def search(rec, pq, trunc=duality.DUAL_START_N):
        return duality.find_bloch_resonant(0.25, amo, golden, (rec.e_minus, rec.e_plus),
                                           rec.label, pq, "upper", trunc)
    return search
