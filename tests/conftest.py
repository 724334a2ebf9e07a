import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from brace_forge import group_brace, radical_ring_brace, standard_corpus, wreath_base


@pytest.fixture(scope="session")
def T2():
    return group_brace("c2", "trivial", name="T2")


@pytest.fixture(scope="session")
def R4():
    return radical_ring_brace(8, 2)


@pytest.fixture(scope="session")
def S3at():
    return group_brace("s3", "almost_trivial", name="S3at")


@pytest.fixture(scope="session")
def A4at():
    return group_brace("a4", "almost_trivial", name="A4at")


@pytest.fixture(scope="session")
def A5at():
    return group_brace("a5", "almost_trivial", name="A5at")


@pytest.fixture(scope="session")
def A5at_square(A5at, T2):
    """The order-3600 function-space base of the lemma32 sweep."""
    return wreath_base(A5at, T2)[0]


@pytest.fixture(scope="session")
def corpus8():
    return standard_corpus(8)


@pytest.fixture(scope="session")
def corpus12():
    return standard_corpus(12)
