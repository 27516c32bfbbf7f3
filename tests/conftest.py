import sys
from pathlib import Path

import pytest

from psimoment import MangoldtSieve

sys.path.insert(0, str(Path(__file__).parent))


class RecordingSieve(MangoldtSieve):
    """A MangoldtSieve that records the (lo, hi) of each events call."""

    def __init__(self):
        super().__init__()
        self.ranges = []

    def events(self, lo, hi):
        self.ranges.append((lo, hi))
        return super().events(lo, hi)


@pytest.fixture
def recording_sieve():
    return RecordingSieve()
