from collections import Counter

import pytest

from bsz2d.moment_oracle import MomentOracle


@pytest.fixture()
def oracle_calls(monkeypatch) -> Counter:
    """Counts of the calls to MomentOracle.normalized and .gram_schmidt made
    during the test, by any oracle."""
    calls = Counter()
    for name in ("normalized", "gram_schmidt"):
        real = getattr(MomentOracle, name)

        def counting(self, *args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(MomentOracle, name, counting)
    return calls
