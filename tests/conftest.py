from pathlib import Path

import pytest
from hypothesis import settings

FIXTURES = Path(__file__).parent / "fixtures"

# Property tests draw the same examples on every run and keep no example
# database, so a run's verdict depends on the code alone.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture
def fixtures() -> Path:
    return FIXTURES


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)
