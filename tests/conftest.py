import pytest

from hessalg import varieties


@pytest.fixture(autouse=True)
def cold_hull_memo():
    """Start every test with an empty hull-table memo, so that no test
    reads a table another test searched."""
    varieties._hull_memo.clear()
