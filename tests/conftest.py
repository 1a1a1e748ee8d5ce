import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def cold_census_tables(monkeypatch):
    """Empty census subspace table and columns for one test, so the walks
    in it fill them from nothing and leave the process's tables alone."""
    from pautkit import census

    monkeypatch.setattr(census, "_subspace_ids", {})
    monkeypatch.setattr(census, "_rows_by_id", [])
    monkeypatch.setattr(census, "_complement_by_id", [])
    monkeypatch.setattr(census, "_columns", {})
