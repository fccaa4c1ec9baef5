"""The public name list of the tcc package."""

import tcc


def test_all_names_resolve_once():
    assert len(tcc.__all__) == len(set(tcc.__all__))
    missing = [name for name in tcc.__all__ if not hasattr(tcc, name)]
    assert missing == []
