"""The public API: every exported name resolves."""

import leibnizalg


def test_every_exported_name_resolves():
    missing = [name for name in leibnizalg.__all__ if not hasattr(leibnizalg, name)]
    assert missing == []
    assert len(set(leibnizalg.__all__)) == len(leibnizalg.__all__)
