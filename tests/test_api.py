"""The public names of the package."""

import cne


def test_every_public_name_resolves():
    missing = [name for name in cne.__all__ if not hasattr(cne, name)]
    assert missing == []
    assert len(set(cne.__all__)) == len(cne.__all__)
