import oscphase


def test_every_exported_name_resolves_once():
    missing = [name for name in oscphase.__all__ if not hasattr(oscphase, name)]
    assert missing == []
    assert len(set(oscphase.__all__)) == len(oscphase.__all__)
