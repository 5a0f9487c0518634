import relinfo


def test_every_exported_name_resolves():
    assert [name for name in relinfo.__all__ if not hasattr(relinfo, name)] == []
    assert len(set(relinfo.__all__)) == len(relinfo.__all__)
