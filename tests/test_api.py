import graphbimod


def test_public_names_are_sorted_unique_and_resolve():
    names = graphbimod.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(graphbimod, name)]
    assert missing == []
