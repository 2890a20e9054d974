import weakerr


def test_every_export_resolves():
    missing = [name for name in weakerr.__all__ if not hasattr(weakerr, name)]
    assert missing == []
