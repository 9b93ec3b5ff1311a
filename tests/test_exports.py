import fouspec


def test_every_export_resolves():
    # the lazy __getattr__ imports each name on first use, so a deleted
    # function would leave a stale export that fails only when someone asks
    missing = [name for name in fouspec.__all__ if not hasattr(fouspec, name)]
    assert missing == []
