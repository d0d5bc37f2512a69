"""The package's public name list: every entry resolves, and it stays sorted."""

import realize


def test_every_public_name_resolves_and_the_list_is_sorted():
    namespace = {}
    exec("from realize import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(realize.__all__)
    for name in realize.__all__:
        assert getattr(realize, name) is namespace[name]
    assert realize.__all__ == sorted(realize.__all__)
    assert len(set(realize.__all__)) == len(realize.__all__)
    # Retired: nothing in the engine, its reports or the CLI read them.
    for name in ("AcquisitionMethod", "net_by_period", "tax_due"):
        assert not hasattr(realize, name)
    # Retired: the DSL reads its prices itself.
    for name in ("parse", "is_negative"):
        assert not hasattr(realize.Money, name)
