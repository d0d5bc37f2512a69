"""The package's public name list: every entry resolves, and it stays sorted."""

import realize
import realize.errors
import realize.market
import realize.tables


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
    # Layer internals, imported from their modules: no report holds them, and the CLI uses none.
    for name in ("Ledger", "LedgerEffects", "Lot", "BorrowPosition", "apply_event", "realize", "tax_timeline",
                 "apply_rate", "Rate"):
        assert not hasattr(realize, name) and name not in realize.__all__
    # Retired: ``taxation`` alone applies a rate, to int centavos, and never to a loss.
    for module, name in ((realize.market, "Rate"), (realize.market, "apply_rate"), (realize.errors, "NegativeBase")):
        assert not hasattr(module, name)
    # Retired: the DSL reads its prices itself.
    for name in ("parse", "is_negative"):
        assert not hasattr(realize.Money, name)
    # Retired: ``paper_tables`` builds the six one-event sale tables with ``_event_table`` itself.
    for name in ("ordinary_sale_gain_table", "ordinary_sale_loss_table", "short_sale_loss_table",
                 "short_sale_gain_table", "proposed_time2_table", "proposed_time3_table"):
        assert not hasattr(realize.tables, name)
