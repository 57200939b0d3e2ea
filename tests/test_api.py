import ecmargin
from ecmargin import bounds, metrics, sandbox

REMOVED = ("audit_interval", "ranking_standard_error", "ap_standard_error", "audit_failures")


def test_every_exported_name_resolves_once():
    assert len(ecmargin.__all__) == len(set(ecmargin.__all__))
    missing = [name for name in ecmargin.__all__ if not hasattr(ecmargin, name)]
    assert missing == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in ecmargin.__all__
        for module in (ecmargin, bounds, metrics, sandbox):
            assert not hasattr(module, name)


def test_audit_is_exported():
    assert {"Audit", "audit"} <= set(ecmargin.__all__)
    assert ecmargin.audit is bounds.audit
    assert ecmargin.Audit is bounds.Audit
