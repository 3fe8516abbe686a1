"""The traced benchmark wraps library entry points by name.

``perfbench/spans.py`` replaces each (owner, attribute) pair in its
``METHODS`` and ``FUNCTIONS`` tables with a timing wrapper.  A renamed
or removed entry point would only surface in a ``--trace 1`` run; this
test makes it fail here instead.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, owner, attr in spans.METHODS + spans.FUNCTIONS
               if not callable(getattr(owner, attr, None))]
    assert missing == []
