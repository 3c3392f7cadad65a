from __future__ import annotations

import pytest

from qforge import embedding


@pytest.fixture
def trace_calls(monkeypatch):
    """The vertex count of every face trace the test runs, in call order."""
    calls = []
    trace = embedding._trace

    def counting(at):
        calls.append(len(at))
        return trace(at)

    monkeypatch.setattr(embedding, "_trace", counting)
    return calls
