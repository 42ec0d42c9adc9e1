import importlib
import os
from pathlib import Path

import hypothesis
import pytest

# Property tests run numerical code whose per-example cost varies widely
# between machines; wall-clock deadlines would only add flakes.
hypothesis.settings.register_profile(
    "kerndep",
    deadline=None,
    max_examples=50,
    print_blob=True,
)
hypothesis.settings.load_profile("kerndep")


@pytest.fixture()
def src_env():
    """The environment with the checkout's src/ first on PYTHONPATH, for a
    subprocess that imports kerndep (pytest's pythonpath setting reaches
    this process only)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.fixture()
def call_counts(monkeypatch):
    """A dict of call counts and a function count(target) that replaces the
    function at dotted path target by a wrapper adding each call to
    counts[target]; counting a target again sets its count back to 0."""
    counts = {}

    def count(target):
        if target in counts:  # wrapped already
            counts[target] = 0
            return
        module_name, name = target.rsplit(".", 1)
        original = getattr(importlib.import_module(module_name), name)
        counts[target] = 0

        def wrapper(*args, **kwargs):
            counts[target] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(target, wrapper)

    return counts, count
