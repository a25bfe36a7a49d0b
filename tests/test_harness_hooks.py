"""The names the benchmark's tracer hooks exist, and it restores every one.

``perfbench/tracing.py`` wraps msnlib functions by name: its ``LAYERS``
list, the identity checks by code (``IDENTITY_CODES``) and the simulator's
``_sim_kernels.KERNELS`` table.  Deleting or renaming one of them makes this
test fail in the tier-1 run, not only in the harness's own smoke test.
"""

import importlib.util
import sys
from pathlib import Path

import msnlib
import msnlib.cli  # noqa: F401  (the tracer hooks msnlib.cli.run when it is loaded)
import msnlib.distributions  # noqa: F401  (loaded on first use; the tracer hooks only loaded modules)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    """Every msnlib module global and every attribute of an msnlib class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "msnlib" and not name.startswith("msnlib."):
            continue
        for attr, value in vars(module).items():
            seen[name, attr] = value
            if isinstance(value, type) and value.__module__ == name:
                for meth, fn in vars(value).items():
                    seen[name, attr, meth] = fn
    return seen


def _layer_key(mod_name: str, attr: str) -> tuple:
    return (mod_name, *attr.split("."))


def test_tracer_wraps_every_hooked_name_and_restores_the_originals():
    tracing = _load_tracing()
    checks = msnlib.identities.IDENTITY_CHECKS
    kernels = msnlib._sim_kernels.KERNELS
    before, checks_before, kernels_before = _snapshot(), list(checks), dict(kernels)
    assert {label for label, _ in checks} >= set(tracing.IDENTITY_CODES)
    assert kernels
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _snapshot()
        for mod_name, attr, _ in tracing.LAYERS:
            key = _layer_key(mod_name, attr)
            assert during[key].__wrapped__ is before[key], key
        assert [fn.__wrapped__ for _, fn in checks] == [fn for _, fn in checks_before]
        assert {key: fn.__wrapped__ for key, fn in kernels.items()} == kernels_before
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert list(checks) == checks_before and dict(kernels) == kernels_before
