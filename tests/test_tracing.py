"""The benchmark tracer still finds, wraps and restores every name it traces."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_and_uninstall_restores_every_traced_name():
    # a refactor that drops or renames a traced function (say
    # schlesinger.flow_derivative, or the copy quantization imported) fails
    # here instead of breaking `perfbench/run.py --trace 1`
    tracing = _load_tracing()
    targets = [
        (target, attr)
        for _name, owner, attr, importers in tracing.SPANNED + tracing.COUNTED
        for target in (owner, *importers)
    ]
    before = [getattr(target, attr) for target, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (target, attr), original in zip(targets, before):
            assert getattr(target, attr) is not original, f"{target.__name__}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for (target, attr), original in zip(targets, before):
        assert getattr(target, attr) is original, f"{target.__name__}.{attr} not restored"
