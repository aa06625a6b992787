"""The benchmark tracer's targets must name functions binomsum still has.

perfbench/tracer.py records a target it cannot find as missing and reads
it as zero calls, so a renamed or deleted function would silently drop out
of the per-layer metrics.  This resolves every target the way the tracer
does: attributes along the path, then the last name in the owner's own
namespace.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for module_name, path, *_ in _tracer_targets():
        owner = importlib.import_module(f"binomsum.{module_name}")
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        if owner is None or vars(owner).get(attr) is None:
            missing.append(f"{module_name}.{path}")
    assert missing == []
