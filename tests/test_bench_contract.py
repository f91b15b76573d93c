"""The benchmark's traced pass wraps glaw functions by module and name.

perfbench/spans.py lists them in LAYERS; a renamed or moved function would
only show up as a failure of a traced benchmark run, so check here that every
listed (module, function) still resolves.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves_in_glaw():
    layers = load_layers()
    assert layers
    for span_name, (module_name, functions) in layers.items():
        module = importlib.import_module(module_name)
        for fn_name in functions:
            fn = getattr(module, fn_name, None)
            assert callable(fn), f"{span_name}: {module_name}.{fn_name} is missing"
