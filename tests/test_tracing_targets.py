"""The names the benchmark's tracer reaches into lexbs for.

perfbench/tracing.py wraps the functions in its LAYERS and reads the lru
caches in its CACHES through cache_info().  It is loaded here by path and
left as it is, so renaming or deleting one of those names fails this
suite instead of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    for mod_name, functions in _tracing().LAYERS.items():
        module = importlib.import_module(f"lexbs.{mod_name}")
        for fn_name in functions:
            assert callable(getattr(module, fn_name, None)), (mod_name, fn_name)


def test_every_traced_cache_exposes_cache_info():
    for mod_name, fn_name in _tracing().CACHES:
        fn = getattr(importlib.import_module(f"lexbs.{mod_name}"), fn_name)
        hits, misses = fn.cache_info()[:2]
        assert hits >= 0 and misses >= 0, (mod_name, fn_name)
