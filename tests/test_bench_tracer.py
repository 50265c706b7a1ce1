"""The benchmark tracer still finds every calibkit function it wraps.

`bench/tracer.py` replaces functions at the module attributes their callers
look them up by. Renaming or removing one of those attributes makes traced
benchmark runs fail; this test catches that without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_lookup_site():
    tracer_module = load_tracer()
    sites = [(m, attr) for _, attr, *modules in tracer_module.TARGETS for m in modules]
    originals = {site: getattr(importlib.import_module(site[0]), site[1]) for site in sites}
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        for module_name, attr in sites:
            assert getattr(importlib.import_module(module_name), attr) is not originals[(module_name, attr)]
    finally:
        tracer.uninstall()
    for module_name, attr in sites:
        assert getattr(importlib.import_module(module_name), attr) is originals[(module_name, attr)]
