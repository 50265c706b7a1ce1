"""The benchmark tracer still finds every calibkit function it wraps, and reads its calls.

`bench/tracer.py` replaces functions at the module attributes their callers
look them up by, and some wrappers read fields of the arguments they are
given (`temperature_nll`'s problem, `projected_gd`'s problem). Renaming or
removing one of those attributes or fields makes traced benchmark runs
fail; these tests catch that without running the benchmark.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np

from calibkit import calibrate, metrics, synthetic
from calibkit.optim import GradientProblem

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


def test_traced_fits_report_and_rare_atom_run_fill_the_layer_counts():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        spec = synthetic.HeteroLogitSpec(
            4, np.full(4, 60), np.array([0.5, 0.8, 1.5, 2.5]), np.zeros(4), margin=2.0, seed=1
        )
        splits = synthetic.gen_hetero_logits(spec)
        calibrate.fit_ts(splits.val)
        for gamma in (0.5, math.inf):
            calibrate.fit_cts(splits.val, calibrate.FitConfig(gamma=gamma))
        vs = calibrate.fit_vs(splits.val)
        metrics.compute_report(splits.test, vs.model)
        synthetic.rare_atom_experiment(10, 0.01, 1, 1)
        # No calibkit fit runs projected GD any more; the tracer still wraps
        # it at this lookup site and reads `problem.max_iters`.
        synthetic.projected_gd(GradientProblem(
            objective=lambda p: float((p[0] - 1.0) ** 2), gradient=lambda p: 2.0 * (p - 1.0),
            project=lambda p: p, x0=np.zeros(1), max_iters=50,
        ))
    finally:
        tracer.uninstall()
    counts = tracer.layer_metrics(1, 1)
    assert counts["calibrate.fits"] == 4
    assert counts["synthetic.logistic_fits"] == 2  # the small and the large sample of one trial
    assert counts["optim.gd_runs"] == 1
    for name in ("optim.nll_calls", "optim.nll_mb_computed", "optim.gd_iters", "optim.vector_evals"):
        assert counts[name] > 0, name
