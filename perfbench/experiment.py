"""One ``tailrisk run`` experiment, observed from outside the package.

Usage::

    python3 perfbench/experiment.py --result PROBE.json --trace 0|1
        [--check-builtin NAME] -- run --preset ... --seed S --out DIR

The script wraps module attributes that ``tailrisk.cli`` resolves at call
time, calls ``tailrisk.cli.main`` with the arguments after ``--`` and
writes what it observed to ``--result`` as JSON.  Nothing under ``src/``
is edited.

With ``--trace 0`` only the skeleton is wrapped: the import of
``tailrisk.cli``, trial and reference-trial boundaries, the report write,
and the model handles' ``evaluate_batch`` (evaluation counts at the model
boundary).  With ``--trace 1`` every layer
entry point listed in ``TRACED`` gets a span as well.  Spans stay in
memory and are written once, after the run.

``--check-builtin NAME`` compares every output of a ``command`` model with
the builtin model ``NAME`` on the same points and counts mismatches.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import importlib
import json
import os
import resource
import sys
import threading
import time
import weakref

# (module, attribute, span name); the attribute may name a class method as
# "Class.method".  Spans are named "<layer>.<function>".
TRACED = (
    ("basis", "build_basis", "basis.build_basis"),
    ("inputs", "sample", "inputs.sample"),
    ("surrogate", "fit", "surrogate.fit"),
    ("surrogate", "optimize_theta", "surrogate.optimize_theta"),
    ("surrogate", "loo_cv_objective", "surrogate.loo_cv_objective"),
    ("surrogate", "FittedSurrogate.predict_batch", "surrogate.predict_batch"),
    ("risk", "surrogate_mcs_estimate", "risk.surrogate_mcs_estimate"),
    ("risk", "epsilon_risk_region", "risk.epsilon_risk_region"),
    ("risk", "mfis_estimate", "risk.mfis_estimate"),
    ("risk", "mcs_estimate", "risk.mcs_estimate"),
    ("risk", "var_cvar", "risk.var_cvar"),
    ("risk", "evaluate_model", "risk.evaluate_model"),
)


def _annotate(name, args, result):
    """Counts recorded on a span, taken from its arguments or result."""
    if name == "basis.build_basis":
        return {"functions": len(result)}
    if name == "inputs.sample":
        return {"points": len(result)}
    if name == "surrogate.fit":
        prov = result.provenance
        return {"nugget": int(bool(prov.get("nugget"))),
                "theta_fallback": int(bool(prov.get("theta_fallback")))}
    if name == "surrogate.predict_batch":
        return {"points": len(args[1])}
    if name == "risk.epsilon_risk_region":
        return {"region_size": len(result), "region_mass": float(result.mass)}
    if name == "risk.mfis_estimate":
        return {"fresh_points": int(result.metadata.get("fresh_points", 0))}
    return None


class Recorder:
    """In-memory spans with one stack per thread.

    A span is ``[name, start, end, parent, trial, thread, attrs]``; ``parent``
    indexes ``spans`` and ``trial`` is ``["trial"|"ref", k]`` or ``None``.
    """

    def __init__(self):
        self.spans = []
        self.missing_hooks = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fidelity = weakref.WeakKeyDictionary()
        self.command_models = []

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trial = None
        return local

    def span(self, name, call, annotate=None, trial=None):
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        outer_trial = local.trial
        if trial is not None:
            local.trial = trial
        span = [name, 0.0, 0.0, parent, local.trial, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        local.stack.append(index)
        span[1] = time.monotonic()
        try:
            result = call()
        except BaseException as exc:
            span[6] = {"error": type(exc).__name__}
            raise
        finally:
            span[2] = time.monotonic()
            local.stack.pop()
            local.trial = outer_trial
        if annotate is not None:
            span[6] = annotate(result)
        return result

    def wrap(self, owner, attr, name, annotate=None, trial_of=None):
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing_hooks.append(name)
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            trial = trial_of(args) if trial_of is not None else None
            note = None if annotate is None else (lambda result: annotate(name, args, result))
            return self.span(name, lambda: original(*args, **kwargs), note, trial)

        setattr(owner, attr, wrapper)

    def wrap_least_squares(self, module):
        """Span around the LOO solver, counting every residual evaluation.

        ``nfev`` leaves out the finite-difference Jacobian's evaluations, so
        the residual function itself is wrapped with a counter.
        """
        original = module.least_squares

        @functools.wraps(original)
        def least_squares(fun, *args, **kwargs):
            calls = [0]

            def counted(*fargs, **fkwargs):
                calls[0] += 1
                return fun(*fargs, **fkwargs)

            def note(result):
                return {"residual_evals": calls[0], "nfev": int(result.nfev)}

            return self.span("surrogate.least_squares",
                              lambda: original(counted, *args, **kwargs), note)

        module.least_squares = least_squares

    def wrap_build_model(self, experiment_cls):
        original = experiment_cls.build_model

        @functools.wraps(original)
        def build_model(exp, *args, **kwargs):
            low = kwargs.get("low_fidelity", args[0] if args else False)
            handle = original(exp, *args, **kwargs)
            self._fidelity[handle] = "lf" if low else "hf"
            if handle.kind == "command":
                self.command_models.append(handle)
            return handle

        experiment_cls.build_model = build_model

    def wrap_evaluate_batch(self, cls, reference):
        original = cls.__dict__["evaluate_batch"]

        @functools.wraps(original)
        def evaluate_batch(handle, points, *args, **kwargs):
            def note(result):
                attrs = {"points": len(result),
                         "fidelity": self._fidelity.get(handle, "unknown"),
                         "kind": handle.kind}
                if reference is not None and handle.kind == "command":
                    import numpy as np

                    expected = reference(np.atleast_2d(np.asarray(points, dtype=float)))
                    attrs["mismatches"] = int(np.sum(np.asarray(result) != expected))
                return attrs

            return self.span("models.evaluate_batch",
                              lambda: original(handle, points, *args, **kwargs), note)

        cls.evaluate_batch = evaluate_batch


def install(recorder, traced, check_builtin):
    """Wrap the skeleton, and with ``traced`` every entry in ``TRACED``."""
    from tailrisk import cli, models

    recorder.wrap(cli, "_run_trial", "cli.trial", trial_of=lambda a: ["trial", int(a[2])])
    recorder.wrap(cli, "_benchmark_trial", "cli.ref_trial", trial_of=lambda a: ["ref", int(a[1])])
    recorder.wrap(cli, "_write_outputs", "cli.write_outputs")
    recorder.wrap_build_model(cli.Experiment)
    reference = models.BUILTIN_MODELS[check_builtin] if check_builtin else None
    for obj in vars(models).values():
        if (isinstance(obj, type) and issubclass(obj, models.ModelHandle)
                and "evaluate_batch" in obj.__dict__):
            recorder.wrap_evaluate_batch(obj, reference)
    if not traced:
        return
    recorder.wrap_least_squares(importlib.import_module("tailrisk.surrogate"))
    for module_name, attr, name in TRACED:
        owner = importlib.import_module(f"tailrisk.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
            if owner is None:
                recorder.missing_hooks.append(name)
                continue
        recorder.wrap(owner, attr, name, annotate=_annotate)


def _blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as maps:
        for line in maps:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path):
                paths.add(path)
    threads = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(fn())
                break
    return threads


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_build = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas_build,
        "blas_threads": _blas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-builtin")
    args = parser.parse_args(argv[:split])

    recorder = Recorder()
    # Part of set-up: importing the package and its scipy dependencies.
    cli = recorder.span("cli.import", lambda: importlib.import_module("tailrisk.cli"))
    install(recorder, bool(args.trace), args.check_builtin)
    code = cli.main(argv[split + 1:])
    # The CLI never closes its CommandModel handles, and subprocess keeps a
    # collected Popen (pipes included) alive to reap it later, so each child
    # would wait for input until this process exits.  Close every handle and
    # reap every child instead.
    for handle in recorder.command_models:
        handle.close()
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break
    result = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
        "missing_hooks": recorder.missing_hooks,
        "spans": recorder.spans,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
