"""Outside-in tracing of ltvlab's public functions.

``Tracer.installed()`` rebinds each target function in every ltvlab module
that holds it (``propagate`` lives in system, spectrum and splitness, for
example) and wraps methods and classmethods on their class; leaving the
block puts every original back.  ltvlab's source is not touched.

A span is (name, start, end, parent, job id) plus one count taken from the
call and a failed flag.  Spans are kept in flat arrays during the run and
reduced to calls, self time (busy time minus child spans) and counts when
it ends.
"""

import functools
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _horizon_arg(args, kwargs):
    return kwargs["horizon"] if "horizon" in kwargs else args[2]


def _text_bytes(args, kwargs):
    return len(args[0].encode())


def _file_bytes(args, kwargs):
    return os.path.getsize(args[0])


def _not_cached(args, kwargs):
    return float(getattr(args[0], "_angles", None) is None)


def _has_witness(result):
    return float(result.witness is not None)


# (span name, defining module, function or Class.method, count before, count after)
TARGETS = (
    ("expressions.eval", "ltvlab.expressions", "Expression.__call__", None, None),
    ("system.matrix_at", "ltvlab.system", "CoefficientSequence.matrix_at", None, None),
    ("system.parse_generator_spec", "ltvlab.system", "parse_generator_spec", _text_bytes, None),
    ("system.read_matrix_sequence", "ltvlab.system", "read_matrix_sequence", _file_bytes, None),
    ("system.propagate", "ltvlab.system", "propagate", _horizon_arg, None),
    ("spectrum.spectrum_estimate", "ltvlab.spectrum", "spectrum_estimate", None, None),
    ("spectrum.incompressibility_test", "ltvlab.spectrum", "incompressibility_test",
     None, _has_witness),
    ("spectrum.limsup_estimate", "ltvlab.spectrum", "limsup_estimate", None, None),
    ("spectrum.exponent_profile", "ltvlab.spectrum", "exponent_profile", None, None),
    ("splitness.fss_build", "ltvlab.splitness", "FSSRecord.from_initial_vectors", None, None),
    ("splitness.angle_profile", "ltvlab.splitness", "FSSRecord.angle_profile",
     _not_cached, None),
    ("splitness.cos_angle_profile", "ltvlab.splitness", "FSSRecord.cos_angle_profile",
     None, None),
    ("splitness.splitness_report", "ltvlab.splitness", "splitness_report", None, None),
    ("splitness.broken_away_scan", "ltvlab.splitness", "broken_away_scan", None, None),
    ("splitness.gamma_statistics", "ltvlab.splitness", "gamma_statistics", None, None),
    ("linalg.angle_to_subspace", "ltvlab.linalg", "angle_to_subspace", None, None),
    ("linalg.cosine_to_subspace", "ltvlab.linalg", "cosine_to_subspace", None, None),
    ("linalg.spectral_norm", "ltvlab.linalg", "spectral_norm", None, None),
    ("perturb.calibrate", "ltvlab.perturb", "calibrate", None, None),
    ("perturb.solve_mu", "ltvlab.perturb", "solve_mu", None, None),
    ("perturb.lambda_mu", "ltvlab.perturb", "lambda_mu", None, None),
    ("perturb.build_plan", "ltvlab.perturb", "build_plan", None, None),
    ("perturb.perturbation_at", "ltvlab.perturb", "perturbation_at", None, None),
    ("perturb.execute_plan", "ltvlab.perturb", "execute_plan", None, None),
    ("perturb.openness_experiment", "ltvlab.perturb", "openness_experiment", None, None),
    ("cli.main", "ltvlab.cli", "main", None, None),
    ("cli.spectrum", "ltvlab.cli", "cmd_spectrum", None, None),
    ("cli.splitness", "ltvlab.cli", "cmd_splitness", None, None),
    ("cli.perturb", "ltvlab.cli", "cmd_perturb", None, None),
    ("cli.assign", "ltvlab.cli", "cmd_assign", None, None),
)

ROOT_SPAN = "job"


def ltvlab_modules():
    import ltvlab.cli  # noqa: F401  (not imported by the package itself)
    import ltvlab.presets  # noqa: F401

    return [m for name, m in sys.modules.items()
            if name == "ltvlab" or name.startswith("ltvlab.")]


class Tracer:
    def __init__(self):
        self.names = []  # span name table; arrays below hold indices into it
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.count = array("d")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._saved = []  # (owner, attribute, original) per rebinding
        self.job_id = -1

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid, count):
        i = len(self.end)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.count.append(count)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        i = self._open(self._id(name), 0.0)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name, fn, before, after):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid, before(args, kwargs) if before else 0.0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self._close(i)
            if after:
                self.count[i] = after(result)
            return result

        return traced

    def _rebind(self, owner, attribute, value):
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    @contextmanager
    def installed(self):
        """Trace every TARGETS function inside the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            modules = ltvlab_modules()
            for name, module, qualname, before, after in TARGETS:
                home = sys.modules[module]
                if "." in qualname:
                    cls_name, attribute = qualname.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attribute]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, before, after))
                    else:
                        wrapped = self._wrap(name, raw, before, after)
                    self._rebind(cls, attribute, wrapped)
                    continue
                fn = getattr(home, qualname)
                wrapped = self._wrap(name, fn, before, after)
                for m in modules:
                    for attribute, value in list(vars(m).items()):
                        if value is fn:
                            self._rebind(m, attribute, wrapped)
            yield self
        finally:
            while self._saved:
                owner, attribute, original = self._saved.pop()
                setattr(owner, attribute, original)

    # --- reduction --------------------------------------------------------

    def arrays(self):
        """The spans as numpy arrays, with self time derived from them."""
        spans = {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "job": np.array(self.job, dtype=np.int32),
            "count": np.array(self.count),
            "failed": np.array(self.failed, dtype=bool),
            "start": np.array(self.start),
            "end": np.array(self.end),
        }
        duration = spans["end"] - spans["start"]
        nested = spans["parent"] >= 0
        children = np.bincount(spans["parent"][nested], weights=duration[nested],
                               minlength=len(duration))
        spans["duration"] = duration
        spans["self"] = duration - children
        return spans

    def stats(self):
        """Per span name, summed over all spans: calls, self_s, wall_s, count,
        failed, and children (child name -> calls made from this name)."""
        spans = self.arrays()
        name, k = spans["name"], len(self.names)

        def per_name(weights=None):
            return np.bincount(name, weights=weights, minlength=k)

        calls, failed = per_name(), per_name(spans["failed"])
        self_s, wall_s = per_name(spans["self"]), per_name(spans["duration"])
        count = per_name(spans["count"])
        out = {
            label: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                    "wall_s": float(wall_s[i]), "count": float(count[i]),
                    "failed": int(failed[i]), "children": {}}
            for i, label in enumerate(self.names)
        }
        nested = spans["parent"] >= 0
        pairs = name[spans["parent"][nested]].astype(np.int64) * k + name[nested]
        for pair, n in zip(*np.unique(pairs, return_counts=True)):
            out[self.names[pair // k]]["children"][self.names[pair % k]] = int(n)
        return out

    def save(self, path):
        spans = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **spans)
