"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each public function of the sho_spectra layers
by a wrapper at every name its callers look up (for example both
`specfun.conical_legendre_values` and `mehler.conical_legendre_values`), and
`uninstall()` puts the originals back.  Nothing under src/ changes.

Each call records a span (name, start, end, parent span, run id).  Spans
stay in memory until `write()`.  A span's self time is its duration minus
the time its child spans cover; a layer's self time is the sum over its
spans.  LAPACK calls are their own layer, and each one is also charged to
the layer of the span that made it (`lapack.under_sho`, ...).  A name that
the program no longer has is listed in `absent` instead of failing.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("specfun", "mehler", "sho", "lapack", "scattering1d", "dtheta", "cli")
COUNTERS = ("specfun.conical_legendre_values.points", "sho.HermitianTruncation.matrix.bytes",
            "lapack.input_bytes", "dtheta.dtheta_matrix.bytes", "dtheta.nudges",
            "cli.atomic_write_text.bytes")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


# Counter hooks get (tracer, args, kwargs, result) and add to tracer.counts.
def _points(tr, args, kwargs, result):
    tr.counts["specfun.conical_legendre_values.points"] += int(np.size(_arg(args, kwargs, 1, "x")))


def _kernel(tr, args, kwargs, result):
    # (taus, grid, policy) identify one legendre_kernel matrix
    taus = np.ascontiguousarray(np.atleast_1d(_arg(args, kwargs, 0, "taus")), dtype=float)
    h = hashlib.blake2b(taus.tobytes(), digest_size=16)
    h.update(np.ascontiguousarray(_arg(args, kwargs, 1, "grid").nodes).tobytes())
    h.update(repr(_arg(args, kwargs, 2, "policy")).encode())
    tr.kernel_keys.add(h.hexdigest())


def _matrix_bytes(tr, args, kwargs, result):
    tr.counts["sho.HermitianTruncation.matrix.bytes"] += result.nbytes


def _lapack_bytes(tr, args, kwargs, result):
    # the matrix, or the diagonal and off-diagonal of a tridiagonal problem
    tr.counts["lapack.input_bytes"] += sum(a.nbytes for a in args[:2] if isinstance(a, np.ndarray))


def _dtheta_matrix(tr, args, kwargs, result):
    D, info = result
    tr.counts["dtheta.dtheta_matrix.bytes"] += D.nbytes
    tr.counts["dtheta.nudges"] += len(info["nudges"])


def _written_bytes(tr, args, kwargs, result):
    tr.counts["cli.atomic_write_text.bytes"] += len(_arg(args, kwargs, 1, "text").encode())


# (span name, modules or classes whose attribute is wrapped, attribute, counter hook)
TARGETS = [
    ("specfun.conical_legendre_values", ["specfun", "mehler", "cli"], "conical_legendre_values", _points),
    ("specfun.m_tau", ["specfun", "mehler", "cli"], "m_tau", None),
    ("specfun.zeta_kernel", ["specfun", "sho", "cli"], "zeta_kernel", None),
    ("mehler.legendre_kernel", ["mehler"], "legendre_kernel", _kernel),
    ("mehler.mehler_fock_forward", ["mehler"], "mehler_fock_forward", None),
    ("mehler.mehler_fock_inverse", ["mehler"], "mehler_fock_inverse", None),
    ("mehler.mehler_apply", ["mehler"], "mehler_apply", None),
    ("mehler.mehler_identity_residual", ["mehler"], "mehler_identity_residual", None),
    ("mehler.verify_identity", ["mehler"], "verify_identity", None),
    ("mehler.w_tau", ["mehler"], "w_tau", None),
    ("sho.fourier_coefficients", ["sho"], "fourier_coefficients", None),
    ("sho.assemble_sho_circle", ["sho"], "assemble_sho_circle", None),
    ("sho.cayley_transport", ["sho"], "cayley_transport", None),
    ("sho.sandwich_singular_values", ["sho"], "sandwich_singular_values", None),
    ("sho.compactness_refinement", ["sho"], "compactness_refinement", None),
    ("sho.HermitianTruncation.eigenvalues", ["sho.HermitianTruncation"], "eigenvalues", None),
    ("sho.HermitianTruncation.matrix", ["sho.HermitianTruncation"], "matrix", _matrix_bytes),
    ("lapack.svd", ["numpy.linalg"], "svd", _lapack_bytes),
    ("lapack.eigh", ["numpy.linalg"], "eigh", _lapack_bytes),
    ("lapack.eigh", ["numpy.linalg"], "eigvalsh", _lapack_bytes),
    ("lapack.eigh_tridiagonal", ["dtheta"], "eigh_tridiagonal", _lapack_bytes),
    ("scattering1d.smatrix", ["scattering1d", "dtheta", "cli"], "smatrix", None),
    ("scattering1d.sigma_scan", ["scattering1d", "cli"], "sigma_scan", None),
    ("dtheta.BoxPair.eigensystem", ["dtheta.BoxPair"], "eigensystem", None),
    ("dtheta.dtheta_matrix", ["dtheta"], "dtheta_matrix", _dtheta_matrix),
    ("dtheta.band_prediction", ["dtheta"], "band_prediction", None),
    ("dtheta.jump_operator_consistency", ["dtheta"], "jump_operator_consistency", None),
    ("dtheta.band_filling_report", ["dtheta"], "band_filling_report", None),
    ("dtheta.ladder_report", ["dtheta"], "ladder_report", None),
    ("dtheta.evolution_localization", ["dtheta"], "evolution_localization", None),
    ("cli.main", ["cli"], "main", None),
    ("cli.parse_config", ["cli"], "parse_config", None),
    ("cli.run", ["cli"], "run", None),
    ("cli.write_csv", ["cli"], "write_csv", None),
    ("cli.atomic_write_text", ["cli"], "atomic_write_text", _written_bytes),
]


def _resolve(owner: str):
    """Module or class named relative to sho_spectra (numpy names are absolute)."""
    if owner.startswith("numpy"):
        return importlib.import_module(owner)
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"sho_spectra.{module}")
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()
        self.kernel_keys = set()
        self.absent = []
        self._patched = []       # (owner, attribute, original)

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        wrappers = {}            # one wrapper per original, shared by every lookup name
        for name, owners, attr, hook in TARGETS:
            for owner_name in owners:
                try:
                    owner = _resolve(owner_name)
                except (ImportError, AttributeError):
                    self.absent.append(f"{owner_name}.{attr}")
                    continue
                raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
                if raw is None:
                    self.absent.append(f"{owner_name}.{attr}")
                    continue
                fn = raw.fget if isinstance(raw, property) else raw
                key = id(fn)
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, fn, hook)
                new = property(wrappers[key]) if isinstance(raw, property) else wrappers[key]
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def metrics(self, wall_s: float) -> dict:
        """Per-name calls and self time, per-layer self time, counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        layer_s, lapack_under = defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            layer = name.split(".")[0]
            layer_s[layer] += own
            if layer == "lapack":
                caller = self.spans[parent][0].split(".")[0] if parent is not None else "bench"
                lapack_under[caller] += own
        out = {}
        for name in sorted({t[0] for t in TARGETS}):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_s[layer]
            out[f"{layer}.self_share"] = layer_s[layer] / wall_s
        for caller in ("sho", "dtheta", "mehler"):
            out[f"lapack.under_{caller}.self_s"] = lapack_under[caller]
        for key in COUNTERS:
            out[key] = self.counts[key]
        n_kernel = calls["mehler.legendre_kernel"]
        out["mehler.legendre_kernel.distinct"] = len(self.kernel_keys)
        out["mehler.legendre_kernel.repeat_share"] = (
            1.0 - len(self.kernel_keys) / n_kernel if n_kernel else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def write(self, path: str):
        """Write the spans as JSON: name, start and end (perf_counter seconds),
        parent span index and run id."""
        with open(path, "w") as fh:
            json.dump({"absent": self.absent,
                       "spans": [{"name": n, "start": s, "end": e, "parent": p, "run": self.run_id}
                                 for n, s, e, p in self.spans]}, fh)
