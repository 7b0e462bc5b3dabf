"""Spans around the calls into each lpvolterra module, recorded from outside.

The tracer replaces module attributes with thin wrappers while it is
installed and puts the originals back on ``restore``.  A function is
wrapped under every name its callers look it up by: ``cli`` calls
``lpvolterra.cli.run`` while ``radius_scan`` calls ``lpvolterra.engine.run``,
so both names are patched.  Spans are kept in memory as
``[name, start, end, parent, tag]`` and turned into per-layer metrics once
the traced pass is over.

A span's layer is the module that defines the wrapped function, except
where noted.  Work done inside an unwrapped helper (ring arithmetic,
``tp_add``) is charged to the innermost wrapped caller, so ring
arithmetic inside ``tp_mul`` counts as ``trigpoly`` time.
"""

import time
from collections import Counter

# span name, layer, [(module, attribute), ...]
SPANS = (
    ("cli.main", "cli", [("cli", "main")]),
    ("engine.run", "engine", [("engine", "run"), ("cli", "run")]),
    ("engine.build_forcing", "engine", [("engine", "build_forcing")]),
    ("engine.tp_mul", "trigpoly", [("engine", "tp_mul")]),
    ("engine.remove_secular", "engine", [("engine", "remove_secular")]),
    ("engine.particular_solution", "trigpoly", [("engine", "particular_solution")]),
    ("engine.check_order", "engine", [("engine", "_check_order")]),
    ("engine.evaluate_at_zero", "trigpoly", [("engine", "evaluate_at_zero")]),
    ("engine.solve_linear_anchored", "engine", [("engine", "solve_linear_anchored")]),
    ("engine.evaluate_solution", "engine",
     [("engine", "evaluate_solution"), ("cli", "evaluate_solution")]),
    ("algebra.evaluate_numeric", "algebra", [("engine", "evaluate_numeric")]),
    # formatting of CLI output: to_triples lives in trigpoly but only formats
    ("cli.format_element", "algebra", [("cli", "format_element")]),
    ("cli.to_triples", "algebra", [("cli", "to_triples")]),
    ("analysis.radius_scan", "analysis", [("analysis", "radius_scan"), ("cli", "radius_scan")]),
    ("analysis.series_from_engine", "analysis",
     [("analysis", "series_from_engine"), ("cli", "series_from_engine")]),
    ("analysis.stable_singularity", "analysis",
     [("analysis", "stable_singularity"), ("cli", "stable_singularity")]),
    ("analysis.pade_fit", "analysis", [("analysis", "pade_fit")]),
    ("analysis.hermite_pade_fit", "analysis", [("analysis", "hermite_pade_fit")]),
    ("analysis.rational_rref", "analysis", [("analysis", "rational_rref")]),
    ("analysis.pade_poles", "analysis", [("analysis", "pade_poles")]),
    ("analysis.discriminant_roots", "analysis", [("analysis", "discriminant_roots")]),
    ("verify.integrate", "verify", [("verify", "integrate"), ("cli", "integrate")]),
    ("verify.compare_orbit", "verify", [("verify", "compare_orbit"), ("cli", "compare_orbit")]),
)

# called too often for a span each; only counted
COUNTED = (("verify.lv_rhs", [("verify", "lv_rhs")]),)

LAYERS = ("cli", "engine", "trigpoly", "algebra", "analysis", "verify")


def _terms(tp):
    return len(tp.sin) + len(tp.cos)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = Counter()
        self.series = []           # every series engine.run returned
        self.layer_of = {name: layer for name, layer, _ in SPANS}
        self._stack = []
        self._saved = []           # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, _layer, sites in SPANS:
            for mod_name, attr in sites:
                self._patch(mod_name, attr, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, sites in COUNTED:
            for mod_name, attr in sites:
                self._patch(mod_name, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def _patch(self, mod_name, attr, make):
        module = getattr(self.package, mod_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            tag = before(args, kwargs) if before else None
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, tag])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[f"raised.{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # hooks named after the span they observe

    def _before_engine_tp_mul(self, args, kwargs):
        self.counts["trigpoly.mul_term_pairs"] += _terms(args[0]) * _terms(args[1])

    def _before_engine_run(self, args, kwargs):
        self.counts["engine.orders"] += args[0] if args else kwargs["N"]
        gauge = args[2] if len(args) > 2 else kwargs.get("gauge")
        return gauge or self.package.engine.GAUGE_SIMPLIFIED_XI

    def _after_engine_run(self, result):
        self.series.append(result)

    def _before_analysis_rational_rref(self, args, kwargs):
        rows = args[0]
        if rows:
            self.counts["analysis.max_system_cols"] = max(
                self.counts["analysis.max_system_cols"], len(rows[0]))

    def _after_roots(self, result):
        if result:
            self.counts["analysis.fits_with_roots"] += 1

    _after_analysis_pade_poles = _after_roots
    _after_analysis_discriminant_roots = _after_roots

    def _after_verify_integrate(self, result):
        self.counts["verify.samples"] += len(result.times)

    # -- metrics ------------------------------------------------------------

    def metrics(self, wall):
        """Per-layer metrics of everything recorded, for a traced pass that
        took ``wall`` seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _tag in spans:
            if parent >= 0:
                child_time[parent] += end - start
        dur = Counter()
        self_time = Counter()
        calls = Counter()
        layer_self = Counter({layer: 0.0 for layer in LAYERS})
        root_time = 0.0
        anchor = ("engine.evaluate_at_zero", "engine.solve_linear_anchored")
        anchor_s = 0.0
        zero_initial_s = 0.0
        for i, (name, start, end, parent, tag) in enumerate(spans):
            d = end - start
            own = d - child_time[i]
            dur[name] += d
            self_time[name] += own
            calls[name] += 1
            layer_self[self.layer_of[name]] += own
            if parent < 0:
                root_time += d
            if name in anchor and (parent < 0 or spans[parent][0] not in anchor):
                anchor_s += d
            if name == "engine.run" and tag == self.package.engine.GAUGE_ZERO_INITIAL:
                zero_initial_s += d
        fits = calls["analysis.pade_fit"] + calls["analysis.hermite_pade_fit"]
        max_bits, harmonics = series_sizes(self.series)
        out = {
            "engine.convolution_s": (self_time["engine.tp_mul"], "s"),
            "trigpoly.mul_calls": (calls["engine.tp_mul"], "count"),
            "trigpoly.mul_term_pairs": (self.counts["trigpoly.mul_term_pairs"], "count"),
            "engine.zero_initial_run_s": (zero_initial_s, "s"),
            "engine.anchor_s": (anchor_s, "s"),
            "engine.run_s": (dur["engine.run"], "s"),
            "engine.run_calls": (calls["engine.run"], "count"),
            "engine.forcing_s": (self_time["engine.build_forcing"], "s"),
            "engine.secular_s": (dur["engine.remove_secular"], "s"),
            "engine.solve_s": (dur["engine.particular_solution"], "s"),
            "engine.self_check_s": (dur["engine.check_order"], "s"),
            "engine.orders": (self.counts["engine.orders"], "count"),
            "engine.evaluate_s": (dur["engine.evaluate_solution"], "s"),
            "algebra.evaluate_numeric_s": (dur["algebra.evaluate_numeric"], "s"),
            "algebra.max_coeff_bits": (max_bits, "bits"),
            "trigpoly.harmonics": (harmonics, "count"),
            "algebra.format_s": (dur["cli.format_element"] + dur["cli.to_triples"], "s"),
            "analysis.extract_s": (dur["analysis.series_from_engine"], "s"),
            "analysis.pade_fit_s": (dur["analysis.pade_fit"], "s"),
            "analysis.hermite_pade_fit_s": (dur["analysis.hermite_pade_fit"], "s"),
            "analysis.rref_s": (dur["analysis.rational_rref"], "s"),
            "analysis.roots_s": (dur["analysis.pade_poles"]
                                 + dur["analysis.discriminant_roots"], "s"),
            "analysis.chain_s": (self_time["analysis.stable_singularity"], "s"),
            "analysis.fits": (fits, "count"),
            "analysis.usable_fit_ratio": (
                self.counts["analysis.fits_with_roots"] / fits if fits else 0.0, "ratio"),
            "analysis.no_stable_root": (
                self.counts["raised.analysis.stable_singularity.NoStableRootError"], "count"),
            "analysis.max_system_cols": (self.counts["analysis.max_system_cols"], "count"),
            "verify.integrate_s": (dur["verify.integrate"], "s"),
            "verify.compare_s": (dur["verify.compare_orbit"], "s"),
            "verify.rhs_evals": (self.counts["verify.lv_rhs"], "count"),
            "verify.samples": (self.counts["verify.samples"], "count"),
            "cli.self_s": (layer_self["cli"], "s"),
            "bench.self_s": (wall - root_time, "s"),
            "trace.wall_s": (wall, "s"),
        }
        for layer in LAYERS[1:]:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        return out


def _rational_bits(q):
    return int(q.numerator).bit_length() + int(q.denominator).bit_length()


def _element_bits(x):
    """Largest numerator-plus-denominator bit size of any rational inside a
    ring element: a rational, a (u, v) pair, an {exponent: rational} dict
    or a phase polynomial."""
    if hasattr(x, "numerator"):
        return _rational_bits(x)
    if isinstance(x, dict):
        return max((_element_bits(v) for v in x.values()), default=0)
    if isinstance(x, tuple):
        return max((_element_bits(v) for v in x), default=0)
    # PhasePoly: a base-ring constant plus {k: element} sin and cos parts
    parts = [_element_bits(x.const)]
    parts += [_element_bits(v) for v in x.sin.values()]
    parts += [_element_bits(v) for v in x.cos.values()]
    return max(parts)


def series_sizes(series_list):
    """(largest coefficient bit size, total nonzero harmonics) over the
    finished series."""
    max_bits = 0
    harmonics = 0
    for series in series_list:
        for sol in series.orders:
            max_bits = max(max_bits, _element_bits(sol.omega))
            for tp in (sol.xi, sol.eta):
                harmonics += _terms(tp)
                for v in list(tp.sin.values()) + list(tp.cos.values()):
                    max_bits = max(max_bits, _element_bits(v))
    return max_bits, harmonics
