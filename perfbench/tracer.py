"""Per-layer tracing from outside the program.

Each traced function of arithdyn is replaced by a wrapper in every
``arithdyn.*`` module that holds a binding to it: ``from .polynomials
import poly_mul`` makes a binding separate from ``polynomials.poly_mul``,
so rebinding only the defining module would miss the calls made through
the copy.  A wrapper records a span (call count and self time, which is
the span's duration minus the time its traced children took) and may add
counters computed from the call's arguments or result.  Spans are
aggregated in memory; nothing is written while the traced code runs.

Some functions are wrapped for a count only (``timed=False``): they take
no self time away from the span that calls them.
"""

import importlib
import sys
from time import perf_counter


def _bits(x):
    """Bit size of an int or of a Fraction's larger part."""
    if isinstance(x, int):
        return abs(x).bit_length()
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _terms(m):
    return sum(len(p.terms) for p in m.polys)


def _count_cache_get(tr, args, result):
    if args[0]:
        tr.add("cli.cache.hits" if result is not None else "cli.cache.misses", 1)


# (module, attribute, span name, timed, counter hook)
# A hook is called as hook(tracer, args, result) after the call returns.
TARGETS = (
    ("polynomials", "poly_mul", "polynomials.poly_mul", True,
     lambda tr, a, r: tr.add("polynomials.poly_mul.term_pairs",
                             len(a[0].terms) * len(a[1].terms))),
    ("polynomials", "poly_compose", "polynomials.poly_compose", True, None),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd", True, None),
    ("polynomials", "_coprime_certificate", None, False,
     lambda tr, a, r: tr.add("polynomials.poly_gcd.coprime_certified",
                             1 if r else 0)),
    ("polynomials", "_sympy_gcd", None, False,
     lambda tr, a, r: tr.add("polynomials.poly_gcd.sympy_calls", 1)),
    ("polynomials", "poly_eval_int", "polynomials.poly_eval_int", True, None),
    ("heights", "normalize", "heights.normalize", True,
     lambda tr, a, r: tr.peak("heights.normalize.max_bits",
                              max(map(_bits, a[0]), default=0))),
    ("projmaps", "RationalMapPN.__init__", "projmaps.RationalMapPN", True,
     None),
    ("projmaps", "compose_normalized", "projmaps.compose_normalized", True,
     lambda tr, a, r: tr.peak("projmaps.compose_normalized.max_terms",
                              _terms(r))),
    ("projmaps", "map_evaluate", "projmaps.map_evaluate", True, None),
    ("projmaps", "sylvester_resultant", "projmaps.sylvester_resultant", True,
     None),
    ("monomial", "factor_point", "monomial.factor_point", True, None),
    ("monomial", "monomial_step", "monomial.monomial_step", True, None),
    ("monomial", "torus_height", "monomial.torus_height", True, None),
    ("spectral", "spectral_radius", "spectral.spectral_radius", True, None),
    ("spectral", "char_poly", "spectral.char_poly", True, None),
    ("spectral", "_all_roots_inside_radius", None, False,
     lambda tr, a, r: tr.add("spectral.schur_cohn_tests", 1)),
    ("degrees", "p1_height_walk", "degrees.p1_height_walk", True, None),
    ("degrees", "p1_step_constant", "degrees.p1_step_constant", True, None),
    ("degrees", "canonical_height", "degrees.canonical_height", True, None),
    ("degrees", "canht_functional_checks", "degrees.canht_functional_checks",
     True, None),
    ("degrees", "arithdeg_estimate", "degrees.arithdeg_estimate", True, None),
    ("campaign", "run_entry", "campaign.run_entry", True, None),
    ("cli", "main", "cli.main", True, None),
    ("cli", "_cache_get", "cli.cache.get", True, _count_cache_get),
    ("cli", "_cache_put", "cli.cache.put", True, None),
)


class Tracer:
    """Installs the wrappers and holds the aggregated spans and counters."""

    def __init__(self):
        self.values = {}
        self._child = []       # child-span time of each open span
        self._undo = []

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0) + amount

    def peak(self, name, value):
        if value > self.values.get(name, 0):
            self.values[name] = value

    def reset(self):
        self.values = {}

    def _wrap(self, fn, span, timed, hook):
        child = self._child
        tracer = self

        if not timed:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, result)
                return result
            return counted

        calls, self_s = span + ".calls", span + ".self_s"

        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                if child:
                    child[-1] += dt
                values = tracer.values
                values[calls] = values.get(calls, 0) + 1
                values[self_s] = values.get(self_s, 0.0) + (dt - inner)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced

    def install(self):
        """Rebind every target in each loaded arithdyn module."""
        for modname, *_ in TARGETS:
            importlib.import_module("arithdyn." + modname)
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "arithdyn" or name.startswith("arithdyn."))
                   and m is not None]
        for modname, attr, span, timed, hook in TARGETS:
            home = sys.modules["arithdyn." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(orig, span, timed, hook))
                self._undo.append((owner, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(orig, span, timed, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
                        self._undo.append((mod, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []
