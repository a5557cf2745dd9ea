"""Sparse homogeneous multivariate polynomials over Z.

Polynomials are stored as sparse term maps from packed exponent vectors to
nonzero integer coefficients.  Every polynomial is homogeneous: all exponent
vectors of a nonzero polynomial sum to the same total degree, which is
enforced at construction time.  The zero polynomial is the empty term map
with the conventional degree marker ``-1``.

The canonical term order is graded lexicographic.  Since all terms of a
homogeneous polynomial share one degree, this reduces to plain lexicographic
comparison of exponent vectors.  Canonical forms (and therefore printed
output, serialized files and gcd sign conventions) are byte-for-byte
reproducible across runs.

Greatest common divisors are computed in three stages: integer content and
common monomial factors are stripped exactly, a sound evaluation-based test
certifies the coprime case quickly, and only genuinely nontrivial gcds fall
through to a general multivariate gcd (delegated to sympy's polys).  Every
nontrivial answer is verified by exact trial division before it is returned,
so correctness never rests on the fast paths.

The same module holds the toolkit's one dense univariate layer: binary
forms as coefficient lists (lowest power of the first variable first), the
Sylvester rows of two such lists, and an in-place strip of trailing zeros.
Sylvester/Bezout cofactors are built on it, so the mod-p coprimality
certificate is the only univariate gcd.
"""

from math import gcd as _intgcd

from .errors import ContractViolation, DegreeMismatch, ResourceCapExceeded

# Exponents are packed little-endian into a single int, _SHIFT bits per
# variable.  Monomial multiplication is then integer addition of keys.
_SHIFT = 24
_MASK = (1 << _SHIFT) - 1

ZERO_DEGREE = -1


def _pack(exps):
    key = 0
    for i, e in enumerate(exps):
        key |= e << (_SHIFT * i)
    return key


def _unpack(key, nvars):
    return tuple((key >> (_SHIFT * i)) & _MASK for i in range(nvars))


class MultiPoly:
    """A sparse homogeneous polynomial with integer coefficients.

    Instances are immutable after construction and safe to share between
    threads.  Use :meth:`from_terms` or :func:`parse_poly` to build one.
    """

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars, terms, degree):
        # Internal constructor: `terms` must already be a canonical
        # packed-key -> nonzero-coeff dict of the stated degree.
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "degree", degree)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def from_terms(cls, nvars, term_list):
        """Build a polynomial from ``(coeff, exponent_vector)`` pairs.

        Like terms are merged and zero coefficients dropped.  Raises
        DegreeMismatch if the nonzero terms are not homogeneous of a single
        degree, and ContractViolation on negative or oversized exponents.
        """
        if nvars < 1:
            raise ContractViolation("nvars must be >= 1")
        acc = {}
        degree = None
        for coeff, exps in term_list:
            coeff = int(coeff)
            if coeff == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ContractViolation(
                    f"exponent vector {exps} does not have {nvars} entries")
            if any(e < 0 for e in exps):
                raise ContractViolation(f"negative exponent in {exps}")
            if any(e > _MASK for e in exps):
                raise ContractViolation(f"exponent too large in {exps}")
            d = sum(exps)
            if degree is None:
                degree = d
            elif d != degree:
                raise DegreeMismatch(
                    f"term of degree {d} in a degree-{degree} polynomial")
            key = _pack(exps)
            c = acc.get(key, 0) + coeff
            if c:
                acc[key] = c
            else:
                del acc[key]
        if not acc:
            return cls(nvars, {}, ZERO_DEGREE)
        return cls(nvars, acc, degree)

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {}, ZERO_DEGREE)

    @classmethod
    def constant(cls, nvars, c):
        c = int(c)
        if c == 0:
            return cls.zero(nvars)
        return cls(nvars, {0: c}, 0)

    @classmethod
    def monomial(cls, nvars, coeff, exps):
        return cls.from_terms(nvars, [(coeff, exps)])

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return self.degree <= 0

    def __len__(self):
        return len(self.terms)

    def items(self):
        """Iterate ``(exponent_vector, coeff)`` in descending graded-lex order."""
        nv = self.nvars
        for key in sorted(self.terms, key=lambda k: _unpack(k, nv), reverse=True):
            yield _unpack(key, nv), self.terms[key]

    def leading_term(self):
        """Return ``(exponent_vector, coeff)`` of the graded-lex leading term."""
        if not self.terms:
            raise ContractViolation("zero polynomial has no leading term")
        nv = self.nvars
        key = max(self.terms, key=lambda k: _unpack(k, nv))
        return _unpack(key, nv), self.terms[key]

    def leading_coeff(self):
        return self.leading_term()[1]

    def max_abs_coeff(self):
        if not self.terms:
            return 0
        return max(abs(c) for c in self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.nvars == other.nvars and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"MultiPoly({format_poly(self, names)})"


def poly_mul(p, q):
    """Distributed product; degree adds, terms stay canonical."""
    if p.nvars != q.nvars:
        raise DegreeMismatch("cannot multiply polynomials in different rings")
    if p.is_zero() or q.is_zero():
        return MultiPoly.zero(p.nvars)
    # no exponent of a homogeneous polynomial exceeds its degree, so this
    # one check keeps every packed field of the product from carrying
    degree = p.degree + q.degree
    if degree > _MASK:
        raise ResourceCapExceeded(
            f"product degree {degree} exceeds the packed exponent limit"
            f" {_MASK}")
    # iterate the smaller factor outside
    a, b = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    acc = {}
    get = acc.get
    bitems = list(b.items())
    for ka, ca in a.items():
        for kb, cb in bitems:
            k = ka + kb
            s = get(k, 0) + ca * cb
            if s:
                acc[k] = s
            else:
                del acc[k]
    if not acc:
        return MultiPoly.zero(p.nvars)
    return MultiPoly(p.nvars, acc, degree)


def poly_pow(p, n):
    if n < 0:
        raise ContractViolation("negative power")
    result = MultiPoly.constant(p.nvars, 1)
    base = p
    while n:
        if n & 1:
            result = poly_mul(result, base)
        base_needed = n >> 1
        if base_needed:
            base = poly_mul(base, base)
        n = base_needed
    return result


def poly_compose(p, subs):
    """Substitute ``subs[i]`` for variable ``i`` of ``p``.

    All substituted polynomials must live in one ring and share a common
    degree ``d`` (zero polynomials are degree-neutral and admitted); the
    result is homogeneous of degree ``deg(p) * d``.
    """
    if len(subs) != p.nvars:
        raise ContractViolation(
            f"need {p.nvars} substitution polynomials, got {len(subs)}")
    if not subs:
        raise ContractViolation("empty substitution")
    nv = subs[0].nvars
    d = None
    for s in subs:
        if s.nvars != nv:
            raise DegreeMismatch("substitutions live in different rings")
        if s.is_zero():
            continue
        if d is None:
            d = s.degree
        elif s.degree != d:
            raise DegreeMismatch("substitutions have mixed degrees")
    if p.is_zero():
        return MultiPoly.zero(nv)
    if d is None:
        d = 1  # all substitutions zero; only constants survive
    # cache powers of each substituted polynomial
    pow_cache = [dict() for _ in range(p.nvars)]

    def spow(i, e):
        cache = pow_cache[i]
        got = cache.get(e)
        if got is None:
            got = poly_pow(subs[i], e)
            cache[e] = got
        return got

    total = {}
    for exps, coeff in p.items():
        prod = None
        for i, e in enumerate(exps):
            if e == 0:
                continue
            factor = spow(i, e)
            prod = factor if prod is None else poly_mul(prod, factor)
        if prod is None:
            prod = MultiPoly.constant(nv, 1)
        for k, c in prod.terms.items():
            s = total.get(k, 0) + coeff * c
            if s:
                total[k] = s
            else:
                del total[k]
    if not total:
        return MultiPoly.zero(nv)
    return MultiPoly(nv, total, p.degree * d)


def poly_eval_int(p, point):
    """Exact evaluation at integer coordinates, returning an int."""
    total = 0
    for key, coeff in p.terms.items():
        term = coeff
        k = key
        for v in point:
            e = k & _MASK
            if e:
                term *= v ** e
            k >>= _SHIFT
        total += term
    return total


def poly_content(p):
    """Positive gcd of all coefficients.  Zero input is rejected."""
    if p.is_zero():
        raise ContractViolation("content of the zero polynomial")
    g = 0
    for c in p.terms.values():
        g = _intgcd(g, abs(c))
        if g == 1:
            break
    return g


def poly_primitive_part(p):
    """p divided by its content, sign-fixed so the graded-lex leading
    coefficient is positive."""
    g = poly_content(p)
    if p.leading_coeff() < 0:
        g = -g
    if g == 1:
        return p
    return MultiPoly(p.nvars, {k: c // g for k, c in p.terms.items()}, p.degree)


def _monomial_content_key(p):
    """Packed key of the largest monomial dividing every term of p."""
    mins = [_MASK] * p.nvars
    for key in p.terms:
        k = key
        for i in range(p.nvars):
            e = k & _MASK
            if e < mins[i]:
                mins[i] = e
            k >>= _SHIFT
        if not any(mins):
            return 0
    return _pack(mins)


def _shift_down(p, monkey):
    """Divide p exactly by the monomial with packed key `monkey`."""
    if monkey == 0:
        return p
    deg = sum(_unpack(monkey, p.nvars))
    return MultiPoly(p.nvars, {k - monkey: c for k, c in p.terms.items()},
                     p.degree - deg)


def poly_divmod_exact(p, g):
    """Return q with p = q*g, or None if g does not divide p exactly.

    Standard leading-term division in graded-lex order; both inputs are
    homogeneous so the quotient is homogeneous of degree deg p - deg g.
    """
    if g.is_zero():
        raise ContractViolation("division by the zero polynomial")
    if p.is_zero():
        return MultiPoly.zero(p.nvars)
    if p.nvars != g.nvars or p.degree < g.degree:
        return None
    nv = p.nvars
    g_lead_exps, g_lead_c = g.leading_term()
    g_lead_key = _pack(g_lead_exps)
    rem = dict(p.terms)
    quo = {}
    g_items = list(g.terms.items())
    while rem:
        lead_key = max(rem, key=lambda k: _unpack(k, nv))
        lead_c = rem[lead_key]
        # exponent-wise subtraction with borrow detection
        qexps = []
        ok = True
        lk, gk = lead_key, g_lead_key
        for _ in range(nv):
            d = (lk & _MASK) - (gk & _MASK)
            if d < 0:
                ok = False
                break
            qexps.append(d)
            lk >>= _SHIFT
            gk >>= _SHIFT
        if not ok:
            return None
        qc, r = divmod(lead_c, g_lead_c)
        if r:
            return None
        qkey = _pack(qexps)
        quo[qkey] = qc
        for k, c in g_items:
            kk = k + qkey
            s = rem.get(kk, 0) - qc * c
            if s:
                rem[kk] = s
            else:
                rem.pop(kk, None)
    return MultiPoly(nv, quo, p.degree - g.degree)


# ---------------------------------------------------------------------------
# dense univariate coefficient lists, lowest power first


def strip(coeffs):
    """Drop trailing zero coefficients of a list in place and return it."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def binary_coeffs(p):
    """Coefficients [a_0, ..., a_d] of a binary form of degree d, where a_k
    multiplies x^k y^(d-k): the dehomogenization p(t, 1), lowest power
    first."""
    out = [0] * (p.degree + 1)
    for key, c in p.terms.items():
        out[key & _MASK] = c
    return out


def sylvester_rows(a, b):
    """Sylvester matrix of two coefficient lists of one length d + 1:
    d shifted copies of a, then d shifted copies of b, each 2d wide."""
    d = len(a) - 1
    return [[0] * s + c + [0] * (d - 1 - s) for c in (a, b) for s in range(d)]


# random specializations tried per variable before the certificate gives up
_CERTIFICATE_TRIES = 4


def _coprime_certificate(p, q):
    """Soundly certify gcd(p, q) constant, or return False (unknown).

    For each variable v we specialize the remaining variables to random
    residues modulo a prime and take a univariate gcd over F_p.  If the
    leading v-coefficient of p survives the specialization and the
    univariate gcd is constant, any common divisor has v-degree zero.
    When that holds for every variable, the gcd is an integer.
    """
    import random

    nv = p.nvars
    rng = random.Random(0x5EED ^ (len(p.terms) * 1009 + len(q.terms)))
    prime = 2147483629

    def vdeg(poly, v):
        return max(((key >> (_SHIFT * v)) & _MASK) for key in poly.terms)

    def specialize(poly, v, vals):
        # univariate coefficient list in variable v over F_prime
        dv = vdeg(poly, v)
        coeffs = [0] * (dv + 1)
        for key, c in poly.terms.items():
            term = c % prime
            k = key
            ev = 0
            for i in range(nv):
                e = k & _MASK
                if i == v:
                    ev = e
                elif e:
                    term = term * pow(vals[i], e, prime) % prime
                k >>= _SHIFT
            coeffs[ev] = (coeffs[ev] + term) % prime
        return coeffs

    def unigcd_deg(a, b):
        # degree of gcd of two F_p coefficient lists (low-to-high)
        a, b = strip(list(a)), strip(list(b))
        while b:
            inv = pow(b[-1], prime - 2, prime)
            while len(a) >= len(b):
                f = a[-1] * inv % prime
                off = len(a) - len(b)
                for i, bc in enumerate(b):
                    a[off + i] = (a[off + i] - f * bc) % prime
                strip(a)
                if not a:
                    break
            a, b = b, a
        return len(a) - 1

    for v in range(nv):
        dpv = vdeg(p, v)
        dqv = vdeg(q, v)
        if dpv == 0 or dqv == 0:
            # the gcd's v-degree is bounded by min(dpv, dqv) = 0 already
            continue
        done = False
        for _ in range(_CERTIFICATE_TRIES):
            vals = [rng.randrange(1, prime) for _ in range(nv)]
            cp = specialize(p, v, vals)
            # if the leading v-coefficient of p survives, so does the
            # leading v-coefficient of any divisor of p
            if cp[-1] == 0:
                continue
            cq = specialize(q, v, vals)
            if unigcd_deg(cp, cq) == 0:
                done = True
                break
            return False  # likely a common factor; let the caller verify
        if not done:
            return False
    return True


def _sympy_gcd(p, q):
    """General multivariate gcd, delegated and then re-verified."""
    import sympy

    syms = sympy.symbols(f"t0:{p.nvars}")

    def to_expr(poly):
        e = sympy.Integer(0)
        for exps, c in poly.items():
            term = sympy.Integer(c)
            for s, k in zip(syms, exps):
                if k:
                    term *= s ** k
            e += term
        return e

    g = sympy.gcd(sympy.Poly(to_expr(p), *syms, domain="ZZ"),
                  sympy.Poly(to_expr(q), *syms, domain="ZZ"))
    terms = []
    for monom, coeff in g.terms():
        terms.append((int(coeff), tuple(int(m) for m in monom)))
    return MultiPoly.from_terms(p.nvars, terms)


def poly_gcd(p, q):
    """Primitive greatest common divisor over Z.

    The result has content 1 and positive graded-lex leading coefficient;
    ``poly_gcd(p, 0)`` is the sign-normalized primitive part of ``p``.
    Nontrivial candidates are verified by exact trial division.
    """
    if p.nvars != q.nvars:
        raise DegreeMismatch("gcd of polynomials in different rings")
    if p.is_zero() and q.is_zero():
        raise ContractViolation("gcd(0, 0) is undefined")
    if p.is_zero():
        return poly_primitive_part(q)
    if q.is_zero():
        return poly_primitive_part(p)

    pp = poly_primitive_part(p)
    qq = poly_primitive_part(q)

    mp = _monomial_content_key(pp)
    mq = _monomial_content_key(qq)
    common = _pack(tuple(min(a, b) for a, b in
                         zip(_unpack(mp, p.nvars), _unpack(mq, p.nvars))))
    pp = _shift_down(pp, mp)
    qq = _shift_down(qq, mq)

    def with_common(core):
        if common == 0:
            return core
        exps = _unpack(common, p.nvars)
        return poly_mul(core, MultiPoly.monomial(p.nvars, 1, exps))

    # with the monomial content stripped, a single term is a constant
    if pp.is_constant() or qq.is_constant():
        return with_common(MultiPoly.constant(p.nvars, 1))
    if _coprime_certificate(pp, qq):
        return with_common(MultiPoly.constant(p.nvars, 1))

    g = _sympy_gcd(pp, qq)
    g = poly_primitive_part(g)
    if poly_divmod_exact(pp, g) is None or poly_divmod_exact(qq, g) is None:
        raise AssertionError("gcd verification by trial division failed")
    return with_common(g)


def gcd_many(polys):
    """Primitive gcd of a list of polynomials (zeros are skipped)."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise ContractViolation("gcd of all-zero family")
    g = poly_primitive_part(nz[0])
    one = MultiPoly.constant(g.nvars, 1)
    for p in nz[1:]:
        if g == one:
            break
        g = poly_gcd(g, p)
    return g


def format_poly(p, varnames):
    """Render in the plain text form ``c*x^e*y^e`` joined by signs."""
    if len(varnames) != p.nvars:
        raise ContractViolation("wrong number of variable names")
    if p.is_zero():
        return "0"
    parts = []
    for exps, coeff in p.items():
        factors = []
        for name, e in zip(varnames, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        sign = "-" if coeff < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def parse_poly(text, varnames):
    """Parse the text form produced by :func:`format_poly`.

    Accepts integer coefficients (implicit 1), ``^`` powers (implicit 1)
    and both ASCII and U+2212 minus signs.
    """
    nv = len(varnames)
    index = {name: i for i, name in enumerate(varnames)}
    s = text.replace("−", "-").replace(" ", "")
    if not s:
        raise ContractViolation("empty polynomial text")
    # split into signed chunks at top level (no parentheses in this format)
    chunks = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*^":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    terms = []
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ContractViolation(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * nv
        for factor in chunk.split("*"):
            if not factor:
                raise ContractViolation(f"empty factor in {text!r}")
            if factor[0].isdigit():
                coeff *= int(factor)
                continue
            if "^" in factor:
                name, _, e = factor.partition("^")
                power = int(e)
            else:
                name, power = factor, 1
            if name not in index:
                raise ContractViolation(f"unknown variable {name!r}")
            exps[index[name]] += power
        terms.append((coeff, exps))
    return MultiPoly.from_terms(nv, terms)
