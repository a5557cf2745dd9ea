"""Sparse homogeneous multivariate polynomials over Z.

Polynomials are stored as sparse term maps from packed exponent vectors to
nonzero integer coefficients.  Every polynomial is homogeneous: all exponent
vectors of a nonzero polynomial sum to the same total degree, which is
enforced at construction time.  The zero polynomial is the empty term map
with the conventional degree marker ``-1``.

The canonical term order is graded lexicographic.  Since all terms of a
homogeneous polynomial share one degree, this reduces to plain lexicographic
comparison of exponent vectors.  A term's key packs its exponent vector
into one int, 24 bits a variable, the first variable in the highest field.
No field carries, so comparing two keys compares their fields from the
first variable on: on a homogeneous polynomial integer order on keys is
the term order, and monomial multiplication is addition of keys.
Canonical forms (and therefore printed output, serialized files and gcd
sign conventions) are byte-for-byte reproducible across runs.

Compositions substitute polynomials into polynomials.  ``poly_compose``
forms each monomial the polys need once, as a term map made by
``poly_mul``, a loop over term pairs, and adds the monomials term by
term.

Greatest common divisors are computed in three stages.  Integer content
and monomial content are stripped exactly: dividing by a monomial
subtracts its key from every key, and the shared monomial goes back on
the gcd by adding its key.  A sound evaluation-based certificate then
decides every coprime case, constants included.  Only the rest fall
through to sympy's multivariate gcd, which gets both forms as maps from
exponent tuples to coefficients (no sympy expression is built);
poly_gcd verifies its answer by exact trial division before returning
it.

The same module is the one that computes modulo the certificate prime
p = 2^31 - 19: the coprimality certificate of poly_gcd and
line_certificate, which projmaps.degree_sequence asks, share one seeded
sampler and one F_p test, and pivots_mod_p is the rank pass of the
Macaulay elimination of projmaps.map_certificate.

Both certificates hold a univariate form mod p as one Python int, packed
(von zur Gathen and Gerhard, Modern Computer Algebra, ch. 8): the
coefficient of x^k in slot k, _SLOT = 96 bits a slot, lowest power
first.  Every slot stays nonnegative and below 2^96, so no slot carries
into the next and the int is exactly the sum of its slots.  As
2^31 = 19 mod p, one round v -> (v & LO) + 19 ((v >> 31) & HI), where LO
and HI keep the low 31 and the low 65 bits of every slot, keeps each
slot mod p and takes it from below 2^b to below 2^31 + 2^(b - 26): three
rounds take any slot below 2^32, two any slot below 2^82.  A product of
two forms of at most D + 1 slots below 2^32 has slots below
(D + 1) 2^64, and D < 2^24 for every form the certificates build, as
for every exponent: so line_certificate composes by one big-integer
product a monomial, reduced after each, and the Euclid of fp_gcd adds
whole shifted forms and reads only the top slot exactly mod p.
"""

import functools
from math import gcd as _intgcd

from .errors import ContractViolation, DegreeMismatch, ResourceCapExceeded

# _SHIFT bits per variable, the first variable in the highest field: key
# order is the term order (see the module docstring).
_SHIFT = 24
_MASK = (1 << _SHIFT) - 1

ZERO_DEGREE = -1


def _pack(exps):
    key = 0
    for e in exps:
        key = key << _SHIFT | e
    return key


def _unpack(key, nvars):
    return tuple((key >> (_SHIFT * i)) & _MASK
                 for i in range(nvars - 1, -1, -1))


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
        for key in sorted(self.terms, reverse=True):
            yield _unpack(key, self.nvars), self.terms[key]

    def leading_term(self):
        """Return ``(exponent_vector, coeff)`` of the graded-lex leading term."""
        if not self.terms:
            raise ContractViolation("zero polynomial has no leading term")
        key = max(self.terms)
        return _unpack(key, self.nvars), self.terms[key]

    def leading_coeff(self):
        return self.leading_term()[1]

    def max_abs_coeff(self):
        if not self.terms:
            return 0
        return max(map(abs, self.terms.values()))

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
    return MultiPoly(p.nvars, acc, degree)


def _units(nv):
    """The packed keys of the nv variables, the first variable's first."""
    return [1 << (_SHIFT * i) for i in range(nv - 1, -1, -1)]


def _monomials(polys, prods, mul):
    """Add to prods, a dict by packed key that holds the variables' units,
    every monomial of polys it lacks: mul of the entry of a monomial of
    one degree less and that of one variable.  The peel takes one unit off
    the highest nonzero field of the key, which holds the first variable
    with a nonzero exponent."""
    for p in polys:
        for key in p.terms:
            chain = []
            k = key
            while k not in prods:
                u = 1 << (k.bit_length() - 1) // _SHIFT * _SHIFT
                chain.append((k, u))
                k -= u
            for k, u in reversed(chain):
                prods[k] = mul(prods[k - u], prods[u])


def poly_compose(polys, subs):
    """Substitute ``subs[i]`` for variable ``i`` of every poly in ``polys``
    and return the list of compositions, one per poly.

    All substituted polynomials must live in one ring and share a common
    degree ``d`` (zero polynomials are degree-neutral and admitted); the
    composition of ``p`` is homogeneous of degree ``deg(p) * d``.  Each
    monomial the polys need is formed once per call by _monomials, as a
    term map, and each composition adds them term by term.
    """
    for p in polys:
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
    if d is None:
        d = 1  # all substitutions zero; only constants survive
    top = max([0] + [p.degree for p in polys]) * d
    if top > _MASK:
        raise ResourceCapExceeded(
            f"composed degree {top} exceeds the packed exponent limit {_MASK}")
    # substituted monomials by packed exponent key
    prods = dict(zip(_units(len(subs)), subs))
    prods[0] = MultiPoly.constant(nv, 1)
    _monomials(polys, prods, poly_mul)
    out = []
    for p in polys:
        total = {}
        for key, coeff in p.terms.items():
            for k, c in prods[key].terms.items():
                s = total.get(k, 0) + coeff * c
                if s:
                    total[k] = s
                else:
                    del total[k]
        out.append(MultiPoly(nv, total, p.degree * d) if total
                   else MultiPoly.zero(nv))
    return out


def poly_eval_int(p, point):
    """Exact evaluation at integer coordinates, returning an int."""
    total = 0
    rpoint = point[::-1]  # the lowest field holds the last variable
    for key, coeff in p.terms.items():
        term = coeff
        k = key
        for v in rpoint:
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


def _divide(p, g):
    """p divided exactly by the nonzero integer g."""
    if g == 1:
        return p
    return MultiPoly(p.nvars, {k: c // g for k, c in p.terms.items()}, p.degree)


def poly_primitive_part(p):
    """p divided by its content, sign-fixed so the graded-lex leading
    coefficient is positive."""
    g = poly_content(p)
    return _divide(p, -g if p.leading_coeff() < 0 else g)


def _monomial_content_key(p):
    """Packed key of the largest monomial dividing every term of p."""
    mins = [_MASK] * p.nvars  # by field, the last variable's first
    for key in p.terms:
        k = key
        for i in range(p.nvars):
            e = k & _MASK
            if e < mins[i]:
                mins[i] = e
            k >>= _SHIFT
        if not any(mins):
            return 0
    return _pack(reversed(mins))


def _shift(p, monkey, sign):
    """p times (sign 1), or divided exactly by (sign -1), the monomial
    with packed key `monkey`."""
    if monkey == 0:
        return p
    deg = sum(_unpack(monkey, p.nvars))
    monkey *= sign
    return MultiPoly(p.nvars, {k + monkey: c for k, c in p.terms.items()},
                     p.degree + sign * deg)


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
    rem = dict(p.terms)
    quo = {}
    g_items = list(g.terms.items())
    while rem:
        lead_key = max(rem)
        lead_c = rem[lead_key]
        qexps = [a - b for a, b in zip(_unpack(lead_key, nv), g_lead_exps)]
        if min(qexps) < 0:
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


_CERT_PRIME = 2147483629  # 2^31 - 19; every residue of the certificates
_SLOT = 96  # bits a coefficient in the packed F_p layout
_FOLD = (1 << 31) - _CERT_PRIME  # 19 = 2^31 mod _CERT_PRIME


@functools.lru_cache(maxsize=None)
def _cert_points(nv):
    """Points a, b of nv nonzero residues mod _CERT_PRIME from a fixed seed:
    line_certificate restricts to s a + t b, _coprime_certificate to a."""
    import random

    rng = random.Random(0x11E)
    return tuple(tuple(rng.randrange(1, _CERT_PRIME) for _ in range(nv))
                 for _ in range(2))


def _fp_pack(residues):
    """The packed form with the nonnegative residues (lowest power first)
    in its slots."""
    size = _SLOT // 8
    return int.from_bytes(b"".join(r.to_bytes(size, "little")
                                   for r in residues), "little")


def _fp_masks(nslots):
    """The masks of _fp_reduce for forms of up to nslots slots: the low
    31 bits of every slot, and the low _SLOT - 31 bits."""
    size = _SLOT // 8
    return tuple(int.from_bytes(((1 << w) - 1).to_bytes(size, "little")
                                * nslots, "little")
                 for w in (31, _SLOT - 31))


def _fp_reduce(v, masks, bits):
    """The packed form v, slots below 2^bits <= 2^_SLOT, with each slot
    taken below 2^32 and kept mod _CERT_PRIME.  A round writes a slot
    2^31 h + l as l + 19 h, below 2^31 + 2^(bits - 26) (module
    docstring)."""
    low, high = masks
    while bits > 32:
        v = (v & low) + _FOLD * ((v >> 31) & high)
        bits = max(bits - 26, 31) + 1
    return v


def _fp_strip(v):
    """The packed form v without its top slots that are 0 mod _CERT_PRIME,
    so (v.bit_length() - 1) // _SLOT is its degree."""
    while v:
        shift = (v.bit_length() - 1) // _SLOT * _SLOT
        top = v >> shift
        if top % _CERT_PRIME:
            break
        v ^= top << shift
    return v


def fp_gcd(a, b):
    """A gcd over F_p, p = _CERT_PRIME, of two packed forms whose slots are
    below 2^32, as a packed form of that kind whose top slot is nonzero mod
    p: 0 when both are zero.

    Each step takes the top slot t of a off and adds g b_tail x^k, where
    b_tail is b without its top slot b_t and g = -t / b_t mod p, so only
    the top slot is read exactly mod p.  A step adds below 2^63 to a slot,
    so after the s steps of a division the remainder's slots are below
    2^32 + s 2^63, and it is reduced before it divides.
    """
    prime = _CERT_PRIME
    masks = _fp_masks(max(a.bit_length(), b.bit_length()) // _SLOT + 1)
    a, b = _fp_strip(a), _fp_strip(b)
    while b:
        width = (b.bit_length() - 1) // _SLOT * _SLOT
        top = b >> width
        neg_inv = prime - pow(top, -1, prime)
        tail = b ^ top << width
        steps = 0
        while (length := a.bit_length()) > width:
            shift = (length - 1) // _SLOT * _SLOT
            top = a >> shift
            g = top * neg_inv % prime
            a += (g * tail - (top << width)) << shift - width
            steps += 1
        a, b = b, _fp_strip(_fp_reduce(a, masks, 63 + steps.bit_length()))
    return a


def _fp_coprime(lead, degree, others):
    """True when the packed form lead keeps its slot degree, the top one,
    nonzero and its F_p gcd with the packed forms of others, read until it
    is constant, is constant.  Both certificates rest on it: each form
    holds the residues mod _CERT_PRIME of a form over Z specialized to one
    variable, and a common factor H of the forms of positive degree in it
    divides each with an integral cofactor (Gauss), so H keeps its top
    entry with the lead's and its specialization, of that degree, divides
    every form."""
    if not (lead >> _SLOT * degree) % _CERT_PRIME:
        return False
    gcd = lead
    for other in others:
        if gcd < 1 << _SLOT:
            break
        gcd = fp_gcd(gcd, other)
    return gcd < 1 << _SLOT


def _coprime_certificate(p, q):
    """Soundly certify gcd(p, q) constant, or return False (unknown).

    Requires that no variable divides p or q; poly_gcd, the only caller,
    strips monomial content first.  For each variable v but the last, the
    others are set to the first point of _cert_points and the last to 1
    (which loses nothing on forms: p(x, a, b) = b^d p(x/b, a/b, 1)), and
    _fp_coprime gets p's specialization in v as the lead; when it passes,
    every common divisor has v-degree 0.  That suffices: a nonconstant
    common factor g is homogeneous, and if it involved only x_last it
    would be c*x_last^k, dividing both forms.  So g involves an earlier
    v, both forms have positive v-degree (v is not skipped), and that
    check sees a gcd of degree >= deg_v(g) >= 1.
    """
    nv = p.nvars
    vals = _cert_points(nv)[0]

    def columns(poly):
        # the exponents of each variable but the last, by term, and their max
        cols = [[(k >> (_SHIFT * (nv - 1 - i))) & _MASK for k in poly.terms]
                for i in range(nv - 1)]
        return cols, [max(col) for col in cols]

    def specialize(poly, cols, degs, v):
        # packed univariate form in variable v over F_p
        terms = list(poly.terms.values())
        for i, col in enumerate(cols):
            if i == v or not degs[i]:
                continue
            table = [1]
            for _ in range(degs[i]):
                table.append(table[-1] * vals[i] % _CERT_PRIME)
            terms = [t * table[e] for t, e in zip(terms, col)]
        coeffs = [0] * (degs[v] + 1)
        for t, e in zip(terms, cols[v]):
            coeffs[e] += t
        return _fp_pack([c % _CERT_PRIME for c in coeffs])

    pcols, pdegs = columns(p)
    qcols, qdegs = columns(q)
    for v in range(nv - 1):
        # when v is missing from p or q the gcd's v-degree is 0 already
        if pdegs[v] and qdegs[v] and not _fp_coprime(
                specialize(p, pcols, pdegs, v), pdegs[v],
                [specialize(q, qcols, qdegs, v)]):
            return False  # likely a common factor; let the caller verify
    return True


def _fp_compose(forms, line, nslots):
    """The packed forms F(line) mod _CERT_PRIME, slots below 2^32, of the
    forms F at the packed binary forms of line, one per variable, of up to
    nslots slots: each monomial one product, reduced, formed once by
    _monomials.  A product's slot sums at most nslots products below
    2^64, and a form's slot at most len(terms) products below 2^63."""
    masks = _fp_masks(nslots)
    bits = 64 + nslots.bit_length()
    prods = dict(zip(_units(len(line)), line))
    prods[0] = 1
    _monomials(forms, prods, lambda x, y: _fp_reduce(x * y, masks, bits))
    return [_fp_reduce(sum(c % _CERT_PRIME * prods[k]
                           for k, c in p.terms.items()), masks,
                       63 + len(p.terms).bit_length())
            for p in forms]


def line_certificate(forms, nmax):
    """True when the naive composites F^(n) = F(F^(n-1)) of the forms F,
    one per variable, are provably coprime for n <= nmax, so that the map
    has deg f^n = d^n; False means "not certified".

    G_n = F^(n)(s a + t b), for the points a, b of _cert_points, is formed
    as F(G_(n-1)) mod _CERT_PRIME by _fp_compose: packed binary forms of
    degree D = d^n, slot k the coefficient of s^k t^(D-k).  At every
    n >= 2 _fp_coprime gets the first G_j that keeps its s^D coefficient
    F^(n)_j(a) as the lead, and the other G_j.  A coprime F^(n) makes each
    F^(k), k < n, coprime, as F^(k) = H Q would give F^(n) =
    H^(d^(n-k)) F^(n-k)(Q).  The loop returns at the first n that fails,
    so a map whose degree drops pays only up to its first drop; d^nmax
    must fit a packed exponent field.
    """
    d = max(p.degree for p in forms)
    line = [y + (x << _SLOT) for x, y in zip(*_cert_points(len(forms)))]
    top = 1
    for n in range(1, nmax + 1):
        top *= d
        line = _fp_compose(forms, line, top + 1)
        if n == 1:
            continue  # the forms are coprime by construction
        j = next((j for j, g in enumerate(line)
                  if (g >> _SLOT * top) % _CERT_PRIME), None)
        if j is None or not _fp_coprime(line[j], top,
                                        line[:j] + line[j + 1:]):
            return False
    return True


def pivots_mod_p(rows, ncols):
    """Indices of ncols rows, {column: coefficient} each, of full rank
    modulo _CERT_PRIME, or None.

    Rows are packed into one integer, a slot of `width` bits per column
    from the current pivot column up; slots stay nonnegative and
    unreduced, and each of at most ncols steps adds less than p^2 to one,
    so no slot carries into the next.
    """
    prime = _CERT_PRIME
    width = 2 * prime.bit_length() + ncols.bit_length() + 1
    mask = (1 << width) - 1
    packed = [sum(c % prime << width * j for j, c in row.items())
              for row in rows]
    index = list(range(len(rows)))
    pivots = []
    for c in range(ncols):
        i = next((i for i, r in enumerate(packed) if (r & mask) % prime),
                 None)
        if i is None:
            return None  # no pivot in column c
        pivots.append(index.pop(i))
        piv = packed.pop(i)
        inv = pow(piv & mask, -1, prime)
        neg = 0  # -piv / pivot entry, reduced slot by slot
        for j in range(ncols - c - 1, -1, -1):
            neg = neg << width | -(piv >> width * j & mask) * inv % prime
        # clear column c in every row, then drop its slot
        packed = [(r + (r & mask) % prime * neg) >> width for r in packed]
    return pivots


def _sympy_gcd(p, q):
    """A gcd of p and q by sympy's multivariate gcd.  Both are handed over
    as term maps and the gcd read back from its terms; poly_gcd verifies
    it."""
    import sympy

    syms = sympy.symbols(f"t0:{p.nvars}")
    a, b = (sympy.Poly.from_dict(dict(f.items()), *syms, domain="ZZ")
            for f in (p, q))
    return MultiPoly.from_terms(p.nvars,
                                [(c, m) for m, c in a.gcd(b).terms()])


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

    # the certificate and the trial division ignore signs, and a
    # nonconstant gcd is sign-normalized below
    pp = _divide(p, poly_content(p))
    qq = _divide(q, poly_content(q))

    mp = _monomial_content_key(pp)
    mq = _monomial_content_key(qq)
    common = _pack(tuple(min(a, b) for a, b in
                         zip(_unpack(mp, p.nvars), _unpack(mq, p.nvars))))
    pp = _shift(pp, mp, -1)
    qq = _shift(qq, mq, -1)

    if _coprime_certificate(pp, qq):
        return _shift(MultiPoly.constant(p.nvars, 1), common, 1)

    g = poly_primitive_part(_sympy_gcd(pp, qq))
    if poly_divmod_exact(pp, g) is None or poly_divmod_exact(qq, g) is None:
        raise AssertionError("gcd verification by trial division failed")
    return _shift(g, common, 1)


def gcd_many(polys):
    """Primitive gcd of a list of polynomials (zeros are skipped)."""
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise ContractViolation("gcd of all-zero family")
    g = poly_primitive_part(nz[0])
    for p in nz[1:]:
        if g.is_constant():
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
