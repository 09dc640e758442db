"""Expression language for transformation words.

Grammar (left factor of * is the outer map):

    expr    := atom ("*" atom)*
    atom    := primary ("^" int)?
    primary := "id" | "D-" | "S(" name ")" | "T(" line ")"
             | "H(" divisor ")" | "A(" matrix ")" | "A" matrix | "(" expr ")"
    line    := "O(" divisor ")" | ["("] int "," vector [")"]
    divisor := ["+"|"-"] term (("+"|"-") term)*
    term    := [int "*"] name
    vector  := "[" rational ("," rational)* "]"
    matrix  := "[" row ("," row)* "]"

"D-" must be written without an intervening space. Evaluation resolves
names against a model and folds the word through the group law; any A
atom promotes the whole word to an extended element.

Two limits keep every input bounded: "(" expr ")" nests at most
MAX_NESTING deep, and an integer literal has at most MAX_INT_DIGITS
digits. Past either, parsing raises ParseError. Two more bound what
evaluation builds and does: no value or partial product may carry an
integer of more than MAX_RESULT_DIGITS digits, and the squarings of its
powers may take at most MAX_POWER_WORK word products all together; past
either, evaluation raises ResultTooLarge.
"""

from fractions import Fraction
import functools
import math

from .errors import ParseError, ResultTooLarge, ShapeMismatch
from .intmat import solve_integer_system
from .picard import (
    JacobianElement,
    LineBundleClass,
    make_jac_aut,
    of_divisor,
)
from .transform import (
    BasicTransformation,
    Divisor,
    _coordinate_text,
    _divisor_text,
    compose,
    describe,
    identity_transform,
    inverse,
    normalize_word,
)
from .extended import (
    ExtendedTransformation,
    compose_ext,
    default_ref_det,
    describe_ext,
    ext_inverse,
    lift_basic,
)


_PUNCT = set("*^()[],+-/")

# the deepest "(" expr ")" nesting the parser descends into
MAX_NESTING = 100
# the longest integer literal; Python itself refuses to convert a decimal
# string of more than 4300 digits
MAX_INT_DIGITS = 1000
# the most digits of an integer an evaluated element carries: its line
# degree, its coordinate denominator, an entry of its Jacobian part. The
# canonical text writes each of them, and Python writes no int of more
# than 4300 digits; powers would otherwise grow them without bound.
MAX_RESULT_DIGITS = 4000
_RESULT_BOUND = 10**MAX_RESULT_DIGITS
# the most work the squarings of one evaluation's powers may take, in
# products of two 64-bit words (see _squaring_work). A nilpotent Jacobian
# part, whose entries grow only linearly, stays under MAX_RESULT_DIGITS at
# any exponent a literal can write; at genus 6 the 3322 squarings of its
# 10^999-th power would take about 50 s.
MAX_POWER_WORK = 5 * 10**7
# the most (model, line class) T atoms format_canonical keeps; the least
# recently used goes first
MAX_LINE_TEXTS = 1024


def tokenize(text):
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "D" and j < n and text[j] == "-":
                out.append(("DMINUS", "D-", i))
                i = j + 1
            else:
                out.append(("NAME", word, i))
                i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j - i > MAX_INT_DIGITS:
                raise ParseError(
                    f"integer literal of {j - i} digits exceeds the limit of {MAX_INT_DIGITS}", i
                )
            out.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("EOF", None, n))
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self, k=0):
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def at(self, kind, value=None):
        tok = self.peek()
        return tok[0] == kind and (value is None or tok[1] == value)

    # -- literals --------------------------------------------------------

    def parse_int(self):
        sign = 1
        while self.at("+") or self.at("-"):
            if self.next()[0] == "-":
                sign = -sign
        tok = self.expect("INT")
        return sign * tok[1]

    def parse_rational(self):
        num = self.parse_int()
        if self.at("/"):
            self.next()
            _, den, pos = self.expect("INT")
            if den == 0:
                raise ParseError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    def parse_vector(self):
        self.expect("[")
        items = []
        if not self.at("]"):
            items.append(self.parse_rational())
            while self.at(","):
                self.next()
                items.append(self.parse_rational())
        self.expect("]")
        return items

    def parse_matrix(self):
        self.expect("[")
        rows = [self._parse_int_row()]
        while self.at(","):
            self.next()
            rows.append(self._parse_int_row())
        self.expect("]")
        return rows

    def _parse_int_row(self):
        self.expect("[")
        row = [self.parse_int()]
        while self.at(","):
            self.next()
            row.append(self.parse_int())
        self.expect("]")
        return row

    def parse_divisor(self):
        mult = {}
        sign = 1
        if self.at("+") or self.at("-"):
            sign = -1 if self.next()[0] == "-" else 1
        self._parse_divisor_term(mult, sign)
        while self.at("+") or self.at("-"):
            sign = -1 if self.next()[0] == "-" else 1
            self._parse_divisor_term(mult, sign)
        return mult

    def _parse_divisor_term(self, mult, sign):
        if self.at("INT"):
            coeff = self.next()[1]
            self.expect("*")
        else:
            coeff = 1
        name = self.expect("NAME")[1]
        mult[name] = mult.get(name, 0) + sign * coeff

    # -- expressions -----------------------------------------------------

    def parse_expr(self):
        atoms = [self.parse_atom()]
        while self.at("*"):
            self.next()
            atoms.append(self.parse_atom())
        return ("word", atoms) if len(atoms) > 1 else atoms[0]

    def parse_atom(self):
        node = self.parse_primary()
        if self.at("^"):
            self.next()
            return ("pow", node, self.parse_int())
        return node

    def parse_primary(self):
        tok = self.peek()
        if tok[0] == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than the limit of {MAX_NESTING}", tok[2]
                )
            self.next()
            self.depth += 1
            node = self.parse_expr()
            self.depth -= 1
            self.expect(")")
            return node
        if tok[0] == "DMINUS":
            self.next()
            return ("dual",)
        if tok[0] != "NAME":
            raise ParseError(f"expected a generator, found {tok[1]!r}", tok[2])
        name = tok[1]
        if name == "id":
            self.next()
            return ("id",)
        if name == "S":
            self.next()
            self.expect("(")
            inner = self.expect("NAME")[1]
            self.expect(")")
            return ("sigma", inner)
        if name == "T":
            self.next()
            self.expect("(")
            node = self._parse_line()
            self.expect(")")
            return node
        if name == "H":
            self.next()
            self.expect("(")
            dv = self.parse_divisor()
            self.expect(")")
            return ("hecke", dv)
        if name == "A":
            self.next()
            if self.at("("):
                self.next()
                rows = self.parse_matrix()
                self.expect(")")
            else:
                rows = self.parse_matrix()
            return ("ajac", rows)
        raise ParseError(f"unknown generator {name!r}", tok[2])

    def _parse_line(self):
        if self.at("NAME", "O"):
            self.next()
            self.expect("(")
            dv = self.parse_divisor()
            self.expect(")")
            return ("tensor_div", dv)
        paren = self.at("(")
        if paren:
            self.next()
        deg = self.parse_int()
        self.expect(",")
        vec = self.parse_vector()
        if paren:
            self.expect(")")
        return ("tensor_class", deg, vec)


def parse_expression(text, model=None):
    """AST of a transformation word; with a model, names are resolved."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "EOF":
        raise ParseError(f"trailing input starting at {tok[1]!r}", tok[2])
    if model is not None:
        _resolve_names(node, model)
    return node


def _resolve_names(node, model):
    kind = node[0]
    if kind == "word":
        for child in node[1]:
            _resolve_names(child, model)
    elif kind == "pow":
        _resolve_names(node[1], model)
    elif kind == "sigma":
        model.automorphism(node[1])
    elif kind in ("hecke", "tensor_div"):
        for name in node[1]:
            model.point(name)


def evaluate(node, model, ref_det=None):
    """Fold an AST through the group law over the model.

    Returns a basic tuple, or an extended element when any A atom occurs
    (reference determinant defaulting to the model's degree context).
    Raises ResultTooLarge when a value or partial product passes
    MAX_RESULT_DIGITS, or its powers would pass MAX_POWER_WORK.
    """
    return _evaluate(node, model, ref_det, [MAX_POWER_WORK])


def _evaluate(node, model, ref_det, work):
    """evaluate, with work[0] the word products its powers may still take."""
    return _bounded(_value(node, model, ref_det, work))


def _bounded(x):
    """x, unless it carries an integer of more than MAX_RESULT_DIGITS digits."""
    basic = x.basic if isinstance(x, ExtendedTransformation) else x
    ints = [basic.line.degree, basic.line.jac.den]
    if basic is not x:
        ints += map(max, x.rho.tilde)
        ints += map(min, x.rho.tilde)
    if not -_RESULT_BOUND < min(ints) <= max(ints) < _RESULT_BOUND:
        raise ResultTooLarge(MAX_RESULT_DIGITS)
    return x


def _value(node, model, ref_det, work):
    kind = node[0]
    if kind == "word":
        acc = None
        for child in node[1]:
            val = _evaluate(child, model, ref_det, work)
            acc = val if acc is None else _mul(acc, val, model, ref_det)
        return acc
    if kind == "pow":
        base = _evaluate(node[1], model, ref_det, work)
        return _power(base, node[2], model, ref_det, work)
    if kind == "id":
        return identity_transform(model)
    if kind == "dual":
        return normalize_word(model, [("D",)])
    if kind == "sigma":
        name = node[1]
        model.automorphism(name)
        return normalize_word(model, [("S", name)])
    if kind == "tensor_div":
        for name in node[1]:
            model.point(name)
        cls = of_divisor(model, node[1])
        return normalize_word(model, [("T", cls)] if not cls.is_trivial() else [])
    if kind == "tensor_class":
        deg, vec = node[1], node[2]
        if len(vec) != 2 * model.genus:
            raise ShapeMismatch(
                f"coordinate vector has length {len(vec)}, expected 2g = {2 * model.genus}"
            )
        cls = LineBundleClass(deg, JacobianElement(vec))
        return normalize_word(model, [("T", cls)] if not cls.is_trivial() else [])
    if kind == "hecke":
        for name in node[1]:
            model.point(name)
        return normalize_word(model, [("H", Divisor(node[1]))])
    if kind == "ajac":
        rho = make_jac_aut(node[1], model.rank)
        return ExtendedTransformation(
            rho, identity_transform(model), ref_det or default_ref_det(model)
        )
    raise ParseError(f"unknown node kind {kind!r}", 0)


def _mul(x, y, model, ref_det):
    if isinstance(x, BasicTransformation) and isinstance(y, BasicTransformation):
        return _bounded(compose(x, y))
    ref = ref_det or default_ref_det(model)
    if isinstance(x, BasicTransformation):
        x = lift_basic(x, ref)
    if isinstance(y, BasicTransformation):
        y = lift_basic(y, ref)
    return _bounded(compose_ext(x, y))


def _words(v):
    return 1 + abs(v).bit_length() // 64


def _squaring_work(x):
    """About how many products of two 64-bit words squaring x takes, with
    n = 2g: n * d for its coordinates over a d-word denominator and, per
    nonzero row of its Jacobian part, n**2 * e**2 for e-word entries. A
    line degree only adds up, and is left out."""
    basic = x.basic if isinstance(x, ExtendedTransformation) else x
    n = len(basic.line.jac.nums)
    work = n * _words(basic.line.jac.den)
    if basic is not x:
        rows = [row for row in x.rho.tilde if any(row)]
        if rows:
            work += len(rows) * n * n * _words(max(max(map(abs, row)) for row in rows)) ** 2
    return work


def _power(base, n, model, ref_det, work):
    if n == 0:
        return identity_transform(model)
    if n < 0:
        pos = _power(base, -n, model, ref_det, work)
        if isinstance(pos, BasicTransformation):
            return inverse(pos)
        return ext_inverse(pos)
    # binary powering: the first product is base * base, as it is when
    # multiplying by base n - 1 times, so the same inputs raise
    acc = None
    while True:
        if n & 1:
            acc = base if acc is None else _mul(acc, base, model, ref_det)
        n >>= 1
        if not n:
            return acc
        work[0] -= _squaring_work(base)
        if work[0] < 0:
            raise ResultTooLarge(
                MAX_POWER_WORK, f"powers would take more than {MAX_POWER_WORK} products of 64-bit words"
            )
        base = _mul(base, base, model, ref_det)


def eval_expression(text, model, ref_det=None):
    return evaluate(parse_expression(text, model), model, ref_det)


# -- canonical text ------------------------------------------------------


def _residue_system(model, cls):
    """The marked points' Jacobian classes and the class's own, as integer
    residue vectors mod q, the lcm of every coordinate denominator."""
    jacs = [model.point(x).jac_class for x in model.point_names]
    q = math.lcm(cls.jac.den, *(j.den for j in jacs))

    def scaled(j):
        k = q // j.den
        return tuple(k * x for x in j.nums)

    return q, [scaled(j) for j in jacs], scaled(cls.jac)


def _bounded_divisor_search(model, cls):
    """The divisor form of least key (l1 norm, coefficient tuple) with every
    coefficient in [-bound, bound], or None. divisor_form runs it only
    after the exact solver has shown that some form exists.

    Tuples compare lexicographically, coefficients in integer order from
    -bound to bound. The l1 levels are walked upward from |degree| in steps
    of 2 (a level has the degree's parity), and each level in lexicographic
    order, so the first hit is the least key. A prefix is cut once the
    remaining degree no longer fits the remaining l1 budget; a candidate
    is tested on its residues mod q.
    """
    n = len(model.points)
    if n == 0:
        return None
    bound = max(6, 2 * model.rank)
    while bound >= 1 and (2 * bound + 1) ** n > 100000:
        bound -= 1
    if bound < 1:
        return None
    q, points, target = _residue_system(model, cls)

    def fits(k, deg, budget):
        # k coefficients in [-bound, bound] summing to deg with l1 norm
        # budget (same parity): the positive and the negative parts must
        # each fill whole coefficients, and together at most k of them
        pos, neg = (budget + deg) // 2, (budget - deg) // 2
        return pos >= 0 and neg >= 0 and -(-pos // bound) - (-neg // bound) <= k

    def walk(k, deg, budget, acc):
        if k == n - 1:
            if all((x + deg * y - t) % q == 0 for x, y, t in zip(acc, points[k], target)):
                return (deg,)
            return None
        lim = min(bound, budget)
        for c in range(-lim, lim + 1):
            if fits(n - k - 1, deg - c, budget - abs(c)):
                nxt = tuple(x + c * y for x, y in zip(acc, points[k]))
                rest = walk(k + 1, deg - c, budget - abs(c), nxt)
                if rest is not None:
                    return (c,) + rest
        return None

    deg = cls.degree
    for level in range(abs(deg), n * bound + 1, 2):
        if fits(n, deg, level):
            combo = walk(0, deg, level, (0,) * len(target))
            if combo is not None:
                return {x: c for x, c in zip(model.point_names, combo) if c}
    return None


def _solved_divisor_form(model, cls):
    """Integer-solve n_x summing to the degree with matching torsion,
    slack variables absorbing the mod-1 reduction."""
    n = len(model.points)
    if n == 0:
        return None
    q, points, target = _residue_system(model, cls)
    dim = len(target)
    a = [[1] * n + [0] * dim]
    c = [cls.degree]
    for i in range(dim):
        a.append([p[i] for p in points] + [q if j == i else 0 for j in range(dim)])
        c.append(target[i])
    z = solve_integer_system(a, c)
    if z is None:
        return None
    mult = {name: z[k] for k, name in enumerate(model.point_names) if z[k]}
    if of_divisor(model, mult) != cls:
        return None
    return mult


def divisor_form(model, cls):
    """Divisor multiplicities realizing a class, or None.

    Exact first: the integer solver decides whether any divisor form
    exists, and its None is final. Otherwise the bounded search picks the
    form of least (l1 norm, lexicographic coefficient tuple); a class whose
    every form needs a coefficient beyond the bound gets the solver's form.
    """
    if len(cls.jac) != 2 * model.genus:
        raise ShapeMismatch(f"class coordinate length {len(cls.jac)} does not match 2g = {2 * model.genus}")
    solved = _solved_divisor_form(model, cls)
    if solved is None:
        return None
    found = _bounded_divisor_search(model, cls)
    return solved if found is None else found


@functools.lru_cache(maxsize=MAX_LINE_TEXTS)
def _line_atom(model, line):
    """The T atom of a nontrivial line class: T(O(...)) of its divisor
    form when one exists, else its coordinates. The cache key holds the
    model alive, so no later model can take its identity and read its
    texts."""
    dv = divisor_form(model, line)
    return _coordinate_text(line) if dv is None else f"T(O({_divisor_text(model, dv)}))"


def format_canonical(x):
    """Deterministic canonical text; evaluates back to x exactly. It is
    describe's text, a nontrivial line part written as its divisor form
    when one exists (memoized per model and class by _line_atom)."""
    text = describe_ext if isinstance(x, ExtendedTransformation) else describe
    return text(x, functools.partial(_line_atom, x.model))
