"""First-order formulas over the language of groups, as pure syntax.

Formal words are products of variable powers; atoms assert that a word
equals or differs from the identity.  On top of the AST sit three
emitters producing the sentences used to transport tuples between
endomorphisms (an existential system with order inequations, an
existential conjugacy system, and a forall-exists implication), a
quantifier-shape classifier, and an ASCII renderer whose output parses
back to an equal AST.  No satisfaction checking is attempted: over the
infinite groups of interest that problem is out of scope by design.

Words, AST nodes and formulas are named tuples that hash as the tuple of
their fields but equal only a value of their own type: Eq(w) != Neq(w).
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence, Union


class FormulaError(ValueError):
    pass


# -- formal words -------------------------------------------------------------


_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")

_KEYWORDS = {"FREE", "EXISTS", "FORALL", "AND", "OR"}


def _reduce_syllables(sylls: Iterable) -> tuple:
    out: list = []
    for v, e in sylls:
        if not isinstance(e, int):
            raise FormulaError(f"exponent must be an integer, got {e!r}")
        if not _VAR_RE.match(v) or v in _KEYWORDS:
            raise FormulaError(f"bad variable name {v!r}")
        if e == 0:
            continue
        if out and out[-1][0] == v:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((v, s))
        else:
            out.append((v, e))
    return tuple(out)


def _same_node(a, b) -> bool:
    return type(a) is type(b) and tuple.__eq__(a, b)


def _other_node(a, b) -> bool:
    return not _same_node(a, b)


class _WordFields(NamedTuple):
    syllables: tuple


class Word(_WordFields):
    """Freely reduced product of variable powers, the identity if empty."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__

    def __new__(cls, syllables: tuple):
        if syllables != _reduce_syllables(syllables):
            raise FormulaError(f"word is not freely reduced: {syllables!r}")
        return super().__new__(cls, syllables)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)

    def __str__(self) -> str:
        if not self.syllables:
            return "1"
        return " ".join(v if e == 1 else f"{v}^{e}" for v, e in self.syllables)


WordArg = Union[str, Word]


def _exponent(text: str, token: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormulaError(f"malformed exponent in {token!r}") from None


def word(w: WordArg) -> Word:
    """Parse "x y^-2" style text (or pass a Word through)."""
    if isinstance(w, Word):
        return w
    sylls = []
    for tok in w.split():
        if tok == "1":
            continue
        name, caret, exp = tok.partition("^")
        sylls.append((name, _exponent(exp, tok) if caret else 1))
    return Word(_reduce_syllables(sylls))


def wmul(*ws: WordArg) -> Word:
    sylls: list = []
    for w in ws:
        sylls.extend(word(w).syllables)
    return Word(_reduce_syllables(sylls))


def winv(w: WordArg) -> Word:
    return Word(_reduce_syllables((v, -e) for v, e in reversed(word(w).syllables)))


MAX_POWER_SYLLABLES = 100_000


def wpow(w: WordArg, k: int) -> Word:
    """w^k.  Peeling inverse end syllables writes w as c · core · c^-1; a
    one-syllable core v^e gives c · v^(e·k) · c^-1 at once.  A longer
    core's power is refused before it is built when its exact syllable
    count (copies merge at each seam when the core starts and ends with
    one variable) is above MAX_POWER_SYLLABLES."""
    if k < 0:
        return wpow(winv(w), -k)
    s = word(w).syllables
    n = 0
    while 2 * n + 1 < len(s) and s[n] == (s[-1 - n][0], -s[-1 - n][1]):
        n += 1
    c, core = Word(s[:n]), s[n:len(s) - n]
    if k == 0 or len(core) <= 1:
        return wmul(c, Word(_reduce_syllables((v, e * k) for v, e in core)),
                    winv(c))
    merge = core[0][0] == core[-1][0]
    length = 2 * n + k * (len(core) - merge) + merge
    if length > MAX_POWER_SYLLABLES:
        raise FormulaError(f"power {k} of {Word(s)} would have {length} "
                           f"syllables, above the cap of {MAX_POWER_SYLLABLES}")
    return wmul(c, *[Word(core)] * k, winv(c))


def wsub(w: WordArg, mapping: dict) -> Word:
    """Substitute words for variables (simultaneously)."""
    parts = []
    for v, e in word(w).syllables:
        parts.append(wpow(mapping[v], e) if v in mapping else Word(((v, e),)))
    return wmul(*parts)


def word_variables(w: WordArg) -> set:
    return {v for v, _ in word(w).syllables}


# -- AST ----------------------------------------------------------------------


class Eq(NamedTuple):
    word: Word
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class Neq(NamedTuple):
    word: Word
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class And(NamedTuple):
    parts: tuple
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class Or(NamedTuple):
    parts: tuple
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class Implies(NamedTuple):
    antecedent: object
    consequent: object
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class Exists(NamedTuple):
    variables: tuple
    body: object
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


class Forall(NamedTuple):
    variables: tuple
    body: object
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__


def conj(parts: Sequence) -> object:
    parts = tuple(parts)
    if not parts:
        raise FormulaError("empty conjunction")
    return parts[0] if len(parts) == 1 else And(parts)


def disj(parts: Sequence) -> object:
    parts = tuple(parts)
    if not parts:
        raise FormulaError("empty disjunction")
    return parts[0] if len(parts) == 1 else Or(parts)


def eq(lhs: WordArg, rhs: WordArg = "1") -> Eq:
    """lhs = rhs, stored as the single word lhs * rhs^-1 = 1."""
    return Eq(wmul(lhs, winv(rhs)))


def neq(lhs: WordArg, rhs: WordArg = "1") -> Neq:
    return Neq(wmul(lhs, winv(rhs)))


class _FormulaFields(NamedTuple):
    free_variables: tuple
    body: object


class Formula(_FormulaFields):
    """A body AST plus the declared ordered list of free variables.

    The declaration may include variables that happen not to occur; every
    occurrence in the body must be either quantified or declared."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = _same_node, _other_node, tuple.__hash__

    def __new__(cls, free_variables: tuple, body: object):
        if len(set(free_variables)) != len(free_variables):
            raise FormulaError("free variables must be distinct")
        _validate(body, set(free_variables), set(free_variables))
        return super().__new__(cls, free_variables, body)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make
        return cls(*iterable)


def _validate(node, in_scope: set, reserved: set) -> None:
    if isinstance(node, (Eq, Neq)):
        loose = word_variables(node.word) - in_scope
        if loose:
            raise FormulaError(
                f"variable {sorted(loose)[0]!r} is neither bound nor free")
    elif isinstance(node, (And, Or)):
        if len(node.parts) < 2:
            raise FormulaError("connectives need at least two parts")
        for p in node.parts:
            _validate(p, in_scope, reserved)
    elif isinstance(node, Implies):
        _validate(node.antecedent, in_scope, reserved)
        _validate(node.consequent, in_scope, reserved)
    elif isinstance(node, (Exists, Forall)):
        if not node.variables:
            raise FormulaError("quantifier needs at least one variable")
        if len(set(node.variables)) != len(node.variables):
            raise FormulaError("quantified variables must be distinct")
        clash = set(node.variables) & reserved
        if clash:
            raise FormulaError(
                f"variable {sorted(clash)[0]!r} is quantified twice or "
                "shadows a free variable")
        for v in node.variables:
            if not _VAR_RE.match(v) or v in _KEYWORDS:
                raise FormulaError(f"bad variable name {v!r}")
        _validate(node.body, in_scope | set(node.variables),
                  reserved | set(node.variables))
    else:
        raise FormulaError(f"not a formula node: {node!r}")


def substitute(node, mapping: dict):
    """Replace free variable occurrences by words, refusing capture."""
    if isinstance(node, Eq):
        return Eq(wsub(node.word, mapping))
    if isinstance(node, Neq):
        return Neq(wsub(node.word, mapping))
    if isinstance(node, And):
        return And(tuple(substitute(p, mapping) for p in node.parts))
    if isinstance(node, Or):
        return Or(tuple(substitute(p, mapping) for p in node.parts))
    if isinstance(node, Implies):
        return Implies(substitute(node.antecedent, mapping),
                       substitute(node.consequent, mapping))
    if isinstance(node, (Exists, Forall)):
        bound = set(node.variables)
        if bound & set(mapping):
            raise FormulaError("substitution hits a bound variable")
        for w in mapping.values():
            if bound & word_variables(w):
                raise FormulaError("substitution would capture a variable")
        inner = substitute(node.body, mapping)
        return type(node)(node.variables, inner)
    raise FormulaError(f"not a formula node: {node!r}")


def atoms(node) -> list:
    """All Eq/Neq leaves, in rendering order."""
    if isinstance(node, (Eq, Neq)):
        return [node]
    if isinstance(node, (And, Or)):
        return [a for p in node.parts for a in atoms(p)]
    if isinstance(node, Implies):
        return atoms(node.antecedent) + atoms(node.consequent)
    return atoms(node.body)


# -- emitters -----------------------------------------------------------------

# a^4 = b^6 = 1, a^2 = b^3, written over the bound variables (x, y)
SL2Z_RELATORS = ("x^4", "y^6", "x^2 y^-3")


def _check_vars(words: Sequence[Word], allowed: set, what: str) -> None:
    for w in words:
        extra = word_variables(w) - allowed
        if extra:
            raise FormulaError(
                f"{what} may only use {sorted(allowed)}; "
                f"found {sorted(extra)[0]!r}")


def emit_theta_sl2z(relators: Sequence[WordArg], words: Sequence[WordArg],
                    orders: tuple = (4, 6)) -> Formula:
    """Existential transport sentence for an amalgam of two cyclic groups.

    EXISTS x y: the relators hold, each free u_i equals its word in (x, y),
    and x, y satisfy no relation of order lower than the given pair, so a
    solution provides an endomorphism with prescribed images that keeps
    the generator orders exact."""
    rel = [word(r) for r in relators]
    ws = [word(w) for w in words]
    if not ws:
        raise FormulaError("at least one image word is required")
    _check_vars(rel, {"x", "y"}, "relators")
    _check_vars(ws, {"x", "y"}, "image words")
    oa, ob = orders
    if oa < 2 or ob < 2:
        raise FormulaError("orders must be at least 2")
    free = tuple(f"u{i + 1}" for i in range(len(ws)))
    parts = [Eq(r) for r in rel]
    parts += [eq(free[i], ws[i]) for i in range(len(ws))]
    parts += [neq(wpow(word("x"), l)) for l in range(1, oa)]
    parts += [neq(wpow(word("y"), l)) for l in range(1, ob)]
    return Formula(free, Exists(("x", "y"), conj(parts)))


def emit_delta_related(n: int, blocks: Sequence[Sequence[WordArg]]) -> Formula:
    """Existential sentence equating two generating tuples block by block
    up to one conjugator per block: for each block word w,
    w(x_1..x_n) = u_i w(x_{n+1}..x_{2n}) u_i^-1.

    Free variables are exactly x_1..x_{2n} whether or not each occurs."""
    if n < 1:
        raise FormulaError("at least one generator is required")
    if not blocks:
        raise FormulaError("at least one block is required")
    shift = {f"x{j + 1}": word(f"x{n + j + 1}") for j in range(n)}
    allowed = {f"x{j + 1}" for j in range(n)}
    parts = []
    for i, block in enumerate(blocks):
        block = [word(w) for w in block]
        if not block:
            raise FormulaError("blocks must be nonempty")
        _check_vars(block, allowed, "block words")
        u = word(f"u{i + 1}")
        for w in block:
            parts.append(eq(w, wmul(u, wsub(w, shift), winv(u))))
    free = tuple(f"x{j + 1}" for j in range(2 * n))
    bound = tuple(f"u{i + 1}" for i in range(len(blocks)))
    return Formula(free, Exists(bound, conj(parts)))


def emit_mu(g_presentation: tuple, u_presentation: tuple,
            embedding_words: Sequence[WordArg],
            test_words: Sequence[WordArg],
            kill_words: Sequence[WordArg], inner_theta: Formula) -> Formula:
    """Forall-exists transport sentence through a subgroup.

    FORALL x_1..x_n: if the ambient relators hold and each free z_i equals
    its test word, then EXISTS y_1..y_p satisfying the subgroup relators,
    killing at least one listed word, and related to the restriction of
    the x-endomorphism by the inner existential formula, instantiated
    positionally with the embedding words followed by y_1..y_p."""
    n, g_relators = g_presentation
    p, u_relators = u_presentation
    if n < 1 or p < 1:
        raise FormulaError("presentations need at least one generator")
    xs = tuple(f"x{j + 1}" for j in range(n))
    ys = tuple(f"y{j + 1}" for j in range(p))
    g_rel = [word(r) for r in g_relators]
    u_rel = [word(r) for r in u_relators]
    emb = [word(w) for w in embedding_words]
    tests = [word(w) for w in test_words]
    kills = [word(w) for w in kill_words]
    _check_vars(g_rel, set(xs), "ambient relators")
    _check_vars(u_rel, set(ys), "subgroup relators")
    _check_vars(emb, set(xs), "embedding words")
    _check_vars(tests, set(xs), "test words")
    _check_vars(kills, set(ys), "kill-list words")
    if len(emb) != p:
        raise FormulaError("one embedding word per subgroup generator is required")
    if not tests:
        raise FormulaError("at least one test word is required")
    if not kills:
        raise FormulaError("the kill list must be nonempty: the disjunction "
                           "needs at least one word")
    if len(inner_theta.free_variables) != 2 * p:
        raise FormulaError("inner formula must have exactly "
                           f"{2 * p} free variables")
    free = tuple(f"z{i + 1}" for i in range(len(tests)))
    mapping = dict(zip(inner_theta.free_variables,
                       emb + [word(y) for y in ys]))
    inner = substitute(inner_theta.body, mapping)
    extra: tuple = ()
    if isinstance(inner, Exists):
        # merge the inner leading block into the y-block so the whole
        # sentence keeps a forall-exists prefix (sound scope extension:
        # the merged variables occur nowhere else in the consequent)
        extra, inner = inner.variables, inner.body
    antecedent = conj([Eq(r) for r in g_rel]
                      + [eq(free[i], tests[i]) for i in range(len(tests))])
    consequent = Exists(ys + extra, conj([Eq(r) for r in u_rel]
                                         + [disj([Eq(w) for w in kills]),
                                            inner]))
    return Formula(free, Forall(xs, Implies(antecedent, consequent)))


# -- classification -----------------------------------------------------------


def _contains(node, kind) -> bool:
    if isinstance(node, kind):
        return True
    if isinstance(node, (And, Or)):
        return any(_contains(p, kind) for p in node.parts)
    if isinstance(node, Implies):
        return _contains(node.antecedent, kind) or _contains(node.consequent, kind)
    if isinstance(node, (Exists, Forall)):
        return _contains(node.body, kind)
    return False


def _quantifier_free(node) -> bool:
    return not _contains(node, Exists) and not _contains(node, Forall)


def _leading_prefix(node):
    """Peel leading quantifier blocks, hoisting a consequent-leading
    quantifier through an implication with quantifier-free antecedent
    (sound because the hoisted variables cannot occur in the antecedent)."""
    prefix = []
    while True:
        if isinstance(node, (Exists, Forall)):
            prefix.append(("exists" if isinstance(node, Exists) else "forall",
                           node.variables))
            node = node.body
        elif (isinstance(node, Implies)
              and _quantifier_free(node.antecedent)
              and isinstance(node.consequent, (Exists, Forall))):
            q = node.consequent
            prefix.append(("exists" if isinstance(q, Exists) else "forall",
                           q.variables))
            node = Implies(node.antecedent, q.body)
        else:
            return prefix, node


def classify(f: Formula) -> str:
    """Quantifier shape: "existential" when no universal quantifier occurs
    anywhere (so quantifier-free formulas count), "universal" dually,
    "forall_exists" for a universal block then an existential block over a
    quantifier-free matrix, "other" otherwise."""
    if not _contains(f.body, Forall):
        return "existential"
    if not _contains(f.body, Exists):
        return "universal"
    prefix, matrix = _leading_prefix(f.body)
    if _quantifier_free(matrix):
        runs = [k for k, _ in prefix]
        collapsed = [k for i, k in enumerate(runs) if i == 0 or runs[i - 1] != k]
        if collapsed == ["forall", "exists"]:
            return "forall_exists"
    return "other"


# -- rendering and parsing ----------------------------------------------------


def pretty_print(f: Formula) -> str:
    """Canonical one-line ASCII rendering; parse() inverts it exactly."""
    head = "FREE " + " ".join(f.free_variables) + " . " if f.free_variables else ""
    return head + _render(f.body)


def _render(node) -> str:
    if isinstance(node, Eq):
        return f"{node.word} = 1"
    if isinstance(node, Neq):
        return f"{node.word} ~= 1"
    if isinstance(node, And):
        return "(" + " AND ".join(_render(p) for p in node.parts) + ")"
    if isinstance(node, Or):
        return "(" + " OR ".join(_render(p) for p in node.parts) + ")"
    if isinstance(node, Implies):
        return f"({_render(node.antecedent)} => {_render(node.consequent)})"
    if isinstance(node, Exists):
        return "(EXISTS " + " ".join(node.variables) + " . " + _render(node.body) + ")"
    if isinstance(node, Forall):
        return "(FORALL " + " ".join(node.variables) + " . " + _render(node.body) + ")"
    raise FormulaError(f"not a formula node: {node!r}")


_TOKEN_RE = re.compile(
    r"\s*(=>|~=|[()=.^]|-?\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text: str) -> list:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or not m.group(1):
            raise FormulaError(f"cannot tokenize at {text[pos:pos + 12]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise FormulaError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def idents(self) -> tuple:
        names = []
        while (t := self.peek()) is not None and _VAR_RE.match(t) \
                and t not in _KEYWORDS:
            names.append(self.take())
        return tuple(names)

    def expr(self):
        if self.peek() != "(":
            return self.atom()
        self.take("(")
        if self.peek() in ("EXISTS", "FORALL"):
            kind = self.take()
            names = self.idents()
            self.take(".")
            body = self.expr()
            self.take(")")
            return (Exists if kind == "EXISTS" else Forall)(names, body)
        first = self.expr()
        op = self.peek()
        if op == ")":
            raise FormulaError("redundant parentheses are not canonical")
        if op == "=>":
            self.take()
            out = Implies(first, self.expr())
            self.take(")")
            return out
        if op not in ("AND", "OR"):
            raise FormulaError(f"expected a connective, got {op!r}")
        parts = [first]
        while self.peek() == op:
            self.take()
            parts.append(self.expr())
        self.take(")")
        return (And if op == "AND" else Or)(tuple(parts))

    def atom(self):
        sylls = []
        while True:
            t = self.peek()
            if t == "1":
                self.take()
            elif t is not None and _VAR_RE.match(t) and t not in _KEYWORDS:
                v = self.take()
                e = 1
                if self.peek() == "^":
                    self.take()
                    exp = self.take()
                    e = _exponent(exp, f"{v}^{exp}")
                sylls.append((v, e))
            else:
                break
            if self.peek() in ("=", "~="):
                break
        rel = self.take()
        if rel not in ("=", "~="):
            raise FormulaError(f"expected '=' or '~=', got {rel!r}")
        self.take("1")
        w = Word(_reduce_syllables(sylls))
        return Eq(w) if rel == "=" else Neq(w)


def parse(text: str) -> Formula:
    """Inverse of pretty_print on its canonical output."""
    p = _Parser(_tokenize(text))
    free: tuple = ()
    if p.peek() == "FREE":
        p.take()
        free = p.idents()
        p.take(".")
    body = p.expr()
    if p.peek() is not None:
        raise FormulaError(f"trailing input at {p.peek()!r}")
    return Formula(free, body)
