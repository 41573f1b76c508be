"""Term language of the pure-constraint solver.

The witness-refutation analysis emits only conjunctions of:

* linear integer atoms  ``Σ cᵢ·xᵢ + k  (≤ | = | ≠)  0``  over *data*
  symbolic variables (booleans are encoded as 0/1 integers), and
* reference (dis)equalities between *instance* symbolic variables and the
  distinguished ``NULL`` constant.

The paper discharges these with Z3; we decide the same fragment with a
from-scratch procedure (:mod:`repro.solver.core`). Variables are arbitrary
hashable objects so the solver does not depend on the symbolic layer.

Terms are **hash-consed**: every :class:`LinExpr`, :class:`LinAtom`, and
:class:`RefAtom` is canonicalized through a process-wide intern table at
construction, so structurally equal terms are usually the *same* object.
Hashes are precomputed once, equality takes the identity fast path, and
atom sets (the solver-memoization keys, query histories, entailment
checks) dedupe in O(1) per element. The table is capped — when full it is
cleared, which only costs future re-interning, never correctness: equality
remains structural between non-shared instances (e.g. after crossing a
process-pool boundary).
"""

from __future__ import annotations

from math import gcd
from typing import Hashable, Iterable, Mapping, Union

Var = Hashable

#: Intern-table size cap; reaching it clears the table (cheap, deterministic).
INTERN_CAP = 1 << 16

_TABLE: dict = {}
# Plain-int tallies (no lock: the GIL makes occasional lost increments the
# only race, acceptable for statistics); surfaced as gauges by repro.perf.
_HITS = 0
_MISSES = 0


def intern_stats() -> dict:
    """Current intern-table statistics (hits/misses/live entries)."""
    return {"hits": _HITS, "misses": _MISSES, "size": len(_TABLE)}


_SETATTR = object.__setattr__


def _intern(cls: type, key: tuple):
    """Return the canonical ``cls`` instance for ``key`` = ``(tag, *fields)``,
    building it on first use. ``cls.__slots__`` lists the fields in key
    order, then ``_hash`` (the hash of ``key``)."""
    global _HITS, _MISSES
    obj = _TABLE.get(key)
    if obj is not None:
        _HITS += 1
        return obj
    _MISSES += 1
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, key[1:]):
        _SETATTR(obj, name, value)
    _SETATTR(obj, "_hash", hash(key))
    if len(_TABLE) >= INTERN_CAP:
        _TABLE.clear()
    _TABLE[key] = obj
    return obj


def _repr_key(item: tuple) -> str:
    """Sort key of a ``(var, coeff)`` pair: the variable's ``repr``."""
    return repr(item[0])


class _NullConst:
    """The distinguished null reference constant."""

    _instance = None

    def __new__(cls) -> "_NullConst":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"


NULL = _NullConst()


class LinExpr:
    """Σ cᵢ·xᵢ + k with integer coefficients, in canonical form (no zero
    coefficients; terms sorted by repr for deterministic hashing).

    Immutable, hash-consed, ``__slots__``-backed: construct via
    :meth:`of` / :meth:`var` / :meth:`constant` or positionally with an
    already-canonical coefficient tuple."""

    __slots__ = ("coeffs", "const", "_hash")

    def __new__(cls, coeffs: tuple = (), const: int = 0) -> "LinExpr":
        return _intern(LinExpr, ("le", tuple(coeffs), const))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("LinExpr is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinExpr):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.const == other.const
            and self.coeffs == other.coeffs
        )

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __reduce__(self):
        # Re-intern on unpickle (process-pool crossings).
        return (LinExpr, (self.coeffs, self.const))

    def __repr__(self) -> str:
        return f"LinExpr(coeffs={self.coeffs!r}, const={self.const!r})"

    @staticmethod
    def of(terms: Mapping[Var, int], const: int = 0) -> "LinExpr":
        items = [(v, c) for v, c in terms.items() if c != 0]
        if len(items) > 1:
            items.sort(key=_repr_key)
        return _intern(LinExpr, ("le", tuple(items), const))

    @staticmethod
    def var(v: Var) -> "LinExpr":
        return _intern(LinExpr, ("le", ((v, 1),), 0))

    @staticmethod
    def constant(k: int) -> "LinExpr":
        return _intern(LinExpr, ("le", (), k))

    def coeff(self, v: Var) -> int:
        """The coefficient of ``v`` (0 when ``v`` does not occur)."""
        for w, c in self.coeffs:
            if w == v:
                return c
        return 0

    def combine(self, other: "LinExpr", k: int) -> "LinExpr":
        """``self + k·other`` in one construction.

        Both operands are canonical, so their terms are already sorted by
        ``repr``: when ``other`` brings no variable that ``self`` lacks,
        the result keeps ``self``'s order and needs no sort. Otherwise the
        stable sort of ``self``'s terms followed by the new ones is exactly
        what canonicalizing the summed coefficient map gives."""
        const = self.const + k * other.const
        if k == 0 or not other.coeffs:
            coeffs = self.coeffs
        elif not self.coeffs:
            coeffs = other.coeffs if k == 1 else tuple(
                (v, c * k) for v, c in other.coeffs
            )
        else:
            terms = dict(self.coeffs)
            known = len(terms)
            for v, c in other.coeffs:
                terms[v] = terms.get(v, 0) + c * k
            items = [(v, c) for v, c in terms.items() if c != 0]
            if len(terms) > known and len(items) > 1:
                items.sort(key=_repr_key)
            coeffs = tuple(items)
        return _intern(LinExpr, ("le", coeffs, const))

    def add(self, other: "LinExpr") -> "LinExpr":
        return self.combine(other, 1)

    def sub(self, other: "LinExpr") -> "LinExpr":
        return self.combine(other, -1)

    def scale(self, factor: int) -> "LinExpr":
        if factor == 1:
            return self
        if factor == 0:
            return _intern(LinExpr, ("le", (), 0))
        coeffs = tuple((v, c * factor) for v, c in self.coeffs)
        return _intern(LinExpr, ("le", coeffs, self.const * factor))

    def rename(self, mapping: Mapping[Var, Var]) -> "LinExpr":
        for v, _ in self.coeffs:
            if mapping.get(v, v) is not v:
                break
        else:
            return self  # untouched: rebuilding would re-intern ``self``
        terms: dict[Var, int] = {}
        for v, c in self.coeffs:
            v2 = mapping.get(v, v)
            terms[v2] = terms.get(v2, 0) + c
        return LinExpr.of(terms, self.const)

    def vars(self) -> frozenset[Var]:
        return frozenset(v for v, _ in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        parts = []
        for v, c in self.coeffs:
            if c == 1:
                parts.append(f"{v}")
            elif c == -1:
                parts.append(f"-{v}")
            else:
                parts.append(f"{c}*{v}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts).replace("+ -", "- ")


class LinAtom:
    """``expr op 0`` with op ∈ {"<=", "==", "!="} over the integers.

    Strict inequalities are normalized away at construction (``a < b`` over
    the integers is ``a - b + 1 ≤ 0``). Immutable and hash-consed like
    :class:`LinExpr`."""

    __slots__ = ("op", "expr", "_hash")

    def __new__(cls, op: str, expr: LinExpr) -> "LinAtom":
        if op not in ("<=", "==", "!="):
            raise ValueError(f"bad linear op {op!r}")
        return _intern(LinAtom, ("la", op, expr))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("LinAtom is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinAtom):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.expr == other.expr
        )

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __reduce__(self):
        return (LinAtom, (self.op, self.expr))

    def __repr__(self) -> str:
        return f"LinAtom(op={self.op!r}, expr={self.expr!r})"

    def rename(self, mapping: Mapping[Var, Var]) -> "LinAtom":
        expr = self.expr.rename(mapping)
        return self if expr is self.expr else LinAtom(self.op, expr)

    def vars(self) -> frozenset[Var]:
        return self.expr.vars()

    def __str__(self) -> str:
        return f"{self.expr} {self.op} 0"


class RefAtom:
    """Reference (dis)equality between two instances (or NULL).

    Immutable and hash-consed like :class:`LinExpr`."""

    __slots__ = ("equal", "left", "right", "_hash")

    def __new__(
        cls, equal: bool, left: Union[Var, _NullConst], right: Union[Var, _NullConst]
    ) -> "RefAtom":
        return _intern(RefAtom, ("ra", equal, left, right))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("RefAtom is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RefAtom):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.equal == other.equal
            and self.left == other.left
            and self.right == other.right
        )

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __reduce__(self):
        return (RefAtom, (self.equal, self.left, self.right))

    def __repr__(self) -> str:
        return (
            f"RefAtom(equal={self.equal!r}, left={self.left!r},"
            f" right={self.right!r})"
        )

    def rename(self, mapping: Mapping[Var, Var]) -> "RefAtom":
        left = mapping.get(self.left, self.left)
        right = mapping.get(self.right, self.right)
        if left is self.left and right is self.right:
            return self
        return RefAtom(self.equal, left, right)

    def normalized(self) -> "RefAtom":
        if repr(self.left) > repr(self.right):
            return RefAtom(self.equal, self.right, self.left)
        return self

    def vars(self) -> frozenset[Var]:
        out = set()
        for side in (self.left, self.right):
            if not isinstance(side, _NullConst):
                out.add(side)
        return frozenset(out)

    def __str__(self) -> str:
        op = "==" if self.equal else "!="
        return f"{self.left} {op} {self.right}"


Atom = Union[LinAtom, RefAtom]


# -- convenience constructors used by the symbolic transfer functions ----------


def le(lhs: LinExpr, rhs: LinExpr) -> LinAtom:
    return LinAtom("<=", lhs.sub(rhs))


def lt(lhs: LinExpr, rhs: LinExpr) -> LinAtom:
    return LinAtom("<=", lhs.sub(rhs).add(LinExpr.constant(1)))


def eq(lhs: LinExpr, rhs: LinExpr) -> LinAtom:
    return LinAtom("==", lhs.sub(rhs))


def ne(lhs: LinExpr, rhs: LinExpr) -> LinAtom:
    return LinAtom("!=", lhs.sub(rhs))


def ref_eq(a: Union[Var, _NullConst], b: Union[Var, _NullConst]) -> RefAtom:
    if repr(a) > repr(b):
        a, b = b, a
    return RefAtom(True, a, b)


def ref_ne(a: Union[Var, _NullConst], b: Union[Var, _NullConst]) -> RefAtom:
    if repr(a) > repr(b):
        a, b = b, a
    return RefAtom(False, a, b)


def tighten(expr: LinExpr) -> LinExpr:
    """Integer tightening: divide through by the gcd of the coefficients,
    rounding the constant of a ≤-atom toward the feasible side."""
    if not expr.coeffs:
        return expr
    g = 0
    for _, c in expr.coeffs:
        g = gcd(g, abs(c))
    if g <= 1:
        return expr
    # Σ c'x ≤ -k/g  and the LHS is an integer, so Σ c'x ≤ floor(-k/g).
    # Dividing every coefficient by g keeps their order.
    bound = (-expr.const) // g
    coeffs = tuple((v, c // g) for v, c in expr.coeffs)
    return _intern(LinExpr, ("le", coeffs, -bound))
