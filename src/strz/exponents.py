"""Exact arithmetic over Lebesgue exponents.

Everything here is rational arithmetic with a distinguished infinity, so
equalities such as admissibility (1/p + n/(2q) = n/4) are decided exactly.
Floats are deliberately rejected as inputs.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .errors import DimensionError, PreconditionError, RegimeError

ExponentLike = Union["Exponent", int, Fraction, str]


class Exponent:
    """A Lebesgue exponent: a rational in [1, inf] or infinity itself."""

    # the hash and float are taken once: norm tables and the solvers' dicts
    # key on exponents at every step
    __slots__ = ("_value", "_hash", "_float")

    def __init__(self, value: ExponentLike):
        self._value = self._parse(value)
        self._hash = hash(self._value)
        self._float = math.inf if self._value is None else float(self._value)

    @staticmethod
    def _parse(value: ExponentLike) -> Optional[Fraction]:
        """The rational value of value, or None for infinity."""
        if isinstance(value, Exponent):
            return value._value
        if isinstance(value, str):
            text = value.strip().lower()
            if text in ("inf", "infinity", "oo"):
                return None
            try:
                value = Fraction(text)
            except ZeroDivisionError as exc:
                raise ValueError(f"exponent {value!r} has a zero denominator") from exc
        if isinstance(value, float):
            if math.isinf(value) and value > 0:
                return None
            raise TypeError("exponents are exact: pass int, Fraction or 'inf', not float")
        if isinstance(value, (int, Fraction)):
            value = Fraction(value)
            if value < 1:
                raise ValueError(f"exponent must lie in [1, inf], got {value}")
            return value
        raise TypeError(f"cannot build an exponent from {value!r}")

    def __reduce__(self):
        # rebuilt from its text, so the hash is taken again in the new process
        return (Exponent, (str(self),))

    @classmethod
    def from_reciprocal(cls, recip: Fraction) -> "Exponent":
        """Exponent whose reciprocal is ``recip`` (0 maps to infinity)."""
        recip = Fraction(recip)
        if recip == 0:
            return INF
        if recip < 0 or recip > 1:
            raise ValueError(f"reciprocal must lie in [0, 1], got {recip}")
        return cls(1 / recip)

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValueError("infinite exponent has no rational value")
        return self._value

    @property
    def reciprocal(self) -> Fraction:
        """1/e with the convention 1/inf = 0."""
        return Fraction(0) if self._value is None else 1 / self._value

    def dual(self) -> "Exponent":
        """Conjugate exponent e' with 1/e + 1/e' = 1."""
        return Exponent.from_reciprocal(1 - self.reciprocal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Exponent):
            try:
                other = Exponent(other)
            except (TypeError, ValueError):
                return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return self._hash

    def __lt__(self, other) -> bool:
        other = Exponent(other)
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __le__(self, other) -> bool:
        other = Exponent(other)
        return self == other or self < other

    def __gt__(self, other) -> bool:
        return not self <= Exponent(other)

    def __ge__(self, other) -> bool:
        return not self < Exponent(other)

    def __float__(self) -> float:
        return self._float

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"Exponent({self})"


INF = Exponent("inf")
TWO = Exponent(2)


def as_exponent(e: ExponentLike) -> Exponent:
    return e if isinstance(e, Exponent) else Exponent(e)


def dual(e: ExponentLike) -> Exponent:
    """Conjugate index: dual(2) = 2, dual(inf) = 1, dual(6) = 6/5."""
    return as_exponent(e).dual()


def _check_dimension(n: int) -> int:
    if not isinstance(n, int) or isinstance(n, bool):
        raise DimensionError(f"dimension must be an integer, got {n!r}")
    if n < 2:
        raise DimensionError(f"dimension must be >= 2, got {n}")
    return n


def is_admissible(p: ExponentLike, q: ExponentLike, n: int) -> bool:
    """Schrodinger admissibility: 1/p + n/(2q) = n/4, p,q in [2,inf],
    excluding (n,p,q) = (2,2,inf)."""
    n = _check_dimension(n)
    p, q = as_exponent(p), as_exponent(q)
    if p < 2 or q < 2:
        return False
    if p.reciprocal + Fraction(n, 2) * q.reciprocal != Fraction(n, 4):
        return False
    if n == 2 and p == 2 and q.is_infinite:
        return False
    return True


def admissible_pair(p: ExponentLike, q: ExponentLike, n: int) -> Tuple[Exponent, Exponent]:
    """(p, q) as exponents; PreconditionError unless admissible in dimension n."""
    p, q = as_exponent(p), as_exponent(q)
    if not is_admissible(p, q, n):
        raise PreconditionError(f"pair ({p},{q}) is not admissible for n={n}")
    return p, q


@dataclass(frozen=True)
class ExponentPair:
    """A (p, q) pair attached to a space dimension."""

    p: Exponent
    q: Exponent
    n: int

    def __post_init__(self):
        _check_dimension(self.n)

    @property
    def admissible(self) -> bool:
        return is_admissible(self.p, self.q, self.n)

    def __str__(self) -> str:
        return f"({self.p}, {self.q}; n={self.n})"


class Criticality(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class PotentialClass:
    """Position of (r, s) relative to the scaling-invariant line 1/r + n/(2s) = 1."""

    r: Exponent
    s: Exponent
    n: int
    rho: Fraction
    criticality: Criticality


def classify_potential(r: ExponentLike, s: ExponentLike, n: int) -> PotentialClass:
    n = _check_dimension(n)
    r, s = as_exponent(r), as_exponent(s)
    rho = r.reciprocal + Fraction(n, 2) * s.reciprocal
    if rho < 1:
        crit = Criticality.SUBCRITICAL
    elif rho == 1:
        crit = Criticality.CRITICAL
    else:
        crit = Criticality.SUPERCRITICAL
    return PotentialClass(r=r, s=s, n=n, rho=rho, criticality=crit)


def scaling_exponent(r: ExponentLike, s: ExponentLike, n: int) -> Fraction:
    """Exponent sigma with ||V_eps|| = eps^sigma ||V|| under
    V_eps(t,x) = eps^2 V(eps^2 t, eps x); zero exactly on the critical line."""
    cls = classify_potential(r, s, n)
    return 2 * (1 - cls.rho)


def holder_split_case_a(r: ExponentLike, s: ExponentLike, n: int) -> ExponentPair:
    """The auxiliary admissible pair (p0, q0) used when r in [2, inf):
    1/p0 = 1/2 - 1/r and 1/q0 = (n+2)/(2n) - 1/s."""
    cls = classify_potential(r, s, n)
    if cls.criticality is not Criticality.CRITICAL:
        raise RegimeError(f"(r,s)=({cls.r},{cls.s}) is {cls.criticality.value}, not critical")
    r, s = cls.r, cls.s
    if r < 2 or r.is_infinite:
        raise PreconditionError(f"case A requires r in [2, inf), got {r}")
    p0 = Exponent.from_reciprocal(Fraction(1, 2) - r.reciprocal)
    q0 = Exponent.from_reciprocal(Fraction(n + 2, 2 * n) - s.reciprocal)
    pair = ExponentPair(p0, q0, n)
    if not pair.admissible:
        raise PreconditionError(f"split of ({r},{s}) produced inadmissible {pair}")
    return pair


def dual_pair_case_b(
    r: ExponentLike, s: ExponentLike, n: int
) -> Tuple[ExponentPair, Tuple[Exponent, Exponent]]:
    """For r in [1,2]: the admissible pair (r', 2s/(s-2)) together with its
    dual (r, 2s/(s+2)); both slots of the dual lie in [1, 2]."""
    cls = classify_potential(r, s, n)
    if cls.criticality is not Criticality.CRITICAL:
        raise RegimeError(f"(r,s)=({cls.r},{cls.s}) is {cls.criticality.value}, not critical")
    r, s = cls.r, cls.s
    if r > 2:
        raise PreconditionError(f"case B requires r in [1, 2], got {r}")
    # 2s/(s-2): at s = inf this is 2, at s = 2 it degenerates to inf.
    if s.is_infinite:
        q_adm = TWO
    elif s == 2:
        q_adm = INF
    else:
        q_adm = Exponent(2 * s.value / (s.value - 2))
    q_dual = TWO if s.is_infinite else Exponent(2 * s.value / (s.value + 2))
    pair = ExponentPair(r.dual(), q_adm, n)
    if not pair.admissible:
        # The only critical corner reaching this: (n, r, s) = (2, 2, 2), whose
        # companion pair is the excluded endpoint (2, 2, inf).
        raise PreconditionError(
            f"companion pair {pair} of ({r},{s}) is the excluded endpoint"
        )
    if not (q_dual >= 1 and q_dual <= 2 and r <= 2):
        raise PreconditionError(f"dual pair ({r},{q_dual}) escaped [1,2]")
    return pair, (r, q_dual)


class ScheduleKind(enum.Enum):
    GLOBAL_SUBCRITICAL = "global-subcritical"
    GLOBAL_SUPERCRITICAL = "global-supercritical"
    LOCAL = "local"

    @property
    def sign(self) -> int:
        """+1 when window k has length k^alpha and eps_k = k^(-beta/2)
        (GLOBAL_SUBCRITICAL), -1 when it has length k^(-alpha) and
        eps_k = k^(beta/2) (the other kinds)."""
        return 1 if self is ScheduleKind.GLOBAL_SUBCRITICAL else -1

    @property
    def regime(self) -> Criticality:
        """The criticality of the (r, s) a cascade of this kind is built for."""
        subcritical = self is ScheduleKind.GLOBAL_SUBCRITICAL
        return Criticality.SUBCRITICAL if subcritical else Criticality.SUPERCRITICAL


@dataclass(frozen=True)
class ScheduleParams:
    """Power-law window parameters (alpha, beta) for a cascade schedule."""

    alpha: Fraction
    beta: Fraction
    kind: ScheduleKind

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise PreconditionError("alpha and beta must be positive")


def schedule_params_valid(params: ScheduleParams, r: ExponentLike, s: ExponentLike, n: int) -> bool:
    """Exact check of the defining inequalities for each schedule kind."""
    cls = classify_potential(r, s, n)
    a, b, rho = params.alpha, params.beta, cls.rho
    rr = cls.r.reciprocal
    if params.kind is ScheduleKind.GLOBAL_SUBCRITICAL:
        if rho >= 1:
            return False
        threshold = 1 / (1 - rho)
        return a > b > threshold and (a - b) * rr + b * rho < b - 1
    # Supercritical kinds share the core inequalities.
    if rho <= 1:
        return False
    threshold = 1 / (rho - 1)
    core = b > threshold and a < b and (a - b) * rr + b * rho > b + 1
    if params.kind is ScheduleKind.GLOBAL_SUPERCRITICAL:
        return core
    return core and b > a > 1


def validate_schedule_params(params: ScheduleParams, r: ExponentLike, s: ExponentLike, n: int) -> None:
    if not schedule_params_valid(params, r, s, n):
        raise PreconditionError(
            f"params alpha={params.alpha}, beta={params.beta} violate the "
            f"{params.kind.value} inequalities for (r,s,n)=({r},{s},{n})"
        )


_HEADROOM = Fraction(1, 10)


def global_subcritical_params(r: ExponentLike, s: ExponentLike, n: int) -> ScheduleParams:
    """Deterministic choice of alpha > beta for the subcritical cascade:
    beta = (1+h)/(1-rho) with h = 1/10, then alpha = beta(1+h2) with h2
    halved from 1/10 until (alpha-beta)/r + beta*rho < beta - 1 holds."""
    cls = classify_potential(r, s, n)
    if cls.criticality is not Criticality.SUBCRITICAL:
        raise RegimeError(f"(r,s)=({cls.r},{cls.s}) is {cls.criticality.value}, need subcritical")
    if cls.r.is_infinite:
        raise PreconditionError("cascade schedules need r < inf")
    rho, rr = cls.rho, cls.r.reciprocal
    beta = (1 + _HEADROOM) / (1 - rho)
    h2 = _HEADROOM
    while True:
        alpha = beta * (1 + h2)
        if (alpha - beta) * rr + beta * rho < beta - 1:
            break
        h2 /= 2
    params = ScheduleParams(alpha=alpha, beta=beta, kind=ScheduleKind.GLOBAL_SUBCRITICAL)
    validate_schedule_params(params, r, s, n)
    return params


def local_params(
    r: ExponentLike, s: ExponentLike, n: int, kind: ScheduleKind = ScheduleKind.LOCAL
) -> ScheduleParams:
    """Deterministic beta > alpha > 1 for the supercritical cascades:
    beta = (1+h)/(rho-1) with h = 1/10 (raised when that lands at or below
    1+h), then alpha = beta - g with the gap g halved from (beta-1)/2 until
    (alpha-beta)/r + beta*rho > beta + 1 holds with alpha > 1.

    The output satisfies both the local and the global-supercritical
    inequalities; ``kind`` selects which tag the params carry.
    """
    if kind is ScheduleKind.GLOBAL_SUBCRITICAL:
        raise PreconditionError("use global_subcritical_params for the subcritical regime")
    cls = classify_potential(r, s, n)
    if cls.criticality is not Criticality.SUPERCRITICAL:
        raise RegimeError(f"(r,s)=({cls.r},{cls.s}) is {cls.criticality.value}, need supercritical")
    if cls.r.is_infinite:
        raise PreconditionError("cascade schedules need r < inf")
    rho, rr = cls.rho, cls.r.reciprocal
    beta = (1 + _HEADROOM) / (rho - 1)
    if beta <= 1 + _HEADROOM:
        beta = 1 + _HEADROOM + Fraction(1, 2)
    gap = (beta - 1) / 2
    while True:
        alpha = beta - gap
        if alpha > 1 and (alpha - beta) * rr + beta * rho > beta + 1:
            break
        gap /= 2
    params = ScheduleParams(alpha=alpha, beta=beta, kind=kind)
    validate_schedule_params(params, r, s, n)
    return params


def pseudoconformal_ok(r: ExponentLike, s: ExponentLike, n: int) -> bool:
    """Whether (r, s) admits the pseudoconformal construction on [0, 1]:
    requires s in ]n/2, n[ (precondition) and holds iff 1/(2r) + n/(2s) > 1.
    Acceptance criterion c01 checks it against the equivalent r(n/s - 2) > -1."""
    n = _check_dimension(n)
    r, s = as_exponent(r), as_exponent(s)
    if r.is_infinite:
        raise PreconditionError("pseudoconformal construction needs r in [1, inf)")
    if s.is_infinite or not Fraction(n, 2) < s.value < Fraction(n):
        raise PreconditionError(f"s must lie strictly between n/2 and n, got s={s}, n={n}")
    return r.reciprocal / 2 + Fraction(n, 2) * s.reciprocal > 1
