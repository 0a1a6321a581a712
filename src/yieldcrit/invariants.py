"""Stress invariants and their gradients for isotropic yield analysis.

The library works with principal stresses (tension positive), which is
sufficient for isotropic criteria: a stress state is a triple
``(sigma1, sigma2, sigma3)`` and every operation here is invariant under
permutation of the three components.

Invariants used throughout:

    p     = -tr(sigma)/3                  mean pressure (compression positive)
    q     = sqrt(3 J2)                    deviatoric stress magnitude
    theta = (1/3) acos(3*sqrt(3)/2 * J3 / J2^(3/2))   Lode angle

with ``S = sigma - tr(sigma)/3 I``, ``J2 = S.S/2`` and ``J3 = tr(S^3)/3``.
The Lode angle lives in ``[0, pi/3]``: theta = 0 is triaxial extension and
theta = pi/3 is triaxial compression.  Hydrostatic states carry the
convention ``theta = 0`` plus a flag, since nothing downstream depends on
theta when q = 0.

theta is defined by the acos and computed as atan2(sqrt(3) (b - c),
(a - b) + (a - c)) of the sorted principals a >= b >= c: differences do not
cancel, so theta is good to a few ulp, and exact (0 or pi/3) where two
principals are equal.
"""

from __future__ import annotations

import math
from operator import attrgetter
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import DegenerateDirection, DomainError

if TYPE_CHECKING:
    import numpy as np

# Relative threshold below which a state counts as hydrostatic; under the
# rounding noise of double-precision invariants.
EPS_HYDROSTATIC = 1e-12

# |sin 3*theta| below this means the state sits on a deviatoric meridian
# and the perpendicular direction is undefined.
EPS_MERIDIAN = 1e-12

# Largest stress component magnitude accepted.  The Hessian of q/g needs
# q^3, up to about 5 max|sigma|^3, to stay finite in double precision,
# which ends near 3e102.
STRESS_MAX = 1e100

# Upper end of the Lode angle range [0, pi/3], and the ends of the range
# accepted as theta, 1e-12 wider.
_THETA_MAX = math.pi / 3.0
_THETA_LO, _THETA_HI = -1e-12, _THETA_MAX + 1e-12

_SQRT3 = math.sqrt(3.0)
_SQRT15 = math.sqrt(1.5)

# Each formula is written once over a namespace ``xp``: numpy for arrays,
# or FLOAT, the same names over ``math`` for one state in plain floats.
# numpy is imported only where an array is made or taken, so the scalar
# paths (and the CLI commands built on them) never load it.
# Unlike numpy, ``math`` raises on sqrt(-x), float / and ** on a zero
# divisor or an overflow, and max(0.0, nan) is 0.0, so the bodies keep
# their arguments in range.  They multiply rather than use ** where both
# paths must round alike (numpy's vector pow is not libm's) or where
# numpy's pow is slow (a negative base).
FLOAT = SimpleNamespace(
    sqrt=math.sqrt,
    arccos=math.acos,
    arctan2=math.atan2,
    cos=math.cos,
    sin=math.sin,
    tan=math.tan,
    log=math.log,
    where=lambda cond, a, b: a if cond else b,
    # maximum and minimum choose as max(a, b) and min(a, b) do, at less cost per call
    maximum=lambda a, b: b if b > a else a,
    minimum=lambda a, b: b if b < a else a,
)


def namespace(x):
    """``(FLOAT, x)`` for a real number, ``(numpy, x as a float array)`` otherwise."""
    if isinstance(x, (float, int)):
        return FLOAT, x
    import numpy as np

    return np, np.asarray(x, dtype=float)


# the frozen records' own __setattr__ raises
_setattr = object.__setattr__


class _OnFirstRead:
    """A dataclass attribute or the signature of a record class, made on first read.

    Each record class holds one under each of ``names`` in its own
    ``__dict__``, so that a base made a dataclass first does not answer for
    its subclasses.  The first read makes the class a dataclass (its record
    bases first, whose fields ``dataclass`` reads), which generates no method
    and puts the real attributes in their place.
    """

    names = ("__dataclass_fields__", "__dataclass_params__", "__match_args__", "__signature__")

    def __init__(self, name: str):
        self.name = name

    def __get__(self, obj, cls):
        import dataclasses
        import inspect

        # dataclass sets no __match_args__ where the class holds one
        cls.__match_args__ = cls._field_names
        cls.__signature__ = inspect.Signature(
            [
                inspect.Parameter(name, inspect.Parameter.POSITIONAL_OR_KEYWORD, annotation=annotation,
                                  default=cls._defaults.get(name, inspect.Parameter.empty))
                for name, annotation in cls._field_types.items()
            ],
            return_annotation=None,
        )
        dataclasses.dataclass(cls, init=False, repr=False, eq=False)
        return cls.__dict__[self.name]


class Record:
    """Base of the library's frozen records.

    A subclass declares its fields as annotations, as a frozen dataclass
    does, and is a dataclass: ``dataclasses.fields``, ``replace``, ``asdict``
    and ``is_dataclass`` work on it.  The methods that ``@dataclass(frozen=True)``
    would generate for each class at import (``__init__``, ``__repr__``,
    ``__eq__``, ``__hash__``, ``__setattr__`` and ``__delattr__``) are written
    once here instead, with the same behaviour and error messages.
    ``__init__`` runs the subclass's ``__post_init__``, as there.  A class
    becomes a dataclass when its dataclass attributes or its signature are
    first read, so that the package imports neither ``dataclasses`` nor
    ``inspect`` until then.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields as @dataclass collects them: the annotations of each record class
        # in the MRO, farthest first, with a class attribute of the annotating class as default
        owner = {
            name: base
            for base in cls.__mro__[::-1] if issubclass(base, Record)
            for name in vars(base).get("__annotations__", ())
        }
        cls._field_names = names = tuple(owner)
        cls._field_types = {name: base.__annotations__[name] for name, base in owner.items()}
        cls._defaults = {name: getattr(base, name) for name, base in owner.items() if hasattr(base, name)}
        # what == and hash compare: the tuple of the field values, as the generated methods do
        get = attrgetter(*names) if names else lambda record: ()
        cls._key = staticmethod(get if len(names) != 1 else lambda record: (get(record),))
        for name in _OnFirstRead.names:
            setattr(cls, name, _OnFirstRead(name))

    def __init__(self, *args, **kwargs):
        # Each field is set on its own, as the generated method sets it:
        # filling __dict__ would make it a real dict, which slows every read.
        names = self._field_names
        if kwargs and not args and len(kwargs) == len(names):
            try:  # every field by name, the common keyword call
                for name in names:
                    _setattr(self, name, kwargs[name])
            except KeyError:  # some keyword is not a field: raise its TypeError
                self._bind(args, kwargs)
        else:
            if kwargs or len(args) != len(names):
                args = self._bind(args, kwargs)
            for name, value in zip(names, args):
                _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call, bound as Python binds one to
        ``__init__(self, <fields>)``: the same defaults, and a TypeError
        worded as Python words it for a call that does not bind."""
        names, defaults = cls._field_names, cls._defaults
        where = f"{cls.__qualname__}.__init__()"
        bound = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            bound[name] = value
        if len(args) > len(names):
            most = len(names) + 1  # self counts
            takes = f"from {most - len(defaults)} to {most}" if defaults else str(most)
            plural = "s" if defaults or most != 1 else ""
            given = len(args) + 1
            raise TypeError(f"{where} takes {takes} positional argument{plural} but {given} were given")
        missing = [repr(name) for name in names if name not in bound and name not in defaults]
        if missing:
            if len(missing) > 2:
                missing[-1] = f"and {missing[-1]}"
            listed = ", ".join(missing) if len(missing) > 2 else " and ".join(missing)
            plural = "s" if len(missing) > 1 else ""
            raise TypeError(f"{where} missing {len(missing)} required positional argument{plural}: {listed}")
        return [bound[name] if name in bound else defaults[name] for name in names]

    def __post_init__(self):
        """A subclass checks and converts its fields here."""

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._field_names])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class Invariants(Record):
    """The (p, q, theta) triple of a stress state.

    ``hydrostatic`` is set when q vanishes relative to the state's scale;
    theta then carries the convention value 0.
    """

    p: float
    q: float
    theta: float
    hydrostatic: bool = False


class DeviatoricFrame(Record):
    """Unit deviatoric direction and its in-plane perpendicular.

    ``s_tilde`` is sqrt(3/2) S / q.  ``s_tilde_perp`` is the unit tensor
    coaxial with S, deviatoric, and orthogonal to s_tilde: -sqrt(2/3) q
    dtheta/dsigma, computed as +-(u3 - u2, u1 - u3, u2 - u1) / sqrt(3) from
    s_tilde = (u1, u2, u3).  On the deviatoric meridians (sin 3*theta = 0)
    theta has a kink, ``defined`` is False and ``s_tilde_perp`` a zero triple.
    """

    s_tilde: np.ndarray
    s_tilde_perp: np.ndarray
    defined: bool


def _record(cls, fields: dict):
    """A frozen ``cls`` record holding ``fields``, made without ``__init__`` or its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _check_stress(sig) -> None:
    """DomainError unless every component of ``sig`` (a tuple of three
    floats or an (N, 3) array) is finite and at most STRESS_MAX in magnitude."""
    if isinstance(sig, tuple):
        s1, s2, s3 = sig
        if abs(s1) <= STRESS_MAX and abs(s2) <= STRESS_MAX and abs(s3) <= STRESS_MAX:
            return
        bad = list(sig)
    else:
        import numpy as np

        # the largest magnitude is NaN if any component is
        if np.abs(sig).max(initial=0.0) <= STRESS_MAX:
            return
        bad = sig[~np.all(np.abs(sig) <= STRESS_MAX, axis=-1)][0].tolist()
    raise DomainError(
        f"stress components must be finite and at most {STRESS_MAX:g} in magnitude, got {bad}"
    )


def _invariant_body(s1, s2, s3, xp):
    """(p, q, theta, hydrostatic) of principal stresses given as floats or columns."""
    tr = s1 + s2 + s3
    mean = tr / 3.0
    p = -mean  # rounds as -tr / 3: division rounds symmetrically about zero
    d1, d2, d3 = s1 - mean, s2 - mean, s3 - mean
    j2 = 0.5 * (d1 * d1 + d2 * d2 + d3 * d3)
    q = xp.sqrt(3.0 * j2)
    hydrostatic = q <= EPS_HYDROSTATIC * xp.maximum(1.0, abs(p))
    # the principals sorted as a >= b >= c; b - c is +0.0 where b equals c, so theta is never -0.0
    hi, lo = xp.maximum(s1, s2), xp.minimum(s1, s2)
    a, b, c = xp.maximum(hi, s3), xp.maximum(lo, xp.minimum(hi, s3)), xp.minimum(lo, s3)
    # atan2 rounds one ulp past pi/3 for some a = b
    theta = xp.minimum(xp.arctan2(_SQRT3 * (b - c), (a - b) + (a - c)), _THETA_MAX)
    return p, q, xp.where(hydrostatic, 0.0, theta), hydrostatic


# The last scalar state and its invariants as one pair, which a reader takes
# whole: another thread replaces the pair, never half of it, so no lock.
_last = ((), ())


def _state(stress):
    """(principal triple, (p, q, theta, hydrostatic)) of one state in plain floats,
    from a 3-tuple or 3-list, or anything numpy reshapes to (3,).

    The last state's pair is kept: F and its gradient ask for one state's in
    turn.  A hit has the bits of a fresh computation: floats equal to the key
    have its bits, except zeros, whose sign ``==`` ignores and p does not (p of
    (0, 0, 0) is -0.0, of (-0, -0, -0) 0.0), so a triple that holds a zero is
    never a hit.  A triple equal to the key is in range, as the key was checked.
    """
    global _last
    try:
        if isinstance(stress, (tuple, list)) and len(stress) == 3:
            sig = float(stress[0]), float(stress[1]), float(stress[2])
        else:
            import numpy as np

            sig = tuple(np.asarray(stress, dtype=float).reshape(3).tolist())
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"stress must be three numbers, got {stress!r}") from None
    last = _last
    if sig == last[0] and 0.0 not in sig:
        return last
    _check_stress(sig)
    last = _last = sig, _invariant_body(*sig, FLOAT)
    return last


def _check_theta(theta) -> None:
    """DomainError unless theta (a number or an array) lies in [0, pi/3] to 1e-12; numpy-free for a number."""
    if isinstance(theta, (float, int)):
        ok = _THETA_LO <= theta <= _THETA_HI
    else:
        import numpy as np

        try:
            th = np.asarray(theta, dtype=float)
            ok = np.all((_THETA_LO <= th) & (th <= _THETA_HI))
        except (TypeError, ValueError):  # not a number or an array of them
            ok = False
    if not ok:
        raise DomainError(f"theta must lie in [0, pi/3], got {theta}")


def invariants(stress) -> Invariants:
    """Compute (p, q, theta) from principal stresses.

    Total function: hydrostatic states get theta = 0 with the flag set.
    """
    p, q, theta, hydrostatic = _state(stress)[1]
    return _record(Invariants, {"p": p, "q": q, "theta": theta, "hydrostatic": hydrostatic})


def invariants_array(stress):
    """(p, q, theta, hydrostatic) arrays for an (N, 3) batch of principal stresses.

    The batch form of :func:`invariants`, with the same formula and the same
    hydrostatic threshold and convention (theta = 0 where the flag is set).
    A single triple of shape (3,) is taken as a batch of one; any other
    shape than (3,) or (N, 3) raises DomainError.
    """
    import numpy as np

    try:
        sig = np.asarray(stress, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not numbers, or rows of unequal length
        raise DomainError(f"stress must be an array of numbers, got {stress!r}") from None
    if sig.ndim not in (1, 2) or sig.shape[-1] != 3:
        raise DomainError(f"stress must have shape (3,) or (N, 3), got {sig.shape}")
    sig = sig.reshape(-1, 3)
    _check_stress(sig)
    return _invariant_body(sig[:, 0], sig[:, 1], sig[:, 2], np)


def _frame(stress):
    """(p, q, theta, S, s_tilde, s_tilde_perp) of one state in plain floats, the
    last three as triples (see :class:`DeviatoricFrame`): s_tilde is None at a
    hydrostatic state, s_tilde_perp on a deviatoric meridian.  Written out, as
    a comprehension per triple would double the cost of ``gradient``."""
    (s1, s2, s3), (p, q, theta, hydrostatic) = _state(stress)
    S = d1, d2, d3 = s1 + p, s2 + p, s3 + p
    if hydrostatic:
        return p, q, theta, S, None, None
    s_tilde = u1, u2, u3 = _SQRT15 * d1 / q, _SQRT15 * d2 / q, _SQRT15 * d3 / q
    if abs(math.sin(3.0 * theta)) <= EPS_MERIDIAN:
        return p, q, theta, S, s_tilde, None
    # s_tilde turned a right angle in the deviatoric plane; its sign flips with each swap
    # of two principals, which are compared, as a product of their differences can underflow
    k = (1.0 if (s1 > s2) ^ (s2 > s3) ^ (s3 > s1) else -1.0) / _SQRT3
    return p, q, theta, S, s_tilde, (k * (u3 - u2), k * (u1 - u3), k * (u2 - u1))


def invariant_gradients(stress):
    """Gradients of p, J2, J3 and theta with respect to principal stress.

    Returns
    -------
    (dp, dJ2, dJ3, dtheta) : tuple of ndarray, shape (3,)
        dp = -I/3, dJ2 = S, dJ3 = S^2 - (tr S^2 / 3) I and
        dtheta = -sqrt(3/2) s_tilde_perp / q (of :func:`deviatoric_frame`),
        which is -9/(2 q^3 sin 3t) * (dJ3 - q cos(3t)/3 S).

    Raises
    ------
    DegenerateDirection
        When q = 0 or sin 3*theta = 0; the theta gradient is undefined and
        the caller must switch to the smooth-limit form of the criterion
        gradient instead.
    """
    import numpy as np

    _, q, theta, S, s_tilde, s_tilde_perp = _frame(stress)
    if s_tilde is None:
        raise DegenerateDirection("theta gradient undefined at a hydrostatic state")
    if s_tilde_perp is None:
        raise DegenerateDirection(f"theta gradient undefined on a deviatoric meridian (theta={theta:.6g})")
    dj2 = np.array(S)
    s2 = dj2 * dj2
    dj3 = s2 - s2.sum() / 3.0
    return np.full(3, -1.0 / 3.0), dj2, dj3, -_SQRT15 * np.array(s_tilde_perp) / q


def deviatoric_frame(stress) -> DeviatoricFrame:
    """The :class:`DeviatoricFrame` of a state; DegenerateDirection when q = 0."""
    import numpy as np

    s_tilde, s_tilde_perp = _frame(stress)[4:]
    if s_tilde is None:
        raise DegenerateDirection("deviatoric direction undefined at q = 0")
    return DeviatoricFrame(s_tilde=np.array(s_tilde), s_tilde_perp=np.array(s_tilde_perp or (0.0,) * 3),
                           defined=s_tilde_perp is not None)


def principal_from_invariants(p: float, q: float, theta: float) -> np.ndarray:
    """Reconstruct a principal triple from (p, q, theta).

    The inverse of :func:`invariants` up to permutation:
    sigma_k = -p + (2q/3) cos(theta - 2 pi k / 3).
    """
    import numpy as np

    _check_theta(theta)
    if not (math.isfinite(p) and math.isfinite(q)):
        raise DomainError(f"p and q must be finite, got p={p}, q={q}")
    if q < 0.0:
        raise DomainError(f"q must be nonnegative, got {q}")
    k = np.arange(3)
    return -p + (2.0 * q / 3.0) * np.cos(theta - 2.0 * math.pi * k / 3.0)
