"""Parametric max-mixture model and its closed-form evaluations.

The model is a d-dimensional random vector built from D shared unit
Fréchet factors Z_1..Z_D and d idiosyncratic unit Fréchet factors Y_1..Y_d:

    X_i = max_j (alpha[i, j] * Z_j)  v  (C - sum_j alpha[i, j]) * Y_i

with nonnegative weights ``alpha`` and a scale constant ``C`` at least as
large as every row sum of ``alpha``.  Every margin is Fréchet with scale C,
the joint law is max-stable, and all pairwise tail dependence coefficients
are available in closed form:

    lambda[s, k] = (1 / C) * sum_j min(alpha[s, j], alpha[k, j]).

This module holds the spec and target containers, one raising validator
for each (:func:`require_valid_spec`, :func:`require_valid_tail_dep_matrix`),
and the closed-form evaluations (joint CDF, copula, marginal CDF,
tail-dependence and extremal coefficients).  All functions are pure; specs
are immutable and safe to share across threads.

Indexing convention: margins are 0-based throughout the Python API.  The
CLI and file formats label coordinates 1-based (``x1``..``xd``).

A synthesized alpha has d - 1 nonzeros per row out of D = d(d - 1)/2, so
the steps that handle a whole spec follow its nonzeros: the JSON form
stores alpha as (row, column, value) lists when at most a quarter of it is
nonzero, the fingerprint builds its dense JSON text from runs of zeros and
the encoded nonzeros, and the tail dependence matrix sums each pair of
sparse rows over the nonzero columns of one of them.

The fingerprint still encodes every entry of a dense alpha as text, the
bytes ``json.dumps`` writes.  The texts come from the vectorized
:func:`mevgen._csvfmt.repr_rows`, which writes ``float.__repr__`` exactly:
the fully stored rows in one pass with their commas, and the stored entries
of the other rows as tokens between the runs of ``0.0,``.
:meth:`ModelSpec.digest` hashes the stored entries' bits instead; sample
sidecars carry it, so ``estimate`` can confirm that a spec is the sampled
one without building that text.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import DomainError, ShapeError, SpecValidationError

#: Absolute slack allowed on the feasibility bound C >= max row sum.  Rows at
#: the exact boundary (slack in [-FEASIBILITY_TOL, 0)) are treated as having
#: no idiosyncratic term; larger violations are rejected by validation.
FEASIBILITY_TOL = 1e-9

#: Tolerance for symmetry / unit-diagonal checks on tail dependence matrices.
#: The upper triangle is authoritative; the lower triangle is mirrored.
_SYMMETRY_TOL = 1e-9

#: Smallest admissible scale constant, the smallest normal float64.  With a
#: subnormal C, ``alpha * v`` underflows in the copula.
_MIN_SCALE = float(np.finfo(np.float64).tiny)


def _as_readonly_matrix(values, name: str) -> np.ndarray:
    """``values`` as a read-only float64 matrix.

    A read-only float64 array that owns its memory is taken as it is, so a
    caller handing over an array it no longer writes saves the copy; anything
    else is copied.
    """
    arr = values
    owned = type(arr) is np.ndarray and arr.flags.owndata and not arr.flags.writeable
    if not (owned and arr.dtype == np.float64):
        try:
            arr = np.array(values, dtype=np.float64, copy=True)
        except (TypeError, ValueError) as exc:
            raise ShapeError(f"{name} must be a rectangular numeric matrix: {exc}") from exc
        except OverflowError:
            raise ShapeError(f"{name} holds a value outside the float64 range") from None
        arr.flags.writeable = False
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Full parametrization of the max-mixture model.

    Parameters
    ----------
    alpha : (d, D) array_like
        Nonnegative factor weights; ``alpha[i, j]`` scales shared factor j
        in margin i.
    C : float
        Global Fréchet scale constant.  Feasibility requires
        ``C >= alpha.sum(axis=1).max()`` (up to ``FEASIBILITY_TOL``).

    Construction only normalizes shapes; use :func:`require_valid_spec` to
    check the numeric invariants.  A read-only float64 ``alpha`` that owns
    its memory is held as it is; any other is copied.
    """

    alpha: np.ndarray
    C: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_readonly_matrix(self.alpha, "alpha"))
        object.__setattr__(self, "C", float(self.C))

    @property
    def d(self) -> int:
        return self.alpha.shape[0]

    @property
    def D(self) -> int:
        return self.alpha.shape[1]

    def row_sums(self) -> np.ndarray:
        """Per-margin total shared weight, ``sum_j alpha[i, j]``."""
        return self.alpha.sum(axis=1)

    def slacks(self) -> np.ndarray:
        """Idiosyncratic coefficients ``C - row_sums``, clamped at zero."""
        return np.maximum(self.C - self.row_sums(), 0.0)

    def fingerprint(self) -> str:
        """Content hash identifying this spec across serialization round trips.

        The sha256 of the compact, sorted-key JSON of the spec with alpha as
        a dense list of lists, whichever layout :meth:`to_json_dict` picks.
        """
        from ._csvfmt import repr_rows  # here only: stages that hash no spec never load it

        stored = _stored(self.alpha)
        full = stored.all(axis=1) & (self.D > 0)  # an empty row has no value to end its line
        # the fully stored rows in one pass, the kernel writing their commas; the stored
        # entries of the other rows as tokens, taken in turn between their runs of "0.0,"
        full_texts = iter(repr_rows(self.alpha[full]).split(b"\n"))
        values = self.alpha[stored & ~full[:, None]]
        tokens = iter(repr_rows(values[None, :])[:-1].split(b",") if values.size else [])
        h = hashlib.sha256(b'{"C":%s,"D":%d,"alpha":[' % (json.dumps(self.C).encode(), self.D))
        for s, row in enumerate(stored):
            h.update(b",[" if s else b"[")
            h.update(next(full_texts) if full[s] else _dense_row_json(row, tokens))
            h.update(b"]")
        h.update(b'],"d":%d}' % self.d)
        return h.hexdigest()

    def digest(self, fingerprint: str) -> str:
        """sha256 binding a fingerprint string to this spec's exact bits, in O(nnz).

        It hashes the JSON text of ``fingerprint``, d, D, the bits of C, and
        the flat index and float64 bits of every stored alpha entry (see
        :meth:`to_json_dict`).  Those determine :meth:`fingerprint`, so a
        spec whose digest with a sidecar's fingerprint equals the sidecar's
        digest has that fingerprint, without the O(d * D) text being built.
        """
        flat = np.flatnonzero(_stored(self.alpha))
        h = hashlib.sha256(json.dumps(fingerprint).encode())
        h.update(np.array([self.d, self.D], dtype="<i8").tobytes())
        h.update(np.array([self.C], dtype="<f8").tobytes())
        h.update(flat.astype("<i8").tobytes())
        h.update(self.alpha.ravel()[flat].astype("<f8").tobytes())
        return h.hexdigest()

    def to_json_dict(self) -> dict:
        """JSON form; alpha is sparse when at most a quarter of it is stored.

        Stored entries are those whose bits are not +0.0, so -0.0 and NaN
        survive.  The sparse form ``{"i": rows, "j": cols, "v": values}``
        lists them in row-major order; otherwise alpha is a list of rows.
        """
        a = self.alpha
        stored = _stored(a)
        if 4 * np.count_nonzero(stored) <= a.size:
            rows, cols = np.nonzero(stored)
            alpha = {"i": rows.tolist(), "j": cols.tolist(), "v": a[rows, cols].tolist()}
        else:
            alpha = a.tolist()
        return {"d": self.d, "D": self.D, "C": self.C, "alpha": alpha}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ModelSpec":
        """Read either alpha layout of :meth:`to_json_dict`; ShapeError on bad fields."""
        try:
            d, big_d, c, alpha = obj["d"], obj["D"], obj["C"], obj["alpha"]
        except (KeyError, TypeError) as exc:
            raise ShapeError(f"spec object must carry d, D, C, alpha: {exc}") from exc
        if type(d) is not int or type(big_d) is not int:
            raise ShapeError(f"declared dimensions d={d!r}, D={big_d!r} must be integers")
        # bool is a subclass of int and "1.5" would pass float(); JSON numbers only
        if type(c) is not int and type(c) is not float:
            raise ShapeError(f"scale constant C={c!r} must be a number")
        try:
            c = float(c)
        except OverflowError:
            raise ShapeError(f"scale constant C={c!r} is outside the float64 range") from None
        if isinstance(alpha, dict):
            alpha = _alpha_from_entries(alpha, d, big_d)
        else:
            _require_number_rows(alpha, "alpha")
        spec = cls(alpha=alpha, C=c)
        if spec.d != d or spec.D != big_d:
            raise ShapeError(
                f"declared dimensions d={d}, D={big_d} do not match alpha of "
                f"shape {spec.alpha.shape}"
            )
        return spec


def _first_non_number(values: list) -> int | None:
    """Index of the first value that is not a JSON number, or None.

    bool is a subclass of int and ``"0.5"`` would pass ``float()``, so only
    the exact types int and float count.
    """
    if set(map(type, values)) <= {int, float}:
        return None
    return next(k for k, x in enumerate(values) if type(x) is not int and type(x) is not float)


def _require_number_rows(rows, name: str) -> None:
    """Raise ShapeError naming ``name[i][j]`` when a list of rows holds a non-number."""
    for i, row in enumerate(rows if type(rows) is list else ()):
        if type(row) is list and (j := _first_non_number(row)) is not None:
            raise ShapeError(f"{name} values must be numbers: {name}[{i}][{j}]={row[j]!r}")


def _stored(alpha: np.ndarray) -> np.ndarray:
    """Entries whose bits are not those of +0.0: nonzero, -0.0 or NaN."""
    return (alpha != 0) | np.signbit(alpha)


def _dense_row_json(stored: np.ndarray, tokens: Iterator[bytes]) -> bytes:
    """The text between the brackets of ``json.dumps(row.tolist(), separators=(",", ":"))``
    of a row whose entries ``stored`` take their JSON texts from ``tokens``, one each, in
    O(nnz) Python steps.

    The +0.0 entries between them are the repeated text ``0.0,``.
    """
    pos = np.flatnonzero(stored)
    gaps = (np.diff(pos, prepend=-1) - 1).tolist()
    tail = stored.size - 1 - (int(pos[-1]) if pos.size else -1)
    # zip takes from gaps first, so it takes no token past this row's
    return (b"".join([b"0.0," * g + t + b"," for g, t in zip(gaps, tokens)]) + b"0.0," * tail)[:-1]


def _alpha_from_entries(obj: dict, d: int, big_d: int) -> np.ndarray:
    """The dense (d, D) alpha of a sparse ``{"i", "j", "v"}`` object."""
    try:
        rows, cols, vals = obj["i"], obj["j"], obj["v"]
    except KeyError as exc:
        raise ShapeError(f"sparse alpha must carry i, j, v: missing {exc}") from None
    if type(rows) is not list or type(cols) is not list or type(vals) is not list:
        raise ShapeError("sparse alpha fields i, j, v must be lists")
    if not len(rows) == len(cols) == len(vals):
        raise ShapeError(
            f"sparse alpha lists differ in length: i has {len(rows)}, j {len(cols)}, "
            f"v {len(vals)}"
        )
    for name, idx, bound in (("i", rows, d), ("j", cols, big_d)):
        if not set(map(type, idx)) <= {int}:
            raise ShapeError(f"sparse alpha indices {name} must be integers")
        if idx and (min(idx) < 0 or max(idx) >= bound):
            raise ShapeError(f"sparse alpha index {name} outside [0, {bound})")
    if (k := _first_non_number(vals)) is not None:
        raise ShapeError(f"sparse alpha values must be numbers, in a flat list: v[{k}]={vals[k]!r}")
    try:
        v = np.array(vals, dtype=np.float64)
    except OverflowError:
        raise ShapeError("sparse alpha values must lie in the float64 range") from None
    try:
        alpha = np.zeros((d, big_d))
    except (ValueError, MemoryError) as exc:
        raise ShapeError(f"alpha of shape ({d}, {big_d}) cannot be held: {exc}") from exc
    i, j = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
    flat = np.sort(i * big_d + j)  # np.sort, not np.unique, which imports numpy.ma
    if np.any(flat[1:] == flat[:-1]):
        raise ShapeError("sparse alpha lists an entry more than once")
    alpha[i, j] = v
    alpha.flags.writeable = False  # ModelSpec takes it without a copy
    return alpha


@dataclass(frozen=True, eq=False)
class TailDepMatrix:
    """Symmetric d x d matrix of pairwise tail dependence coefficients.

    ``values[s, k]`` is the limiting conditional probability that margin s is
    extreme given margin k is extreme; the diagonal is 1 by definition.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_matrix(self.values, "tail dependence matrix")
        if arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"tail dependence matrix must be square, got {arr.shape}")
        object.__setattr__(self, "values", arr)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def canonical(self) -> "TailDepMatrix":
        """Mirror the authoritative upper triangle down and pin the diagonal at 1."""
        out = np.triu(self.values, k=1)
        out = out + out.T
        np.fill_diagonal(out, 1.0)
        return TailDepMatrix(out)

    def to_json_dict(self) -> dict:
        return {"d": self.d, "lambda": self.values.tolist()}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TailDepMatrix":
        try:
            d, lam = obj["d"], obj["lambda"]
        except (KeyError, TypeError) as exc:
            raise ShapeError(f"matrix object must carry d and lambda: {exc}") from exc
        if type(d) is not int:
            raise ShapeError(f"declared dimension d={d!r} must be an integer")
        _require_number_rows(lam, "lambda")
        mat = cls(values=lam)
        if mat.d != d:
            raise ShapeError(
                f"declared dimension d={d} does not match matrix of shape "
                f"{mat.values.shape}"
            )
        return mat


def require_valid_spec(spec: ModelSpec) -> ModelSpec:
    """Return ``spec`` unchanged; raise SpecValidationError if it is invalid.

    Every ModelSpec invariant is checked, and ``violations`` on the error
    holds one message per offending entry or row (at most ten of each kind).
    """
    violations: list[str] = []
    if spec.d < 2:
        violations.append(f"dimension d={spec.d} must be at least 2")
    if spec.D < 1:
        violations.append(f"factor count D={spec.D} must be at least 1")
    if not np.isfinite(spec.C) or spec.C < _MIN_SCALE:
        violations.append(
            f"scale constant C={spec.C!r} must be positive, finite and at least "
            f"{_MIN_SCALE!r}, the smallest normal float64"
        )
    if not np.all(np.isfinite(spec.alpha)):
        bad = np.argwhere(~np.isfinite(spec.alpha))
        for i, j in bad[:10]:
            violations.append(f"alpha[{i}][{j}] is not finite")
    else:
        neg = np.argwhere(spec.alpha < 0)
        for i, j in neg[:10]:
            violations.append(
                f"alpha[{i}][{j}] = {float(spec.alpha[i, j])!r} is negative"
            )
        if np.isfinite(spec.C):
            row_sums = spec.alpha.sum(axis=1)
            over = np.flatnonzero(row_sums > spec.C + FEASIBILITY_TOL)
            for i in over[:10]:
                violations.append(
                    f"row {i} sum {float(row_sums[i])!r} exceeds scale constant C={spec.C!r}"
                )
    if violations:
        raise SpecValidationError(violations)
    return spec


def require_valid_tail_dep_matrix(target: TailDepMatrix) -> TailDepMatrix:
    """Return the canonical (mirrored, unit-diagonal) matrix of a valid target.

    Raises SpecValidationError unless ``target`` is symmetric (within
    tolerance) with a unit diagonal and entries in [0, 1].
    """
    violations: list[str] = []
    lam = target.values
    d = target.d
    if d < 2:
        violations.append(f"dimension d={d} must be at least 2")
    if not np.all(np.isfinite(lam)):
        violations.append("matrix contains non-finite entries")
        raise SpecValidationError(violations)
    diag_off = np.abs(np.diagonal(lam) - 1.0)
    for i in np.flatnonzero(diag_off > _SYMMETRY_TOL)[:10]:
        violations.append(f"diagonal entry [{i}][{i}] = {float(lam[i, i])!r} must be 1")
    asym = np.abs(lam - lam.T)
    for i, j in np.argwhere(np.triu(asym, k=1) > _SYMMETRY_TOL)[:10]:
        violations.append(
            f"asymmetric pair [{i}][{j}]={float(lam[i, j])!r} vs [{j}][{i}]={float(lam[j, i])!r}"
        )
    off_mask = ~np.eye(d, dtype=bool)
    bad = np.argwhere(off_mask & ((lam < 0.0) | (lam > 1.0)))
    for i, j in bad[:10]:
        violations.append(f"entry [{i}][{j}] = {float(lam[i, j])!r} outside [0, 1]")
    if violations:
        raise SpecValidationError(violations)
    return target.canonical()


def _check_point(x, d: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} must be a numeric vector: {exc}") from exc
    if arr.shape != (d,):
        raise ShapeError(f"{name} must have shape ({d},), got {arr.shape}")
    return arr


def marginal_cdf(spec: ModelSpec, i: int, x: float) -> float:
    """Marginal CDF of margin i, ``exp(-C / x)``; identical for every margin.

    Parameters
    ----------
    spec : ModelSpec
    i : int
        Margin index, 0-based.
    x : float
        Evaluation point, strictly positive.
    """
    if not 0 <= i < spec.d:
        raise DomainError(f"margin index {i} outside range [0, {spec.d})")
    if not x > 0:
        raise DomainError(f"marginal CDF requires x > 0, got {x!r}")
    return float(np.exp(-spec.C / x))


def log_joint_cdf(spec: ModelSpec, x) -> float:
    """Log of the joint CDF at a point with all coordinates positive.

    The product of exponentials is evaluated as a single exp of a summed
    exponent, so the result never underflows for large d or D:

        log F(x) = -( sum_j max_i alpha[i, j] / x_i  +  sum_i slack_i / x_i )
    """
    xv = _check_point(x, spec.d, "x")
    if not np.all(xv > 0):
        raise DomainError("joint CDF requires every coordinate to be positive")
    with np.errstate(over="ignore"):
        inv_x = 1.0 / xv
    if np.isinf(inv_x).any():  # F(x) = 0, as each margin's weights and slack sum to C > 0;
        return -np.inf  # below, a zero weight or slack would add 0 * inf = NaN
    shared = (spec.alpha * inv_x[:, None]).max(axis=0).sum()
    own = (spec.slacks() * inv_x).sum()
    return -(shared + own)


def joint_cdf(spec: ModelSpec, x) -> float:
    """Joint CDF ``P(X_1 <= x_1, ..., X_d <= x_d)``."""
    return float(np.exp(log_joint_cdf(spec, x)))


def log_copula(spec: ModelSpec, u) -> float:
    """Log of the extreme-value copula at ``u`` with every ``u_i`` in (0, 1].

    Satisfies max-stability: ``t * log_copula(u) == log_copula(u**t)`` for
    every t > 0.
    """
    return _log_copula(spec, u, spec.slacks())


def _log_copula(spec: ModelSpec, u, slack: np.ndarray) -> float:
    """:func:`log_copula` given ``spec.slacks()``, for callers that loop over points."""
    uv = _check_point(u, spec.d, "u")
    if not np.all((uv > 0) & (uv <= 1)):
        raise DomainError("copula requires every coordinate in (0, 1]")
    v = -np.log(uv)  # nonnegative; 0 exactly where u == 1
    # a margin at u == 1 adds 0 to every column's max, so only the others enter
    below = np.flatnonzero(uv < 1)
    shared = (spec.alpha[below] * v[below, None]).max(axis=0, initial=0.0).sum()
    own = (slack * v).sum()
    return -(shared + own) / spec.C


def _pair_log_copulas(spec: ModelSpec, slack: np.ndarray, s: int) -> np.ndarray:
    """:func:`_log_copula` at the points ``u_s = u_k = 1/e``, every other u 1, for each k > s.

    The same floats as one call per point: ``-log(1/e)`` is ``v0``, the
    shared term takes the same products, the same maxima from 0 in the same
    order and the same pairwise sum along D, and in the own term every other
    margin contributes -0.0, so its sum is ``slack[s] * v0 + slack[k] * v0``.
    """
    v0 = -np.log(np.exp(-1.0))
    alpha = spec.alpha
    shared = np.maximum(np.maximum(0.0, alpha[s] * v0), alpha[s + 1 :] * v0).sum(axis=1)
    own = slack[s] * v0 + slack[s + 1 :] * v0
    return -(shared + own) / spec.C


def copula(spec: ModelSpec, u) -> float:
    """Extreme-value copula of the model evaluated at ``u``."""
    return float(np.exp(log_copula(spec, u)))


def tail_dep_matrix(spec: ModelSpec) -> TailDepMatrix:
    """All pairwise tail dependence coefficients of a valid spec.

    ``lambda[s, k] = (1 / C) * sum_j min(alpha[s, j], alpha[k, j])`` off the
    diagonal; the diagonal is 1 by definition, never computed.

    A zero weight in row s makes the column's min 0, so a pair of rows that
    both have at most half of their D entries nonzero sums over the first
    row's nonzero columns only; a pair with a denser row sums over all D,
    so every entry of a dense row has the bits of the full sum.  On a
    synthesized spec every pair shares one column, so both give the same
    bits; elsewhere the sparse sum may differ from the full one in the last
    place.
    """
    require_valid_spec(spec)
    d, alpha = spec.d, spec.alpha
    dense = 2 * np.count_nonzero(alpha, axis=1) > spec.D
    lam = np.zeros((d, d))
    # Row-at-a-time keeps peak memory at O(d * D) even for d ~ 1e3, D ~ 1e4.
    for s in range(d - 1):
        if dense[s]:
            lam[s, s + 1 :] = np.minimum(alpha[s + 1 :], alpha[s]).sum(axis=1)
            continue
        cols = np.flatnonzero(alpha[s])
        lam[s, s + 1 :] = np.minimum(alpha[s + 1 :, cols], alpha[s, cols]).sum(axis=1)
        if dense[s + 1 :].any():
            k = s + 1 + np.flatnonzero(dense[s + 1 :])
            lam[s, k] = np.minimum(alpha[k], alpha[s]).sum(axis=1)
    lam = (lam + lam.T) / spec.C
    np.fill_diagonal(lam, 1.0)
    return TailDepMatrix(lam)


def extremal_matrix(spec: ModelSpec) -> np.ndarray:
    """Pairwise extremal coefficients ``2 - lambda``, 1 on the diagonal.

    Returns a read-only (d, d) array.  An off-diagonal value of 1 means
    complete dependence of the pair, 2 means independence.
    """
    eps = 2.0 - tail_dep_matrix(spec).values
    np.fill_diagonal(eps, 1.0)
    eps.flags.writeable = False
    return eps


def multivariate_extremal_coeff(spec: ModelSpec, subset: Iterable[int]) -> float:
    """Extremal coefficient of a subset of margins, in [1, len(subset)].

    Computed from the joint CDF evaluated on the subset's diagonal:

        theta = (1/C) * ( sum_j max_{i in S} alpha[i, j] + sum_{i in S} slack_i )

    For a pair this equals the bivariate extremal coefficient.  The value is
    1 under complete dependence of the subset and ``len(subset)`` under full
    independence.
    """
    require_valid_spec(spec)
    idx = list(subset)
    if len(idx) < 2:
        raise DomainError(f"subset must contain at least 2 margins, got {len(idx)}")
    if len(set(idx)) != len(idx):
        raise DomainError(f"subset {idx} contains duplicate margins")
    if any(not 0 <= i < spec.d for i in idx):
        raise DomainError(f"subset {idx} outside margin range [0, {spec.d})")
    rows = spec.alpha[idx]
    shared = rows.max(axis=0).sum()
    own = spec.slacks()[idx].sum()
    return float((shared + own) / spec.C)
