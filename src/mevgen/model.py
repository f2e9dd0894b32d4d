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

A spec holds alpha's stored entries (bits not +0.0, so -0.0 and NaN
survive) once, as built at construction; a synthesized alpha has d - 1
nonzeros per row of D = d(d - 1)/2.  A stored row, with 2 * nnz <= D, keeps
its stored entries as row-major column and value arrays; the other, dense
rows form one block.  Row sums are taken over each row's dense image, so
they have the bits of ``alpha.sum(axis=1)``.  Validation, the slacks,
lambda, the JSON form, the fingerprint, the digest and the sampler's factor
max read this structure, so a sparse or synthesized spec holds O(nnz) and
builds its dense alpha only when ``alpha`` is asked for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

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

#: Largest admissible scale constant: a weight is at most C and a unit Fréchet draw at most
#: 2**52 (see :mod:`mevgen.sampling`), so no product ``sample`` or ``check`` forms overflows.
_MAX_SCALE = 2.0**970


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


#: Most entries, d * D (a side of 0 counting as 1), that a spec made from
#: stored entries (a sparse file, or :func:`mevgen.synthesize`) may have:
#: 2**29, which admits a synthesized d = 1024.  Dense alpha would take 4 GiB
#: there, so a larger shape is refused before anything of its size exists.
_MAX_ENTRIES = 2**29

#: Values per block of dense row images (256 KiB), through which the row sums
#: of stored rows and the lambda of pairs with a dense row are taken.
_IMAGE_VALUES = 2**15


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
    its memory is held as it is; any other is copied.  A spec is immutable;
    its ``alpha`` is that array, or for a spec made from stored entries (a
    sparse file, or :func:`mevgen.synthesize`) a read-only array built on
    first use.
    """

    def __init__(self, alpha, C):
        alpha = _as_readonly_matrix(alpha, "alpha")
        dense = 2 * np.count_nonzero(alpha, axis=1) > alpha.shape[1]
        rows, cols = np.nonzero(_stored(alpha) & ~dense[:, None])
        block = alpha if dense.all() else alpha[dense]
        self.__dict__["alpha"] = alpha
        self._hold(C, alpha.shape, dense, block, rows, cols, alpha[rows, cols])

    @classmethod
    def _from_entries(cls, d: int, big_d: int, C, rows, cols, vals) -> "ModelSpec":
        """The (d, D) spec with entries ``alpha[rows[t], cols[t]] = vals[t]``, in any order.

        The caller has passed the shape through :func:`_check_shape`.  Raises
        ShapeError on an entry listed twice; listed +0.0 values are not stored.
        """
        flat = rows * big_d + cols
        order = np.argsort(flat, kind="stable")
        flat, vals = flat[order], vals[order]
        del order  # as each temporary below, freed early: loading holds O(nnz)
        if np.any(flat[1:] == flat[:-1]):
            raise ShapeError("sparse alpha lists an entry more than once")
        keep = _stored(vals)
        if not keep.all():
            flat, vals = flat[keep], vals[keep]
        rows, cols = np.divmod(flat, big_d)
        del flat
        dense = 2 * np.bincount(rows[vals != 0], minlength=d) > big_d
        in_block = dense[rows]
        block = np.zeros((np.count_nonzero(dense), big_d))
        block[(np.cumsum(dense) - 1)[rows[in_block]], cols[in_block]] = vals[in_block]
        block.flags.writeable = False
        if in_block.any():
            rows, cols, vals = rows[~in_block], cols[~in_block], vals[~in_block]
        spec = cls.__new__(cls)
        spec._hold(C, (d, big_d), dense, block, rows, cols, vals)
        return spec

    def _hold(self, C, shape, dense, block, rows, cols, vals) -> None:
        """Set the stored rows: ``rows``, ``cols`` and ``vals`` list the stored entries of
        the rows that ``dense`` leaves out, in row-major order, and ``block`` holds the others."""
        bounds = np.zeros(shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=bounds[1:])
        self.__dict__.update(
            C=float(C), d=shape[0], D=shape[1], _dense=dense, _block=block,
            _rows=rows, _cols=cols, _vals=vals, _bounds=bounds,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelSpec is immutable: cannot set {name!r}")

    def _with_scale(self, C) -> "ModelSpec":
        """This spec with scale constant ``C``; the two share their arrays."""
        spec = ModelSpec.__new__(ModelSpec)
        spec.__dict__.update(self.__dict__, C=float(C))
        return spec

    @cached_property
    def alpha(self) -> np.ndarray:
        """The (d, D) weights as one read-only array."""
        alpha = np.zeros((self.d, self.D))
        alpha[self._dense] = self._block
        alpha[self._rows, self._cols] = self._vals
        alpha.flags.writeable = False
        return alpha

    @cached_property
    def _sums(self) -> np.ndarray:
        """The row sums, with the bits of ``alpha.sum(axis=1)``: a stored row's sum is taken
        over its dense image, as summing its stored values alone would group them otherwise."""
        with np.errstate(all="ignore"):  # validation reports what overflows
            if "alpha" in self.__dict__:
                return self.alpha.sum(axis=1)
            return np.concatenate([image.sum(axis=1) for _, image in self._images()] + [[]])

    def _images(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(lo, alpha[lo:hi])`` for consecutive blocks of about ``_IMAGE_VALUES`` values,
        in one buffer that is cleared for the next block once the caller asks for it; a spec
        of dense rows only is its block."""
        if self._dense.all():
            yield 0, self._block
            return
        step = max(1, _IMAGE_VALUES // max(self.D, 1))
        at = np.cumsum(self._dense) - 1  # the block row of each dense row
        buffer = np.zeros((step, self.D))
        for lo in range(0, self.d, step):
            hi = min(lo + step, self.d)
            image = buffer[: hi - lo]
            dense = np.flatnonzero(self._dense[lo:hi])
            image[dense] = self._block[at[lo + dense]]
            e = slice(self._bounds[lo], self._bounds[hi])
            image[self._rows[e] - lo, self._cols[e]] = self._vals[e]
            yield lo, image
            image[dense] = 0.0
            image[self._rows[e] - lo, self._cols[e]] = 0.0

    def _entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices ``i * D + j`` and values of every stored entry, in row-major order."""
        flat, vals = self._rows * self.D + self._cols, self._vals
        if self._block.size:
            at = np.flatnonzero(_stored(self._block))
            block_vals = self._block.ravel()[at]
            if not self._dense.all():
                at = np.flatnonzero(self._dense)[at // self.D] * self.D + at % self.D
            if flat.size:
                at, block_vals = np.concatenate([flat, at]), np.concatenate([vals, block_vals])
                order = np.argsort(at, kind="stable")
                at, block_vals = at[order], block_vals[order]
            flat, vals = at, block_vals
        return flat, vals

    def _first(self, test: Callable[[np.ndarray], np.ndarray]) -> list[tuple[int, int, float]]:
        """``(row, column, value)`` of the first ten stored entries, in row-major order,
        for which the vectorized ``test`` holds; it must not hold for +0.0."""
        if not (test(self._block).any() or test(self._vals).any()):
            return []
        flat, vals = self._entries()
        hit = np.flatnonzero(test(vals))[:10]
        rows, cols = np.divmod(flat[hit], self.D)
        return list(zip(rows.tolist(), cols.tolist(), vals[hit].tolist()))

    def row_sums(self) -> np.ndarray:
        """Per-margin total shared weight, ``sum_j alpha[i, j]``."""
        return self._sums.copy()

    def slacks(self) -> np.ndarray:
        """Idiosyncratic coefficients ``C - row_sums``, clamped at zero."""
        return np.maximum(self.C - self._sums, 0.0)

    def fingerprint(self) -> str:
        """Content hash identifying this spec across serialization round trips.

        The sha256 of the compact, sorted-key JSON of the spec with alpha as
        a dense list of lists, whichever layout :meth:`to_json_dict` picks,
        hashed from one ``json.dumps`` per block of row images, at most
        ``_IMAGE_VALUES`` values or one row.  Only old sidecars carry it:
        those written now carry :meth:`digest` alone.
        """
        import hashlib  # here only: stages that hash no old sidecar never load it

        step = max(1, _IMAGE_VALUES // max(self.D, 1))
        h = hashlib.sha256(b'{"C":%s,"D":%d,"alpha":[' % (json.dumps(self.C).encode(), self.D))
        for lo, image in self._images():
            for at in range(0, image.shape[0], step):  # a spec of dense rows only is one image
                text = json.dumps(image[at : at + step].tolist(), separators=(",", ":"))
                h.update((b"," if lo + at else b"") + text[1:-1].encode())
        h.update(b'],"d":%d}' % self.d)
        return h.hexdigest()

    def digest(self, fingerprint: str = "") -> str:
        """sha256 of this spec's exact bits, in O(nnz); sidecars carry ``digest()``.

        It hashes the JSON text of ``fingerprint``, d, D, the bits of C, and
        the flat index and float64 bits of every stored alpha entry (see
        :meth:`to_json_dict`).  Those determine :meth:`fingerprint`, so a
        spec whose digest with an old sidecar's fingerprint equals that
        sidecar's digest has that fingerprint, without the O(d * D) text
        being built.
        """
        import hashlib

        flat, vals = self._entries()
        h = hashlib.sha256(json.dumps(fingerprint).encode())
        h.update(np.array([self.d, self.D], dtype="<i8").tobytes())
        h.update(np.array([self.C], dtype="<f8").tobytes())
        h.update(flat.astype("<i8").tobytes())
        h.update(vals.astype("<f8").tobytes())
        return h.hexdigest()

    def to_json_dict(self) -> dict:
        """JSON form; alpha is sparse when at most a quarter of it is stored.

        Stored entries are those whose bits are not +0.0, so -0.0 and NaN
        survive.  The sparse form ``{"i": rows, "j": cols, "v": values}``
        lists them in row-major order; otherwise alpha is a list of rows.
        """
        if 4 * (self._vals.size + np.count_nonzero(_stored(self._block))) <= self.d * self.D:
            flat, vals = self._entries()
            rows, cols = np.divmod(flat, max(self.D, 1))
            alpha = {"i": rows.tolist(), "j": cols.tolist(), "v": vals.tolist()}
        else:
            alpha = self.alpha.tolist()
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
            return cls._from_entries(d, big_d, c, *_listed_entries(alpha, d, big_d))
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


def _check_shape(d: int, big_d: int) -> None:
    """Raise ShapeError unless a (d, D) alpha has nonnegative sides and at most
    ``_MAX_ENTRIES`` entries."""
    if d < 0 or big_d < 0:
        raise ShapeError(
            f"alpha of shape ({d}, {big_d}) cannot be held: negative dimensions are not allowed"
        )
    if max(d, 1) * max(big_d, 1) > _MAX_ENTRIES:
        raise ShapeError(
            f"alpha of shape ({d}, {big_d}) is over the limit of {_MAX_ENTRIES} = 2**29 entries"
        )


def _listed_entries(obj: dict, d: int, big_d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and values listed by a sparse ``{"i", "j", "v"}`` object."""
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
    _check_shape(d, big_d)  # so that every index in range fits an intp
    indices = []
    for name, idx, bound in (("i", rows, d), ("j", cols, big_d)):
        if not set(map(type, idx)) <= {int}:
            raise ShapeError(f"sparse alpha indices {name} must be integers")
        try:
            idx = np.array(idx, dtype=np.intp)
            inside = not idx.size or (idx.min() >= 0 and idx.max() < bound)
        except OverflowError:  # past 2**63, so past any bound that passed the shape check
            inside = False
        if not inside:
            raise ShapeError(f"sparse alpha index {name} outside [0, {bound})")
        indices.append(idx)
    if (k := _first_non_number(vals)) is not None:
        raise ShapeError(f"sparse alpha values must be numbers, in a flat list: v[{k}]={vals[k]!r}")
    try:
        return (*indices, np.array(vals, dtype=np.float64))
    except OverflowError:
        raise ShapeError("sparse alpha values must lie in the float64 range") from None


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
    elif spec.C > _MAX_SCALE:
        violations.append(f"scale constant C={spec.C!r} exceeds 2**970, above which draws overflow")
    bad = spec._first(lambda a: ~np.isfinite(a))
    violations += [f"alpha[{i}][{j}] is not finite" for i, j, _ in bad]
    if not bad:
        negative = spec._first(lambda a: a < 0)
        violations += [f"alpha[{i}][{j}] = {v!r} is negative" for i, j, v in negative]
        if np.isfinite(spec.C):
            sums = spec._sums
            for i in np.flatnonzero(sums > spec.C + FEASIBILITY_TOL)[:10]:
                violations.append(
                    f"row {i} sum {float(sums[i])!r} exceeds scale constant C={spec.C!r}"
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

    A pair with a dense row sums all D minima, so its entry has the bits of
    the full sum.  Two stored rows (see the module docstring) are paired
    through the columns they both store, as every other column's minimum is
    0: when they share at most two, the sum of those minima is the full
    sum's value exactly, since adding zeros is exact and two terms commute.
    A pair sharing three or more sums over the first row's nonzero columns,
    which may differ from the full sum in the last place.  On a synthesized
    spec every pair shares exactly one column.
    """
    require_valid_spec(spec)
    lam = np.zeros((spec.d, spec.d))
    if spec._dense.any():
        _dense_pair_sums(spec, lam)
    _stored_pair_sums(spec, lam.reshape(-1))
    lam = (lam + lam.T) / spec.C
    np.fill_diagonal(lam, 1.0)
    return TailDepMatrix(lam)


def _dense_pair_sums(spec: ModelSpec, lam: np.ndarray) -> None:
    """Set ``lam[s, k] = np.minimum(alpha[k], alpha[s]).sum()``, s < k, for each pair with
    a dense row, through blocks of row images."""
    dense = spec._dense
    for lo, image in spec._images():
        hi = lo + image.shape[0]
        for s, weights in zip(np.flatnonzero(dense).tolist(), spec._block):
            if s + 1 < hi:  # with the rows k > s of this block
                k = max(lo, s + 1)
                lam[s, k:hi] = np.minimum(image[k - lo :], weights).sum(axis=1)
            below = lo + np.flatnonzero(~dense[lo : min(hi, s)])  # with stored rows k < s
            if below.size:
                lam[below, s] = np.minimum(weights, image[below - lo]).sum(axis=1)


def _stored_pair_sums(spec: ModelSpec, lam: np.ndarray) -> None:
    """Set ``lam[s * d + k]``, s < k, for each pair of stored rows that shares a stored column."""
    d, b = spec.d, spec._bounds
    order = np.argsort(spec._cols, kind="stable")  # by column, rows ascending within one
    rows, cols, vals = spec._rows[order], spec._cols[order], spec._vals[order]
    shared = np.zeros(d * d, dtype=np.intp)
    for off in range(1, rows.size):
        t = np.flatnonzero(cols[off:] == cols[:-off])  # entries t and t + off share a column
        if not t.size:
            break  # a column stored by more rows would have a pair at this offset too
        pair = rows[t] * d + rows[t + off]
        np.add.at(lam, pair, np.minimum(vals[t + off], vals[t]))
        np.add.at(shared, pair, 1)
    stored = np.flatnonzero(~spec._dense)
    at = np.full(spec.D, -1)  # the place of each of row s's nonzero columns, else -1
    for s in np.flatnonzero((shared > 2).reshape(d, d).any(axis=1)).tolist():
        cols_s, vals_s = spec._cols[b[s] : b[s + 1]], spec._vals[b[s] : b[s + 1]]
        cols_s, vals_s = cols_s[vals_s != 0], vals_s[vals_s != 0]
        at[cols_s] = np.arange(cols_s.size)
        # alpha[s + 1 :, cols_s] as the fancy index lays it out, in column-major order: the
        # sums run along rows in that order, so its bits depend on the layout
        gathered = np.zeros((cols_s.size, d - s - 1)).T
        e = slice(b[s + 1], b[d])
        place = at[spec._cols[e]]
        hit = place >= 0
        gathered[spec._rows[e][hit] - s - 1, place[hit]] = spec._vals[e][hit]
        at[cols_s] = -1
        sums = np.minimum(gathered, vals_s).sum(axis=1)
        k = stored[stored > s]
        lam[s * d + k] = sums[k - s - 1]


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
