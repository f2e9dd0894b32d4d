"""Building a model spec that realizes a prescribed tail dependence matrix.

Given a symmetric matrix ``lam`` of pairwise tail dependence coefficients
(unit diagonal, entries in [0, 1]), one shared factor is allocated per
margin pair, so D = d(d-1)/2.  Columns follow the pairs (s, k), s < k, in
lexicographic order (``np.triu_indices(d, 1)``).  In the column of pair
(s, k) the weight matrix A carries

* ``lam[s, k]`` in row s;
* the row maximum ``m_s = max_{k' > s} lam[s, k']`` in row k;
* zeros everywhere else.

Rows s and k of A then share exactly one column with both entries nonzero,
the column of pair (s, k), where the entries are ``lam[s, k]`` and ``m_s``,
so the model built on A has tail dependence ``lam[s, k] / C`` for the pair.
C must be at least c_min, the largest row sum of A; with C = 1 the target is
met exactly, which is feasible whenever c_min is at most 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleTargetError
from .model import (
    FEASIBILITY_TOL,
    ModelSpec,
    TailDepMatrix,
    _check_shape,
    require_valid_tail_dep_matrix,
    tail_dep_matrix,
)

#: Two scale constants closer than this count as equal when deciding whether
#: a synthesis met its target exactly (C == 1) or proportionally.
_EXACTNESS_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """A built spec together with the coefficients it actually realizes.

    ``c_min`` is the smallest feasible scale constant for the construction,
    the largest row sum of ``spec.alpha``; ``c_used`` is the spec's C.
    """

    spec: ModelSpec
    achieved: TailDepMatrix
    exact: bool
    c_used: float
    c_min: float

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "achieved": self.achieved.to_json_dict(),
            "exact": self.exact,
            "c_used": self.c_used,
            "c_min": self.c_min,
        }


def synthesize(target: TailDepMatrix, c: float | None = None) -> SynthesisResult:
    """Build a model spec whose tail dependence matrix is ``target / C``.

    Parameters
    ----------
    target : TailDepMatrix
        Prescribed coefficients; validated, upper triangle authoritative.
    c : float, optional
        Scale constant.  Must be at least c_min (within ``FEASIBILITY_TOL``).
        Defaults to 1 when c_min is at most 1 (within ``FEASIBILITY_TOL``),
        which realizes the target exactly, and to c_min otherwise, which
        scales it minimally.

    Returns
    -------
    SynthesisResult
        The spec, its recomputed (achieved) coefficients, the ``exact`` flag
        (true iff C is 1), and the scale constants involved.

    Raises
    ------
    InfeasibleTargetError
        If an explicit ``c`` is below the minimum feasible scale.
    SpecValidationError
        If the target matrix is invalid.
    """
    lam = require_valid_tail_dep_matrix(target).values
    d = lam.shape[0]
    _check_shape(d, d * (d - 1) // 2)
    s, k = np.triu_indices(d, 1)
    cols = np.arange(s.size)
    row_max = np.triu(lam, 1).max(axis=1)
    rows, values = np.concatenate([s, k]), np.concatenate([lam[s, k], row_max[s]])
    spec = ModelSpec._from_entries(d, s.size, 1.0, rows, np.concatenate([cols, cols]), values)
    cm = float(spec.row_sums().max())
    if c is None:
        c_used = 1.0 if cm <= 1.0 + FEASIBILITY_TOL else cm
    else:
        c_used = float(c)
        if c_used < cm - FEASIBILITY_TOL:
            raise InfeasibleTargetError(c_used, cm)
        if c_used <= 0:
            raise DomainError(f"scale constant must be positive, got {c_used!r}")
    spec = spec._with_scale(c_used)
    return SynthesisResult(
        spec=spec,
        achieved=tail_dep_matrix(spec),
        exact=abs(c_used - 1.0) <= _EXACTNESS_TOL,
        c_used=c_used,
        c_min=cm,
    )
