"""Test-only helpers: a finite-difference gradient check for the tape, a
step record's fields without its wall-clock time, and a parametrization over
both protocols."""

from dataclasses import asdict

import numpy as np
import pytest

from snaplink import diffcore as dc
from snaplink.errors import NumericError
from snaplink.evaluate import PROTOCOLS

# parametrizes `protocol` over both protocols, with the id "<protocol>_run"
over_protocols = pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: f"{p}_run")


def mean_all(x: dc.Var) -> dc.Var:
    """The mean of every entry, as a scalar Var: the loss gradient checks reduce to."""
    n = x.value.size
    return dc.Var(np.asarray(x.value.mean()), (x,),
                  lambda g: (np.full_like(x.value, float(g) / n),))


def grad_check(f, wrt: list[dc.Var], eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar-valued `f` against central differences.

    Returns the max over all checked entries of
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    `f` must rebuild its graph from the current `.value` of each leaf on
    every call; leaves are perturbed in place and restored. Run it on
    float64 values: in float32 the differences are mostly rounding.
    """
    if not 1e-7 <= eps <= 1e-4:
        raise ValueError(f"eps {eps} outside [1e-7, 1e-4]")
    for v in wrt:
        v.grad = None
    out = f()
    if not np.isfinite(out.value).all():
        raise NumericError("non-finite value in forward pass")
    dc.backward(out)
    analytic = [np.zeros_like(v.value) if v.grad is None else v.grad.copy() for v in wrt]

    max_rel = 0.0
    for v, ana in zip(wrt, analytic):
        for idx in np.ndindex(v.value.shape):
            orig = v.value[idx]
            v.value[idx] = orig + eps
            up = float(f().value)
            v.value[idx] = orig - eps
            down = float(f().value)
            v.value[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError("non-finite value during finite differencing")
            numeric = (up - down) / (2.0 * eps)
            denom = max(abs(ana[idx]), abs(numeric), 1e-8)
            max_rel = max(max_rel, abs(ana[idx] - numeric) / denom)
    return max_rel


def summary_fields(record) -> dict:
    """A `StepRecord`'s fields except wall-clock time, for byte-stable comparisons."""
    d = asdict(record)
    d.pop("wall_seconds")
    return d
