"""Technology scaling of optical component delays (paper section 3.1, Fig 4).

The paper starts from the Kirman et al. component-delay dataset (45 nm down
to 22 nm) and extrapolates to 16 nm with three curve fits:

- **logarithmic** fit  -> the *optimistic* scenario (steepest improvement),
- **linear** fit       -> the *average* scenario,
- **exponential** fit  -> the *pessimistic* scenario (improvement levels off).

We do not have the raw Kirman dataset, so :data:`TRANSMIT_ANCHORS_PS` and
:data:`RECEIVE_ANCHORS_PS` are synthetic anchor points chosen so that the
three fits land near the paper's stated 16 nm endpoints (transmit
8.0-19.4 ps, receive 1.8-3.7 ps).  The fits regenerate Fig 4's trends
only: the *canonical* per-scenario 16 nm delays the hop solver reads are
the paper's exact values (:func:`repro.photonics.latency.scenario_delays`).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

#: Feature sizes (nm) of the synthetic Kirman-style anchor dataset.
ANCHOR_NODES_NM = (45.0, 32.0, 22.0)
#: Aggregate transmit-path delay (modulator + driver + serialization), ps.
TRANSMIT_ANCHORS_PS = (42.0, 28.0, 19.0)
#: Aggregate receive-path delay (detector + TIA + deserialization), ps.
RECEIVE_ANCHORS_PS = (8.0, 5.3, 3.6)

#: Mapping from scaling scenario name to the functional form it uses.
SCENARIO_FIT: dict[str, str] = {
    "optimistic": "logarithmic",
    "average": "linear",
    "pessimistic": "exponential",
}


def _least_squares_line(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Ordinary least-squares fit ``y = a + b*x``; returns ``(a, b)``."""
    n = len(xs)
    if n < 2 or n != len(ys):
        raise ValueError("need at least two (x, y) pairs of equal length")
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        raise ValueError("degenerate fit: all x values identical")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    b = sxy / sxx
    return mean_y - b * mean_x, b


class DelayScalingModel:
    """Curve-fit extrapolation of a component delay across technology nodes.

    ``fit_kind`` selects the functional form:

    - ``"linear"``:       d(x) = a + b*x
    - ``"logarithmic"``:  d(x) = a + b*ln(x)
    - ``"exponential"``:  d(x) = a*exp(b*x)

    where ``x`` is the feature size in nm.  All fits are least squares on the
    anchor data (the exponential via a log transform of the delays).
    """

    def __init__(
        self,
        nodes_nm: Sequence[float],
        delays_ps: Sequence[float],
        fit_kind: str,
    ):
        if fit_kind not in ("linear", "logarithmic", "exponential"):
            raise ValueError(f"unknown fit kind {fit_kind!r}")
        if any(d <= 0 for d in delays_ps) or any(x <= 0 for x in nodes_nm):
            raise ValueError("anchor nodes and delays must be positive")
        self.nodes_nm = tuple(nodes_nm)
        self.delays_ps = tuple(delays_ps)
        self.fit_kind = fit_kind
        self._predict = self._build()

    def _build(self) -> Callable[[float], float]:
        if self.fit_kind == "linear":
            a, b = _least_squares_line(self.nodes_nm, self.delays_ps)
            return lambda x: a + b * x
        if self.fit_kind == "logarithmic":
            a, b = _least_squares_line(
                [math.log(x) for x in self.nodes_nm], self.delays_ps
            )
            return lambda x: a + b * math.log(x)
        a, b = _least_squares_line(
            self.nodes_nm, [math.log(d) for d in self.delays_ps]
        )
        return lambda x: math.exp(a + b * x)

    def delay_at(self, node_nm: float) -> float:
        """Fitted delay (ps) at a feature size; clamped to be non-negative."""
        if node_nm <= 0:
            raise ValueError(f"feature size must be positive, got {node_nm}")
        return max(0.0, self._predict(node_nm))

    def trend(self, nodes_nm: Sequence[float]) -> list[float]:
        """Fitted delays over a sweep of feature sizes (one Fig 4 series)."""
        return [self.delay_at(x) for x in nodes_nm]


def transmit_model(fit_kind: str) -> DelayScalingModel:
    """Scaling model for the aggregate transmit delay.

    >>> round(transmit_model("linear").delay_at(16.0), 1)
    12.6
    """
    return DelayScalingModel(ANCHOR_NODES_NM, TRANSMIT_ANCHORS_PS, fit_kind)


def receive_model(fit_kind: str) -> DelayScalingModel:
    """Scaling model for the aggregate receive delay."""
    return DelayScalingModel(ANCHOR_NODES_NM, RECEIVE_ANCHORS_PS, fit_kind)
