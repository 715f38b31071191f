"""Hash-derived randomness for telemetry generation.

Every draw is keyed by the scenario seed plus a stable stream key, so a fault
perturbing one stream leaves every other stream byte-identical, and rendering
is reproducible across platforms and Python versions (no RNG state involved).
"""

from __future__ import annotations

import hashlib
import math

GAUSS_CLAMP = 2.5  # nominal noise is clamped at +/-2.5 sigma


def _uniform(key: str) -> float:
    """Uniform float in [0, 1) from the sha256 of ``key``."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def unit(*parts) -> float:
    """Uniform float in [0, 1) derived from the key parts."""
    return _uniform("\x1f".join(map(str, parts)))


def gauss(mu: float, sigma: float, *parts, clamp: float = GAUSS_CLAMP) -> float:
    """Clamped Gaussian draw around ``mu``; Box-Muller over two hash uniforms,
    keyed like ``unit(*parts, "u1")`` and ``unit(*parts, "u2")``."""
    prefix = "\x1f".join(map(str, (*parts, "")))  # every part, then the separator
    u1 = max(_uniform(prefix + "u1"), 1e-12)
    u2 = _uniform(prefix + "u2")
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    z = max(-clamp, min(clamp, z))
    return mu + sigma * z


def gauss_range(mu: float, sigma: float) -> tuple[float, float]:
    """The least and the greatest value ``gauss(mu, sigma, ...)`` returns (sigma >= 0)."""
    return mu + sigma * -GAUSS_CLAMP, mu + sigma * GAUSS_CLAMP


def jitter(hi: float, *parts) -> float:
    """Uniform in [0, hi); used for span durations, which only jitter upward."""
    return unit(*parts) * hi


def pick(seq, *parts):
    return seq[int(unit(*parts) * len(seq))]
