"""Shipped reference models for an electric city car.

The anchor configs packaged under ``data/`` encode the documented response
shapes of the identified vehicle: the three-zone friction curve (Stribeck
bump, rolling plateau, aerodynamic rise), the creep force fading out near
8 km/h, the propulsion plateau of 6300 N with its 57 kW constant-power
tail and saturation above throttle 150, the regenerative braking curve
cutting off near 8 km/h, and the ABS dip in the disc-brake curves at low
speed. Interpolating the anchors reproduces the published curve family
without the (unpublished) raw drive data, and gives the test suite a
ground-truth model set to simulate against.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .core import file_values, json_numbers, json_object, load_vehicle_params, read_json
from .dynamics import ModelSet
from .spline import ForceSurface, Spline1D, _weighted_rows

#: Largest |force_n| of an anchor, in N: a 100 t vehicle braking at 1 g needs
#: about 1 MN. The shipped anchors reach 7800 N; one of 1e160 N overflowed in
#: the fit.
MAX_ANCHOR_FORCE_N = 1e6
#: Largest anchor weight. A weight counts as that many samples in one bin; 1e6
#: is more than 2.7 h of a 100 Hz log, and keeps an anchor's row within a
#: factor 1e3 of a one-sample bin's in the least-squares solve, far from where
#: it loses rank (a weight of 1e30 did). The shipped anchors weigh 30.
MAX_ANCHOR_WEIGHT = 1e6


def data_path(name: str) -> Path:
    """Filesystem path of a packaged data file (params, anchors, pipeline)."""
    return Path(str(resources.files("longforce.data").joinpath(name)))


def load_anchor_file(path: str | Path) -> dict[str, dict[int | None, np.ndarray]]:
    """Each level's anchors as (K, 3) rows of (speed_mps, force_n, weight) in file
    order, by model kind, then by level (``None`` for friction).

    Schema: ``{"friction": [anchor...], "propulsion": {"<level>": [...]},
    "braking": {...}}``, each anchor ``{"speed_mps":..., "force_n":...,
    "weight":...}`` (weight 1 when absent). An anchor outside the fit's row
    rule, ``MAX_ANCHOR_FORCE_N`` or ``MAX_ANCHOR_WEIGHT`` is a ``SchemaError``
    naming it and the file.
    """
    def rows(items, what: str) -> np.ndarray:
        if not isinstance(items, list):
            raise TypeError(f"anchors must be a JSON list, got {type(items).__name__}")
        return _weighted_rows([(float(json_numbers(a, "speed_mps")),
                                float(json_numbers(a, "force_n")),
                                float(json_numbers(a, "weight", 1.0))) for a in items],
                              what, MAX_ANCHOR_FORCE_N, MAX_ANCHOR_WEIGHT)

    obj = read_json(path)
    with file_values(path, "invalid anchor config"):
        out = {}
        if "friction" in obj:
            out["friction"] = {None: rows(obj["friction"], "friction anchor")}
        for kind in ("propulsion", "braking"):
            if kind in obj:
                out[kind] = {int(level): rows(items, f"{kind} level {level} anchor")
                             for level, items in json_object(obj, kind).items()}
        return out


def _curve_from_anchors(rows: np.ndarray) -> Spline1D:
    return Spline1D.interpolate(rows[:, 0], rows[:, 1])


def _surface_from_anchors(by_level: dict[int, np.ndarray]) -> ForceSurface:
    levels = sorted(by_level)
    return ForceSurface(tuple(levels),
                        tuple(_curve_from_anchors(by_level[level]) for level in levels))


def reference_model_set() -> ModelSet:
    """Ground-truth ModelSet interpolated straight through the shipped anchors."""
    anchors = load_anchor_file(data_path("anchors_zoe.json"))
    return ModelSet(
        friction=_curve_from_anchors(anchors["friction"][None]),
        propulsion=_surface_from_anchors(anchors["propulsion"]),
        braking=_surface_from_anchors(anchors["braking"]),
        params=load_vehicle_params(data_path("zoe_params.json")),
    )


def neutral_model_set(base: ModelSet) -> ModelSet:
    """A coasting variant: same friction, zero propulsion and braking.

    Matches a neutral gear coast-down, where the motor is mechanically
    disconnected and neither regenerative nor disc braking acts.
    """
    lo, hi = base.friction.domain
    zero = Spline1D.interpolate([lo, hi], [0.0, 0.0])
    zero_surface = ForceSurface((0,), (zero,))
    return ModelSet(base.friction, zero_surface, zero_surface, base.params)
