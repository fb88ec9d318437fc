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

import json
from importlib import resources
from pathlib import Path

from .core import VehicleParams, parse_vehicle_params, read_json
from .dynamics import ModelSet
from .errors import SchemaError
from .spline import Anchor, AnchorSet, ForceSurface, Spline1D

_DATA_PACKAGE = "longforce.data"

PARAMS_RESOURCE = "zoe_params.json"
ANCHORS_RESOURCE = "anchors_zoe.json"
PIPELINE_RESOURCE = "pipeline_zoe.json"


def _read_resource(name: str) -> str:
    return resources.files(_DATA_PACKAGE).joinpath(name).read_text(encoding="utf-8")


def data_path(name: str) -> Path:
    """Filesystem path of a packaged data file (params, anchors, pipeline)."""
    return Path(str(resources.files(_DATA_PACKAGE).joinpath(name)))


def reference_vehicle_params() -> VehicleParams:
    return parse_vehicle_params(json.loads(_read_resource(PARAMS_RESOURCE)))


def parse_anchor_file(obj: dict) -> dict[str, AnchorSet]:
    """Anchor sets per model kind from the anchor JSON schema.

    Schema: ``{"friction": [anchor...], "propulsion": {"<level>": [...]},
    "braking": {...}}`` with each anchor as
    ``{"speed_mps":..., "force_n":..., "weight":...}``.
    """
    def parse_list(items) -> tuple[Anchor, ...]:
        return tuple(Anchor(float(a["speed_mps"]), float(a["force_n"]),
                            float(a.get("weight", 1.0))) for a in items)

    try:
        out: dict[str, AnchorSet] = {}
        if "friction" in obj:
            out["friction"] = AnchorSet({None: parse_list(obj["friction"])})
        for kind in ("propulsion", "braking"):
            if kind in obj:
                out[kind] = AnchorSet({int(level): parse_list(items)
                                       for level, items in obj[kind].items()})
        return out
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid anchor config: {exc}") from exc


def load_anchor_file(path: str | Path) -> dict[str, AnchorSet]:
    return parse_anchor_file(read_json(path))


def reference_anchors() -> dict[str, AnchorSet]:
    return parse_anchor_file(json.loads(_read_resource(ANCHORS_RESOURCE)))


def _curve_from_anchors(anchors) -> Spline1D:
    xs = [a.speed_mps for a in anchors]
    ys = [a.force_n for a in anchors]
    return Spline1D.interpolate(xs, ys, lower_clamp=0.0)


def surface_from_anchors(anchor_set: AnchorSet) -> ForceSurface:
    levels = sorted(level for level in anchor_set.levels if level is not None)
    curves = tuple(_curve_from_anchors(anchor_set.for_level(level)) for level in levels)
    return ForceSurface(tuple(levels), curves)


def reference_model_set() -> ModelSet:
    """Ground-truth ModelSet interpolated straight through the shipped anchors."""
    anchors = reference_anchors()
    return ModelSet(
        friction=_curve_from_anchors(anchors["friction"].for_level(None)),
        propulsion=surface_from_anchors(anchors["propulsion"]),
        braking=surface_from_anchors(anchors["braking"]),
        params=reference_vehicle_params(),
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
