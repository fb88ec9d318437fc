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

from .core import file_values, json_numbers, json_object, load_vehicle_params, read_json
from .dynamics import ModelSet
from .spline import Anchor, ForceSurface, Spline1D


def data_path(name: str) -> Path:
    """Filesystem path of a packaged data file (params, anchors, pipeline)."""
    return Path(str(resources.files("longforce.data").joinpath(name)))


def load_anchor_file(path: str | Path) -> dict[str, dict[int | None, tuple[Anchor, ...]]]:
    """Anchors by model kind, then by signal level, from an anchor JSON file.

    Schema: ``{"friction": [anchor...], "propulsion": {"<level>": [...]},
    "braking": {...}}`` with each anchor as
    ``{"speed_mps":..., "force_n":..., "weight":...}``. Friction anchors sit
    under the level ``None``.
    """
    def parse_list(items) -> tuple[Anchor, ...]:
        if not isinstance(items, list):
            raise TypeError(f"anchors must be a JSON list, got {type(items).__name__}")
        return tuple(Anchor(float(json_numbers(a, "speed_mps")),
                            float(json_numbers(a, "force_n")),
                            float(json_numbers(a, "weight", 1.0))) for a in items)

    obj = read_json(path)
    with file_values(path, "invalid anchor config"):
        out = {}
        if "friction" in obj:
            out["friction"] = {None: parse_list(obj["friction"])}
        for kind in ("propulsion", "braking"):
            if kind in obj:
                out[kind] = {int(level): parse_list(items)
                             for level, items in json_object(obj, kind).items()}
        return out


def _curve_from_anchors(anchors) -> Spline1D:
    xs = [a.speed_mps for a in anchors]
    ys = [a.force_n for a in anchors]
    return Spline1D.interpolate(xs, ys, lower_clamp=0.0)


def _surface_from_anchors(by_level: dict[int, tuple[Anchor, ...]]) -> ForceSurface:
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
