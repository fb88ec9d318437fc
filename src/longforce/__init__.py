"""Longitudinal force-model identification from vehicle drive logs.

Identifies a vehicle's friction, propulsion and braking forces from
recorded telemetry via a force balance along the road direction, models
them as constrained spline curves and surfaces, and assembles the direct
(simulation) and inverse (feedforward control) dynamic models, plus a
validation pipeline comparing model-estimated against measured
acceleration.
"""

from .core import DriveLog, Gear, VehicleParams, Wheel, kmh_to_mps, load_vehicle_params
from .dynamics import (ActuationCommand, ModelSet, Trajectory, direct_acceleration,
                       direct_acceleration_many, inverse_actuation, simulate)
from .errors import (EmptyReportError, EmptySeriesError, FitError, InversionError,
                     InvalidParameterError, LongforceError, ProtocolViolationError,
                     SchemaError, SegmentSplitRequired)
from .estimation import AccelSeries, bin_by_speed, estimate_acceleration, log_spaced_edges
from .extraction import (extract_braking, extract_friction, extract_propulsion,
                         split_constant_signal)
from .reference import neutral_model_set, reference_model_set
from .spline import (ForceSurface, Spline1D, check_signal_monotone, fit_curve, load_model,
                     save_model)
from .validation import ErrorReport, render_table, report_to_dict, validate

__version__ = "0.1.0"

__all__ = [
    "AccelSeries", "ActuationCommand", "DriveLog",
    "EmptyReportError", "EmptySeriesError", "ErrorReport", "FitError", "ForceSurface",
    "Gear", "InvalidParameterError", "InversionError", "LongforceError", "ModelSet",
    "ProtocolViolationError", "SchemaError", "SegmentSplitRequired", "Spline1D",
    "Trajectory", "VehicleParams", "Wheel", "bin_by_speed", "check_signal_monotone",
    "direct_acceleration", "direct_acceleration_many", "estimate_acceleration",
    "extract_braking", "extract_friction", "extract_propulsion", "fit_curve",
    "inverse_actuation", "kmh_to_mps", "load_model", "load_vehicle_params",
    "log_spaced_edges", "neutral_model_set", "reference_model_set", "render_table",
    "report_to_dict", "save_model", "simulate", "split_constant_signal", "validate",
]
