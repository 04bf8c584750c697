"""Forward-flight trim, endurance, and mounting-angle range optimization
for a lifting-wing multirotor."""

from .aero import Airframe, Environment, LinearAeroModel, aero_force, drag_coefficient, lift_coefficient
from .config import RunConfig, config_from_dict, config_to_dict, default_config, load_config, save_config
from .errors import (
    AlphaNotOnGrid,
    BadArgument,
    ConfigError,
    DegenerateDesign,
    DegenerateVariance,
    EmptyFeasibleSet,
    HoverDegenerate,
    Infeasible,
    LiftwingError,
    NoTrimAtSpeed,
    OutOfAeroDomain,
    OutOfEscDomain,
    OutOfSurrogateDomain,
    ParseError,
    RankDeficient,
    UnknownUnit,
)
from .fitting import (
    FitReport,
    SampleTable,
    fit_esc_quadratic,
    fit_linear_aero,
    fit_poly_surrogate,
    parse_propeller_table,
    r_squared,
)
from .propulsion import (
    EscCurrentModel,
    PolySurrogate,
    axial_inflow,
    esc_current,
    required_rpm,
    thrust,
    thrust_from_coefficients,
    torque,
    torque_from_coefficients,
)
from .sweep import (
    ModelBundle,
    SweepCell,
    SweepGrid,
    SweepResult,
    apply_alpha_cap,
    curve_extract,
    sweep,
)
from .trim import (
    Battery,
    TrimPoint,
    pitch_from_mounting,
    solve_trim,
    trim_airspeed,
    trim_at_speed,
    wingless_trim_at_speed,
)

__version__ = "0.1.0"
