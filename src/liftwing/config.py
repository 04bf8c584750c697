"""Run configuration: defaults, JSON schema, validation.

The config is one JSON document with explicit units in the field names.
Unknown keys are rejected so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .aero import Airframe, Environment, LinearAeroModel
from .errors import ConfigError
from .propulsion import EscCurrentModel, PolySurrogate, esc_current, require_quadratic_in_rpm
from .sweep import ModelBundle, SweepGrid
from .trim import Battery

# Thrust surrogate: bench-fit coefficients over the full bivariate quadratic
# basis {1, V_p, N, V_p^2, V_p N, N^2}. The transcription of the source fit
# omitted the variable on the second term; it is read as the V_p^1 coefficient,
# which completes the basis. N in RPM, V_p in m/s, output N.
THRUST_SURROGATE_TERMS = (
    (0, 0, 9.397e-2),
    (1, 0, 1.652e-3),
    (0, 1, -4.175e-5),
    (2, 0, -7.915e-4),
    (1, 1, -1.159e-5),
    (0, 2, 1.498e-7),
)

# Torque surrogate: refit of the bundled bench table over the same basis
# (see data/prop_bench_table.dat; `liftwing fit prop` reproduces these).
# The transcribed torque fit that came with the thrust set is magnitude-
# inconsistent (duplicate N^2 entries, an N^3 term dwarfing everything) and
# is kept below only as a reference.
TORQUE_SURROGATE_TERMS = (
    (0, 0, 0.07583785710467768),
    (0, 1, -2.4690339864106184e-05),
    (0, 2, 1.0000690916396105e-08),
    (1, 0, 0.00820366113487567),
    (1, 1, 1.5589750708827896e-09),
    (2, 0, -6.085319392412447e-07),
)

# Verbatim transcription of the source torque fit, unusable as a model: the
# two same-exponent N^2 entries are merged by addition (-1.986e-3 + 1.275e-7)
# to satisfy the unique-exponent invariant, and the cubic terms are kept.
# Evaluating it anywhere near operating RPM yields absurd magnitudes.
TORQUE_TERMS_AS_TRANSCRIBED = (
    (0, 0, 7.57e-2),
    (1, 0, 1.984e-2),
    (0, 1, -2.466e-5),
    (0, 2, -1.9858725e-3),
    (1, 1, -5.308e-6),
    (0, 3, -1.146e-5),
    (2, 1, 1.562e-7),
    (1, 2, 1.227e-10),
)

# Bivariate quadratic basis shared by the thrust/torque fits.
SURROGATE_BASIS = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

DEFAULT_VP_DOMAIN = (0.0, 20.0)
DEFAULT_RPM_DOMAIN = (2000.0, 10000.0)

# ESC current fit I = 73.05 M^2 + 12.15 M - 0.511 (A, N*m). The fit is
# negative near M = 0, so the trusted domain starts above that region.
DEFAULT_ESC = dict(quad=73.05, lin=12.15, const=-0.511, torque_domain=(0.05, 0.6))

# Wing reference area, m^2. Calibrated: with the linear aero fit above, the
# (gamma, alpha) = (35, 10) deg trim flies at 15.3 m/s only for S ~ 0.114,
# independent of the propulsion models (the force balance pins V given S).
DEFAULT_REFERENCE_AREA = 0.114

# Equivalent flat-plate area of the wingless comparison airframe, m^2.
# Calibrated so the bare craft's current growth with speed matches the
# measured comparison; a slick 0.02 value makes the wing look worse at the
# high-speed end than the bench data says it is.
DEFAULT_PARASITE_DRAG_AREA = 0.08

DEFAULT_BATTERY_AS = 18000.0  # 5000 mAh


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: models, battery, grid, and flags."""

    airframe: Airframe
    environment: Environment
    aero: LinearAeroModel
    thrust_surrogate: PolySurrogate
    torque_surrogate: PolySurrogate
    esc: EscCurrentModel
    battery: Battery
    grid: SweepGrid
    mounting_angle: float = 35.0          # deg, the as-built wing setting
    apply_tilt_loss: bool = False
    endpoint_convention: str = "exclude-zero"
    parasite_drag_area: float = DEFAULT_PARASITE_DRAG_AREA  # m^2

    def __post_init__(self):
        if self.endpoint_convention not in ("exclude-zero", "include-zero"):
            raise ValueError("endpoint_convention must be exclude-zero or include-zero")
        if self.parasite_drag_area < 0.0:
            raise ValueError("parasite_drag_area must be non-negative")
        if not 0.0 < self.mounting_angle < 90.0:
            raise ValueError("mounting_angle must be in (0, 90) deg")
        require_quadratic_in_rpm(self.thrust_surrogate)

    def bundle(self) -> ModelBundle:
        return ModelBundle(
            airframe=self.airframe,
            environment=self.environment,
            aero=self.aero,
            thrust_surrogate=self.thrust_surrogate,
            torque_surrogate=self.torque_surrogate,
            esc=self.esc,
            battery=self.battery,
            apply_tilt_loss=self.apply_tilt_loss,
        )


def grid_for_convention(convention: str) -> SweepGrid:
    """The two documented readings of the enumeration bounds.

    "exclude-zero" is the default: gamma 1..50 x alpha 1..18 at 1 deg, i.e.
    the 900-cell grid; "include-zero" starts both axes at 0 (969 cells).
    """
    if convention == "include-zero":
        return SweepGrid(0.0, 50.0, 1.0, 0.0, 18.0, 1.0)
    return SweepGrid(1.0, 50.0, 1.0, 1.0, 18.0, 1.0)


def default_config(endpoint_convention: str = "exclude-zero") -> RunConfig:
    return RunConfig(
        airframe=Airframe(
            mass=2.0,
            reference_area=DEFAULT_REFERENCE_AREA,
            rotor_count=4,
            prop_diameter=0.254,
            rotor_tilt=10.0,
            stall_alpha=18.0,
            safety_margin=8.0,
        ),
        environment=Environment(),
        aero=LinearAeroModel(
            lift_slope=0.08,
            lift_intercept=-0.24,
            drag_slope=0.01587,
            drag_intercept=0.14,
            alpha_min=-8.0,
            alpha_max=18.0,
        ),
        thrust_surrogate=PolySurrogate(
            terms=THRUST_SURROGATE_TERMS,
            vp_domain=DEFAULT_VP_DOMAIN,
            rpm_domain=DEFAULT_RPM_DOMAIN,
            output_unit="N",
        ),
        torque_surrogate=PolySurrogate(
            terms=TORQUE_SURROGATE_TERMS,
            vp_domain=DEFAULT_VP_DOMAIN,
            rpm_domain=DEFAULT_RPM_DOMAIN,
            output_unit="N*m",
        ),
        esc=EscCurrentModel(**DEFAULT_ESC),
        battery=Battery(capacity=DEFAULT_BATTERY_AS),
        grid=grid_for_convention(endpoint_convention),
        endpoint_convention=endpoint_convention,
    )


def _require(mapping: dict, allowed: tuple[str, ...], where: str) -> dict:
    """Reject a non-object and unknown and missing keys; returns the mapping."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")
    missing = set(allowed) - set(mapping)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")
    return mapping


def _num(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite")
    return number


def _int(value, where: str) -> int:
    number = _num(value, where)
    if not number.is_integer():
        raise ConfigError(f"{where} must be an integer")
    return int(number)


def _pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be a [low, high] pair")
    return (_num(value[0], where), _num(value[1], where))


def _surrogate(doc: dict, where: str) -> PolySurrogate:
    _require(doc, ("terms", "vp_domain_m_s", "rpm_domain", "output_unit"), where)
    if not isinstance(doc["terms"], (list, tuple)):
        raise ConfigError(f"{where}.terms must be a list")
    terms = []
    for k, term in enumerate(doc["terms"]):
        if not isinstance(term, (list, tuple)) or len(term) != 3:
            raise ConfigError(f"{where}.terms[{k}] must be [vp_exp, rpm_exp, coeff]")
        at = f"{where}.terms[{k}]"
        terms.append((_int(term[0], at), _int(term[1], at), _num(term[2], at)))
    return PolySurrogate(
        terms=tuple(terms),
        vp_domain=_pair(doc["vp_domain_m_s"], f"{where}.vp_domain_m_s"),
        rpm_domain=_pair(doc["rpm_domain"], f"{where}.rpm_domain"),
        output_unit=str(doc["output_unit"]),
    )


def config_from_dict(doc: dict) -> RunConfig:
    """Build and validate a RunConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    top = {"airframe", "environment", "aero", "thrust_surrogate", "torque_surrogate",
           "esc", "battery", "grid", "flags", "mounting_angle_deg"}
    unknown = set(doc) - top
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {sorted(unknown)}")

    try:
        af = _require(doc.get("airframe", {}),
                      ("mass_kg", "reference_area_m2", "rotor_count", "prop_diameter_m",
                       "rotor_tilt_deg", "stall_alpha_deg", "safety_margin_deg"), "airframe")
        airframe = Airframe(
            mass=_num(af["mass_kg"], "airframe.mass_kg"),
            reference_area=_num(af["reference_area_m2"], "airframe.reference_area_m2"),
            rotor_count=_int(af["rotor_count"], "airframe.rotor_count"),
            prop_diameter=_num(af["prop_diameter_m"], "airframe.prop_diameter_m"),
            rotor_tilt=_num(af["rotor_tilt_deg"], "airframe.rotor_tilt_deg"),
            stall_alpha=_num(af["stall_alpha_deg"], "airframe.stall_alpha_deg"),
            safety_margin=_num(af["safety_margin_deg"], "airframe.safety_margin_deg"),
        )
        env_doc = _require(doc.get("environment", {}),
                           ("air_density_kg_m3", "gravity_m_s2"), "environment")
        environment = Environment(
            air_density=_num(env_doc["air_density_kg_m3"], "environment.air_density_kg_m3"),
            gravity=_num(env_doc["gravity_m_s2"], "environment.gravity_m_s2"),
        )
        aero_doc = _require(doc.get("aero", {}),
                            ("lift_slope_per_deg", "lift_intercept", "drag_slope_per_deg",
                             "drag_intercept", "alpha_min_deg", "alpha_max_deg"), "aero")
        aero = LinearAeroModel(
            lift_slope=_num(aero_doc["lift_slope_per_deg"], "aero.lift_slope_per_deg"),
            lift_intercept=_num(aero_doc["lift_intercept"], "aero.lift_intercept"),
            drag_slope=_num(aero_doc["drag_slope_per_deg"], "aero.drag_slope_per_deg"),
            drag_intercept=_num(aero_doc["drag_intercept"], "aero.drag_intercept"),
            alpha_min=_num(aero_doc["alpha_min_deg"], "aero.alpha_min_deg"),
            alpha_max=_num(aero_doc["alpha_max_deg"], "aero.alpha_max_deg"),
        )
        thrust_surrogate = _surrogate(doc.get("thrust_surrogate", {}), "thrust_surrogate")
        torque_surrogate = _surrogate(doc.get("torque_surrogate", {}), "torque_surrogate")
        esc_doc = _require(doc.get("esc", {}),
                           ("quad_A_per_Nm2", "lin_A_per_Nm", "const_A", "torque_domain_Nm"),
                           "esc")
        esc = EscCurrentModel(
            quad=_num(esc_doc["quad_A_per_Nm2"], "esc.quad_A_per_Nm2"),
            lin=_num(esc_doc["lin_A_per_Nm"], "esc.lin_A_per_Nm"),
            const=_num(esc_doc["const_A"], "esc.const_A"),
            torque_domain=_pair(esc_doc["torque_domain_Nm"], "esc.torque_domain_Nm"),
        )
        # the model rises over its domain, so this bounds the current everywhere on it
        lowest = esc_current(esc, esc.torque_domain[0])
        if not lowest > 0.0:
            raise ConfigError(f"esc: current at M={esc.torque_domain[0]} N*m, the low end of "
                              f"torque_domain_Nm, is {lowest} A; it must be positive")
        bat_doc = _require(doc.get("battery", {}), ("capacity_As",), "battery")
        battery = Battery(capacity=_num(bat_doc["capacity_As"], "battery.capacity_As"))

        flags = _require(doc.get("flags", {}),
                         ("apply_tilt_loss", "endpoint_convention", "parasite_drag_area_m2"),
                         "flags")
        if not isinstance(flags["apply_tilt_loss"], bool):
            raise ConfigError("flags.apply_tilt_loss must be a boolean")
        convention = flags["endpoint_convention"]

        if "grid" in doc:
            g = _require(doc["grid"],
                         ("gamma_min_deg", "gamma_max_deg", "gamma_step_deg",
                          "alpha_min_deg", "alpha_max_deg", "alpha_step_deg"), "grid")
            grid = SweepGrid(
                gamma_min=_num(g["gamma_min_deg"], "grid.gamma_min_deg"),
                gamma_max=_num(g["gamma_max_deg"], "grid.gamma_max_deg"),
                gamma_step=_num(g["gamma_step_deg"], "grid.gamma_step_deg"),
                alpha_min=_num(g["alpha_min_deg"], "grid.alpha_min_deg"),
                alpha_max=_num(g["alpha_max_deg"], "grid.alpha_max_deg"),
                alpha_step=_num(g["alpha_step_deg"], "grid.alpha_step_deg"),
            )
        else:
            if convention not in ("exclude-zero", "include-zero"):
                raise ConfigError("flags.endpoint_convention must be exclude-zero or include-zero")
            grid = grid_for_convention(convention)

        return RunConfig(
            airframe=airframe,
            environment=environment,
            aero=aero,
            thrust_surrogate=thrust_surrogate,
            torque_surrogate=torque_surrogate,
            esc=esc,
            battery=battery,
            grid=grid,
            mounting_angle=_num(doc.get("mounting_angle_deg", 35.0), "mounting_angle_deg"),
            apply_tilt_loss=flags["apply_tilt_loss"],
            endpoint_convention=str(convention),
            parasite_drag_area=_num(flags["parasite_drag_area_m2"],
                                    "flags.parasite_drag_area_m2"),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def config_to_dict(cfg: RunConfig) -> dict:
    """Serialize to the JSON schema; load(dump(cfg)) reproduces cfg exactly."""
    return {
        "airframe": {
            "mass_kg": cfg.airframe.mass,
            "reference_area_m2": cfg.airframe.reference_area,
            "rotor_count": cfg.airframe.rotor_count,
            "prop_diameter_m": cfg.airframe.prop_diameter,
            "rotor_tilt_deg": cfg.airframe.rotor_tilt,
            "stall_alpha_deg": cfg.airframe.stall_alpha,
            "safety_margin_deg": cfg.airframe.safety_margin,
        },
        "environment": {
            "air_density_kg_m3": cfg.environment.air_density,
            "gravity_m_s2": cfg.environment.gravity,
        },
        "aero": {
            "lift_slope_per_deg": cfg.aero.lift_slope,
            "lift_intercept": cfg.aero.lift_intercept,
            "drag_slope_per_deg": cfg.aero.drag_slope,
            "drag_intercept": cfg.aero.drag_intercept,
            "alpha_min_deg": cfg.aero.alpha_min,
            "alpha_max_deg": cfg.aero.alpha_max,
        },
        "thrust_surrogate": {
            "terms": [list(t) for t in cfg.thrust_surrogate.terms],
            "vp_domain_m_s": list(cfg.thrust_surrogate.vp_domain),
            "rpm_domain": list(cfg.thrust_surrogate.rpm_domain),
            "output_unit": cfg.thrust_surrogate.output_unit,
        },
        "torque_surrogate": {
            "terms": [list(t) for t in cfg.torque_surrogate.terms],
            "vp_domain_m_s": list(cfg.torque_surrogate.vp_domain),
            "rpm_domain": list(cfg.torque_surrogate.rpm_domain),
            "output_unit": cfg.torque_surrogate.output_unit,
        },
        "esc": {
            "quad_A_per_Nm2": cfg.esc.quad,
            "lin_A_per_Nm": cfg.esc.lin,
            "const_A": cfg.esc.const,
            "torque_domain_Nm": list(cfg.esc.torque_domain),
        },
        "battery": {"capacity_As": cfg.battery.capacity},
        "grid": {
            "gamma_min_deg": cfg.grid.gamma_min,
            "gamma_max_deg": cfg.grid.gamma_max,
            "gamma_step_deg": cfg.grid.gamma_step,
            "alpha_min_deg": cfg.grid.alpha_min,
            "alpha_max_deg": cfg.grid.alpha_max,
            "alpha_step_deg": cfg.grid.alpha_step,
        },
        "flags": {
            "apply_tilt_loss": cfg.apply_tilt_loss,
            "endpoint_convention": cfg.endpoint_convention,
            "parasite_drag_area_m2": cfg.parasite_drag_area,
        },
        "mounting_angle_deg": cfg.mounting_angle,
    }


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        return _parse_config(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err


@functools.lru_cache(maxsize=1)
def _parse_config(text: str) -> RunConfig:
    """The config that a file's text describes; the last good text's is reused.

    Sharing one result is safe: RunConfig and all its parts are frozen.
    """
    return config_from_dict(json.loads(text))


def save_config(cfg: RunConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
