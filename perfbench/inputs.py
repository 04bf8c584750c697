"""Seeded workload inputs: the config JSON files and argv lists the program gets.

The program receives nothing else. Three placeholders in argv are filled in
when a run starts: ``{inputs}`` is the directory holding the generated files,
``{out}`` an output directory of the operation's own, and ``{table}`` the
bench table bundled with the package. The same seed gives byte-identical
files and argv.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from pathlib import Path

from liftwing.config import config_to_dict, default_config

import checks

CLI_COMMANDS = ("hover", "trim", "compare", "sweep", "fit")

# The default grid bounds at 0.25 deg: 197 gammas x 69 alphas.
FINE_GRID = {
    "gamma_min_deg": 1.0, "gamma_max_deg": 50.0, "gamma_step_deg": 0.25,
    "alpha_min_deg": 1.0, "alpha_max_deg": 18.0, "alpha_step_deg": 0.25,
}
COMPARE_SPEEDS = 40

_CONFIG = ["--config", "{inputs}/config.json"]
_DRAW_LIMIT = 1000


@dataclass(frozen=True)
class Inputs:
    files: dict[str, bytes]
    ops: list[dict]  # {"kind": command name, "argv": [...]}

    def argv_bytes(self) -> bytes:
        return json.dumps(self.ops, sort_keys=True).encode()

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (directory / name).write_bytes(data)
        (directory / "argv.json").write_bytes(self.argv_bytes())


def materialize(argv: list[str], inputs: Path, out: Path, table: Path) -> list[str]:
    return [a.replace("{inputs}", str(inputs)).replace("{out}", str(out))
             .replace("{table}", str(table)) for a in argv]


def _doc_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds go through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}")


def _cold_argv(kind: str, rng: random.Random, cfg) -> list[str]:
    if kind == "hover":
        return _CONFIG + ["--format", "json", "hover"]
    if kind == "sweep":
        return _CONFIG + ["sweep", "--out", "{out}"]
    if kind == "fit":
        return ["fit", "prop", "{table}"]
    for _ in range(_DRAW_LIMIT):
        if kind == "trim":
            gamma = round(rng.uniform(20.0, 45.0), 1)
            if rng.random() < 0.5:
                alpha = round(rng.uniform(2.0, 14.0), 1)
                if checks.trim_feasible(cfg, gamma, alpha=alpha):
                    return _CONFIG + ["--format", "json", "trim", "--gamma", str(gamma),
                                      "--alpha", str(alpha)]
            else:
                speed = round(rng.uniform(8.0, 22.0), 1)
                if checks.trim_feasible(cfg, gamma, speed=speed):
                    return _CONFIG + ["--format", "json", "trim", "--gamma", str(gamma),
                                      "--speed", str(speed)]
        else:
            speeds = [round(rng.uniform(5.0, 25.0), 1) for _ in range(rng.randint(3, 5))]
            expected = checks.expected_compare(cfg, cfg.mounting_angle, speeds)
            if checks.compare_exit_code(expected) == 0:
                return _CONFIG + ["--format", "json", "compare", "--speeds",
                                  ",".join(map(str, speeds))]
    raise RuntimeError(f"no feasible {kind} argv in {_DRAW_LIMIT} draws")


def cli_cold(seed: int, rounds: int = 16) -> Inputs:
    """Rounds of the five commands, each round in a seeded order.

    Whole rounds keep every command at one fifth of the mix. Each drawn trim
    and compare argv is solved in-process first, so its exit code is 0.
    """
    cfg = default_config()
    rng = _rng("cli-cold", seed)
    ops = []
    for _ in range(rounds):
        kinds = list(CLI_COMMANDS)
        rng.shuffle(kinds)
        ops.extend({"kind": k, "argv": _cold_argv(k, rng, cfg)} for k in kinds)
    return Inputs({"config.json": _doc_bytes(config_to_dict(cfg))}, ops)


def sweep_fine(seed: int, variants: int = 16) -> Inputs:
    """Fine-grid sweeps of airframes perturbed in mass, wing area and battery."""
    rng = _rng("sweep-fine", seed)
    base = config_to_dict(default_config())
    files, ops = {}, []
    for k in range(variants):
        doc = copy.deepcopy(base)
        doc["airframe"]["mass_kg"] = round(rng.uniform(1.8, 2.2), 4)
        doc["airframe"]["reference_area_m2"] = round(
            base["airframe"]["reference_area_m2"] * rng.uniform(0.9, 1.1), 5)
        doc["battery"]["capacity_As"] = round(rng.uniform(3600.0, 6000.0) * 3.6, 1)
        doc["grid"] = dict(FINE_GRID)
        name = f"sweep_{k:02d}.json"
        files[name] = _doc_bytes(doc)
        ops.append({"kind": "sweep",
                    "argv": ["--config", "{inputs}/" + name, "sweep", "--out", "{out}"]})
    return Inputs(files, ops)


def compare_dense(seed: int, variants: int = 32) -> Inputs:
    """Wing-vs-wingless comparisons at 40 speeds and a drawn mounting angle."""
    rng = _rng("compare-dense", seed)
    ops = []
    for _ in range(variants):
        gamma = round(rng.uniform(20.0, 45.0), 2)
        speeds = [round(rng.uniform(5.0, 25.0), 2) for _ in range(COMPARE_SPEEDS)]
        ops.append({"kind": "compare",
                    "argv": _CONFIG + ["--format", "json", "compare", "--gamma", str(gamma),
                                       "--speeds", ",".join(map(str, speeds))]})
    return Inputs({"config.json": _doc_bytes(config_to_dict(default_config()))}, ops)


GENERATORS = {"cli-cold": cli_cold, "sweep-fine": sweep_fine, "compare-dense": compare_dense}
