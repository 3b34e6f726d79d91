"""YAML run configuration: the key table, the paper's presets, overrides and
manifests.

A config document holds the sections domain/model/scheme/time/ic/output.
Every key is read through one table, ``_KEYS``, which gives its reader and
its default in manifest order; unknown sections or keys are rejected. A
document may start from one of the ``PRESETS`` documents, the paper's four
experiments (``preset: test1``). `--set section.key=value` assignments beat
file values, which beat preset values.

The resolved document is the values read, every key with its default filled
in. Written next to a run's outputs as its manifest, it is itself a valid
config that reproduces the run bit-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

import yaml

from . import __version__
from .mesh import Mesh
from .model import (
    CHEM_ELLIPTIC,
    GROWTH_NONE,
    SOURCE_SATURATED,
    DiskRegion,
    InitialConditionSpec,
    ModelSpec,
    RectRegion,
)
from .scheme import BETA_FIXED, VARIANT_CORRECTED, SchemeVariant
from .sim import EPSILON_PRODUCTION, RunConfig

OUTPUT_DIR_ENV = "CHEMOFV_OUTPUT_DIR"

_OUTPUT_FORMATS = ("csv", "csv+vtk")
_REGIONS = {"rect": RectRegion, "disk": DiskRegion}


class ConfigError(ValueError):
    """Malformed, unknown or inconsistent configuration input."""


def _float(value, what):
    """float(value), refusing booleans, which float() would read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be a number, got {value!r}")


def _str(value, what):
    return str(value)


def _int(value, what):
    """int(value), refusing booleans and numbers with a fractional part."""
    fractional = isinstance(value, float) and not value.is_integer()
    if not (isinstance(value, bool) or fractional):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _pair(value, what):
    try:
        lo, hi = value
        return [_float(lo, what), _float(hi, what)]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a pair of numbers, got {value!r}") from exc


def _region(value, what):
    """The region mapping: its kind, then its shape's fields as floats; a
    key that is not one of them is rejected."""
    if not isinstance(value, dict) or "kind" not in value:
        raise ConfigError(f"{what} must be null or a mapping with a kind, got {value!r}")
    kind = value["kind"]
    if not isinstance(kind, str) or kind not in _REGIONS:
        raise ConfigError(f"unknown {what} kind {kind!r}")
    names = [f.name for f in fields(_REGIONS[kind])]
    for key in value:
        if key != "kind" and key not in names:
            raise ConfigError(f"unknown key {what}.{key!r} for kind {kind!r}; expected {names}")
    try:
        return {"kind": kind} | {name: _float(value[name], f"{what}.{name}") for name in names}
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what} {value!r}: {exc}") from exc


def _format(value, what):
    value = str(value)
    if value not in _OUTPUT_FORMATS:
        raise ConfigError(f"{what} must be one of {_OUTPUT_FORMATS}, got {value!r}")
    return value


def _output_directory():
    return os.environ.get(OUTPUT_DIR_ENV, "chemofv-out")


_REQUIRED = object()

# section -> key -> (reader, default), in manifest order. An absent or null
# value takes the default (a callable default is called at read time);
# a _REQUIRED key has none.
_KEYS = {
    "domain": {
        "x_range": (_pair, _REQUIRED),
        "y_range": (_pair, _REQUIRED),
        "nx": (_int, _REQUIRED),
        "ny": (_int, _REQUIRED),
    },
    "model": {
        "mu": (_float, _REQUIRED),
        "chi": (_float, _REQUIRED),
        "gamma": (_float, 1.0),
        "chem_dynamics": (_str, CHEM_ELLIPTIC),
        "chem_source": (_str, SOURCE_SATURATED),
        "growth": (_str, GROWTH_NONE),
        "growth_rate": (_float, 1.0),
    },
    "scheme": {
        "variant": (_str, VARIANT_CORRECTED),
        "epsilon": (_float, EPSILON_PRODUCTION),
        "beta_policy": (_str, BETA_FIXED),
    },
    "time": {"dt": (_float, _REQUIRED), "t_final": (_float, _REQUIRED)},
    "ic": {
        "base_u": (_float, 1.0),
        "base_c": (_float, 0.0),
        "region": (_region, None),
        "seed": (_int, 42),
    },
    "output": {
        "directory": (_str, _output_directory),
        "snapshot_every": (_int, 0),
        "diagnostics_every": (_int, 1),
        "format": (_format, "csv"),
    },
}
_TOP_LEVEL = set(_KEYS) | {"preset", "version"}


def merge_docs(base: dict, overlay: dict) -> dict:
    merged = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, section in overlay.items():
        if isinstance(section, dict) and isinstance(merged.get(key), dict):
            merged[key].update(section)
        else:
            merged[key] = dict(section) if isinstance(section, dict) else section
    return merged


_TEST1 = {
    "domain": {"x_range": [-3.5, 3.5], "y_range": [-35.0, 35.0], "nx": 35, "ny": 350},
    "model": {"mu": 0.25, "chi": 2.0, "gamma": 1.0, "chem_source": "saturated"},
    "time": {"dt": 1e-2, "t_final": 150.0},
    "ic": {"region": {"kind": "rect", "x_min": -4.5, "x_max": 4.5, "y_min": -1.0, "y_max": 1.0}},
}

# The paper's four experiments, keys left out taking their defaults: stripe
# formation with elliptic (test1) and parabolic (test2) chemoattractant
# dynamics, rings with logistic growth (test3) and spots with cubic growth
# (test4). Read-only: resolve copies what it changes.
PRESETS = {
    "test1": _TEST1,
    "test2": merge_docs(
        _TEST1, {"model": {"chem_dynamics": "parabolic"}, "ic": {"base_c": 1 / 32}}
    ),
    "test3": {
        "domain": {"x_range": [-8.0, 8.0], "y_range": [-8.0, 8.0], "nx": 100, "ny": 100},
        "model": {"mu": 0.0625, "chi": 6.0, "gamma": 16.0, "chem_dynamics": "parabolic",
                  "chem_source": "linear", "growth": "quadratic_logistic", "growth_rate": 2.0},
        "time": {"dt": 1e-3, "t_final": 30.0},
        "ic": {"base_c": 1 / 32, "region": {"kind": "disk", "cx": 0.0, "cy": 0.0, "radius": 0.7}},
    },
    "test4": {
        "domain": {"x_range": [-10.0, 10.0], "y_range": [-10.0, 10.0], "nx": 150, "ny": 150},
        "model": {"mu": 0.0625, "chi": 6.0, "gamma": 32.0, "chem_dynamics": "parabolic",
                  "chem_source": "linear", "growth": "cubic_logistic"},
        "time": {"dt": 1e-1, "t_final": 150.0},
        "ic": {"base_c": 1 / 32, "region": {"kind": "disk", "cx": 0.0, "cy": 0.0, "radius": 1.0}},
    },
}


@dataclass(frozen=True)
class Preset:
    """An experiment: its domain, model, initial state and time span."""

    name: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    t_final: float
    dt_default: float
    model: ModelSpec
    ic: InitialConditionSpec

    def build_mesh(self) -> Mesh:
        return Mesh(self.x_range, self.y_range, self.nx, self.ny)


@dataclass
class ResolvedRun:
    """A fully resolved configuration: the run to hand to sim.run and
    where and how to write its outputs."""

    run: RunConfig
    output_dir: str
    output_format: str
    doc: dict  # the resolved document, manifest-ready


def load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a mapping, got {type(doc).__name__}")
    return doc


def validate_doc(doc: dict) -> None:
    for key, section in doc.items():
        if key not in _TOP_LEVEL:
            raise ConfigError(f"unknown config key {key!r}")
        if key in ("preset", "version") or section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        for sub in section:
            if sub not in _KEYS[key]:
                raise ConfigError(f"unknown key {key}.{sub!r}")


def apply_overrides(doc: dict, assignments) -> dict:
    doc = {k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()}
    for item in assignments or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        target, raw = item.split("=", 1)
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse override value {raw!r}: {exc}") from exc
        if "." in target:
            section, key = target.split(".", 1)
            doc.setdefault(section, {})
            if not isinstance(doc[section], dict):
                raise ConfigError(f"cannot set {target!r}: not a section")
            doc[section][key] = value
        else:
            doc[target] = value
    return doc


def _read(doc: dict) -> dict:
    """Every key of the table read from ``doc``: the resolved sections."""
    values = {}
    for section, keys in _KEYS.items():
        given = doc.get(section) or {}
        read = values[section] = {}
        for key, (reader, default) in keys.items():
            value = given.get(key)
            if value is not None:
                read[key] = reader(value, f"{section}.{key}")
            elif default is _REQUIRED:
                raise ConfigError(f"missing required config value {section}.{key}")
            else:
                read[key] = default() if callable(default) else default
    return values


def _experiment(name: str, values: dict) -> Preset:
    """The experiment that read ``values`` describe."""
    domain, model, ic, time = (values[s] for s in ("domain", "model", "ic", "time"))
    region = ic["region"]
    if region is not None:
        region = _REGIONS[region["kind"]](**{k: v for k, v in region.items() if k != "kind"})
    return Preset(
        name=name,
        x_range=tuple(domain["x_range"]),
        y_range=tuple(domain["y_range"]),
        nx=domain["nx"],
        ny=domain["ny"],
        t_final=time["t_final"],
        dt_default=time["dt"],
        model=ModelSpec(
            cell_diffusion=model["mu"],
            chemo_sensitivity=model["chi"],
            chem_decay=model["gamma"],
            chem_dynamics=model["chem_dynamics"],
            chem_source=model["chem_source"],
            growth=model["growth"],
            growth_rate=model["growth_rate"],
        ),
        ic=InitialConditionSpec(
            base_u=ic["base_u"], region=region, rng_seed=ic["seed"], base_c=ic["base_c"]
        ),
    )


def _preset_doc(name: str) -> dict:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected test1, test2, test3 or test4")
    return PRESETS[name]


def preset(name: str, chi: float | None = None) -> Preset:
    """Experiment presets test1..test4; ``chi``, when given, replaces the
    preset's chemo-sensitivity."""
    doc = _preset_doc(name)
    if chi is not None:
        doc = merge_docs(doc, {"model": {"chi": chi}})
    return _experiment(name, _read(doc))


def resolve(doc: dict) -> ResolvedRun:
    """Expand the preset, read every key, and build the run objects."""
    validate_doc(doc)
    name = doc.get("preset")
    if name is not None:
        doc = merge_docs(_preset_doc(str(name)), doc)
    try:
        values = _read(doc)
        experiment = _experiment(str(name or ""), values)
        scheme, output = values["scheme"], values["output"]
        run = RunConfig(
            mesh=experiment.build_mesh(),
            model=experiment.model,
            ic=experiment.ic,
            variant=SchemeVariant(kind=scheme["variant"], beta_policy=scheme["beta_policy"]),
            dt=experiment.dt_default,
            t_final=experiment.t_final,
            epsilon=scheme["epsilon"],
            snapshot_every=output["snapshot_every"],
            diagnostics_every=output["diagnostics_every"],
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return ResolvedRun(
        run=run,
        output_dir=output["directory"],
        output_format=output["format"],
        doc={"version": __version__, **values},
    )


def write_manifest(path, resolved: ResolvedRun) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(resolved.doc, fh, sort_keys=False)
