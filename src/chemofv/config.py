"""YAML run configuration: schema, preset resolution, overrides, manifests.

A config document holds the sections domain/model/scheme/time/ic/output,
optionally seeded from a named preset (`preset: test1`); unknown sections
or keys are rejected. `--set section.key=value` assignments beat file
values, which beat preset values. The manifest written next to a run's
outputs is itself a valid config that reproduces the run bit-identically.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import yaml

from . import __version__
from .mesh import Mesh
from .model import (
    DiskRegion,
    InitialConditionSpec,
    ModelSpec,
    Preset,
    RectRegion,
    preset as load_preset,
)
from .scheme import SchemeVariant
from .sim import EPSILON_PRODUCTION, RunConfig

OUTPUT_DIR_ENV = "CHEMOFV_OUTPUT_DIR"

_SCHEMA: dict[str, tuple[str, ...]] = {
    "domain": ("x_range", "y_range", "nx", "ny"),
    "model": (
        "mu",
        "chi",
        "gamma",
        "chem_dynamics",
        "chem_source",
        "growth",
        "growth_rate",
    ),
    "scheme": ("variant", "epsilon", "beta_policy"),
    "time": ("dt", "t_final"),
    "ic": ("base_u", "base_c", "region", "seed"),
    "output": ("directory", "snapshot_every", "diagnostics_every", "format"),
}
_TOP_LEVEL = set(_SCHEMA) | {"preset", "version"}

_OUTPUT_FORMATS = ("csv", "csv+vtk")


class ConfigError(ValueError):
    """Malformed, unknown or inconsistent configuration input."""


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
        if key in ("preset", "version"):
            continue
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"section {key!r} must be a mapping")
        for sub in section:
            if sub not in _SCHEMA[key]:
                raise ConfigError(f"unknown key {key}.{sub!r}")


def _document(
    x_range, y_range, nx, ny, model, ic, dt, t_final, scheme=None, output=None
) -> dict:
    """Config document of the given run values, sections in manifest order.

    The scheme and output sections are left out when not given.
    """
    region = ic.region
    if region is None:
        region_doc = None
    elif isinstance(region, RectRegion):
        region_doc = {
            "kind": "rect",
            "x_min": region.x_min,
            "x_max": region.x_max,
            "y_min": region.y_min,
            "y_max": region.y_max,
        }
    else:
        region_doc = {
            "kind": "disk",
            "cx": region.cx,
            "cy": region.cy,
            "radius": region.radius,
        }
    doc = {
        "domain": {
            "x_range": [x_range[0], x_range[1]],
            "y_range": [y_range[0], y_range[1]],
            "nx": nx,
            "ny": ny,
        },
        "model": {
            "mu": model.cell_diffusion,
            "chi": model.chemo_sensitivity,
            "gamma": model.chem_decay,
            "chem_dynamics": model.chem_dynamics,
            "chem_source": model.chem_source,
            "growth": model.growth,
            "growth_rate": model.growth_rate,
        },
        "scheme": scheme,
        "time": {"dt": dt, "t_final": t_final},
        "ic": {
            "base_u": ic.base_u,
            "base_c": ic.base_c,
            "region": region_doc,
            "seed": ic.rng_seed,
        },
        "output": output,
    }
    return {key: section for key, section in doc.items() if section is not None}


def preset_doc(p: Preset) -> dict:
    return _document(
        p.x_range, p.y_range, p.nx, p.ny, p.model, p.ic, p.dt_default, p.t_final
    )


def merge_docs(base: dict, overlay: dict) -> dict:
    merged = {k: dict(v) if isinstance(v, dict) else v for k, v in base.items()}
    for key, section in overlay.items():
        if isinstance(section, dict) and isinstance(merged.get(key), dict):
            merged[key].update(section)
        else:
            merged[key] = dict(section) if isinstance(section, dict) else section
    return merged


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


def _need(doc, section, key):
    sec = doc.get(section) or {}
    if key not in sec or sec[key] is None:
        raise ConfigError(f"missing required config value {section}.{key}")
    return sec[key]


def _get(doc, section, key, default):
    sec = doc.get(section) or {}
    value = sec.get(key, default)
    return default if value is None else value


def _as_pair(value, what):
    try:
        lo, hi = value
        return float(lo), float(hi)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a pair of numbers, got {value!r}") from exc


def _as_int(value, what):
    """int(value), refusing booleans and numbers with a fractional part."""
    fractional = isinstance(value, float) and not value.is_integer()
    if isinstance(value, bool) or fractional:
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _region_from_doc(region):
    if region is None:
        return None
    if not isinstance(region, dict) or "kind" not in region:
        raise ConfigError(f"ic.region must be null or a mapping with a kind, got {region!r}")
    kind = region["kind"]
    try:
        if kind == "rect":
            return RectRegion(
                float(region["x_min"]),
                float(region["x_max"]),
                float(region["y_min"]),
                float(region["y_max"]),
            )
        if kind == "disk":
            return DiskRegion(
                float(region["cx"]), float(region["cy"]), float(region["radius"])
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed ic.region {region!r}: {exc}") from exc
    raise ConfigError(f"unknown ic.region kind {kind!r}")


def resolve(doc: dict) -> ResolvedRun:
    """Expand the preset, validate every key, and build the run objects."""
    validate_doc(doc)
    if "preset" in doc and doc["preset"] is not None:
        base = preset_doc(load_preset(str(doc["preset"])))
        overlay = {k: v for k, v in doc.items() if k not in ("preset", "version")}
        doc = merge_docs(base, overlay)
    else:
        doc = {k: v for k, v in doc.items() if k != "version"}

    try:
        x_range = _as_pair(_need(doc, "domain", "x_range"), "domain.x_range")
        y_range = _as_pair(_need(doc, "domain", "y_range"), "domain.y_range")
        nx = _as_int(_need(doc, "domain", "nx"), "domain.nx")
        ny = _as_int(_need(doc, "domain", "ny"), "domain.ny")
        model = ModelSpec(
            cell_diffusion=float(_need(doc, "model", "mu")),
            chemo_sensitivity=float(_need(doc, "model", "chi")),
            chem_decay=float(_get(doc, "model", "gamma", 1.0)),
            chem_dynamics=str(_get(doc, "model", "chem_dynamics", "elliptic")),
            chem_source=str(_get(doc, "model", "chem_source", "saturated")),
            growth=str(_get(doc, "model", "growth", "none")),
            growth_rate=float(_get(doc, "model", "growth_rate", 1.0)),
        )
        ic = InitialConditionSpec(
            base_u=float(_get(doc, "ic", "base_u", 1.0)),
            region=_region_from_doc(_get(doc, "ic", "region", None)),
            rng_seed=_as_int(_get(doc, "ic", "seed", 42), "ic.seed"),
            base_c=float(_get(doc, "ic", "base_c", 0.0)),
        )
        variant = SchemeVariant(
            kind=str(_get(doc, "scheme", "variant", "corrected-decoupled")),
            beta_policy=str(_get(doc, "scheme", "beta_policy", "fixed1")),
        )
        epsilon = float(_get(doc, "scheme", "epsilon", EPSILON_PRODUCTION))
        dt = float(_need(doc, "time", "dt"))
        t_final = float(_need(doc, "time", "t_final"))
        out_dir = str(
            _get(doc, "output", "directory", os.environ.get(OUTPUT_DIR_ENV, "chemofv-out"))
        )
        snapshot_every = _as_int(
            _get(doc, "output", "snapshot_every", 0), "output.snapshot_every"
        )
        diagnostics_every = _as_int(
            _get(doc, "output", "diagnostics_every", 1), "output.diagnostics_every"
        )
        output_format = str(_get(doc, "output", "format", "csv"))
        run = RunConfig(
            mesh=Mesh(x_range, y_range, nx, ny),
            model=model,
            ic=ic,
            variant=variant,
            dt=dt,
            t_final=t_final,
            epsilon=epsilon,
            snapshot_every=snapshot_every,
            diagnostics_every=diagnostics_every,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if output_format not in _OUTPUT_FORMATS:
        raise ConfigError(
            f"output.format must be one of {_OUTPUT_FORMATS}, got {output_format!r}"
        )

    resolved_doc = {
        "version": __version__,
        **_document(
            x_range, y_range, nx, ny, model, ic, dt, t_final,
            scheme={
                "variant": variant.kind,
                "epsilon": epsilon,
                "beta_policy": variant.beta_policy,
            },
            output={
                "directory": out_dir,
                "snapshot_every": snapshot_every,
                "diagnostics_every": diagnostics_every,
                "format": output_format,
            },
        ),
    }
    return ResolvedRun(
        run=run, output_dir=out_dir, output_format=output_format, doc=resolved_doc
    )


def write_manifest(path, resolved: ResolvedRun) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(resolved.doc, fh, sort_keys=False)
