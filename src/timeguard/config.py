"""Layered runtime configuration.

Precedence: built-in defaults, then an INI file, then environment
variables for provider addresses.  `dump_config` renders the effective
configuration in the same INI dialect `load_config` reads, and
`config_sha256` hashes that text so every report pins the exact
parameters it ran under.  It alone imports hashlib, and with it OpenSSL's
libcrypto, so a command that never hashes its config does not load it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from typing import Mapping, Optional, get_args, get_type_hints

from .attack_sim import AttackSpec, NetworkSpec, ScenarioSpec, builtin_scenarios
from .detector import DetectorConfig
from .ensemble import OscillatorSpec
from .orchestrator import OrchestratorConfig
from .timebase import SignedDuration

ENV_ROUGHTIME_ADDR = "TIMEGUARD_ROUGHTIME_ADDR"
ENV_NTS_ADDR = "TIMEGUARD_NTS_ADDR"


class ConfigFileError(Exception):
    """Unreadable, unknown, or ill-typed configuration input."""


@dataclass(frozen=True)
class EnsembleConfig(OscillatorSpec):
    """The oscillator model, q_b and q_d checked as OscillatorSpec checks them,
    plus the 1-sigma bias readout noise (s) and the filter gate."""

    sigma_meas_s: float = 10e-9
    gate_k: float = 3.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gate_k <= 0:
            raise ConfigFileError("ensemble.gate_k must be positive")
        if self.sigma_meas_s < 0:
            raise ConfigFileError("ensemble.sigma_meas_s must be >= 0")
        if not math.isfinite(self.sigma_meas_s * self.sigma_meas_s):  # the readout variance
            raise ConfigFileError("ensemble.sigma_meas_s is too large: its square overflows")


@dataclass(frozen=True)
class CalibrationConfig:
    """How the log-likelihood threshold is fitted when not pinned."""

    scenario: str = "benign_cal"
    far: float = 1e-3
    margin: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 < self.far < 1.0:
            raise ConfigFileError("calibration.far must lie in (0, 1)")
        if self.margin < 0.0:
            raise ConfigFileError("calibration.margin must be >= 0")


@dataclass(frozen=True)
class ProviderConfig:
    """Where the live command reaches remote time services."""

    roughtime_host: str = ""
    roughtime_port: int = 2002
    roughtime_pubkey_b64: str = ""
    nts_ke_host: str = ""
    nts_ke_port: int = 4460
    nts_ca_file: str = ""
    timeout_s: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.roughtime_port < 65536 and 0 < self.nts_ke_port < 65536):
            raise ConfigFileError("providers: a port must lie in 1-65535")
        if self.timeout_s <= 0:
            raise ConfigFileError("providers.timeout_s must be positive")
        if self.timeout_s * 1e9 >= 2.0**63:  # a socket timeout is held in int64 nanoseconds
            raise ConfigFileError("providers.timeout_s must be below 2^63 ns (9.2e9 s)")


@dataclass(frozen=True)
class AppConfig:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    orchestrator: OrchestratorConfig = field(default_factory=OrchestratorConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    providers: ProviderConfig = field(default_factory=ProviderConfig)


def default_config() -> AppConfig:
    return AppConfig()


# -- INI schema: the config dataclasses' own fields -------------------------


def _value_type(hint):
    """The type a field holds, Optional stripped."""
    args = get_args(hint)
    if type(None) in args:
        return next(a for a in args if a is not type(None))
    return hint


@cache
def _schema(cls) -> tuple[dict[str, tuple[str, object]], dict[str, type]]:
    """The INI keys of cls as key -> (field, hint), and its nested configs.

    A nested dataclass field is a section of its own, named after the
    field.  SignedDuration is a dataclass too, but a scalar: it is written
    in seconds under the field name plus "_s".  Keys are lower case, as
    configparser reads them.  Built once per class, since get_type_hints
    compiles each string annotation: callers only read the dicts.
    """
    keys, nested = {}, {}
    hints = get_type_hints(cls)
    for f in fields(cls):
        kind = _value_type(hints[f.name])
        if kind is SignedDuration:
            keys[f.name.lower() + "_s"] = (f.name, hints[f.name])
        elif is_dataclass(kind):
            nested[f.name] = kind
        else:
            keys[f.name.lower()] = (f.name, hints[f.name])
    return keys, nested


def _parse(hint, text: str, where: str):
    """A key's text as its field's value; blank is None for an Optional.

    A float must be finite: a NaN passes every range check such as `x <= 0`.
    """
    kind = _value_type(hint)
    text = text.strip()
    if kind is not hint and not text:
        return None
    try:
        value = float(text) if kind in (float, SignedDuration) else kind(text)
    except ValueError:
        raise ConfigFileError(f"{where}: cannot parse {text!r} as {kind.__name__}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigFileError(f"{where}: {text!r} is not a finite number")
    return SignedDuration.from_s(value) if kind is SignedDuration else value


def _format(value) -> str:
    if isinstance(value, SignedDuration):
        value = value.to_s()
    return "" if value is None else str(value)


def _sections(config):
    """(section, config) of each config nested in `config`, depth first."""
    for name in _schema(type(config))[1]:
        value = getattr(config, name)
        yield name, value
        yield from _sections(value)


def _build(cls, texts: Mapping[str, Mapping[str, Optional[str]]], section: Optional[str] = None):
    """cls from the texts of its section, each nested config from its own.

    A key whose text is None is left at its default, and so is a nested
    config whose section is absent.
    """
    keys, nested = _schema(cls)
    own = texts.get(section, {})
    kwargs = {
        attr: _parse(hint, own[key], f"{section}.{key}")
        for key, (attr, hint) in keys.items()
        if own.get(key) is not None
    }
    kwargs.update((name, _build(sub, texts, name)) for name, sub in nested.items() if name in texts)
    return cls(**kwargs)


def config_to_mapping(config: AppConfig) -> dict[str, dict[str, str]]:
    """Flatten to the INI key space with canonical value text."""
    return {
        section: {
            key: _format(getattr(sub, attr)) for key, (attr, _) in _schema(type(sub))[0].items()
        }
        for section, sub in _sections(config)
    }


def mapping_to_config(mapping: Mapping[str, Mapping[str, str]]) -> AppConfig:
    """Build the typed config; raises ConfigFileError on bad values."""
    try:
        return _build(AppConfig, mapping)
    except ConfigFileError:
        raise
    except Exception as e:
        raise ConfigFileError(f"invalid configuration: {e}") from e


def dump_config(config: AppConfig) -> str:
    """Canonical INI text: field order, `key = value`, blank for unset."""
    return "\n".join(
        f"[{section}]\n" + "".join(f"{key} = {text}\n" for key, text in entries.items())
        for section, entries in config_to_mapping(config).items()
    )


def config_sha256(config: AppConfig) -> str:
    import hashlib  # OpenSSL's libcrypto: loaded only by the commands that hash

    return hashlib.sha256(dump_config(config).encode()).hexdigest()


def _overlay(texts: dict[str, dict], path: str, where: str = "") -> None:
    """Set texts[section][key] from the INI file at `path`; both must be known."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as e:
        raise ConfigFileError(f"cannot read {path}: {e}") from e
    except configparser.Error as e:
        raise ConfigFileError(f"malformed INI in {path}: {e}") from e
    for section in parser.sections():
        if section not in texts:
            raise ConfigFileError(f"unknown section [{section}]{where}")
        for key, text in parser.items(section):
            if key not in texts[section]:
                raise ConfigFileError(f"unknown key {section}.{key}{where}")
            texts[section][key] = text


def load_config(path: Optional[str] = None) -> AppConfig:
    """Defaults overlaid with the INI file at `path`, if given."""
    texts = config_to_mapping(default_config())
    if path is not None:
        _overlay(texts, path)
    return mapping_to_config(texts)


def apply_env(config: AppConfig, env: Mapping[str, str]) -> AppConfig:
    """Provider address overrides: `host:port`, `[host]:port` for an IPv6
    address, or a bare host, IPv6 addresses included, at the default port."""

    def split(addr: str, default_port: int) -> tuple[str, int]:
        if addr.startswith("["):
            host, sep, rest = addr[1:].partition("]")
            if not sep or rest[:1] not in ("", ":"):
                raise ConfigFileError(f"bad address {addr!r}")
            port = rest[1:] if rest else None
        elif addr.count(":") == 1:
            host, _, port = addr.partition(":")
        else:  # a name, an IPv4 address or a bare IPv6 address
            host, port = addr, None
        if addr and not host:  # an empty value leaves the provider unset, as the default does
            raise ConfigFileError(f"no host in address {addr!r}")
        if port is None:
            return host, default_port
        try:
            return host, int(port)
        except ValueError:
            raise ConfigFileError(f"bad port in address {addr!r}") from None

    prov = config.providers
    if ENV_ROUGHTIME_ADDR in env:
        host, port = split(env[ENV_ROUGHTIME_ADDR], prov.roughtime_port)
        prov = replace(prov, roughtime_host=host, roughtime_port=port)
    if ENV_NTS_ADDR in env:
        host, port = split(env[ENV_NTS_ADDR], prov.nts_ke_port)
        prov = replace(prov, nts_ke_host=host, nts_ke_port=port)
    return replace(config, providers=prov)


# -- scenario files ----------------------------------------------------------

_SCENARIO_SECTIONS = {"scenario": ScenarioSpec, "attack": AttackSpec, "network": NetworkSpec}


def load_scenario(name_or_path: str) -> ScenarioSpec:
    """A bundled scenario by name, or an INI description by path.

    The file's sections and keys follow the same rule as the config's.
    """
    table = builtin_scenarios()
    if name_or_path in table:
        return table[name_or_path]
    texts = {name: dict.fromkeys(_schema(cls)[0]) for name, cls in _SCENARIO_SECTIONS.items()}
    _overlay(texts, name_or_path, " in scenario file")
    try:
        return _build(ScenarioSpec, texts, "scenario")
    except (TypeError, ValueError) as e:
        raise ConfigFileError(f"invalid scenario: {e}") from e
