"""Tests for layered configuration and scenario files."""

import configparser
import dataclasses
import math
import re
from pathlib import Path

import pytest

from timeguard.attack_sim import builtin_scenarios
from timeguard.config import (
    ENV_NTS_ADDR,
    ENV_ROUGHTIME_ADDR,
    CalibrationConfig,
    ConfigFileError,
    EnsembleConfig,
    ProviderConfig,
    apply_env,
    config_sha256,
    config_to_mapping,
    default_config,
    dump_config,
    load_config,
    load_scenario,
)
from timeguard.ensemble import FilterDomainError, OscillatorSpec


def write(tmp_path, text, name="tg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# The dump's sha256 is embedded in every report.json, so its key order and
# value spelling are part of the output format.
DEFAULT_DUMP = """\
[detector]
rt_radius_max_s = 10.0
nts_lambda_s = 0.00014999999999999996
nts_sigma_k = 3.0

[ll]
alpha = 0.9
m = 30
lambda_t = 
mu0 = 0.0
sigma0_sq = 

[ensemble]
q_b = 1e-21
q_d = 1e-24
sigma_meas_s = 1e-08
gate_k = 3.0

[orchestrator]
ephemeris_validity_s = 14400.0
auto_clear_k = 10
rt_poll_s = 10.0
nts_poll_s = 30.0

[calibration]
scenario = benign_cal
far = 0.001
margin = 5.0

[providers]
roughtime_host = 
roughtime_port = 2002
roughtime_pubkey_b64 = 
nts_ke_host = 
nts_ke_port = 4460
nts_ca_file = 
timeout_s = 1.0
"""


def test_default_dump_pinned():
    assert dump_config(default_config()) == DEFAULT_DUMP
    assert config_sha256(default_config()) == (
        "21119841f8f7babd72f3408a6d59d47a3e3e74f3d8940c599e62073487ce6b0e"
    )


def test_readme_names_every_config_key():
    """Both ways: the Configuration section names every key, and each
    lower-case identifier in a ``- `[section]`:`` bullet is a key of that
    section, so a deleted key cannot linger in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    mapping = config_to_mapping(default_config())
    named = set(re.findall(r"`([^`]+)`", section))
    keys = {key for entries in mapping.values() for key in entries}
    assert sorted(keys - named) == []
    bullets = re.findall(r"^- `\[(\w+)\]`:(.*(?:\n  .*)*)", section, re.MULTILINE)
    assert sorted(name for name, _ in bullets) == sorted(mapping)
    stale = [(name, token) for name, text in bullets
             for token in re.findall(r"`([a-z][a-z0-9_]*)`", text) if token not in mapping[name]]
    assert stale == []


def test_defaults_round_trip(tmp_path):
    cfg = default_config()
    path = write(tmp_path, dump_config(cfg))
    assert load_config(path) == cfg


def test_load_without_file_is_default():
    assert load_config(None) == default_config()


def test_default_nts_lambda_pinned():
    cfg = default_config()
    assert cfg.detector.nts_lambda.to_s() == pytest.approx(150e-6)


def test_dump_is_parseable_and_complete():
    text = dump_config(default_config())
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    assert set(parser.sections()) == {
        "detector",
        "ll",
        "ensemble",
        "orchestrator",
        "calibration",
        "providers",
    }
    assert parser.get("ll", "lambda_t") == ""


def test_sha256_stable_and_sensitive(tmp_path):
    cfg = default_config()
    assert config_sha256(cfg) == config_sha256(default_config())
    other = load_config(write(tmp_path, "[ll]\nalpha = 0.8\n"))
    assert config_sha256(other) != config_sha256(cfg)


def test_partial_override_keeps_other_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "[ll]\nalpha = 0.8\n\n[orchestrator]\nauto_clear_k = 3\n"))
    assert cfg.detector.ll.alpha == 0.8
    assert cfg.orchestrator.auto_clear_k == 3
    assert cfg.detector.nts_lambda == default_config().detector.nts_lambda


def test_empty_lambda_means_uncalibrated(tmp_path):
    cfg = load_config(write(tmp_path, "[ll]\nlambda_t =\n"))
    assert cfg.detector.ll.lambda_T is None
    # a pinned threshold without the variance it was fitted under is refused
    with pytest.raises(ConfigFileError, match="sigma0_sq"):
        load_config(write(tmp_path, "[ll]\nlambda_t = -12.3\nsigma0_sq =\n"))
    # the NTS threshold has no uncalibrated state: a blank one is refused
    with pytest.raises(ConfigFileError, match="nts_lambda_s"):
        load_config(write(tmp_path, "[detector]\nnts_lambda_s =\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigFileError, match="bogus"):
        load_config(write(tmp_path, "[bogus]\nx = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigFileError, match="ll.surprise"):
        load_config(write(tmp_path, "[ll]\nsurprise = 1\n"))


def test_bad_value_names_the_key(tmp_path):
    with pytest.raises(ConfigFileError, match="ll.alpha"):
        load_config(write(tmp_path, "[ll]\nalpha = fast\n"))


@pytest.mark.parametrize("section, key, text", [
    ("ll", "mu0", "nan"),
    ("ll", "sigma0_sq", "inf"),
    ("ensemble", "gate_k", "nan"),
    ("ensemble", "sigma_meas_s", "nan"),
    ("calibration", "margin", "nan"),
    ("orchestrator", "ephemeris_validity_s", "nan"),
    ("detector", "nts_lambda_s", "-inf"),
])
def test_non_finite_float_rejected(tmp_path, section, key, text):
    # a pinned threshold, so the run would use the ll moments as given
    texts = {"ll": {"lambda_t": "-12.3", "sigma0_sq": "1e-16"}}
    texts.setdefault(section, {})[key] = text
    ini = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                  for name, keys in texts.items())
    with pytest.raises(ConfigFileError, match=f"{section}.{key}"):
        load_config(write(tmp_path, ini))


def test_non_finite_scenario_float_rejected(tmp_path):
    path = write(tmp_path, "[scenario]\nname = x\nduration_epochs = 50\nseed = 1\n\n"
                 "[attack]\nkind = step\noffset_s = nan\n", "scn.ini")
    with pytest.raises(ConfigFileError, match="attack.offset_s"):
        load_scenario(path)


def test_domain_validation_still_applies(tmp_path):
    with pytest.raises(ConfigFileError, match="invalid configuration"):
        load_config(write(tmp_path, "[ll]\nm = 1\n"))


def test_missing_file_is_an_error():
    with pytest.raises(ConfigFileError, match="cannot read"):
        load_config("/nonexistent/timeguard.ini")


def test_env_overrides_addresses():
    cfg = apply_env(
        default_config(),
        {ENV_ROUGHTIME_ADDR: "rt.example:7070", ENV_NTS_ADDR: "nts.example"},
    )
    assert cfg.providers.roughtime_host == "rt.example"
    assert cfg.providers.roughtime_port == 7070
    assert cfg.providers.nts_ke_host == "nts.example"
    assert cfg.providers.nts_ke_port == default_config().providers.nts_ke_port


def test_env_bad_port_rejected():
    with pytest.raises(ConfigFileError, match="bad port"):
        apply_env(default_config(), {ENV_ROUGHTIME_ADDR: "rt.example:x"})


@pytest.mark.parametrize("addr, host, port", [
    ("2001:db8::1", "2001:db8::1", 4460),
    ("::1", "::1", 4460),
    ("[2001:db8::1]:4461", "2001:db8::1", 4461),
    ("[::1]", "::1", 4460),
    ("nts.example:4461", "nts.example", 4461),
    ("192.0.2.7", "192.0.2.7", 4460),
])
def test_env_reads_ipv6_addresses(addr, host, port):
    providers = apply_env(default_config(), {ENV_NTS_ADDR: addr}).providers
    assert (providers.nts_ke_host, providers.nts_ke_port) == (host, port)


@pytest.mark.parametrize("addr", ["[::1", "[::1]4460", "[::1]:", "[::1]:x", "rt.example:0",
                                  "rt.example:65536", "[::1]:-1", ":2002", "[]:2002", "[]"])
def test_env_bad_address_rejected(addr):
    with pytest.raises(ConfigFileError):
        apply_env(default_config(), {ENV_ROUGHTIME_ADDR: addr})


@pytest.mark.parametrize("key", ["roughtime_port", "nts_ke_port"])
@pytest.mark.parametrize("port", ["0", "65536", "-1"])
def test_ini_port_outside_range_rejected(tmp_path, key, port):
    with pytest.raises(ConfigFileError, match="1-65535"):
        load_config(write(tmp_path, f"[providers]\n{key} = {port}\n"))


@pytest.mark.parametrize("timeout", ["0", "-1", "0.0"])
def test_ini_non_positive_timeout_rejected(tmp_path, timeout):
    # a UDP exchange under a timeout of 0 or less fails on every poll
    with pytest.raises(ConfigFileError, match="timeout_s"):
        load_config(write(tmp_path, f"[providers]\ntimeout_s = {timeout}\n"))


def test_ini_timeout_past_the_socket_range_rejected(tmp_path):
    # a socket refuses a timeout of 2^63 ns or more, and every poll would fail
    limit = 2**63 / 1e9
    below = math.nextafter(limit, 0.0)
    assert ProviderConfig(timeout_s=below).timeout_s == below
    for timeout in (limit, 9.3e9, 1e10):
        with pytest.raises(ConfigFileError, match="timeout_s"):
            load_config(write(tmp_path, f"[providers]\ntimeout_s = {timeout!r}\n"))


def test_env_absent_is_noop():
    assert apply_env(default_config(), {}) == default_config()


def test_ensemble_oscillator_property():
    # [ensemble] is the filter's oscillator model, checked as one
    ens = EnsembleConfig(q_b=1e-20, q_d=2e-24, sigma_meas_s=5e-9)
    assert isinstance(ens, OscillatorSpec)
    assert (ens.q_b, ens.q_d, ens.sigma_meas_s) == (1e-20, 2e-24, 5e-9)
    with pytest.raises(FilterDomainError):
        EnsembleConfig(q_d=-1e-24)


def test_ensemble_gate_validation():
    with pytest.raises(ConfigFileError):
        EnsembleConfig(gate_k=0.0)


def test_ensemble_sigma_meas_validation(tmp_path):
    # zero stays allowed: the filter floors the readout noise to 1 ps
    assert load_config(write(tmp_path, "[ensemble]\nsigma_meas_s = 0\n")).ensemble.sigma_meas_s == 0
    with pytest.raises(ConfigFileError, match="sigma_meas_s"):
        load_config(write(tmp_path, "[ensemble]\nsigma_meas_s = -5\n"))
    # the filter's readout variance is its square, which must be finite
    assert EnsembleConfig(sigma_meas_s=1e150).sigma_meas_s == 1e150
    with pytest.raises(ConfigFileError, match="sigma_meas_s"):
        load_config(write(tmp_path, "[ensemble]\nsigma_meas_s = 1e200\n"))


def test_calibration_far_validation():
    with pytest.raises(ConfigFileError):
        CalibrationConfig(far=0.0)
    with pytest.raises(ConfigFileError):
        CalibrationConfig(margin=-1.0)


# -- scenario files ----------------------------------------------------------


def test_load_scenario_builtin_name():
    assert load_scenario("step4s") == builtin_scenarios()["step4s"]


def test_load_scenario_file(tmp_path):
    path = write(
        tmp_path,
        "[scenario]\nname = custom\nduration_epochs = 50\nseed = 77\n"
        "rt_poll_epochs = 5\n\n[attack]\nkind = step\noffset_s = 2.0\nonset_epoch = 10\n",
        "scn.ini",
    )
    spec = load_scenario(path)
    assert spec.name == "custom"
    assert spec.duration_epochs == 50
    assert spec.seed == 77
    assert spec.rt_poll_epochs == 5
    assert spec.attack.kind == "step"
    assert spec.attack.offset_s == 2.0
    assert spec.network.mode == "always_on"


def scenario_ini(spec):
    """Every scalar field of spec and its attack and network, by the file rule."""
    lines = []
    for section, obj in (("scenario", spec), ("attack", spec.attack), ("network", spec.network)):
        lines.append(f"[{section}]")
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if not dataclasses.is_dataclass(value):
                lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def shifted(obj):
    """obj with every number moved and its name, if it has one, suffixed."""
    changes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, int):
            changes[f.name] = value + 1
        elif isinstance(value, float):
            changes[f.name] = value * 2 + 1e-3
    if hasattr(obj, "name"):
        changes["name"] = obj.name + "-shifted"
    return dataclasses.replace(obj, **changes)


@pytest.mark.parametrize("name", sorted(builtin_scenarios()))
def test_scenario_file_round_trip(tmp_path, name):
    spec = builtin_scenarios()[name]
    moved = shifted(dataclasses.replace(
        spec, attack=shifted(spec.attack), network=shifted(spec.network)))
    for want in (spec, moved):
        assert load_scenario(write(tmp_path, scenario_ini(want), "scn.ini")) == want
    # every key was read: each scalar of the moved copy differs from the bundled one
    for new, old in ((moved, spec), (moved.attack, spec.attack), (moved.network, spec.network)):
        for f in dataclasses.fields(old):
            if f.name in ("kind", "mode") or dataclasses.is_dataclass(getattr(old, f.name)):
                continue
            assert getattr(new, f.name) != getattr(old, f.name), f.name


def test_load_scenario_missing_section(tmp_path):
    with pytest.raises(ConfigFileError, match="scenario"):
        load_scenario(write(tmp_path, "[attack]\nkind = step\n", "scn.ini"))


def test_load_scenario_missing_required(tmp_path):
    with pytest.raises(ConfigFileError, match="duration_epochs"):
        load_scenario(write(tmp_path, "[scenario]\nname = x\n", "scn.ini"))


def test_load_scenario_unknown_key(tmp_path):
    with pytest.raises(ConfigFileError, match="attack.ramp"):
        load_scenario(
            write(
                tmp_path,
                "[scenario]\nname = x\nduration_epochs = 5\n\n[attack]\nramp = 1\n",
                "scn.ini",
            )
        )


def test_load_scenario_invalid_spec(tmp_path):
    with pytest.raises(ConfigFileError, match="invalid scenario"):
        load_scenario(
            write(tmp_path, "[scenario]\nname = x\nduration_epochs = 0\n", "scn.ini")
        )


def test_appconfig_is_immutable():
    cfg = default_config()
    with pytest.raises(AttributeError):
        cfg.detector = None
