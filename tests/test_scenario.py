import json
import math
import re

import pytest

from sropo import (
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    scenario_from_dict,
)
from conftest import CONFIG_DIR, scenario_dict
from helpers import hashlib_digest


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


class TestLoadScenario:
    def test_minimal_config_loads_with_regime_report(self, tmp_path):
        path = write_config(tmp_path, scenario_dict())
        config = load_scenario(path)
        assert config.regime.ok
        assert config.scales.tau0 == pytest.approx(3.3356409519815163e-12, rel=1e-12)
        assert len(config.scenario_hash) == 16
        assert config.freqs.omega_i == 1.5e15

    def test_resonator_shorter_than_crystal(self, tmp_path):
        data = scenario_dict()
        data["cavity"]["resonator_length_Lr"] = 0.005
        path = write_config(tmp_path, data)
        with pytest.raises(ScenarioValidationError, match="cavity.resonator_length_Lr"):
            load_scenario(path)

    def test_fsr_overflow_names_its_inputs(self):
        # T = 2*l*n_s/c = 1.2e-308 is positive, and 2*pi/T overflows to inf.
        data = scenario_dict()
        data["crystal"]["length_l"] = data["cavity"]["resonator_length_Lr"] = 1e-300
        with pytest.raises(ScenarioValidationError, match=re.escape(
                "crystal.length_l, crystal.dispersion_signal, "
                "cavity.resonator_length_Lr: derived fsr must be finite, got inf")):
            scenario_from_dict(data)

    def test_explicit_frequencies_and_bracket_exclusive(self, tmp_path):
        data = scenario_dict()
        data["frequencies"]["bracket"] = [1.8e15, 2.2e15]
        path = write_config(tmp_path, data)
        with pytest.raises(ScenarioValidationError, match="mutually exclusive"):
            load_scenario(path)

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"crystal": }', encoding="utf-8")
        with pytest.raises(ScenarioParseError, match="line 1"):
            load_scenario(path)

    @pytest.mark.parametrize("mutate, message", [
        # Python's int-to-string limit: json.loads raises a plain ValueError
        (lambda t: t.replace(b"0.05", b"1" + b"0" * 5000, 1),
         "Exceeds the limit (4300 digits) for integer string conversion"),
        (lambda t: b"\xff\xfe" + t, "'utf-8' codec can't decode byte 0xff in position 0"),
        (lambda t: t.decode().encode("utf-16"), "'utf-8' codec can't decode byte 0xff"),
        (lambda t: b"[" * 200_000 + t + b"]" * 200_000,
         "maximum recursion depth exceeded while decoding a JSON array"),
        (lambda t: t.replace(b'"length_l": 0.01,', b'"length_l": 0.01, "length_l": 0.02,', 1),
         "key 'length_l' given twice in one object"),
        (lambda t: t.replace(b'"kind": "constant",', b'"kind": "constant", "kind": "constant",', 1),
         "key 'kind' given twice in one object"),
        (lambda t: t.replace(b'{', b'{"output": 0, ', 1), "key 'output' given twice in one object"),
        (lambda t: t.decode().encode("utf-8-sig"),
         "invalid JSON at line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
    ], ids=["huge-integer", "not-utf-8", "utf-16", "nested-deep", "repeated-key",
            "repeated-key-nested", "repeated-key-top", "utf-8-bom"])
    def test_file_that_cannot_be_read_or_decoded_is_a_parse_error(
            self, tmp_path, mutate, message):
        path = tmp_path / "scenario.json"
        path.write_bytes(mutate((CONFIG_DIR / "phase_matched.json").read_bytes()))
        with pytest.raises(ScenarioParseError, match="^" + re.escape(f"{path}: {message}")):
            load_scenario(path)

    def test_directory_is_a_parse_error_naming_it(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="^" + re.escape(f"{tmp_path}: [Errno 21]")):
            load_scenario(tmp_path)

    def test_missing_field_names_path(self, tmp_path):
        data = scenario_dict()
        del data["crystal"]["chi"]
        path = write_config(tmp_path, data)
        with pytest.raises(ScenarioValidationError, match="crystal.chi"):
            load_scenario(path)

    def test_unknown_dispersion_kind(self, tmp_path):
        data = scenario_dict()
        data["crystal"]["dispersion_idler"]["kind"] = "cauchy"
        path = write_config(tmp_path, data)
        with pytest.raises(
            ScenarioValidationError, match="crystal.dispersion_idler.kind"
        ):
            load_scenario(path)

    def test_phase_match_bracket_route(self, tmp_path):
        data = scenario_dict()
        data["crystal"]["dispersion_signal"] = {
            "kind": "linear_in_omega",
            "parameters": [1.70, 2.0e-17],
            "validity_range": [1e14, 1e16],
        }
        data["crystal"]["dispersion_idler"] = {
            "kind": "linear_in_omega",
            "parameters": [1.75, 0.5e-17],
            "validity_range": [1e14, 1e16],
        }
        n_p = (2.0e15 * (1.70 + 2.0e-17 * 2.0e15)
               + 1.5e15 * (1.75 + 0.5e-17 * 1.5e15)) / 3.5e15
        data["crystal"]["dispersion_pump"] = {
            "kind": "constant",
            "parameters": [n_p],
            "validity_range": [1e14, 1e16],
        }
        data["frequencies"] = {"omega_P": 3.5e15, "bracket": [1.8e15, 2.2e15]}
        config = load_scenario(write_config(tmp_path, data))
        assert config.freqs.omega_s == pytest.approx(2.0e15, rel=1e-6)
        assert config.freqs.omega_s + config.freqs.omega_i == config.freqs.omega_p

    def test_explicit_triple_must_be_exact(self, tmp_path):
        data = scenario_dict()
        data["frequencies"] = {
            "omega_P": 3.5e15,
            "omega_S": 2.0e15,
            "omega_I": 1.5e15 + 1000.0,
        }
        with pytest.raises(ScenarioValidationError, match="frequencies"):
            load_scenario(write_config(tmp_path, data))


    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda d: d["crystal"].__setitem__("length_l", math.nan), "crystal.length_l"),
            (lambda d: d["cavity"].__setitem__("loss_rate_gamma", math.inf),
             "cavity.loss_rate_gamma"),
            (lambda d: d["pump"].__setitem__("field_amplitude_EP", -math.inf),
             "pump.field_amplitude_EP"),
            (lambda d: d["frequencies"].__setitem__("omega_S", math.nan),
             "frequencies.omega_S"),
            (lambda d: d.__setitem__("regime_threshold", math.nan), "regime_threshold"),
            (lambda d: d.__setitem__("regime_threshold", 0),
             "regime_threshold must be above 0, got 0.0"),
            (lambda d: d.__setitem__("regime_threshold", -1),
             "regime_threshold must be above 0, got -1.0"),
            (lambda d: d["crystal"].__setitem__("chi", 10**400), "crystal.chi"),
            (lambda d: d["crystal"]["dispersion_idler"].__setitem__(
                "parameters", [math.nan]), "crystal.dispersion_idler.parameters"),
            (lambda d: d["crystal"]["dispersion_pump"].__setitem__(
                "validity_range", [1e14, math.inf]), "crystal.dispersion_pump.validity_range"),
            (lambda d: d["crystal"]["dispersion_signal"].__setitem__(
                "validity_range", [True, 1e16]), "crystal.dispersion_signal.validity_range"),
            (lambda d: d.__setitem__(
                "frequencies", {"omega_P": 3.5e15, "bracket": [False, 2.2e15]}),
             "frequencies.bracket"),
            (lambda d: d.__setitem__(
                "frequencies", {"omega_P": 3.5e15, "bracket": [1.8e15, math.nan]}),
             "frequencies.bracket"),
            (lambda d: d.__setitem__(
                "frequencies", {"omega_P": 3.5e15, "bracket": [2.2e15, 1.8e15]}),
             "frequencies.bracket"),
            (lambda d: d.__setitem__(
                "frequencies", {"omega_P": 3.5e15, "bracket": [1.8e15, 4e15]}),
             "frequencies.bracket"),
            (lambda d: d.__setitem__(
                "frequencies", {"omega_P": 3.5e15, "bracket": [0, 1e15]}),
             "frequencies.bracket"),
        ],
        ids=["nan_length", "inf_gamma", "minus_inf_pump", "nan_omega_s",
             "nan_threshold", "zero_threshold", "negative_threshold", "huge_integer",
             "nan_parameter", "inf_range", "bool_range", "bool_bracket", "nan_bracket",
             "reversed_bracket", "bracket_past_pump", "bracket_from_zero"],
    )
    def test_non_finite_or_boolean_number_names_field(self, tmp_path, mutate, field):
        data = scenario_dict()
        mutate(data)
        with pytest.raises(ScenarioValidationError, match=re.escape(field)):
            scenario_from_dict(data)
        # the JSON literals NaN and Infinity take the same path through a file
        with pytest.raises(ScenarioValidationError, match=re.escape(field)):
            load_scenario(write_config(tmp_path, data))


class TestOutputNormalization:
    @pytest.mark.parametrize("name", ["peak_unity", "unit_integral"])
    def test_spectrum_normalizations_accepted(self, name):
        data = scenario_dict()
        data["output"]["normalization"] = name
        assert scenario_from_dict(data).normalization.value == name

    @pytest.mark.parametrize("name", ["unit_at_zero", "peak", 1])
    def test_other_values_refused_naming_field_and_allowed(self, name):
        data = scenario_dict()
        data["output"]["normalization"] = name
        with pytest.raises(
            ScenarioValidationError,
            match=r"output\.normalization: must be one of peak_unity, unit_integral",
        ):
            scenario_from_dict(data)


class TestScenarioHash:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_digest_is_hashlibs(self, name):
        # sha256 from the interpreter's own module, not OpenSSL's: same digest
        config = load_scenario(CONFIG_DIR / name)
        assert config.scenario_hash == hashlib_digest(config)

    def test_stable_for_identical_physics(self):
        a = scenario_from_dict(scenario_dict())
        b = scenario_from_dict(scenario_dict())
        assert a.scenario_hash == b.scenario_hash

    def test_insensitive_to_output_section(self):
        a = scenario_from_dict(scenario_dict())
        data = scenario_dict()
        data["output"] = {"directory": "elsewhere", "format": "json"}
        b = scenario_from_dict(data)
        assert a.scenario_hash == b.scenario_hash

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["crystal"].__setitem__("length_l", 0.011),
            lambda d: d["crystal"].__setitem__("chi", 3e-12),
            lambda d: d["cavity"].__setitem__("loss_rate_gamma", 9e8),
            lambda d: d["pump"].__setitem__("field_amplitude_EP", 2e-16),
            lambda d: d["frequencies"].__setitem__("omega_S", 2.1e15),
            lambda d: d["crystal"]["dispersion_idler"]["parameters"].__setitem__(
                0, 1.91
            ),
        ],
        ids=["length", "chi", "gamma", "pump", "omega_s", "idler_index"],
    )
    def test_sensitive_to_every_physical_field(self, mutate):
        base = scenario_from_dict(scenario_dict())
        data = scenario_dict()
        mutate(data)
        assert scenario_from_dict(data).scenario_hash != base.scenario_hash
