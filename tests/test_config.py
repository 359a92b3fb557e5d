"""Config loading: the key table, list separators and error messages."""

from dataclasses import fields

import pytest

from heliumjcm import cli
from heliumjcm.config import _KEYS, RunConfig, load_run_config
from heliumjcm.errors import ConfigError

# A non-default value for every key: (raw text, value RunConfig must hold).
EVERY_KEY = {
    ("run", "task"): (" shifts ", "shifts"),
    ("material", "isotope"): ("HE4", "he4"),
    ("material", "barrier_height_ev"): ("1.1", 1.1),
    ("material", "surface_tension"): ("3.5e-4", 3.5e-4),
    ("material", "mass_density"): ("145.0", 145.0),
    ("material", "binding_rydberg_mev"): ("0.6", 0.6),
    ("fields", "e_perp_v_cm"): ("12.5", 12.5),
    ("fields", "b_z"): ("0.7", 0.7),
    ("fields", "b_y"): ("0.15", 0.15),
    ("fields", "temperature"): ("0.25", 0.25),
    ("basis", "n_max"): ("5", 5),
    ("basis", "l_max"): ("30", 30),
    ("grid", "z_max"): ("120.0", 120.0),
    ("grid", "n_points"): ("3000", 3000),
    ("sweep", "axis"): ("b_y", "b_y"),
    ("sweep", "start"): ("0.1", 0.1),
    ("sweep", "stop"): ("0.9", 0.9),
    ("sweep", "steps"): ("11", 11),
    ("sweep", "b_y_values"): ("0.0, 0.1", (0.0, 0.1)),
    ("sweep", "l_values"): ("2, 3", (2, 3)),
    ("map", "sweep_axis"): ("b_z", "b_z"),
    ("map", "sweep_start"): ("0.2", 0.2),
    ("map", "sweep_stop"): ("1.2", 1.2),
    ("map", "sweep_steps"): ("5", 5),
    ("map", "e_perp_start_v_cm"): ("3.0", 3.0),
    ("map", "e_perp_stop_v_cm"): ("40.0", 40.0),
    ("map", "e_perp_steps"): ("7", 7),
    ("map", "mw_frequency_ghz"): ("120.0", 120.0),
    ("map", "band_ghz"): ("20.0", 20.0),
    ("map", "l_cut"): ("12", 12),
    ("broadening", "base_width_ghz"): ("0.3", 0.3),
    ("broadening", "kappa_ghz_cm_per_v"): ("0.5", 0.5),
    ("broadening", "areal_density_cm2"): ("2e7", 2e7),
    ("broadening", "fluct_field_coefficient"): ("5e-6", 5e-6),
    ("broadening", "include_thermal"): ("off", False),
    ("rates", "pair"): ("3, 1", (3, 1)),
    ("rates", "nu_0"): ("2e6", 2e6),
    ("rates", "include_occupation"): ("yes", True),
    ("crossings", "pairs"): ("2,1; 3,1", ((2, 1), (3, 1))),
    ("crossings", "b_z_min"): ("0.1", 0.1),
    ("crossings", "b_z_max"): ("4.0", 4.0),
    ("output", "out_dir"): ("results", "results"),
    ("output", "prefix"): ("figx", "figx"),
}


def _write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_every_key_sets_its_field(tmp_path):
    assert {(section, key) for section, key, _, _ in _KEYS} == set(EVERY_KEY)
    attrs = [attr for _, _, attr, _ in _KEYS]
    assert sorted(attrs) == sorted(f.name for f in fields(RunConfig))

    sections: dict[str, list[str]] = {}
    for (section, key), (raw, _) in EVERY_KEY.items():
        sections.setdefault(section, []).append(f"{key} = {raw}")
    cfg = load_run_config(_write(tmp_path, "".join(
        f"[{section}]\n" + "\n".join(lines) + "\n"
        for section, lines in sections.items())))

    default = RunConfig()
    for section, key, attr, _ in _KEYS:
        want = EVERY_KEY[(section, key)][1]
        assert want != getattr(default, attr), attr
        assert getattr(cfg, attr) == want, attr


@pytest.mark.parametrize("b_y_values, pairs", [
    ("0.0, 0.1", "2,1;3,1"),
    ("0.0 ; 0.1", "2,1 ; 3,1"),
])
def test_list_separators_load_every_value(tmp_path, b_y_values, pairs):
    cfg = load_run_config(_write(tmp_path, f"""
[fields]
b_z = 0.5  # tesla
[sweep]
b_y_values = {b_y_values}
[crossings]
pairs = {pairs}
"""))
    assert cfg.b_z == 0.5
    assert cfg.b_y_values == (0.0, 0.1)
    assert cfg.crossing_pairs == ((2, 1), (3, 1))


@pytest.mark.parametrize("text, message", [
    ("[field]\nb_z = 1.0\n", "unknown section [field]"),
    ("[fields]\nb_z = one\n",
     "bad value for fields.b_z: could not convert string to float: 'one'"),
    ("[broadening]\ninclude_thermal = maybe\n",
     "bad value for broadening.include_thermal: not a boolean: 'maybe'"),
])
def test_bad_config_names_section_and_key(tmp_path, text, message):
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError) as info:
        load_run_config(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("text, fragment", [
    (b"[fields]\nb_z = 1.0\nb_z = 2.0\n",
     "option 'b_z' in section 'fields' already exists"),
    (b"b_z = 1.0\n", "File contains no section headers"),
    (b"[DEFAULT]\nb_z = 1.0\n[fields]\ne_perp_v_cm = 15.0\n",
     "unknown section [DEFAULT]"),
    (b"[fields]\nb_z = 1.0\xff\n", "can't decode byte 0xff"),
], ids=["duplicate-key", "no-section-header", "default-section", "not-utf8"])
def test_malformed_file_is_config_error(tmp_path, capsys, text, fragment):
    path = tmp_path / "run.cfg"
    path.write_bytes(text)
    path = str(path)
    with pytest.raises(ConfigError) as info:
        load_run_config(path)
    assert str(info.value).startswith(f"{path}: ")
    assert fragment in str(info.value)
    assert cli.main(["validate", "--config", path]) == 2
    assert fragment in capsys.readouterr().err


def test_values_are_literal(tmp_path):
    cfg = load_run_config(_write(tmp_path, """
[output]
prefix = run%1
out_dir = %(prefix)s
"""))
    assert cfg.prefix == "run%1"
    assert cfg.out_dir == "%(prefix)s"


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", [
    ("fields", "temperature"),
    ("fields", "b_z"),
    ("map", "mw_frequency_ghz"),
    ("rates", "nu_0"),
])
def test_non_finite_float_is_config_error(tmp_path, capsys, section, key,
                                          raw):
    # float() takes these, and every "x <= 0.0" check after it passes nan
    path = _write(tmp_path,
                  f"[run]\ntask = rates\n[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError) as info:
        load_run_config(path)
    assert str(info.value) == (f"{path}: bad value for {section}.{key}: "
                               f"not a finite number: '{raw}'")
    assert cli.main(["validate", "--config", path]) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


def test_non_finite_list_value_is_config_error(tmp_path):
    path = _write(tmp_path, "[sweep]\nb_y_values = 0.0, nan\n")
    with pytest.raises(ConfigError, match="sweep.b_y_values: not a finite"):
        load_run_config(path)
