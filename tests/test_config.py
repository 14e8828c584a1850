"""Run configuration defaults, file loading, and override precedence tests."""
from dataclasses import fields

import pytest
import yaml
from hypothesis import given, strategies as st

from evtraj.config import KEY_MAP, RunConfig, apply_overrides, load_config
from evtraj.io import SensorGeometry

SAMPLE_VALUES = {
    "width": 128,
    "height": 96,
    "entropy_alpha": 1.25,
    "entropy_beta": 5.5,
    "entropy_grid": 4,
    "max_window_s": 0.25,
    "num_slices": 7,
    "max_pairs": 99,
    "parallel_tol": 5e-4,
    "tau": 0.02,
    "min_inliers": 4,
    "n_rep": 2,
}


def test_defaults():
    cfg = RunConfig()
    assert cfg.width == 240 and cfg.height == 180
    assert cfg.entropy_alpha == 2.5 and cfg.entropy_beta == 4.5
    assert cfg.num_slices == 10
    assert cfg.tau == 1.5  # px
    assert cfg.n_rep == 5
    assert cfg.geometry == SensorGeometry(240, 180)


def test_key_map_covers_every_field():
    assert set(KEY_MAP.values()) == {f.name for f in fields(RunConfig)}
    assert set(SAMPLE_VALUES) == {f.name for f in fields(RunConfig)}


def test_apply_overrides_accepts_dotted_and_plain_keys():
    cfg = apply_overrides(RunConfig(), {"fit.tau": 0.05, "num_slices": 6})
    assert cfg.tau == 0.05
    assert cfg.num_slices == 6


def test_apply_overrides_coerces_strings():
    cfg = apply_overrides(RunConfig(), {"hypo.num_slices": "12", "fit.tau": "0.03"})
    assert cfg.num_slices == 12 and isinstance(cfg.num_slices, int)
    assert cfg.tau == 0.03 and isinstance(cfg.tau, float)


@pytest.mark.parametrize("key, value", [
    ("hypo.num_slices", 10.9),
    ("hypo.num_slices", True),
    ("entropy.grid", True),
    ("geometry.width", 64.5),
    ("fit.min_inliers", float("inf")),
    ("fit.tau", True),
    ("entropy.alpha", False),
    ("fit.tau", [0.1]),
    ("fit.tau", "abc"),
    ("hypo.num_slices", "1.5"),
])
def test_apply_overrides_rejects_values_it_would_round(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        apply_overrides(RunConfig(), {key: value})


def test_apply_overrides_keeps_integral_numbers():
    cfg = apply_overrides(RunConfig(), {"hypo.num_slices": 12.0, "fit.tau": 1})
    assert cfg.num_slices == 12 and isinstance(cfg.num_slices, int)
    assert cfg.tau == 1.0 and isinstance(cfg.tau, float)


def test_apply_overrides_ignores_none_values():
    assert apply_overrides(RunConfig(), {"fit.tau": None}) == RunConfig()


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown config key"):
        apply_overrides(RunConfig(), {"fit.gamma": 1.0})


def test_load_config_reads_yaml(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"fit.tau": 0.05, "entropy.alpha": 1.0}))
    cfg = load_config(str(path))
    assert cfg.tau == 0.05
    assert cfg.entropy_alpha == 1.0
    assert cfg.num_slices == RunConfig().num_slices


def test_load_config_empty_file(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_config(str(path)) == RunConfig()


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ValueError):
        load_config(str(path))


@given(st.sets(st.sampled_from(sorted(KEY_MAP)), min_size=0, max_size=6))
def test_flag_beats_file_beats_default(tmp_path_factory, file_keys):
    # the file sets some keys; overrides re-set a subset shifted once
    file_doc = {k: SAMPLE_VALUES[KEY_MAP[k]] for k in file_keys}
    cfg = apply_overrides(apply_overrides(RunConfig(), file_doc), {})
    default = RunConfig()
    for dotted, name in KEY_MAP.items():
        expected = SAMPLE_VALUES[name] if dotted in file_keys else getattr(default, name)
        assert getattr(cfg, name) == expected


def test_flag_overrides_file(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"fit.tau": 0.05, "hypo.num_slices": 9}))
    cfg = apply_overrides(load_config(str(path)), {"fit.tau": 0.08})
    assert cfg.tau == 0.08       # flag wins
    assert cfg.num_slices == 9   # file survives where no flag is given


@pytest.mark.parametrize(
    "bad",
    [
        {"width": 0},
        {"entropy_alpha": -1.0},
        {"entropy_alpha": 5.0, "entropy_beta": 4.0},
        {"entropy_grid": 0},
        {"max_window_s": 0.0},
        {"height": 0},
        {"num_slices": 1},
        {"max_pairs": 0},
        {"parallel_tol": 0.0},
        {"tau": 0.0},
        {"min_inliers": 0},
        {"n_rep": 0},
        {"width": 4, "height": 4},  # narrower and shorter than the default grid of 8
        {"width": 7},
        {"height": 16, "entropy_grid": 17},
        {"entropy_alpha": float("nan")},
        {"entropy_beta": float("nan")},
        {"max_window_s": -0.1},
    ],
)
def test_validation_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        RunConfig(**bad)


@pytest.mark.parametrize("key", ["fit.tau", "entropy.max_window_s", "hypo.parallel_tol"])
def test_load_config_rejects_nan(tmp_path, key):
    # NaN fails every comparison, so a check written ``x <= 0`` lets it through
    path = tmp_path / "run.yaml"
    path.write_text(f"{key}: .nan\n")
    with pytest.raises(ValueError):
        load_config(str(path))
