"""Configuration defaults, validation, and file parsing."""
import pytest

from quasivoc.config import ConfigError, PipelineConfig, load_config


def test_defaults_validate():
    cfg = PipelineConfig().validate()
    assert cfg.frame_shift == 0.005
    assert cfg.orders == (128, 128, 8)
    assert cfg.component_cap is None


def test_component_cap():
    assert PipelineConfig(max_components=12).component_cap == 12


@pytest.mark.parametrize("kwargs", [
    {"max_components": -5},
    {"frame_shift": -0.001},
    {"order_p": 10, "order_r": 3},
    {"f0_min": 600.0, "f0_max": 500.0},
    {"window_kind": "kaiser"},
    {"output_format": "flac"},
    {"fit_max_steps": 0},
    {"order_r": 0},
    {"refine_iters": -1},
    {"f0_min": 0.0},
    {"half_window": 0.0},
    {"f0_max": float("inf")},
])
def test_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        PipelineConfig(**kwargs).validate()


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# analysis setup\n"
        "frame_shift = 0.01\n"
        "order_p = 16\norder_q = 16\norder_r = 2\n"
        "window_kind = hamming  # inline comment\n")
    cfg = load_config(path)
    assert cfg.frame_shift == 0.01
    assert cfg.orders == (16, 16, 2)
    assert cfg.window_kind == "hamming"
    # untouched keys keep defaults
    assert cfg.half_window == 0.010


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("frame_hop = 0.01\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_threads(tmp_path):
    """threads was removed; an old config file that sets it is rejected like
    any unknown key."""
    path = tmp_path / "cfg.txt"
    path.write_text("frame_shift = 0.01\nthreads = 4\n")
    with pytest.raises(ConfigError, match=r"cfg.txt:2: unknown key 'threads'"):
        load_config(path)


def test_load_config_rejects_voicing_threshold(tmp_path):
    """The voicing threshold is the constant qhm.VOICING_THRESHOLD; a config
    file that sets the removed key is rejected like any unknown key."""
    path = tmp_path / "cfg.txt"
    path.write_text("voicing_threshold = 0.3\n")
    with pytest.raises(ConfigError, match=r"cfg.txt:1: unknown key 'voicing_threshold'"):
        load_config(path)


def test_load_config_rejects_refine_mode(tmp_path):
    """Refinement runs when refine_iters is at least 1; a config file that
    sets the removed refine_mode key is rejected like any unknown key."""
    path = tmp_path / "cfg.txt"
    path.write_text("refine_mode = aqhm\n")
    with pytest.raises(ConfigError, match=r"cfg.txt:1: unknown key 'refine_mode'"):
        load_config(path)


def test_load_config_rejects_phase_weight(tmp_path):
    """The fit's phase weight is the constant arma.PHASE_WEIGHT; a config
    file that sets the removed key is rejected like any unknown key."""
    path = tmp_path / "cfg.txt"
    path.write_text("phase_weight = 0.1\n")
    with pytest.raises(ConfigError, match=r"cfg.txt:1: unknown key 'phase_weight'"):
        load_config(path)


@pytest.mark.parametrize("line", ["frame_shift = abc", "order_p = 1.5",
                                  "max_components = "])
def test_load_config_rejects_bad_value(tmp_path, line):
    path = tmp_path / "cfg.txt"
    path.write_text(f"# header\n{line}\n")
    with pytest.raises(ConfigError, match=r"cfg.txt:2: bad value"):
        load_config(path)


def test_load_config_rejects_bad_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("frame_shift 0.01\n")
    with pytest.raises(ConfigError):
        load_config(path)
