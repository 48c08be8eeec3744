"""Pipeline configuration: defaults, config-file parsing, CLI overrides."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .signals import QuasivocError


class ConfigError(QuasivocError):
    """Raised for unknown keys or out-of-range values."""


@dataclass
class PipelineConfig:
    frame_shift: float = 0.005
    half_window: float = 0.010
    window_kind: str = "hann"
    gauss_sigma: float = 0.0
    max_components: int = 0          # 0 means no cap
    order_p: int = 128
    order_q: int = 128
    order_r: int = 8
    fit_max_steps: int = 500
    f0_min: float = 50.0
    f0_max: float = 500.0
    refine_iters: int = 0            # 0 means no refinement
    output_format: str = "float32"   # float32 | pcm16

    def validate(self):
        if not all(math.isfinite(v) for v in vars(self).values() if isinstance(v, float)):
            raise ConfigError("numeric values must be finite")
        if self.frame_shift <= 0 or self.half_window <= 0:
            raise ConfigError("frame_shift and half_window must be positive")
        if self.order_r <= 0 or self.order_p % self.order_r or self.order_q % self.order_r:
            raise ConfigError("order_r must divide order_p and order_q")
        if not 0 < self.f0_min < self.f0_max:
            raise ConfigError("f0 range must satisfy 0 < min < max")
        if self.max_components < 0:
            raise ConfigError("max_components must be at least 0 (0 means no cap)")
        if self.fit_max_steps < 1:
            raise ConfigError("fit_max_steps must be at least 1")
        if self.refine_iters < 0:
            raise ConfigError("refine_iters must be at least 0 (0 means no refinement)")
        if self.window_kind not in ("hann", "hamming", "gauss"):
            raise ConfigError(f"unknown window kind: {self.window_kind}")
        if self.output_format not in ("float32", "pcm16"):
            raise ConfigError(f"unknown output format: {self.output_format}")
        return self

    @property
    def orders(self) -> tuple[int, int, int]:
        return (self.order_p, self.order_q, self.order_r)

    @property
    def f0_range(self) -> tuple[float, float]:
        return (self.f0_min, self.f0_max)

    @property
    def component_cap(self):
        return self.max_components if self.max_components > 0 else None


def load_config(path) -> PipelineConfig:
    """Parse 'key = value' lines into a PipelineConfig; unknown keys reject."""
    defaults = vars(PipelineConfig())
    kwargs = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in defaults:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                kwargs[key] = type(defaults[key])(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
    return PipelineConfig(**kwargs).validate()


