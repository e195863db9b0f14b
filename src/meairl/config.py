"""Experiment configuration: a small sectioned key=value file format.

Three sections. [env] describes the environment, [train] maps one-to-one
onto TrainingConfig fields, [run] holds everything around a run (seeds,
demo path, output directory, expert generation knobs). Unknown sections
or keys are rejected with the offending line number, and [env] keys the
named environment does not read by name; serialization is canonical so
parse(serialize(c)) == c and a resolved copy of the config can be
dropped next to every run's outputs.

    [env]
    name = gridworld
    width = 5
    slip_prob = 0.3

    [train]
    total_steps = 50000
    algorithm = meairl

    [run]
    seeds = 0,1,2
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .mdp import TabularEnv, make_gridworld, make_noisy_pointmass
from .training import TrainingConfig

# The [env] keys that each environment reads in `build_env`.
ENV_KEYS = {"gridworld": ("name", "width", "height", "slip_prob", "goal_reward", "discount",
                          "horizon"),
            "pointmass": ("name", "noise_std")}
ENV_NAMES = tuple(ENV_KEYS)


class ConfigError(ValueError):
    """Malformed config text; message carries the line number when known."""


@dataclass
class EnvSpec:
    name: str = "gridworld"
    width: int = 5
    height: int = 5
    slip_prob: float = 0.3
    goal_reward: float = 5.0
    discount: float = 0.95
    horizon: int = 40
    noise_std: float = 0.5

    def __post_init__(self):
        if self.name not in ENV_NAMES:
            raise ConfigError(f"env name must be one of {ENV_NAMES}, got {self.name!r}")
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"width and height must be >= 1, got {self.width}x{self.height}")
        if not 0.0 <= self.slip_prob < 1.0:
            raise ConfigError(f"slip_prob must lie in [0, 1), got {self.slip_prob}")
        if not 0.0 < self.discount < 1.0:
            raise ConfigError(f"discount must lie in (0, 1), got {self.discount}")
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if not math.isfinite(self.goal_reward):
            raise ConfigError(f"goal_reward must be finite, got {self.goal_reward}")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")


@dataclass
class RunSpec:
    seeds: tuple = (0, 1, 2)
    out_dir: str = ""
    demo_path: str = ""
    label: str = ""
    expert_episodes: int = 200
    expert_seed: int = 12345
    expert_threshold: float = float("nan")  # continuous expert gate; nan = unset
    expert_max_steps: int = 100_000

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigError("run.seeds must name at least one seed")
        if min(self.seeds) < 0 or self.expert_seed < 0:
            raise ConfigError(f"seeds and expert_seed must be >= 0, got "
                              f"{self.seeds} and {self.expert_seed}")
        for name in ("expert_episodes", "expert_max_steps"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")


@dataclass
class ExperimentConfig:
    env: EnvSpec = field(default_factory=EnvSpec)
    train: TrainingConfig = field(default_factory=TrainingConfig)
    run: RunSpec = field(default_factory=RunSpec)


_SECTION_TYPES = {"env": EnvSpec, "train": TrainingConfig, "run": RunSpec}
_SECTION_ORDER = ("env", "train", "run")


def _field_defaults(cls) -> dict:
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        else:
            out[f.name] = f.default_factory()
    return out


def _parse_value(raw: str, default, key: str, lineno: int):
    kind = type(default)
    try:
        if kind is bool:
            low = raw.lower()
            if low not in ("true", "false"):
                raise ValueError("expected true or false")
            return low == "true"
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            if raw.strip() == "":
                return ()
            return tuple(int(part.strip()) for part in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r} ({exc})") \
            from exc


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_config_text(text: str) -> ExperimentConfig:
    sections = {name: {} for name in _SECTION_ORDER}
    defaults = {name: _field_defaults(cls) for name, cls in _SECTION_TYPES.items()}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SECTION_TYPES:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {stripped!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in defaults[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = _parse_value(raw, defaults[current][key], key, lineno)
    env_name = sections["env"].get("name", defaults["env"]["name"])
    read = ENV_KEYS.get(env_name, sections["env"])  # EnvSpec refuses an unknown name
    unread = [key for key in sections["env"] if key not in read]
    if unread:
        raise ConfigError(f"key {unread[0]!r} in [env] is not read by {env_name}")
    try:
        return ExperimentConfig(env=EnvSpec(**sections["env"]),
                                train=TrainingConfig(**sections["train"]),
                                run=RunSpec(**sections["run"]))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return parse_config_text(text)


def serialize_config(config: ExperimentConfig) -> str:
    lines = []
    for name in _SECTION_ORDER:
        lines.append(f"[{name}]")
        section = getattr(config, name)
        for f in dataclasses.fields(section):
            if name != "env" or f.name in ENV_KEYS[section.name]:
                lines.append(f"{f.name} = {_render_value(getattr(section, f.name))}")
        lines.append("")
    return "\n".join(lines)


def save_config(path, config: ExperimentConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))


def build_env(spec: EnvSpec):
    if spec.name == "gridworld":
        mdp = make_gridworld(spec.width, spec.height, spec.slip_prob,
                             spec.goal_reward, spec.discount)
        return TabularEnv(mdp=mdp, episode_horizon=spec.horizon,
                          name=f"gridworld{spec.width}x{spec.height}")
    return make_noisy_pointmass(noise_std=spec.noise_std)
