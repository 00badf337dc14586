"""Flat key=value run configuration: explicit types, strict keys, stable hash."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

from .errors import ConfigError

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text.strip())
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


def _parse_str(text: str) -> str:
    return text.strip()


def _tuple_of(parse):
    """A parser of comma-separated `parse` items; blank text is the empty tuple."""
    return lambda text: tuple(map(parse, text.split(","))) if text.strip() else ()


# each RunConfig field is parsed by its annotation (a string, as annotations
# are not evaluated here)
_PARSE_BY_TYPE = {
    "str": _parse_str,
    "int": _parse_int,
    "bool": _parse_bool,
    "float": _parse_float,
    "tuple[float, ...]": _tuple_of(_parse_float),
    "tuple[int, ...]": _tuple_of(_parse_int),
    "tuple[str, ...]": _tuple_of(_parse_str),
}

_KINDS = ("families", "encounters")


@dataclass
class RunConfig:
    """Every knob the pipeline reads; field names double as config keys."""

    input: str = ""
    output_dir: str = "out"
    num_samples: int = 101
    normalize: bool = False
    method: str = "mds"
    k: int = 3
    beta: int = 2
    seed: int = 0
    max_iter: int = 300
    n_init: int = 8
    anchor: int = 0
    r: float = 2.0
    epsilons: tuple[float, ...] = ()
    axis1: str = "k"
    axis1_values: tuple[float, ...] = (2.0, 3.0, 4.0)
    axis2: str = "beta"
    axis2_values: tuple[float, ...] = (2.0, 3.0)
    kind: str = "families"
    families: tuple[str, ...] = ("parallel", "opposing", "crossing")
    per_family: int = 50
    noise: float = 0.01
    count: int = 8
    knots: tuple[int, ...] = (40, 80)
    box: float = 2.0

    def set(self, key: str, text: str) -> None:
        """Assign one key from its text form; unknown keys are rejected."""
        types = {f.name: f.type for f in fields(self)}
        if key not in types:
            raise ConfigError(f"unknown config key {key!r}")
        setattr(self, key, _PARSE_BY_TYPE[types[key]](text))

    def validate(self) -> None:
        from .clustering import METHODS

        if self.method not in METHODS:
            raise ConfigError(
                f"method must be one of {', '.join(METHODS)}, got {self.method!r}"
            )
        if self.kind not in _KINDS:
            raise ConfigError(f"kind must be one of {', '.join(_KINDS)}")
        if self.num_samples < 2:
            raise ConfigError("num_samples must be at least 2")
        if self.r < 1.0:
            raise ConfigError("r must be at least 1")

    def render(self) -> str:
        """Canonical text form: one sorted key=value line per parameter.

        Paths (input, output_dir) are locations that cannot change a result,
        so they are left out and the hash identifies the computation, not
        where it ran.
        """
        lines = []
        for field in sorted(f.name for f in fields(self)):
            if field in ("input", "output_dir"):
                continue
            value = getattr(self, field)
            if isinstance(value, tuple):
                text = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{field}={text}")
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.render().encode()).hexdigest()


def load_config(path) -> RunConfig:
    """Read `key = value` lines; '#' comments and blank lines are skipped."""
    config = RunConfig()
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                try:
                    config.set(key.strip(), value)
                except ConfigError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config
