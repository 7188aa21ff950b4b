"""Binary matrix container and flat job configuration parsing.

Matrix container layout, all little-endian:

    bytes 0..3    magic b"CAPM"
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..15   rows, u64
    bytes 16..23  cols, u64
    bytes 24..    rows * cols float64 payload, row-major

Writing then reading reproduces the payload bit for bit.

Job configuration files are flat ``key = value`` lines; ``#`` starts a
comment, blank lines are skipped, unknown keys are rejected. Parsing builds
the ``RpcaConfig`` and ``PolicyGradientConfig`` directly, so each value is
range-checked once, by the object that consumes it.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocator import PolicyGradientConfig
from .linalg import as_matrix
from .rpca import RpcaConfig

MAGIC = b"CAPM"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")


class MatrixFormatError(Exception):
    """The bytes do not form a valid matrix container."""


class ConfigError(Exception):
    """The job configuration text is malformed."""


def write_matrix(path, a) -> None:
    m = as_matrix(a)
    payload = np.ascontiguousarray(m, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, m.shape[0], m.shape[1]))
        fh.write(payload)


def read_matrix(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise MatrixFormatError(f"{path}: truncated header")
    magic, version, rows, cols = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MatrixFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise MatrixFormatError(f"{path}: unsupported version {version}")
    expected = _HEADER.size + rows * cols * 8
    if len(data) != expected:
        raise MatrixFormatError(
            f"{path}: payload length {len(data) - _HEADER.size} does not match "
            f"{rows}x{cols} float64"
        )
    m = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)
    if not np.all(np.isfinite(m)):
        raise MatrixFormatError(f"{path}: non-finite entries")
    return np.ascontiguousarray(m, dtype=np.float64)


def format_matrix_text(a) -> str:
    """Full-precision decimal dump, one tab-separated row per line."""
    m = as_matrix(a)
    lines = [f"# {m.shape[0]} x {m.shape[1]}"]
    for row in m:
        lines.append("\t".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


CONFIG_DEFAULTS: dict[str, str] = {
    "model.seed": "0",
    "model.shapes": "32x24,24x24,24x16",
    "calib.n": "128",
    "calib.noise": "0",
    "rpca.lambda": "auto",
    "rpca.tol": "1e-7",
    "rpca.max_iters": "500",
    "pg.lr": "0.05",
    "pg.beta": "0.9",
    "pg.iterations": "3",
    "pg.window": "5",
    "pg.seed": "0",
    "budget.fraction": "0.5",
    "mode": "global",
}


@dataclass(frozen=True)
class JobConfig:
    """A parsed job: the synthetic-model recipe, the budget and mode, and the
    solver configurations, each already range-checked by its own class."""

    model_seed: int
    shapes: list[tuple[int, int]]
    calib_n: int
    calib_noise: float
    rpca: RpcaConfig
    pg: PolicyGradientConfig
    budget_fraction: float
    mode: str


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    shapes = []
    for token in text.split(","):
        token = token.strip()
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"bad shape {token!r}, expected ROWSxCOLS")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"bad shape {token!r}: {exc}") from exc
        if m < 1 or n < 1:
            raise ConfigError(f"shape dimensions must be positive, got {token!r}")
        shapes.append((m, n))
    if not shapes:
        raise ConfigError("model.shapes must name at least one layer")
    return shapes


def _typed(raw: dict[str, str], key: str, kind):
    try:
        return kind(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw[key]!r}") from exc


@contextmanager
def _section(name: str):
    """Range errors of the configuration built inside surface as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_job_config(text: str) -> JobConfig:
    """Parse configuration text over the documented defaults.

    ``RpcaConfig`` and ``PolicyGradientConfig`` range-check their own keys;
    the recipe, budget and mode keys are checked here.
    """
    raw = dict(CONFIG_DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value

    mode = raw["mode"]
    if mode not in ("global", "sequential"):
        raise ConfigError(f"mode: expected global or sequential, got {mode!r}")
    fraction = _typed(raw, "budget.fraction", float)
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"budget.fraction: must lie in (0, 1], got {fraction}")
    noise = _typed(raw, "calib.noise", float)
    if not (math.isfinite(noise) and noise >= 0):
        raise ConfigError(f"calib.noise: must be non-negative and finite, got {noise}")
    calib_n = _typed(raw, "calib.n", int)
    if calib_n < 1:
        raise ConfigError(f"calib.n: must be positive, got {calib_n}")
    model_seed = _typed(raw, "model.seed", int)
    if model_seed < 0:
        raise ConfigError(f"model.seed: must be non-negative, got {model_seed}")

    with _section("rpca"):
        rpca = RpcaConfig(
            lam=None if raw["rpca.lambda"] == "auto" else _typed(raw, "rpca.lambda", float),
            tol=_typed(raw, "rpca.tol", float),
            max_iters=_typed(raw, "rpca.max_iters", int),
        )
    with _section("pg"):
        pg = PolicyGradientConfig(
            learning_rate=_typed(raw, "pg.lr", float),
            baseline_beta=_typed(raw, "pg.beta", float),
            iterations=_typed(raw, "pg.iterations", int),
            window=_typed(raw, "pg.window", int),
            seed=_typed(raw, "pg.seed", int),
        )
    return JobConfig(
        model_seed=model_seed,
        shapes=_parse_shapes(raw["model.shapes"]),
        calib_n=calib_n,
        calib_noise=noise,
        rpca=rpca,
        pg=pg,
        budget_fraction=fraction,
        mode=mode,
    )


def load_job_config(path) -> JobConfig:
    return parse_job_config(Path(path).read_text())
