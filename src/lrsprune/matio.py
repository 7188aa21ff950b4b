"""Binary matrix container and flat job configuration parsing.

Matrix container layout, all little-endian:

    bytes 0..3    magic b"CAPM"
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..15   rows, u64
    bytes 16..23  cols, u64
    bytes 24..    rows * cols float64 payload, row-major

Writing then reading reproduces the payload bit for bit. Readers reject bad magic,
unknown versions, truncated payloads, non-finite values and empty shapes whose
other dimension exceeds 2**20.

Job configuration files are flat ``key = value`` lines; ``#`` starts a
comment, blank lines are skipped, unknown and repeated keys are rejected.
Each key is one row of ``KEYS``; a key left out keeps its field's default
in ``JobConfig()``, the stock job. The config objects built from the
``rpca.*`` and ``pg.*`` values range-check them, and the parser the others;
``CompressionJob`` and ``gen_calibration`` check ``budget.fraction``, ``mode``
and ``calib.n`` again for jobs built without a file.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .allocator import PolicyGradientConfig
from .rpca import RpcaConfig, as_matrix

MAGIC = b"CAPM"
VERSION = 1
_HEADER = struct.Struct("<4sIQQ")
MAX_EMPTY_DIM = 1 << 20  # an empty matrix's other dimension; a payload bounds the rest


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
    if 0 in (rows, cols) and max(rows, cols) > MAX_EMPTY_DIM:
        raise MatrixFormatError(f"{path}: empty {rows}x{cols} has a dimension above {MAX_EMPTY_DIM}")
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


MODES = ("global", "sequential")


@dataclass(frozen=True)
class JobConfig:
    """A job: the synthetic-model recipe, the budget and mode, and the solver
    configurations. The field defaults are the stock job."""

    model_seed: int = 0
    shapes: list[tuple[int, int]] = field(default_factory=lambda: [(32, 24), (24, 24), (24, 16)])
    calib_n: int = 128
    rpca: RpcaConfig = field(default_factory=RpcaConfig)
    pg: PolicyGradientConfig = field(default_factory=PolicyGradientConfig)
    budget_fraction: float = 0.5
    mode: str = "global"


def _parse_shapes(text: str) -> list[tuple[int, int]]:
    shapes = []
    for token in text.split(","):
        token = token.strip()
        parts = token.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(f"model.shapes: bad shape {token!r}, expected ROWSxCOLS")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ConfigError(f"model.shapes: bad shape {token!r}: {exc}") from exc
        if m < 1 or n < 1:
            raise ConfigError(f"model.shapes: dimensions must be positive, got {token!r}")
        shapes.append((m, n))
    return shapes


# config key -> (section: JobConfig's "job" fields or its "rpca" or "pg", field, parser)
KEYS = {
    "model.seed": ("job", "model_seed", int),
    "model.shapes": ("job", "shapes", _parse_shapes),
    "calib.n": ("job", "calib_n", int),
    "rpca.lambda": ("rpca", "lam", lambda v: None if v == "auto" else float(v)),
    "rpca.tol": ("rpca", "tol", float),
    "pg.iterations": ("pg", "iterations", int),
    "pg.seed": ("pg", "seed", int),
    "budget.fraction": ("job", "budget_fraction", float),
    "mode": ("job", "mode", str),
}


@contextmanager
def _section(name: str):
    """Range errors of the configuration built inside surface as ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_job_config(text: str) -> JobConfig:
    """The stock ``JobConfig`` with the keys the text sets, each set once.

    ``RpcaConfig`` and ``PolicyGradientConfig`` range-check their own keys;
    the recipe, budget and mode keys are checked here.
    """
    given = {"job": {}, "rpca": {}, "pg": {}}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        section, name, parse = KEYS[key]
        if name in given[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        try:
            given[section][name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {value!r}") from exc

    with _section("rpca"):
        rpca = RpcaConfig(**given["rpca"])
    with _section("pg"):
        pg = PolicyGradientConfig(**given["pg"])
    config = JobConfig(rpca=rpca, pg=pg, **given["job"])
    if config.mode not in MODES:
        raise ConfigError(f"mode: expected {' or '.join(MODES)}, got {config.mode!r}")
    if not 0.0 < config.budget_fraction <= 1.0:
        raise ConfigError(f"budget.fraction: must lie in (0, 1], got {config.budget_fraction}")
    if config.calib_n < 1:
        raise ConfigError(f"calib.n: must be positive, got {config.calib_n}")
    if config.model_seed < 0:
        raise ConfigError(f"model.seed: must be non-negative, got {config.model_seed}")
    return config
