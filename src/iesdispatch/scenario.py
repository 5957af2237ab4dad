"""Day-ahead scenario data: 24-step load and wind profiles for 3 communities.

The on-disk format is a UTF-8 CSV with header
``community,step,p_load_kw,h_load_kw,w_load_m3h,p_wind_kw`` and exactly 72
data rows (3 communities x 24 steps, dot decimal).  A deterministic
synthetic generator ships with the package because no public dataset
exists for this system; its default profile gives the three communities
complementary day/night shapes so that coordination has something to
exploit.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_COMMUNITIES = 3
N_STEPS = 24
SCENARIO_COLUMNS = ("community", "step", "p_load_kw", "h_load_kw", "w_load_m3h", "p_wind_kw")
PROFILES = ("complementary-winter", "uniform")


class ScenarioFormatError(ValueError):
    """A scenario file does not match the published schema."""


@dataclass(frozen=True)
class ScenarioData:
    """Per community and step: electric load, heat load, water load, wind."""

    p_load: np.ndarray  # (3, 24) kW
    h_load: np.ndarray  # (3, 24) kW
    w_load: np.ndarray  # (3, 24) m3/h
    p_wind: np.ndarray  # (3, 24) kW available wind

    def __post_init__(self) -> None:
        for name in ("p_load", "h_load", "w_load", "p_wind"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != (N_COMMUNITIES, N_STEPS):
                raise ScenarioFormatError(
                    f"{name} must have shape {(N_COMMUNITIES, N_STEPS)}, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ScenarioFormatError(f"{name} contains non-finite values")
            if np.any(arr < 0.0):
                raise ScenarioFormatError(f"{name} contains negative values")

    def column(self, name: str) -> np.ndarray:
        return {"p_load_kw": self.p_load, "h_load_kw": self.h_load,
                "w_load_m3h": self.w_load, "p_wind_kw": self.p_wind}[name]


def load_scenario(path: str | Path) -> ScenarioData:
    """Read and validate a scenario CSV.

    Errors carry the 1-based file row and the column name of the offending
    cell where applicable.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except csv.Error as exc:  # a cell over the csv module's field size limit, say
            raise ScenarioFormatError(f"{path}: row {reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ScenarioFormatError(f"{path}: not valid UTF-8: {exc}") from None
    if not rows:
        raise ScenarioFormatError(f"{path}: empty file")
    header = rows[0]
    if tuple(h.strip() for h in header) != SCENARIO_COLUMNS:
        raise ScenarioFormatError(
            f"{path}: header must be {','.join(SCENARIO_COLUMNS)}, got {','.join(header)}"
        )
    arrays = {name: np.full((N_COMMUNITIES, N_STEPS), np.nan) for name in SCENARIO_COLUMNS[2:]}
    n_rows = 0
    for row_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        n_rows += 1
        if len(row) != len(SCENARIO_COLUMNS):
            raise ScenarioFormatError(
                f"{path}: row {row_no}: expected {len(SCENARIO_COLUMNS)} columns, got {len(row)}"
            )
        try:
            community = int(row[0])
            step = int(row[1])
        except ValueError as exc:
            raise ScenarioFormatError(f"{path}: row {row_no}: bad community/step: {exc}") from None
        if not 1 <= community <= N_COMMUNITIES:
            raise ScenarioFormatError(f"{path}: row {row_no}: community must be 1..3, got {community}")
        if not 0 <= step < N_STEPS:
            raise ScenarioFormatError(f"{path}: row {row_no}: step must be 0..23, got {step}")
        for col, text in zip(SCENARIO_COLUMNS[2:], row[2:]):
            try:
                value = float(text)
            except ValueError:
                raise ScenarioFormatError(
                    f"{path}: row {row_no}, column {col}: not a number: {text!r}"
                ) from None
            if value < 0.0 or not np.isfinite(value):
                raise ScenarioFormatError(
                    f"{path}: row {row_no}, column {col}: value must be nonnegative, got {text}"
                )
            if not np.isnan(arrays[col][community - 1, step]):
                raise ScenarioFormatError(
                    f"{path}: row {row_no}: duplicate entry for community {community}, step {step}"
                )
            arrays[col][community - 1, step] = value
    expected = N_COMMUNITIES * N_STEPS
    if n_rows != expected:
        raise ScenarioFormatError(f"{path}: expected {expected} data rows, got {n_rows}")
    return ScenarioData(
        p_load=arrays["p_load_kw"],
        h_load=arrays["h_load_kw"],
        w_load=arrays["w_load_m3h"],
        p_wind=arrays["p_wind_kw"],
    )


def save_scenario(scenario: ScenarioData, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCENARIO_COLUMNS)
        for c in range(N_COMMUNITIES):
            for t in range(N_STEPS):
                writer.writerow(
                    [
                        c + 1,
                        t,
                        repr(float(scenario.p_load[c, t])),
                        repr(float(scenario.h_load[c, t])),
                        repr(float(scenario.w_load[c, t])),
                        repr(float(scenario.p_wind[c, t])),
                    ]
                )


def scenario_hash(scenario: ScenarioData) -> str:
    digest = hashlib.sha256()
    for arr in (scenario.p_load, scenario.h_load, scenario.w_load, scenario.p_wind):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of the synthetic generator.

    ``amplitude`` scales every profile (zero gives an all-zero scenario)
    and ``noise_std`` applies seeded multiplicative jitter, fractional per
    cell.  The same spec always produces the same bytes on disk.
    """

    profile: str = "complementary-winter"
    amplitude: float = 1.0
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        if self.amplitude < 0.0:
            raise ValueError(f"amplitude must be nonnegative, got {self.amplitude}")
        if self.noise_std < 0.0:
            raise ValueError(f"noise_std must be nonnegative, got {self.noise_std}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def _blocks(segments: list[tuple[int, int, float]]) -> np.ndarray:
    out = np.zeros(N_STEPS)
    for start, stop, value in segments:
        out[start:stop] = value
    return out


# Night hours are 22..23 and 0..5; the commercial community idles at night
# with strong wind while industry stays heavily loaded around the clock, so
# shifting the surplus between them is what coordination can win.  Daytime
# loads sit above the CHP ceiling everywhere, which keeps the cogeneration
# unit at the margin while wind is plentiful.
def _complementary_winter() -> dict[str, np.ndarray]:
    industrial_p = _blocks([(0, 24, 7200.0), (8, 18, 7400.0)])
    industrial_h = _blocks([(0, 24, 2000.0)])
    industrial_w = _blocks([(0, 24, 150.0)])
    industrial_wind = _blocks([(0, 24, 1200.0), (8, 18, 2000.0)])

    commercial_p = _blocks([(0, 6, 1600.0), (6, 8, 5800.0), (8, 18, 6300.0), (18, 22, 5800.0), (22, 24, 1600.0)])
    commercial_h = _blocks([(0, 6, 800.0), (6, 8, 1200.0), (8, 18, 1600.0), (18, 22, 1200.0), (22, 24, 800.0)])
    commercial_w = _blocks([(0, 6, 60.0), (6, 8, 80.0), (8, 18, 100.0), (18, 22, 80.0), (22, 24, 60.0)])
    commercial_wind = _blocks([(0, 6, 1550.0), (6, 8, 600.0), (8, 18, 300.0), (18, 22, 600.0), (22, 24, 1550.0)])

    residential_p = _blocks([(0, 6, 1500.0), (6, 8, 5800.0), (8, 17, 5800.0), (17, 22, 6400.0), (22, 24, 1500.0)])
    residential_h = _blocks([(0, 6, 1800.0), (6, 9, 3000.0), (9, 17, 1500.0), (17, 22, 4200.0), (22, 24, 1800.0)])
    residential_w = _blocks([(0, 6, 50.0), (6, 22, 80.0), (22, 24, 50.0)])
    residential_wind = _blocks([(0, 6, 400.0), (6, 22, 600.0), (22, 24, 400.0)])

    return {
        "p_load": np.stack([industrial_p, commercial_p, residential_p]),
        "h_load": np.stack([industrial_h, commercial_h, residential_h]),
        "w_load": np.stack([industrial_w, commercial_w, residential_w]),
        "p_wind": np.stack([industrial_wind, commercial_wind, residential_wind]),
    }


# Three identical flat communities with easily absorbed wind; the optimal
# exchanges are zero, which makes it a control case for coordination.
def _uniform() -> dict[str, np.ndarray]:
    row_p = _blocks([(0, 24, 3000.0)])
    row_h = _blocks([(0, 24, 1500.0)])
    row_w = _blocks([(0, 24, 80.0)])
    row_wind = _blocks([(0, 24, 500.0)])
    return {
        "p_load": np.stack([row_p] * N_COMMUNITIES),
        "h_load": np.stack([row_h] * N_COMMUNITIES),
        "w_load": np.stack([row_w] * N_COMMUNITIES),
        "p_wind": np.stack([row_wind] * N_COMMUNITIES),
    }


_PROFILE_BUILDERS = {
    "complementary-winter": _complementary_winter,
    "uniform": _uniform,
}


def generate_scenario(spec: ScenarioSpec) -> ScenarioData:
    base = _PROFILE_BUILDERS[spec.profile]()
    rng = np.random.default_rng(spec.seed)
    arrays = {}
    for name in ("p_load", "h_load", "w_load", "p_wind"):
        arr = base[name] * spec.amplitude
        if spec.noise_std > 0.0:
            arr = arr * (1.0 + spec.noise_std * rng.standard_normal(arr.shape))
        arrays[name] = np.maximum(arr, 0.0)
    return ScenarioData(**arrays)
