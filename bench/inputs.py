"""Seeded, vectorized raw-file generators shaped like the preset datasets.

The files have the columns, raw values, junk rows and kept fraction of
the per-row helpers in ``tests/test_presets_pipeline.py``
(``write_compas_like`` / ``write_adult_like``): the same feature
marginals, the same outcome rates, the same filters to survive.  Two
things differ, both on purpose:

* Rows are drawn with one array operation per column, so 100k rows take
  a fraction of a second instead of ~10 s of per-row ``rng.choice``.
* Rows that survive ingestion are laid out from exact cell counts
  (largest-remainder rounding of ``n * p(cell)``), and the seed decides
  row order, raw values inside a category (priors counts, screening
  days, ages inside an age bucket, ...) and every junk row.  Bernoulli
  draws would move group outcome-rate gaps by several hundredths from
  seed to seed, and with them the discrimination budget's feasibility
  boundary and the Frank-Wolfe iteration count (28 to 57 iterations on
  the compas-shaped KL problem over three seeds); with exact counts every
  seed yields the same estimated pmf, so solver work is the same for
  every seed while ingestion and sampling still see fresh records.

Only the files written here reach the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPAS_FIELDS = (
    "id", "sex", "age_cat", "race", "priors_count", "c_charge_degree",
    "days_b_screening_arrest", "is_recid", "score_text", "two_year_recid",
)
SEXES = np.array(["Male", "Female"], dtype=object)
RACES = np.array(["African-American", "Caucasian", "Other"], dtype=object)
AGE_CATS = np.array(["Less than 25", "25 - 45", "Greater than 45"], dtype=object)
CHARGES = np.array(["F", "M", "O"], dtype=object)
SCORES = np.array(["Low", "Medium", "High", "N/A"], dtype=object)

_P_SEX = np.array([0.75, 0.25])
_P_RACE = np.array([0.5, 0.25, 0.25])
_P_CHARGE = np.array([0.65, 0.30, 0.05])
_P_IS_RECID = np.array([0.5, 0.45, 0.05])  # values 0, 1, -1
_P_SCORE = np.array([0.4, 0.3, 0.25, 0.05])
# priors_count is uniform on 0..11; the preset buckets it as 0 | 1-3 | 4+
_BUCKET_LO = np.array([0, 1, 4])
_BUCKET_HI = np.array([1, 4, 12])
_P_BUCKET = (_BUCKET_HI - _BUCKET_LO) / 12.0

# two_year_recid rate per (sex, race); rows of other races (which the
# preset drops) use 0.45
_RECID_RATE = np.array([[0.593, 0.430, 0.45], [0.393, 0.367, 0.45]])

# share of rows the compas preset keeps: screening window 61 of 120 days,
# is_recid != -1, charge degree != "O", score_text != "N/A" (0.95 each),
# race in the two kept groups (0.75)
COMPAS_KEPT_FRACTION = 61 / 120 * 0.95 ** 3 * 0.75


def apportion(total: int, p: np.ndarray) -> np.ndarray:
    """Integer counts summing to ``total`` closest to ``total * p``
    (largest remainder, ties to the lower index)."""
    p = np.asarray(p, dtype=np.float64).ravel()
    exact = total * p / p.sum()
    counts = np.floor(exact).astype(np.int64)
    extra = total - int(counts.sum())
    order = np.argsort(-(exact - counts), kind="stable")
    counts[order[:extra]] += 1
    return counts


@dataclass(frozen=True)
class CompasInput:
    """A generated compas-shaped file: raw string columns in file order,
    the keep mask the preset's filters must reproduce (recomputed from
    the raw values), and category codes of the kept rows in file order."""

    columns: dict
    kept: np.ndarray
    sex: np.ndarray  # index into SEXES
    race: np.ndarray  # index into RACES (0 or 1 on kept rows)
    age: np.ndarray  # index into AGE_CATS
    charge: np.ndarray  # index into CHARGES (0 or 1 on kept rows)
    priors_bucket: np.ndarray  # 0 | 1-3 | 4+
    recid: np.ndarray

    @property
    def n_kept(self) -> int:
        return int(self.kept.sum())


def _compas_raw(rng: np.random.Generator, n: int) -> dict:
    """Rows drawn from the raw (pre-filter) distribution, as codes."""
    sex = rng.choice(2, size=n, p=_P_SEX)
    race = rng.choice(3, size=n, p=_P_RACE)
    return {
        "sex": sex,
        "race": race,
        "age": rng.integers(0, 3, size=n),
        "priors": rng.integers(0, 12, size=n),
        "charge": rng.choice(3, size=n, p=_P_CHARGE),
        "days": rng.integers(-60, 60, size=n),
        "is_recid": np.array([0, 1, -1])[rng.choice(3, size=n, p=_P_IS_RECID)],
        "score": rng.choice(4, size=n, p=_P_SCORE),
        "recid": (rng.random(n) < _RECID_RATE[sex, race]).astype(np.int64),
    }


def _passes_filters(rows: dict) -> np.ndarray:
    return (
        (np.abs(rows["days"]) <= 30) & (rows["is_recid"] != -1)
        & (rows["charge"] != 2) & (rows["score"] != 3) & (rows["race"] != 2)
    )


def compas_input(n: int, seed: int) -> CompasInput:
    """Compas-shaped rows: ``round(n * COMPAS_KEPT_FRACTION)`` survivors
    laid out from exact cell counts, the rest junk rows that fail at
    least one preset filter."""
    rng = np.random.default_rng(seed)
    n_kept = int(round(n * COMPAS_KEPT_FRACTION))
    # survivors over sex x race x age x charge x priors bucket x outcome
    p_race = _P_RACE[:2] / _P_RACE[:2].sum()
    p_charge = _P_CHARGE[:2] / _P_CHARGE[:2].sum()
    rate = _RECID_RATE[:, :2]
    p_y = np.stack([1 - rate, rate], axis=-1)
    p_cell = np.einsum("s,r,a,c,b,sry->sracby", _P_SEX, p_race,
                       np.full(3, 1 / 3), p_charge, _P_BUCKET, p_y)
    cell = np.repeat(np.arange(p_cell.size), apportion(n_kept, p_cell))
    s, r, a, c, b, y = np.unravel_index(cell, p_cell.shape)
    good = {
        "sex": s, "race": r, "age": a, "charge": c,
        "priors": rng.integers(_BUCKET_LO[b], _BUCKET_HI[b]),
        "days": rng.integers(-30, 31, size=n_kept),
        "is_recid": rng.choice(2, size=n_kept, p=_P_IS_RECID[:2] / 0.95),
        "score": rng.choice(3, size=n_kept, p=_P_SCORE[:3] / 0.95),
        "recid": y,
    }
    # junk rows: the raw distribution conditioned on failing a filter
    n_junk = n - n_kept
    junk = {k: np.zeros(0, dtype=np.int64) for k in good}
    while junk["sex"].size < n_junk:
        raw = _compas_raw(rng, 2 * n_junk)
        fail = ~_passes_filters(raw)
        junk = {k: np.concatenate([junk[k], raw[k][fail]]) for k in junk}
    order = rng.permutation(n)
    rows = {k: np.concatenate([good[k], junk[k][:n_junk]])[order] for k in good}
    kept = _passes_filters(rows)
    columns = {
        "id": np.arange(n).astype(str),
        "sex": SEXES[rows["sex"]],
        "age_cat": AGE_CATS[rows["age"]],
        "race": RACES[rows["race"]],
        "priors_count": rows["priors"].astype(str),
        "c_charge_degree": CHARGES[rows["charge"]],
        "days_b_screening_arrest": rows["days"].astype(str),
        "is_recid": rows["is_recid"].astype(str),
        "score_text": SCORES[rows["score"]],
        "two_year_recid": rows["recid"].astype(str),
    }
    bucket = np.searchsorted(_BUCKET_LO[1:], rows["priors"], side="right")
    return CompasInput(
        columns=columns, kept=kept,
        sex=rows["sex"][kept], race=rows["race"][kept], age=rows["age"][kept],
        charge=rows["charge"][kept], priors_bucket=bucket[kept],
        recid=rows["recid"][kept],
    )


def write_compas(path: str, data: CompasInput) -> None:
    """Headed CSV in ProPublica's column layout."""
    cols = [data.columns[f] for f in COMPAS_FIELDS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(COMPAS_FIELDS) + "\n")
        fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


# ---------------------------------------------------------------------------
# adult-shaped (UCI census income, headerless)
# ---------------------------------------------------------------------------

ADULT_RACES = np.array(["White", "Black", "Asian-Pac-Islander"], dtype=object)
ADULT_SEXES = np.array(["Male", "Female"], dtype=object)
_P_ADULT_RACE = np.array([0.5, 0.25, 0.25])
_AGES = np.arange(17, 91)
_EDUS = np.arange(1, 17)


@dataclass(frozen=True)
class AdultInput:
    """Codes of a generated adult-shaped file, in file order."""

    race: np.ndarray  # index into ADULT_RACES
    sex: np.ndarray  # index into ADULT_SEXES
    age: np.ndarray  # years
    edu: np.ndarray  # 1..16
    income: np.ndarray  # 1 for ">50K"
    fnlwgt: np.ndarray


def adult_input(n: int, seed: int) -> AdultInput:
    """Census-shaped rows from exact cell counts over race x sex x age x
    education x income; every row survives the adult preset."""
    rng = np.random.default_rng(seed)
    race, sex, age, edu = np.meshgrid(
        np.arange(3), np.arange(2), _AGES, _EDUS, indexing="ij"
    )
    rate = 0.1 + 0.02 * np.maximum(edu - 8, 0) + 0.1 * ((age >= 30) & (age < 60))
    rate = rate + 0.08 * (sex == 0) + 0.04 * (race == 0)
    p_base = _P_ADULT_RACE[race] / (2 * _AGES.size * _EDUS.size)
    p_cell = np.stack([p_base * (1 - rate), p_base * rate], axis=-1)
    cell = np.repeat(np.arange(p_cell.size), apportion(n, p_cell))
    idx = np.unravel_index(cell[rng.permutation(n)], p_cell.shape)
    return AdultInput(
        race=idx[0], sex=idx[1], age=_AGES[idx[2]], edu=_EDUS[idx[3]],
        income=idx[4], fnlwgt=rng.integers(10000, 99999, size=n),
    )


def write_adult(path: str, data: AdultInput) -> None:
    """Headerless file with the UCI layout's padded fields."""
    n = data.age.size

    def pad(values) -> np.ndarray:
        return np.char.add(" ", np.asarray(values).astype(str))

    def const(text: str) -> np.ndarray:
        return np.full(n, text, dtype=object)

    cols = (
        data.age.astype(str), const(" Private"), pad(data.fnlwgt),
        const(" Bachelors"), pad(data.edu), const(" Never-married, ?, Husband"),
        pad(ADULT_RACES[data.race]), pad(ADULT_SEXES[data.sex]),
        const(" 0, 0, 40, United-States"),
        np.where(data.income == 1, " >50K", " <=50K"),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(map(",".join, zip(*cols))) + "\n")
