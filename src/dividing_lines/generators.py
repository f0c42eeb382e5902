"""Deterministic corpus of tables with known dividing-line profiles."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .core import EvalTable, integer
from .errors import InvalidSize


@dataclass(frozen=True)
class GeneratorConfig:
    """Serializable description of a corpus table."""

    kind: str  # half_graph | full_pattern | random_table | cantor_example
    n: int | None = None
    k: int | None = None
    n_rows: int | None = None
    n_cols: int | None = None
    value_model: str = "bernoulli"
    p: float = 0.5
    bound: float = 1.0
    seed: int | Sequence[int] | None = None
    m: int | None = None
    L: int | None = None

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for name in ("n", "k", "n_rows", "n_cols", "m", "L"):
            v = getattr(self, name)
            if v is not None:
                d[name] = v
        if self.kind == "random_table":
            d["value_model"] = self.value_model
            d["p"] = self.p
            d["bound"] = self.bound
            d["seed"] = list(self.seed) if isinstance(self.seed, (list, tuple)) else self.seed
        return d


class CantorCorpus(NamedTuple):
    table: EvalTable
    target: np.ndarray  # characteristic vector of the limit set, one entry per row


def half_graph(n: int) -> EvalTable:
    """n x n indicator of the strict linear order: T[i][j] = 1 iff i < j."""
    n = integer(n, "n", 1, InvalidSize)
    entries = (np.arange(n)[:, None] < np.arange(n)[None, :]).astype(np.float64)
    return EvalTable(entries, bound=1.0)


def full_pattern(k: int) -> EvalTable:
    """2^k x k table whose row b lists the bits of b; shatters all k columns."""
    k = integer(k, "k", 1, InvalidSize)
    if k > 20:
        raise InvalidSize("k must lie in 1..20")
    rows = np.arange(1 << k)
    entries = ((rows[:, None] >> np.arange(k)[None, :]) & 1).astype(np.float64)
    return EvalTable(entries, bound=1.0)


def random_table(
    n_rows: int,
    n_cols: int,
    value_model: str = "bernoulli",
    p: float = 0.5,
    bound: float = 1.0,
    seed: int | Sequence[int] = 0,
) -> EvalTable:
    """Seeded deterministic random table.

    value_model "bernoulli": {0,1} entries with success probability p.
    value_model "uniform": entries uniform on [-bound, bound].
    """
    n_rows = integer(n_rows, "n_rows", 1, InvalidSize)
    n_cols = integer(n_cols, "n_cols", 1, InvalidSize)
    rng = np.random.default_rng(seed)
    if value_model == "bernoulli":
        if not (0 <= p <= 1):
            raise ValueError("p must lie in [0, 1]")
        entries = (rng.random((n_rows, n_cols)) < p).astype(np.float64)
        return EvalTable(entries, bound=1.0)
    if value_model == "uniform":
        entries = rng.uniform(-bound, bound, size=(n_rows, n_cols))
        return EvalTable(entries, bound=bound)
    raise ValueError(f"unknown value_model {value_model!r}")


def cantor_example(m: int, L: int) -> CantorCorpus:
    """Level-L Cantor-set points against m oscillating clopen indicators.

    Rows are the 2^L points x = sum d_i 3^-i with digits d_i in {0, 2},
    represented exactly as integer numerators over 3^L.  Column n (1-based)
    is 1 at x iff x <= 3^-n or x >= 2/3 + 3^-(n+1): a left part shrinking
    around 0 and a right part growing toward 2/3, so no column dominates
    another.  The emitted target is the indicator of the limit set
    {0} union (2/3, 1], toward which the columns stabilize pointwise.
    """
    m, L = integer(m, "m", 1, InvalidSize), integer(L, "L", 3, InvalidSize)
    if m > L - 2:
        raise InvalidSize("cantor_example requires 1 <= m <= L - 2")
    # exact integer numerators over 3^L: bit i of the row id chooses digit
    # 0 or 2 at ternary position L - i
    numerators = [
        sum(2 * ((b >> i) & 1) * 3**i for i in range(L)) for b in range(1 << L)
    ]
    denom = 3**L
    entries = np.zeros((1 << L, m), dtype=np.float64)
    for n in range(1, m + 1):
        left_cut = 3 ** (L - n)  # x <= 3^-n
        right_cut = 2 * 3 ** (L - 1) + 3 ** (L - n - 1)  # x >= 2/3 + 3^-(n+1)
        entries[:, n - 1] = [
            1.0 if (num <= left_cut or num >= right_cut) else 0.0 for num in numerators
        ]
    target = np.array(
        [1.0 if (num == 0 or num > 2 * 3 ** (L - 1)) else 0.0 for num in numerators]
    )
    labels = [f"{num}/{denom}" for num in numerators]
    table = EvalTable(
        entries,
        bound=1.0,
        row_labels=labels,
        col_labels=[f"H_{n}" for n in range(1, m + 1)],
    )
    target.setflags(write=False)
    return CantorCorpus(table, target)


def generate(config: GeneratorConfig) -> EvalTable:
    """Build the table described by `config` (cantor_example yields its table)."""
    if config.kind == "half_graph":
        return half_graph(config.n if config.n is not None else 4)
    if config.kind == "full_pattern":
        return full_pattern(config.k if config.k is not None else 3)
    if config.kind == "random_table":
        return random_table(
            config.n_rows if config.n_rows is not None else 5,
            config.n_cols if config.n_cols is not None else 5,
            value_model=config.value_model,
            p=config.p,
            bound=config.bound,
            seed=config.seed if config.seed is not None else 0,
        )
    if config.kind == "cantor_example":
        if config.m is None or config.L is None:
            raise InvalidSize("cantor_example requires m and L")
        return cantor_example(config.m, config.L).table
    raise ValueError(f"unknown generator kind {config.kind!r}")
