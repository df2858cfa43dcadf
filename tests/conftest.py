import io
import random
from pathlib import Path

import numpy as np
import pytest

FIXTURES = Path(__file__).parent / "fixtures"

_DIGITS = "0123456789"
_LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def random_code_text(rng: random.Random, max_plain: int = 6,
                     qualifier_p: float = 0.0, key_p: float = 0.0) -> str:
    """A syntactically valid random notation: digit first, then digits and
    uppercase letters, optionally a named qualifier and a key qualifier."""
    out = rng.choice(_DIGITS[1:])
    for _ in range(rng.randint(0, max_plain)):
        out += rng.choice(_DIGITS + _LETTERS)
    if rng.random() < qualifier_p:
        out += "(" + "".join(rng.choice(_LETTERS) for _ in range(rng.randint(1, 5))) + ")"
    if rng.random() < key_p:
        out += "(+" + "".join(rng.choice(_DIGITS) for _ in range(rng.randint(1, 3))) + ")"
    return out


def npy_claiming(npy: bytes, **fields) -> bytes:
    """The bytes of the .npy file `npy` under a header whose `fields` (shape, descr, fortran_order) claim other
    than its own; the data bytes after the header stay as they are."""
    array = np.load(io.BytesIO(npy))
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {**np.lib.format.header_data_from_array_1_0(array), **fields})
    return header.getvalue() + npy[len(npy) - array.nbytes:]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
