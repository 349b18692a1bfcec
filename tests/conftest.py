import numpy as np
import pytest

from steerdist import sample_batch, tmss_standard, write_batch_csv
from steerdist.measurement import CHUNK


@pytest.fixture(scope="session")
def model_state():
    """The experiment's state: -4.2 dB squeezing, 7.3 dB antisqueezing."""
    return tmss_standard(-4.2, 7.3)


@pytest.fixture(scope="session")
def pure_state():
    """Pure counterpart used by the supplementary curves."""
    return tmss_standard(-4.2, 4.2)


@pytest.fixture(scope="session")
def multi_chunk_file(tmp_path_factory, model_state):
    """(batch, path): raw records of the model state, three chunks long, and
    the quadrature CSV they are written to, once per session."""
    batch = sample_batch(model_state, 2 * CHUNK + 50_001, seed=31)
    path = tmp_path_factory.mktemp("multi_chunk") / "records.csv"
    write_batch_csv(batch, path)
    return batch, path


@pytest.fixture()
def rng():
    return np.random.default_rng(20230817)
