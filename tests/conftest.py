import json
import sys
from datetime import date
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

from privlog.client import init_client  # noqa: E402
from privlog.dice import DeviceIdentity  # noqa: E402
from privlog.server import keygen  # noqa: E402


@pytest.fixture(scope="session")
def golden():
    return json.loads((TESTS_DIR / "data" / "golden_vectors.json").read_text())


@pytest.fixture()
def identity():
    return DeviceIdentity(
        uds=b"\x01" * 32, measurement=b"\x02" * 32, device_id="golden-device"
    )


DAY1 = date(2024, 5, 1)


@pytest.fixture()
def server_keys():
    return keygen("lab-server", seed=b"\x42" * 32)


@pytest.fixture()
def client_state(identity, server_keys):
    return init_client(
        identity, server_keys.longterm.public, DAY1, rng_seed=b"\x07" * 32
    )
