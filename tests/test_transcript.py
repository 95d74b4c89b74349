"""The CLI chain writes the bytes that tests/data/transcript.json records.

The transcript pins every file, stdout and exit code of one seeded run of
the chain in scripts/gen_transcript.py. A change that means to alter
bytes regenerates it and names each entry that changed; any other change
must leave every entry as it is.
"""

import base64
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_loader = importlib.util.spec_from_file_location("gen_transcript",
                                                 ROOT / "scripts" / "gen_transcript.py")
gen_transcript = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(gen_transcript)
# A protected field: its payload is 60 base64 characters. The raw inputs
# hold text shaped like an element with a shorter payload.
_ELEMENT = re.compile(r'<PII type="\w+">([A-Za-z0-9+/=]{60})</PII>')


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The chain's entries, and the directory it ran in."""
    workdir = tmp_path_factory.mktemp("chain")
    return gen_transcript.run_chain(workdir), workdir


def test_cli_chain_writes_the_transcript_bytes(chain):
    expected = json.loads(gen_transcript.TRANSCRIPT.read_text())
    got, _ = chain
    assert list(got) == list(expected)
    assert [name for name in expected if got[name] != expected[name]] == []


def test_report_in_shares_writes_what_one_share_writes(chain):
    """`report` and `--timeline` forced into 2 and 3 shares write the same
    output to the same path, print the same and exit as in one share."""
    entries, _ = chain
    split = [name for name in entries if name.startswith(("report ", "timeline "))
             and name.endswith((" in 2", " in 3"))]
    assert len(split) == 2 * sum(name.startswith(("report ", "timeline ")) and " in " not in name
                                 for name in entries)
    assert [name for name in split if entries[name] != entries[name[:-len(" in 2")]]] == []


def test_no_nonce_repeats_in_the_protected_outputs(chain):
    """Each forked share draws its own nonces, as in a real run: no nonce
    comes twice in all the protected outputs of the chain."""
    _, workdir = chain
    nonces = [base64.b64decode(box)[:12] for prot in sorted(workdir.glob("*.prot"))
              for box in _ELEMENT.findall(prot.read_text())]
    assert len(nonces) > 500
    assert len(set(nonces)) == len(nonces)
