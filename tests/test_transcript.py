"""The CLI chain writes the bytes that tests/data/transcript.json records.

The transcript pins every file, stdout and exit code of one seeded run of
the chain in scripts/gen_transcript.py. A change that means to alter
bytes regenerates it and names each entry that changed; any other change
must leave every entry as it is.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_loader = importlib.util.spec_from_file_location("gen_transcript",
                                                 ROOT / "scripts" / "gen_transcript.py")
gen_transcript = importlib.util.module_from_spec(_loader)
_loader.loader.exec_module(gen_transcript)


def test_cli_chain_writes_the_transcript_bytes(tmp_path):
    expected = json.loads(gen_transcript.TRANSCRIPT.read_text())
    got = gen_transcript.run_chain(tmp_path)
    assert list(got) == list(expected)
    assert [name for name in expected if got[name] != expected[name]] == []
