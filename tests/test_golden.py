"""The README's eight commands on ``fixtures/minicity`` write the bytes
recorded in ``GOLDEN``.

Each command runs in-process through ``cli.main``, in README order, so
``evaluate`` scores what ``synthesize`` wrote.  They run from the
repository root with README's own relative ``--config``, so the config
holds the same relative input paths in any checkout, and a digest covers
a whole file: its ``# config_hash=`` line or its JSON ``config_hash``
and ``config`` keys included.

The table changes only when a change means to change outputs: ROADMAP
items 10, 1, 2 and 11 each update it, with a CHANGES.md note.
"""
import hashlib
import os

from conftest import FIXTURE_DIR
from roadtwin import cli
from test_cli import README_CONFIG, readme_command

COMMANDS = ["ingest", "embed", "select", "profile", "synthesize", "evaluate", "benchmark",
            "estimate"]

GOLDEN = {
    "ingest/edges.csv":
        "0fd23535b8d9bdf019438bff8273e14c13d6b7be9f33fb28a08bb9c136b9fa10",
    "ingest/manifest.json":
        "2ce00b3f8357dda06fc3a61ea124839262a69f227ac9cc752ad28d66d867e50f",
    "ingest/nodes.csv":
        "5b2150a078b64758eecc05e23d86175244fe64c0a178fd6daf1358d838d8352b",
    "embed/embeddings.csv":
        "9a40ff9d53952d4a40b8d9398fb208f6d36e1a42fd64411fa2185147ee5762a7",
    "select/selection.csv":
        "25381c5365ed6792a70f532e9c6c6390387c84d912497feb58d34d0d4bcd215f",
    "profile/profile_s3.csv":
        "4ca90ab68bb0c79a2d56d968d2d71a9568ce19b54d8857a853e8c5245a2f9a8f",
    "profile/profile_s3.svg":
        "ed7f133d6b18ff90c670f7bfa2e122c3e3bc52e8e9f37c17b7386380c09fa2e5",
    "synthesize/generated_days.csv":
        "e36e8d87b8dcbb393cbdee630f9f42bec7520264661da6762adfc04c549e176f",
    "evaluate/errors.csv":
        "2279e439e34f60860bd288f05fd3de87d6e26d5645a4b15a72c879c24bc95515",
    "benchmark/generation_errors.csv":
        "5dd53a9926553cd9d30f66c86339a66e823cfe31a98f42a8cc8ee6ca7d506653",
    "benchmark/report.json":
        "fb9e6740a25be5b9dc34a08756201d63c4123c2f3fae79084867921562a521cb",
    "benchmark/selection.csv":
        "80a926603e384c2db6e264b11cc02a4226a8d77074ab5bc7f36c939455988ea9",
    "benchmark/summary.csv":
        "e226cd66d63eed6ce63bcdd52c6ccdfd4f3b9c68719c6b70fcccfbb8294f4834",
    "estimate/estimate.json":
        "e3bdee9b8c75a120535cb65a5eaf71460f7ec32933cbc73dfe78c4f9f7c99a3b",
    "estimate/generated_day.csv":
        "dbee28d062dddb5ab37bf2c17da70b27c9a115c2b068a40fe341ed6420561f61",
}


def content_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_readme_commands_write_the_recorded_bytes(tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.join(FIXTURE_DIR, "..", ".."))
    digests = {}
    for command in COMMANDS:
        # evaluate reads synthesize's out/, so the two share a root
        root = tmp_path / ("synthesize" if command == "evaluate" else command)
        argv = readme_command(command, root, README_CONFIG)
        assert cli.main(argv) == 0, command
        out_dir = argv[argv.index("--output_dir") + 1]
        for name in sorted(os.listdir(out_dir)):
            digests[f"{command}/{name}"] = content_digest(os.path.join(out_dir, name))
    assert digests == GOLDEN
