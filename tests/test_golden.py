"""The README's eight commands on ``fixtures/minicity`` write the bytes
recorded in ``GOLDEN``.

Each command runs in-process through ``cli.main``, in README order, so
``evaluate`` scores what ``synthesize`` wrote.  A file's digest leaves
out what holds absolute input paths: the CSV ``# config_hash=`` line and
the JSON ``config_hash`` and ``config`` keys.

The table changes only when a change means to change outputs: ROADMAP
items 10, 1, 2 and 11 each update it, with a CHANGES.md note.
"""
import hashlib
import json
import os

from roadtwin import cli
from test_cli import readme_command

COMMANDS = ["ingest", "embed", "select", "profile", "synthesize", "evaluate", "benchmark",
            "estimate"]

GOLDEN = {
    "ingest/edges.csv":
        "02e59d64e6d0e92b43cb76600343e22186514afd09e553f7abb38b01d05852c1",
    "ingest/manifest.json":
        "53650baa2f0267e2abd621488c7e02f17f51fd7931816a8e7cbf737cd8a6cf7b",
    "ingest/nodes.csv":
        "77dd4963d69200dcaa498563ed9d4ee7f7bf60c33c82ce087bb6bc7fff768164",
    "embed/embeddings.csv":
        "22c9d66aff33f7a761c34361afc5e9a83feab021178c3e64ba90c0944f59abb7",
    "select/selection.csv":
        "0f4b4aaf22977cf42e81ab559e32f6395df0196a72c9b370ee3b1cdf5935a063",
    "profile/profile_s3.csv":
        "af07057c61f9cd01c6413fe1557bf838220f560bd355768bf7c4e2e7d5b584c3",
    "profile/profile_s3.svg":
        "ed7f133d6b18ff90c670f7bfa2e122c3e3bc52e8e9f37c17b7386380c09fa2e5",
    "synthesize/generated_days.csv":
        "44dec060f527c7a4906b50a3e6b7768095bb27befe294db2d51fc999664a5867",
    "evaluate/errors.csv":
        "d6d0c7f1a6315e6a04fb98e95f3d49a68e5962d633d09e0131a2c1696956587a",
    "benchmark/generation_errors.csv":
        "ee02e6210b76afdd0ceb2e03da00b4f05e5bdc9ba6383293eb33c945364a5edb",
    "benchmark/report.json":
        "4d71cc9d5730c8c9c53cfa8c23e48ee658d48d5b08a15898f734e12b77f72925",
    "benchmark/selection.csv":
        "c97ac47496bbba3ce3d8eeb09bab3b6bc872b3ba451a0922dd5f6592e3912362",
    "benchmark/summary.csv":
        "e705225a655789ae2a96de7f1fa211f9fc792c28e971f0694af1f3d75828ecb5",
    "estimate/estimate.json":
        "c47f9fba25489578ef3e6a65d00141bf5a8d5ca6d971a69f7ffda48a429fe630",
    "estimate/generated_day.csv":
        "30b083fdb43f9cfdfb22ee0f8007a43ee5801484718fe8e8d717f65eaa51599c",
}


def content_digest(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".json"):
        doc = json.loads(data)
        for key in ("config_hash", "config"):
            doc.pop(key, None)
        data = json.dumps(doc, indent=2).encode("utf-8")
    else:
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"# config_hash="))
    return hashlib.sha256(data).hexdigest()


def test_readme_commands_write_the_recorded_bytes(tmp_path):
    digests = {}
    for command in COMMANDS:
        # evaluate reads synthesize's out/, so the two share a root
        root = tmp_path / ("synthesize" if command == "evaluate" else command)
        argv = readme_command(command, root)
        assert cli.main(argv) == 0, command
        out_dir = argv[argv.index("--output_dir") + 1]
        for name in sorted(os.listdir(out_dir)):
            digests[f"{command}/{name}"] = content_digest(os.path.join(out_dir, name))
    assert digests == GOLDEN
