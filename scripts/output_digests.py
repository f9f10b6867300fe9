#!/usr/bin/env python3
"""SHA-256 digests of every file the four CLI scenarios write.

For each scenario (convergence, conserve, seal, single) it copies the
config with ``[run] scenario`` set to that scenario and
``[output] vtk_stride = 1``, runs it through ``viscofem.cli.main`` into a
temporary directory, and hashes each file written. The ``wall_seconds``
column of ``convergence.csv`` is blanked before hashing, so two runs of
the same code give equal digests. It prints one JSON object mapping
``scenario/file`` to the hex digest; a scenario that exits nonzero stops
the script with its exit code. Compare the output of two commits to show
that a change leaves every output byte-identical. Run from the root of
the repository:

    PYTHONPATH=src python3 scripts/output_digests.py --config configs/example.cfg
"""
import argparse
import configparser
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from viscofem.cli import main as cli_main

SCENARIOS = ("convergence", "conserve", "seal", "single")


def _without_wall_seconds(data):
    """convergence.csv with its wall_seconds column emptied."""
    rows = [line.split(",") for line in data.decode().splitlines()]
    col = rows[0].index("wall_seconds")
    for row in rows[1:]:
        row[col] = ""
    return "".join(",".join(row) + "\n" for row in rows).encode()


def digests(config):
    """{scenario/file: sha256 hex} of every file each scenario writes."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
            with open(config) as fh:
                parser.read_file(fh)
            for section, key, value in (("run", "scenario", scenario),
                                        ("output", "vtk_stride", "1")):
                if not parser.has_section(section):
                    parser.add_section(section)
                parser[section][key] = value
            cfg_path = Path(tmp) / f"{scenario}.cfg"
            with open(cfg_path, "w") as fh:
                parser.write(fh)
            out_dir = Path(tmp) / scenario
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main([scenario, "--config", str(cfg_path), "--out", str(out_dir)])
            if code:
                sys.exit(code)
            for path in sorted(out_dir.iterdir()):
                data = path.read_bytes()
                if path.name == "convergence.csv":
                    data = _without_wall_seconds(data)
                out[f"{scenario}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="run configuration file")
    args = parser.parse_args(argv)
    print(json.dumps(digests(args.config), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
