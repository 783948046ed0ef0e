"""What a command-line user pays before the first answer, in a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG_DIR WARMUP_NAME OUT_DIR

Imports proxequil, parses and builds every config in CONFIG_DIR, then runs
WARMUP_NAME.cfg once without audit flags. The caller times the whole process.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from proxequil import cli, config  # noqa: E402


def main(config_dir: str, warmup: str, out_dir: str) -> int:
    parsed = {}
    for path in sorted(Path(config_dir).glob("*.cfg")):
        rc = config.parse_config(str(path))
        config.build_problem(rc)
        parsed[path.stem] = rc
    cli.execute(parsed[warmup], out_dir=out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
