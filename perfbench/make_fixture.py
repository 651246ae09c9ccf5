"""Regenerate the fixed model, scaler and detector config in ``fixture/``.

calibrate-noisy and detect-stream both read these committed files, so two
commits under comparison read identical model bytes and the model stays in
the ``lstm-model v1`` format.  They were made once, with:

    PYTHONPATH=src python3 perfbench/make_fixture.py

which trains with the command-line defaults (lag 3, hidden 23, lr 0.01,
1500 epochs, seed 0) on a 2,000-step normal series and calibrates on a
20,000-step validation stream with 60 weak attacks, both from generator
seed 0.  Rerunning it with a changed program may change the files; do not
rerun it to make a benchmark pass.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from synwatch.cli import main as cli

import gen

FIXTURE = Path(__file__).resolve().parent / "fixture"


def main() -> None:
    rng = gen.rng_for(0, "fixture")
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        work = Path(tmp)
        gen.write_series(work / "train.csv", gen.make_stream(rng, 2000, 0),
                         labeled=False)
        gen.write_series(work / "validation.csv",
                         gen.make_stream(rng, 20000, 60), labeled=True)
        model = str(work / "model.txt")
        cli.main(["train", str(work / "train.csv"), "--seed", "0",
                  "-o", model], standalone_mode=False)
        cli.main(["calibrate", model, str(work / "validation.csv"),
                  "-o", str(work / "detector.cfg")], standalone_mode=False)
        FIXTURE.mkdir(exist_ok=True)
        for name in ("model.txt", "model.txt.scaler", "detector.cfg"):
            shutil.copyfile(work / name, FIXTURE / name)


if __name__ == "__main__":
    main()
