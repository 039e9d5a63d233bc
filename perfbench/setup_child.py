"""Time tubealg set-up in a fresh interpreter.

Usage: python3 setup_child.py '<specs as JSON>'

Each spec is ``["tube", group.json, cocycle.json]`` or ``["bh", setup.json]``.
The timed span covers importing tubealg, loading every input through the
public loaders and constructing its algebra: ``TubeAlgebra`` checks the
3-cocycle law, ``AnnularAlgebra`` runs ``BHSetup.validate``.  Prints
``{"setup_s": seconds}``.
"""

from __future__ import annotations

import json
import sys
import time


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(specs: list) -> float:
    start = time.perf_counter()
    from tubealg import AnnularAlgebra, TubeAlgebra
    from tubealg.coho import bh_setup_from_json
    from tubealg.grp import group_from_json
    from tubealg.phase import cocycle_from_json

    for spec in specs:
        if spec[0] == "tube":
            group = group_from_json(_load(spec[1]))
            TubeAlgebra(group, cocycle_from_json(group, _load(spec[2])))
        else:
            AnnularAlgebra(bh_setup_from_json(_load(spec[1])))
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(json.loads(sys.argv[1]))}))
