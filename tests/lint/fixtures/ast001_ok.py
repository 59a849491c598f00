"""AST001 negative fixture: set and listing iteration with a fixed order."""

import glob
import os
from pathlib import Path


def drain(items):
    out = []
    for item in sorted({3, 1, 2}):
        out.append(item)
    out.extend(x for x in sorted(set(items)))
    for pair in [("a", 1), ("b", 2)]:
        out.append(pair)
    return out


def listing(root):
    out = []
    for name in sorted(os.listdir(root)):
        out.append(name)
    out.extend(str(p) for p in sorted(Path(root).iterdir()))
    out.extend(g for g in sorted(glob.glob(f"{root}/*.py")))
    out.append(len(list(Path(root).glob("*.json"))))  # counted, not iterated
    return out
