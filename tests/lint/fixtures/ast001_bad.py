"""AST001 positive fixture: iteration directly over unordered sets and
filesystem listings."""

import glob
import os
from os import listdir as ls
from pathlib import Path


def drain(items):
    out = []
    for item in {3, 1, 2}:
        out.append(item)
    out.extend(x for x in set(items))
    out.extend(y for y in set(items) - {0})
    return out


def listing(root):
    out = []
    for name in os.listdir(root):
        out.append(name)
    out.extend(name for name in ls(root))
    out.extend(str(p) for p in Path(root).iterdir())
    out.extend(g for g in glob.glob(f"{root}/*.py"))
    return out
