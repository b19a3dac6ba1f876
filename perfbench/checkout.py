"""Locating the package source in the checkout the benchmark runs from."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Thread settings every workload process runs with: one BLAS/OpenMP thread.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class MissingSource(SystemExit):
    pass


def require_package():
    init = os.path.join(SRC, "meswarm", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: package source not found at {init}",
              file=sys.stderr)
        raise MissingSource(2)


def use_checkout_package():
    """Import `meswarm` from this checkout's src/, never from elsewhere."""
    require_package()
    sys.path.insert(0, SRC)
    import meswarm
    if not os.path.abspath(meswarm.__file__).startswith(SRC + os.sep):
        print(f"perfbench: meswarm imported from {meswarm.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise MissingSource(2)
    return meswarm


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"
