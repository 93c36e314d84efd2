"""Workload definitions: the arbor CLI commands each workload runs.

Every command is an argv list for ``python -m arbor.cli``.  ``FULL`` holds the
measured sizes; ``SMOKE`` holds tiny sizes of the same commands, so the
smoke check walks the same code paths in a few seconds.  Each workload loads
a different layer.  The shares in parentheses are traced self time on the
pure engine at these sizes (2 vCPUs, Python 3.11.7):

* enumerate -- ``verify --mode brute``: tree and forest censuses (treebank
  ~99%); series and paths do no work.
* algebra -- ``verify --mode series|lagrange|all``: fixed-point solve and
  direct inversion (series ~88%); enumeration stays near zero.  The ``all``
  command is the only path into the identity and symmetry checks.
* tables -- ``table`` and ``triangle``: huge-integer closed-form rows plus
  CSV, pretty and b-file formatting (counting ~60%, cli ~40%).
* probe -- ``paths --probe`` and ``paths --labels``: tree objects, lattice
  paths and residue histograms (treebank ~62%, paths ~36%); the only
  workload where paths runs.

Each workload takes about 1 to 2 s per pass, so a run of 30 s holds 10 to
25 passes; more, shorter passes gave steadier medians on a noisy host than
the 3 to 6 s passes tried first.
"""

SETUP = ["count", "--t", "2", "--n", "1", "--composition", "0,0"]

FULL = {
    "enumerate": [
        ["verify", "--t", "2", "--max-n", "10", "--mode", "brute"],
        ["verify", "--t", "3", "--max-n", "7", "--mode", "brute", "--workers", "2"],
        ["verify", "--t", "4", "--max-n", "5", "--mode", "brute"],
    ],
    "algebra": [
        ["verify", "--t", "3", "--max-n", "12", "--mode", "series"],
        ["verify", "--t", "4", "--max-n", "8", "--mode", "series"],
        ["verify", "--t", "3", "--max-n", "12", "--mode", "lagrange"],
        ["verify", "--t", "4", "--max-n", "8", "--mode", "lagrange"],
        ["verify", "--t", "4", "--max-n", "5", "--mode", "all"],
    ],
    "tables": [
        ["table", "--t", "6", "--n", "22", "--format", "csv"],
        ["table", "--t", "4", "--n", "30", "--forest", "3", "--format", "pretty"],
        ["triangle", "--t", "3", "--rows", "150", "--marginal", "2",
         "--self-check", "--format", "bfile"],
    ],
    "probe": [
        ["paths", "--t", "3", "--n", "7", "--probe"],
        ["paths", "--t", "4", "--n", "5", "--probe", "--offset", "1,0,0,0"],
        ["paths", "--t", "3", "--n", "6", "--labels"],
    ],
}

SMOKE = {
    "enumerate": [
        ["verify", "--t", "2", "--max-n", "6", "--mode", "brute"],
        ["verify", "--t", "3", "--max-n", "4", "--mode", "brute", "--workers", "2"],
        ["verify", "--t", "4", "--max-n", "3", "--mode", "brute"],
    ],
    "algebra": [
        ["verify", "--t", "3", "--max-n", "5", "--mode", "series"],
        ["verify", "--t", "3", "--max-n", "5", "--mode", "lagrange"],
        ["verify", "--t", "3", "--max-n", "3", "--mode", "all"],
    ],
    "tables": [
        ["table", "--t", "4", "--n", "8", "--format", "csv"],
        ["table", "--t", "4", "--n", "8", "--forest", "3", "--format", "pretty"],
        ["triangle", "--t", "3", "--rows", "20", "--marginal", "2",
         "--self-check", "--format", "bfile"],
    ],
    "probe": [
        ["paths", "--t", "3", "--n", "4", "--probe"],
        ["paths", "--t", "4", "--n", "3", "--probe", "--offset", "1,0,0,0"],
        ["paths", "--t", "3", "--n", "3", "--labels"],
    ],
}

#: Fixed size of the engine/worker census probe folded into enumerate's
#: traced run (``SMOKE_PROBE_SIZE`` in smoke mode).
PROBE_SIZE = (3, 7)
SMOKE_PROBE_SIZE = (3, 4)


def key(argv):
    """Golden-file key of a command."""
    return " ".join(argv)
