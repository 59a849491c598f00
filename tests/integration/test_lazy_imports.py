"""Heavy optional dependencies load only when a run uses them.

HiGHS (the ``scipy.optimize._highspy._core`` extension, loaded on its own,
without the ``scipy.optimize`` package around it) loads at the first LP
solve.  ``scipy.sparse`` loads only for sparse algebra (the reference
simplex), never to build or solve a LiPS or Quincy model.  networkx is
not a dependency at all: it is only the test suite's oracle for Quincy's
flow LP.  A run that never solves an LP — the Hadoop baselines — pays for
none of them, a LiPS run pays for the HiGHS core alone, and ``import
repro`` works with only the declared dependencies.  Each check runs in a
fresh interpreter, since this test process has long since imported all of
them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

HEAVY = ("scipy.optimize", "scipy.sparse", "networkx")

CORE = "scipy.optimize._highspy._core"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=240,
        env=env,
    )


#: the repro modules the benchmark's workloads import, then a small
#: delay-scheduling run, then one HiGHS solve
BASELINE_THEN_SOLVE = f"""
import json, sys
import repro.hadoop.sim, repro.schedulers, repro.core.assembly, repro.obs.lpprof
import repro.serve.service, repro.serve.journal, repro.serve.soak
import repro.schedulers.lips, repro.cluster.builder, repro.workload.swim
from repro.cluster.builder import build_paper_testbed
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import DelayScheduler
from repro.workload.swim import SwimConfig, synthesize_facebook_day

heavy = {HEAVY!r}
seen = {{"imported": [m for m in heavy if m in sys.modules]}}
workload = synthesize_facebook_day(SwimConfig(
    num_jobs=8, duration_s=1800.0, classes=(("small", 1.0, (1, 6)),),
    num_origin_stores=6, seed=3,
))
sim = HadoopSimulator(
    build_paper_testbed(6, seed=3), workload, DelayScheduler(),
    SimConfig(speculative=True, placement_seed=3),
)
seen["jobs"] = sim.run().num_jobs
seen["after_run"] = [m for m in heavy if m in sys.modules]

import numpy as np
from repro.lp import HighsBackend
from repro.lp.problem import AssembledLP, CsrMatrix
asm = AssembledLP(  # min x  s.t.  x >= 1, written -x <= -1
    c=np.ones(1),
    a_ub=CsrMatrix.from_coo([0], [0], [-1.0], (1, 1)),
    b_ub=np.array([-1.0]),
    a_eq=CsrMatrix.from_coo([], [], [], (0, 1)),
    b_eq=np.zeros(0),
    bounds=np.array([[0.0, np.inf]]),
)
seen["status"] = HighsBackend().solve_assembled(asm).status.value
seen["core_after_solve"] = {CORE!r} in sys.modules
print(json.dumps(seen))
"""


def test_baseline_run_loads_neither_highs_nor_networkx():
    r = run_python(BASELINE_THEN_SOLVE)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen["imported"] == []
    assert seen["jobs"] == 8
    assert seen["after_run"] == []
    assert seen["status"] == "optimal"
    assert seen["core_after_solve"] is True


#: a short LiPS replay and one SchedulingService tick, then linprog in the
#: same interpreter, checked against HighsBackend on one LiPS model
LIPS_THEN_LINPROG = f"""
import json, sys, tempfile
import numpy as np
from repro.cluster.builder import build_paper_testbed
from repro.core.assembly import ModelAssembler
from repro.core.model import SchedulingInput
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.lp import HighsBackend
from repro.schedulers import LipsScheduler
from repro.serve.service import SchedulingService, ServiceConfig
from repro.serve.soak import drive_service
from repro.workload.swim import SwimConfig, synthesize_facebook_day

heavy = {HEAVY!r}
seen = {{}}
cluster = build_paper_testbed(6, seed=3)
workload = synthesize_facebook_day(SwimConfig(
    num_jobs=8, duration_s=1800.0, classes=(("small", 1.0, (1, 6)),),
    num_origin_stores=6, seed=3,
))
sim = HadoopSimulator(cluster, workload, LipsScheduler(), SimConfig(placement_seed=3))
seen["jobs"] = sim.run().num_jobs
seen["core_after_lips"] = {CORE!r} in sys.modules
with tempfile.TemporaryDirectory() as wal_dir:
    service = SchedulingService(cluster, ServiceConfig(), wal_dir=wal_dir)
    service.start()
    schedule = sorted(
        ((job.arrival_time, job) for job in workload.jobs),
        key=lambda item: (item[0], item[1].job_id),
    )
    data_by_job = {{
        job.job_id: workload.data[job.data_ids[0]] for job in workload.jobs if job.data_ids
    }}
    drive_service(service, schedule, data_by_job, stop_after_ticks=1)
    seen["ticks"] = service.epochs_ticked
    service.result()
seen["imported"] = [m for m in heavy if m in sys.modules]

core = sys.modules[{CORE!r}]
from scipy.optimize import linprog
seen["core_reused"] = sys.modules[{CORE!r}] is core
asm = ModelAssembler(SchedulingInput.from_parts(cluster, workload), include_xd=True).build()
got = HighsBackend().solve_assembled(asm)
want = linprog(asm.c, A_ub=asm.a_ub.to_scipy(), b_ub=asm.b_ub, bounds=asm.bounds, method="highs")
seen["linprog_status"] = int(want.status)
seen["agree"] = bool(
    got.is_optimal
    and np.array_equal(got.x, want.x)
    and got.objective == want.fun
    and got.iterations == want.nit
)
print(json.dumps(seen))
"""


def test_lips_run_loads_only_the_highs_core():
    r = run_python(LIPS_THEN_LINPROG)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen["jobs"] == 8
    assert seen["core_after_lips"] is True
    assert seen["ticks"] == 1
    assert seen["imported"] == []
    # a later import of scipy.optimize reuses the loaded core, and linprog
    # through it solves exactly as HighsBackend does
    assert seen["core_reused"] is True
    assert seen["linprog_status"] == 0
    assert seen["agree"] is True


#: networkx made unimportable, as after ``pip install -e .`` with no extras
NO_NETWORKX = """
import sys
sys.modules["networkx"] = None
"""


def test_import_repro_without_networkx():
    r = run_python(NO_NETWORKX + "import repro, repro.schedulers\n")
    assert r.returncode == 0, r.stderr


def test_cli_help_without_networkx():
    r = run_python(
        NO_NETWORKX
        + "import runpy\n"
        + "sys.argv = ['repro', '--help']\n"
        + "runpy.run_module('repro', run_name='__main__')\n"
    )
    assert r.returncode == 0, r.stderr
    assert "usage" in r.stdout.lower()


def test_quincy_runs_without_networkx():
    r = run_python(
        NO_NETWORKX
        + f"""
import json
from repro.cluster.builder import build_paper_testbed
from repro.hadoop.sim import HadoopSimulator, SimConfig
from repro.schedulers import QuincyScheduler
from repro.workload.swim import SwimConfig, synthesize_facebook_day

workload = synthesize_facebook_day(SwimConfig(
    num_jobs=8, duration_s=1800.0, classes=(("small", 1.0, (1, 6)),),
    num_origin_stores=6, seed=3,
))
sched = QuincyScheduler("dollars")
sim = HadoopSimulator(
    build_paper_testbed(6, seed=3), workload, sched, SimConfig(placement_seed=3),
)
seen = {{"jobs": sim.run().num_jobs, "solves": sched.solves}}
seen["core"] = {CORE!r} in sys.modules
# networkx's entry is the None that blocks it
seen["imported"] = [m for m in {HEAVY!r} if sys.modules.get(m) is not None]
print(json.dumps(seen))
"""
    )
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout.splitlines()[-1])
    assert seen["jobs"] == 8
    assert seen["solves"] >= 1
    # Quincy's flow is an LP on the HiGHS core, like LiPS's epochs
    assert seen["core"] is True
    assert seen["imported"] == []
