"""The 50k-request serving chaos storm, replayed twice in fresh processes.

``repro serve --qps 2000 --requests 50000 --seed 7 --chaos`` runs about
30% transient faults on the primary site plus a scripted mid-run backend
kill.  The two replays must be byte-identical artifacts of the virtual
clock; the summary must conserve every request, meet the SLO for at least
99% of admitted requests while shedding overload at the front door, show
the breaker opening and closing again, and show the faults firing on the
primary site only; and nothing under the output directory may be torn.

Run from the repository root:
``PYTHONPATH=src python -m pytest benchmarks/test_serve_chaos_storm.py``
(about 15 s).
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

from repro.resilience.chaos import _torn_artifacts

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def replay(out: pathlib.Path, cache: pathlib.Path) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC), "REPRO_CACHE_DIR": str(cache)}
    subprocess.run([sys.executable, "-m", "repro", "serve", "--qps", "2000",
                    "--requests", "50000", "--seed", "7", "--chaos", "--out", str(out)],
                   env=env, check=True, capture_output=True)
    return out.read_bytes()


def test_chaos_storm_meets_the_slo_and_replays_identically(tmp_path):
    first = replay(tmp_path / "run1.json", tmp_path / "cache")
    second = replay(tmp_path / "run2.json", tmp_path / "cache")  # on the first's cache
    assert hashlib.sha256(first).hexdigest() == hashlib.sha256(second).hexdigest()

    s = json.loads(first)
    assert s["schema"] == "repro.serve.summary/v1", s["schema"]
    c = s["counts"]
    # accounting conserves, end to end
    assert s["invariants"]["conservation"] is True
    assert c["offered"] == 50000, c
    assert c["offered"] == c["admitted"] + c["shed"]["total"]
    assert c["admitted"] == c["completed"] + c["expired"]

    # >=99% of *admitted* requests meet their SLO even while the primary
    # dies mid-run; overload is refused at the front door (shed on the
    # deadline estimate), not starved in the queue
    assert s["slo_attainment"] >= 0.99, s["slo_attainment"]
    assert s["goodput"] >= 0.6, s["goodput"]
    assert c["shed"]["deadline"] > 0, c["shed"]
    assert c["expired"] <= c["admitted"] * 1e-3, c

    # the scripted kill tripped the breaker and the half-open probe
    # re-admitted the primary; the brownout actually served
    brk = s["breaker"]
    assert brk["opens"] >= 1 and brk["closes"] >= 1, brk
    assert c["brownout_batches"] > 0 and c["probe_batches"] >= 1, c
    states = [st for _, st in brk["transitions"]]
    assert "half_open" in states and states[-1] == "closed", states

    # the chaos plan genuinely fired on the primary site
    injected = s["faults_injected"]
    assert sum(injected.values()) > 0, injected
    assert all(site.startswith("serve.backend.") for site in injected), injected

    assert _torn_artifacts(tmp_path) == []
