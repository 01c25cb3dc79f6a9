"""Hosts the detection fleet the benchmark serves through.

``python3 perfbench/host.py MODEL --setups N`` starts the fleet the way
``repro-serve fleet`` does: a ``FleetThread`` over
``load_model_doc(MODEL)`` with two workers, so ``FleetSupervisor`` spawns
the worker processes one after another with their ready handshakes, and
the router runs on the fleet's event loop in this process.  It does so
``N`` times, timing each start-up until the router answers a ping; the
first ``N - 1`` fleets are stopped again and the last one stays up.

The process then prints ``{"host", "port", "setup_s": [...]}`` and reads
commands on stdin: ``snap`` prints one JSON line with this process's CPU
time (the router's), the router's ledger and stats, and each worker's
stats; end of input stops the fleet and exits.  The parent closing the
pipe, or dying, therefore always ends the fleet.

The client runs in another process, so that it does not share this
process's interpreter with the router.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

WORKERS = 2


def _ask(address, op: str) -> dict:
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(json.dumps({"op": op, "id": 0}).encode() + b"\n")
        reply = json.loads(sock.makefile("rb").readline())
    if "error" in reply:
        raise RuntimeError(f"{op} to {address} failed: {reply}")
    return reply


def start_fleet(model_doc):
    """One timed fleet start-up; returns the running fleet and seconds."""
    from repro.serve.fleet import FleetThread

    t0 = time.perf_counter()
    fleet = FleetThread(model_doc, workers=WORKERS)
    address = fleet.start()
    if not _ask(address, "ping").get("ok"):
        raise RuntimeError("router does not answer ping")
    return fleet, time.perf_counter() - t0


def snap(fleet) -> dict:
    import sitecustomize

    ledger = sitecustomize.LEDGER
    workers = fleet.fleet.supervisor.workers
    return {
        "cpu_s": time.process_time(),
        "ledger": ledger.snapshot() if ledger is not None else {},
        "router": _ask(fleet.address, "stats")["stats"],
        "workers": {name: _ask(addr, "stats")["stats"]
                    for name, addr in sorted(workers.items())},
    }


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model")
    parser.add_argument("--setups", type=int, default=1)
    args = parser.parse_args()

    from repro.serve.fleet import load_model_doc

    model_doc = load_model_doc(args.model)
    fleet, times = None, []
    try:
        for _ in range(args.setups):
            if fleet is not None:
                fleet.stop()
                fleet = None
            fleet, seconds = start_fleet(model_doc)
            times.append(seconds)
        host, port = fleet.address
        _emit({"host": host, "port": port, "setup_s": times})
        for line in sys.stdin:
            if line.strip() == "snap":
                _emit(snap(fleet))
    finally:
        if fleet is not None:
            fleet.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
