"""Regenerate expected.json: answers that do not come from the pipeline.

    python3 bench/make_expected.py   # about 25 minutes on 2 cores

For the groups the workloads draw from, A5 and S5, every central colouring
(every set partition of the nontrivial conjugacy classes) is classified by
its principal section; the normal-type ones other than "full" are
candidates for the pools.  Every colouring a seed can draw, and every fixed
input (all have n <= 200), gets its |Aut| from ``brute_force_oracle``; the swap pair
gets its verdict from it too.  The section type only chooses the pools; no
answer depends on it.  A candidate whose oracle run exceeds ORACLE_SECONDS
is left out of the pool and listed under ``oracle_timeouts``; that depends
on the oracle's search, never on the pipeline's answer.  The workloads draw
from ``normal_pool``, spread over its |Aut| classes (see
``workloads.draw_colourings``).
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import time

import workloads as wl

# groups whose pools some workload draws from
POOL_GROUPS = sorted(set(wl.NORMAL_DRAWS) | {name for name, *_ in wl.PAIR_DRAWS})
ORACLE_SECONDS = 30


class OracleTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OracleTimeout


def _graph(groups, api, G, colouring):
    side = {"group": G.name, "colouring": [list(p) for p in colouring]}
    return wl.build_side(side, groups, api).graph


def answers_for_group(name: str) -> dict:
    api = wl.import_library()
    from cencay.cayley import cayley_wl, principal_section
    from cencay.iso import brute_force_oracle

    signal.signal(signal.SIGALRM, _alarm)
    groups = wl.build_groups()
    G = groups[name]
    fixed = {wl.colouring_key(c) for H, c in wl.fixed_inputs(groups) if H is G}
    orders, pool, timeouts = {}, [], []
    for parts in wl.set_partitions(list(range(1, len(G.classes)))):
        key = wl.colouring_key(parts)
        if name not in POOL_GROUPS and key not in fixed:
            continue
        gamma = _graph(groups, api, G, parts)
        kind = principal_section(cayley_wl(gamma)).kind
        candidate = kind == "normal" and key not in fixed and name in POOL_GROUPS
        if not candidate and key not in fixed:
            continue
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, ORACLE_SECONDS if candidate else 0)
        try:
            orders[key] = str(brute_force_oracle(gamma, gamma).aut_order)
        except OracleTimeout:
            timeouts.append(key)
            print(f"{name} {key:<24} {kind:<9} oracle over {ORACLE_SECONDS}s", flush=True)
            continue
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if candidate:
            pool.append(key)
        print(f"{name} {key:<24} {kind:<9} |Aut| {orders[key][:24]:<24} "
              f"oracle {time.perf_counter() - t0:.1f}s", flush=True)
    return {"aut_order": orders, "normal_pool": pool, "oracle_timeouts": timeouts}


def swap_verdict() -> str:
    api = wl.import_library()
    from cencay.iso import brute_force_oracle

    groups = wl.build_groups()
    S5 = groups["sym5"]
    a, b = wl.swap_colourings(S5)
    return brute_force_oracle(_graph(groups, api, S5, a), _graph(groups, api, S5, b)).verdict


def answers() -> None:
    wl.import_library()
    from cencay.iso import ORACLE_CAP

    groups = wl.build_groups()
    names = sorted({G.name for G, _ in wl.fixed_inputs(groups) if G.order <= ORACLE_CAP})
    with multiprocessing.get_context("spawn").Pool(2) as workers:
        swap = workers.apply_async(swap_verdict)
        per_group = dict(zip(names, workers.map(answers_for_group, names)))
        swap = swap.get()
    out = {
        "oracle_cap": ORACLE_CAP,
        "oracle_seconds": ORACLE_SECONDS,
        "signatures": {name: G.signature() for name, G in groups.items()},
        "swap_verdict": swap,
    }
    for field in ("aut_order", "normal_pool", "oracle_timeouts"):
        out[field] = {name: per_group[name][field] for name in names}
    with open(wl.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    answers()
