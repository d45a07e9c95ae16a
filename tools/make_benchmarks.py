#!/usr/bin/env python3
"""Generate the bundled sequential benchmark circuits.

s27 is the classic hand-written netlist and is kept verbatim.  The larger
circuits are deterministic random netlists with the classic inventory
(inputs/outputs/flip-flops/gates) of their namesakes, built so that every
gate output is consumed, the combinational core is acyclic, the state feeds
back through late gates, and every primary output actually toggles under a
random workload.  Regenerating is idempotent: the same name always yields
the same file.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from relock.bench import CompiledCircuit, Gate, Netlist, save_bench  # noqa: E402
from relock.sim import simulate, workload_stimulus  # noqa: E402

# name -> (inputs, outputs, dffs, gates)
INVENTORY = {
    "s298": (3, 6, 14, 119),
    "s1238": (14, 14, 18, 508),
    "s9234": (36, 39, 211, 5597),
    "s15850": (77, 150, 534, 9772),
    "s35932": (35, 320, 1728, 16065),
    "s38584": (38, 304, 1426, 19253),
}

_KINDS = ["AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF"]
_KIND_W = [0.22, 0.22, 0.21, 0.19, 0.04, 0.03, 0.06, 0.03]

_PROBE_CYCLES = 128
_MIN_TOGGLES = 6


def _build(name: str, n_in: int, n_out: int, n_dff: int, n_gates: int, attempt: int) -> Netlist | None:
    rng = random.Random(f"bench/{name}/{attempt}")
    inputs = [f"PI{b}" for b in range(n_in)]
    dff_q = [f"Q{k}" for k in range(n_dff)]
    gate_out = [f"N{j}" for j in range(n_gates)]

    # guarantee every input and state bit feeds at least one gate
    forced: dict[int, list[str]] = {}
    for b, net in enumerate(inputs):
        forced.setdefault(b * n_gates // n_in, []).append(net)
    for k, net in enumerate(dff_q):
        forced.setdefault((2 * k + 1) * n_gates // (2 * n_dff), []).append(net)

    pool = inputs + dff_q
    gates: list[Gate] = []
    for j in range(n_gates):
        kind = rng.choices(_KINDS, weights=_KIND_W)[0]
        must = forced.get(j, [])
        if kind in ("NOT", "BUFF"):
            arity = 1
        else:
            arity = rng.choices([2, 3, 4], weights=[0.85, 0.12, 0.03])[0]
        if len(must) > arity:
            arity = len(must)
            if kind in ("NOT", "BUFF"):
                kind = rng.choice(["AND", "OR", "NAND", "NOR"])
        ins = list(must)
        while len(ins) < arity:
            # bias toward recent nets so the circuit gets some depth
            if len(pool) > 60 and rng.random() < 0.7:
                cand = pool[rng.randrange(len(pool) - 60, len(pool))]
            else:
                cand = pool[rng.randrange(len(pool))]
            if cand not in ins:
                ins.append(cand)
        gates.append(Gate(gate_out[j], kind, tuple(ins)))
        pool.append(gate_out[j])

    # state feedback comes from the later two thirds of the gate list
    dffs: list[tuple[str, str]] = []
    for k in range(n_dff):
        dffs.append((dff_q[k], gate_out[rng.randrange(n_gates // 3, n_gates)]))

    readers: dict[str, int] = {}
    for g in gates:
        for a in g.ins:
            readers[a] = readers.get(a, 0) + 1
    for _q, d in dffs:
        readers[d] = readers.get(d, 0) + 1

    # wire leftover gate outputs into later gates, or steal a flip-flop feed
    # whose net keeps another reader (so the steal never uncovers a new
    # dangler and one descending pass settles everything)
    n_ary = [j for j, g in enumerate(gates) if g.kind not in ("NOT", "BUFF")]
    for j in range(n_gates - 1, -1, -1):
        net = gate_out[j]
        if readers.get(net, 0) > 0:
            continue
        later = [jj for jj in n_ary if jj > j]
        if later:
            jj = rng.choice(later)
            g = gates[jj]
            gates[jj] = Gate(g.out, g.kind, g.ins + (net,))
        else:
            cands = [k for k, (_q, d) in enumerate(dffs) if readers[d] >= 2]
            if not cands:
                return None
            k = rng.choice(cands)
            q, old = dffs[k]
            dffs[k] = (q, net)
            readers[old] -= 1
        readers[net] = readers.get(net, 0) + 1

    # probe the closed design to find nets that actually move: with every
    # gate output listed as an output, eval returns them all
    probe = Netlist(name, tuple(inputs), tuple(gate_out), tuple(gates), tuple(dffs))
    cc = CompiledCircuit(probe)
    toggles = {net: 0 for net in gate_out}
    prev: dict[str, int] = {}
    state = [0] * n_dff
    for _t in range(_PROBE_CYCLES):
        word = rng.getrandbits(n_in)
        vals, state = cc.eval([(word >> b) & 1 for b in range(n_in)], state)
        for net, v in zip(gate_out, vals):
            if net in prev and prev[net] != v:
                toggles[net] += 1
            prev[net] = v

    lively = [net for net in gate_out if toggles[net] >= _MIN_TOGGLES]
    cut = (2 * n_gates) // 5
    late = [net for net in lively if int(net[1:]) >= cut]
    if len(late) >= n_out:
        outputs = rng.sample(late, n_out)
    elif len(lively) >= n_out:
        early = [net for net in lively if int(net[1:]) < cut]
        outputs = late + rng.sample(early, n_out - len(late))
    else:
        return None
    outputs.sort(key=lambda s: int(s[1:]))

    return Netlist(name, tuple(inputs), tuple(outputs), tuple(gates), tuple(dffs))


def _lively(nl: Netlist, rng: random.Random, cycles: int = 256) -> bool:
    """Every output must take both values under an independent random run."""
    wl = [rng.getrandbits(len(nl.inputs)) for _ in range(cycles)]
    tr = simulate(nl, workload_stimulus(wl))
    seen1 = 0
    seen0 = 0
    for word in tr.outputs:
        seen1 |= word
        seen0 |= ~word
    full = (1 << len(nl.outputs)) - 1
    return (seen1 & full) == full and (seen0 & full) == full


def make(name: str) -> Netlist:
    n_in, n_out, n_dff, n_gates = INVENTORY[name]
    for attempt in range(20):
        nl = _build(name, n_in, n_out, n_dff, n_gates, attempt)
        if nl is not None and _lively(nl, random.Random(f"lively/{name}/{attempt}")):
            return nl
    raise RuntimeError(f"{name}: no lively netlist in 20 attempts")


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    out_dir.mkdir(exist_ok=True)
    for name in INVENTORY:
        nl = make(name)
        s = nl.stats()
        assert (s.n_inputs, s.n_outputs, s.n_dffs, s.n_gates) == INVENTORY[name]
        save_bench(nl, out_dir / f"{name}.bench")
        print(f"{name}: {s.n_inputs}/{s.n_outputs}/{s.n_dffs}/{s.n_gates}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
