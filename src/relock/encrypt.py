"""Sequential logic encryption with sporadic re-authentication.

``encrypt`` wraps a netlist in a mode controller lowered entirely to gate
primitives and D flip-flops, so the result is again a plain ``.bench``
netlist:

* an LFSR PRNG (see :mod:`relock.lfsr`) free-running from reset,
* a chain selector ``s`` and progress counter ``p`` addressing a table of
  secret input patterns; applying the selected chain on the primary inputs,
  one pattern per cycle, moves the design from encrypted to functional mode,
* a countdown that keeps the design functional for ``max(PRNG, 1)`` cycles
  after each authentication, then jumps back to encrypted mode and picks the
  next chain from the low bits of the PRNG,
* shadow registers that track the design state while functional and restore
  it on the next authentication, so corrupted encrypted-mode cycles leave no
  trace once the user re-authenticates,
* a corruption word, nonzero on every encrypted-mode cycle and forced to
  zero while functional, XORed into a randomly chosen coverage fraction of
  gate-output nets.

All randomness (key table, corruption words, XOR sites) derives from
``EncryptConfig.master_seed``, so encryption is reproducible byte for byte.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from typing import NamedTuple

from .bench import Gate, Netlist
from .lfsr import MAXIMAL_TAPS, new_lfsr

DEFAULT_SEED = 0x5EED

SCHEDULE_FORMAT_VERSION = 1

# comparator logic grows as chains * patterns; keep configs sane
_MAX_FSM_STATES = 4096


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _hex_word(value, what: str) -> int:
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a hex string, got {value!r}")
    return int(value, 16)


class EncryptConfig(NamedTuple):
    """Encryption parameters.

    lfsr_width : PRNG register width in bits.
    lfsr_taps : tap set, or None for the built-in maximal set.
    enc_out_width : corruption word width in bits.
    key_len : patterns per authentication chain (cycles per authentication).
    sbj_bits : chain selector width; 2**sbj_bits chains exist.
    coverage : fraction of gate outputs to corrupt, in (0, 1].
    master_seed : seeds every random choice the encryptor makes.
    """

    lfsr_width: int = 5
    lfsr_taps: tuple[int, ...] | None = None
    enc_out_width: int = 3
    key_len: int = 8
    sbj_bits: int = 2
    coverage: float = 0.1
    master_seed: int = DEFAULT_SEED

    def validate(self) -> None:
        for name in ("lfsr_width", "enc_out_width", "key_len", "sbj_bits", "master_seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.lfsr_taps is not None and not all(_is_int(t) for t in self.lfsr_taps):
            raise ValueError(f"lfsr_taps must be integers, got {list(self.lfsr_taps)}")
        if isinstance(self.coverage, bool) or not isinstance(self.coverage, (int, float)):
            raise ValueError(f"coverage must be a number, got {self.coverage!r}")
        if self.lfsr_width < 1:
            raise ValueError(f"lfsr_width must be >= 1, got {self.lfsr_width}")
        new_lfsr(self.lfsr_width, self.resolved_taps())  # raises on bad taps
        if self.key_len < 1:
            raise ValueError(f"key_len must be >= 1, got {self.key_len}")
        if not 1 <= self.sbj_bits <= self.lfsr_width:
            raise ValueError(
                f"sbj_bits must be in 1..lfsr_width ({self.lfsr_width}), got {self.sbj_bits}"
            )
        if self.enc_out_width < 1:
            raise ValueError(f"enc_out_width must be >= 1, got {self.enc_out_width}")
        if self.enc_out_width == 1 and self.key_len > 1:
            raise ValueError(
                "enc_out_width=1 cannot keep consecutive corruption words distinct; "
                "use enc_out_width >= 2"
            )
        if not 0 < self.coverage <= 1:
            raise ValueError(f"coverage must be in (0, 1], got {self.coverage}")
        if (1 << self.sbj_bits) * self.key_len > _MAX_FSM_STATES:
            raise ValueError(
                f"2**sbj_bits * key_len exceeds {_MAX_FSM_STATES} controller states"
            )

    def resolved_taps(self) -> tuple[int, ...]:
        if self.lfsr_taps is not None:
            return tuple(sorted(set(self.lfsr_taps)))
        if self.lfsr_width not in MAXIMAL_TAPS:
            raise ValueError(
                f"no built-in tap set for width {self.lfsr_width}; set lfsr_taps"
            )
        return MAXIMAL_TAPS[self.lfsr_width]

    def to_dict(self) -> dict:
        taps = self.lfsr_taps
        return {**self._asdict(), "lfsr_taps": list(taps) if taps is not None else None}

    @classmethod
    def from_dict(cls, d: dict) -> "EncryptConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        kwargs = dict(d)
        taps = kwargs.get("lfsr_taps")
        if taps is not None:
            kwargs["lfsr_taps"] = tuple(_json_list(taps, "lfsr_taps"))
        unknown = set(kwargs).difference(cls._fields)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**kwargs)


def load_config(path: str | Path) -> EncryptConfig:
    import json  # here, as in to_json and from_json: most callers never read or write JSON

    cfg = EncryptConfig.from_dict(json.loads(Path(path).read_text()))
    cfg.validate()
    return cfg


def _build_enc_fsm(n_inputs: int, cfg: EncryptConfig, rng: random.Random):
    """Draw the secret key table and corruption words of a validated config.

    Returns ``(key_table, enc_out_table)``: ``key_table[s][p]`` is the input
    pattern expected at progress ``p`` of chain ``s``, and
    ``enc_out_table[s][p]`` the corruption word emitted while the controller
    sits in that encrypted-mode state (functional mode emits all zeros).
    Corruption words are nonzero and no two consecutive states of a chain
    share a word, so the corruption signal visibly switches every cycle of a
    pending authentication.
    """
    chains = 1 << cfg.sbj_bits
    key_table = tuple(
        tuple(rng.getrandbits(n_inputs) for _ in range(cfg.key_len))
        for _ in range(chains)
    )
    enc_rows = []
    for _ in range(chains):
        row: list[int] = []
        prev = None
        for _ in range(cfg.key_len):
            w = rng.randrange(1, 1 << cfg.enc_out_width)
            while w == prev:
                w = rng.randrange(1, 1 << cfg.enc_out_width)
            row.append(w)
            prev = w
        enc_rows.append(tuple(row))
    return key_table, tuple(enc_rows)


class XorSite(NamedTuple):
    """One corrupted net: ``net`` is cut and re-driven by XOR(raw_net, enc bit)."""

    net: str
    enc_bit: int
    raw_net: str


def _fresh_prefix(nl: Netlist) -> str:
    names = nl.net_names
    cand = "LK_"
    k = 0
    while any(s.startswith(cand) for s in names):
        cand = f"LK{k}_"
        k += 1
    return cand


def _site_count(coverage: float, n_gates: int) -> int:
    """How many of ``n_gates`` gate outputs a lock at ``coverage`` corrupts."""
    return min(math.ceil(coverage * n_gates), n_gates)


def _xor_gates(
    nl: Netlist, enc_out_width: int, coverage: float, rng: random.Random, prefix: str
) -> tuple[list[Gate], tuple[XorSite, ...]]:
    """Cut ``ceil(coverage * n_gates)`` random gate-output nets with XOR taps.

    Each chosen net keeps its name but is re-driven by ``XOR(raw, enc_bit)``
    where ``raw`` is the renamed original gate output, so every downstream
    reader sees the corrupted value.  Corruption bits are assigned round
    robin and read nets named ``<prefix>corrupt<j>``, which the caller
    drives; tying them all to zero restores the original function exactly.
    ``enc_out_width`` and ``coverage`` come from a validated config.
    Returns the rewritten gates, unvalidated, and the sites.
    """
    if not nl.gates:
        raise ValueError(f"netlist '{nl.name}' has no gates to corrupt")
    picks = rng.sample(range(len(nl.gates)), _site_count(coverage, len(nl.gates)))
    new_gates = list(nl.gates)
    xor_gates: list[Gate] = []
    sites: list[XorSite] = []
    for idx, gi in enumerate(picks):
        g = new_gates[gi]
        j = idx % enc_out_width
        raw = f"{prefix}raw{idx}"
        new_gates[gi] = Gate(raw, g.kind, g.ins)
        xor_gates.append(Gate(g.out, "XOR", (raw, f"{prefix}corrupt{j}")))
        sites.append(XorSite(net=g.out, enc_bit=j, raw_net=raw))
    return new_gates + xor_gates, tuple(sites)


class KeySchedule(NamedTuple):
    """Everything the trusted key manager needs to drive an encrypted design.

    The PRNG width and taps, the key length, the chain selector width and
    the master seed are read through ``config``, which stores them once;
    ``_replace(config=...)`` is the way to change them.
    """

    circuit: str
    reset_seed: int
    n_inputs: int
    key_table: tuple[tuple[int, ...], ...]
    config: EncryptConfig

    lfsr_width = property(lambda self: self.config.lfsr_width)
    lfsr_taps = property(lambda self: self.config.resolved_taps())
    key_len = property(lambda self: self.config.key_len)
    sbj_bits = property(lambda self: self.config.sbj_bits)
    master_seed = property(lambda self: self.config.master_seed)

    def to_json(self) -> str:
        import json

        doc = {
            "version": SCHEDULE_FORMAT_VERSION,
            "circuit": self.circuit,
            "n": self.lfsr_width,
            "taps": list(self.lfsr_taps),
            "seed": hex(self.reset_seed),
            "c": self.key_len,
            "l": self.sbj_bits,
            "i": self.n_inputs,
            "key_table": [[hex(w) for w in row] for row in self.key_table],
            "master_seed": self.master_seed,
            "config": self.config.to_dict(),
        }
        return json.dumps(doc, indent=2) + "\n"

    def validate(self) -> None:
        """Raise ValueError unless the schedule can drive a design.

        Checks the field types, the embedded encryption config (through
        ``EncryptConfig.validate``), the reset seed (through ``new_lfsr``),
        and ``2**sbj_bits`` key table rows of ``key_len`` patterns each,
        every pattern in ``[0, 2**n_inputs)``.
        """
        if not isinstance(self.circuit, str):
            raise ValueError(f"circuit must be a string, got {self.circuit!r}")
        for name, value in (("seed", self.reset_seed), ("i", self.n_inputs)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        try:
            self.config.validate()
        except ValueError as e:
            raise ValueError(f"config: {e}") from e
        new_lfsr(self.lfsr_width, self.lfsr_taps, self.reset_seed)  # raises on a bad seed
        if self.n_inputs < 1:
            raise ValueError(f"i must be >= 1, got {self.n_inputs}")
        if len(self.key_table) != 1 << self.sbj_bits:
            raise ValueError(f"key_table has {len(self.key_table)} rows, l = {self.sbj_bits} needs {1 << self.sbj_bits}")
        limit = 1 << self.n_inputs
        for s, row in enumerate(self.key_table):
            if len(row) != self.key_len:
                raise ValueError(f"key_table row {s} has {len(row)} patterns, c = {self.key_len}")
            for w in row:
                if not 0 <= w < limit:
                    raise ValueError(f"key_table row {s}: pattern {w:#x} does not fit i = {self.n_inputs} inputs")

    @classmethod
    def from_json(cls, text: str) -> "KeySchedule":
        """Parse and validate a schedule; raises ValueError on a malformed one
        (KeyError for a missing field).

        The file repeats the config's width, taps, key length, chain bits
        and master seed at its top level as ``n``, ``taps``, ``c``, ``l``
        and ``master_seed``; each must agree with the config.
        """
        import json

        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a key schedule must be a JSON object")
        version = doc.get("version")
        if version != SCHEDULE_FORMAT_VERSION:
            raise ValueError(f"unsupported key schedule version: {version!r}")
        sched = cls(
            circuit=doc["circuit"],
            reset_seed=_hex_word(doc["seed"], "seed"),
            n_inputs=doc["i"],
            key_table=tuple(
                tuple(_hex_word(w, "key_table pattern") for w in _json_list(row, "key_table row"))
                for row in _json_list(doc["key_table"], "key_table")
            ),
            config=EncryptConfig.from_dict(doc["config"]),
        )
        taps = _json_list(doc["taps"], "taps")
        if not all(_is_int(t) for t in taps):
            raise ValueError(f"taps must be integers, got {taps}")
        # before the key table checks, so a wrong c is reported as a mismatch, not as short rows
        for name, cfg_name in (("n", "lfsr_width"), ("c", "key_len"), ("l", "sbj_bits"), ("master_seed", "master_seed")):
            value, cfg_value = doc[name], getattr(sched.config, cfg_name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value != cfg_value:
                raise ValueError(f"config: {cfg_name} {cfg_value!r} does not match the schedule's {name} {value}")
        sched.validate()
        if sorted(set(taps)) != sorted(sched.lfsr_taps):
            raise ValueError(f"config: lfsr_taps {sorted(sched.lfsr_taps)} does not match the schedule's taps {sorted(set(taps))}")
        return sched


def load_schedule(path: str | Path) -> KeySchedule:
    return KeySchedule.from_json(Path(path).read_text())


def save_schedule(sched: KeySchedule, path: str | Path) -> None:
    Path(path).write_text(sched.to_json())


class EncryptReport(NamedTuple):
    prefix: str
    sites: tuple[XorSite, ...]
    requested_coverage: float
    achieved_coverage: float
    added_gates: int
    added_dffs: int


class EncryptedDesign(NamedTuple):
    netlist: Netlist
    schedule: KeySchedule
    report: EncryptReport


class _NetFactory:
    """Fresh prefixed net names plus small structural building blocks."""

    def __init__(self, prefix: str, gates: list[Gate], anchor: str):
        self.prefix = prefix
        self.gates = gates
        self.anchor = anchor  # any defined net, used to fabricate constants
        self._n = 0
        self._not_cache: dict[str, str] = {}
        self._const0: str | None = None

    def fresh(self) -> str:
        name = f"{self.prefix}t{self._n}"
        self._n += 1
        return name

    def emit(self, kind: str, ins, out: str | None = None) -> str:
        if out is None:
            out = self.fresh()
        self.gates.append(Gate(out, kind, tuple(ins)))
        return out

    def inv(self, a: str) -> str:
        got = self._not_cache.get(a)
        if got is None:
            got = self.emit("NOT", (a,))
            self._not_cache[a] = got
        return got

    def and2(self, a: str, b: str, out: str | None = None) -> str:
        return self.emit("AND", (a, b), out)

    def or2(self, a: str, b: str) -> str:
        return self.emit("OR", (a, b))

    def xor2(self, a: str, b: str) -> str:
        return self.emit("XOR", (a, b))

    def xnor2(self, a: str, b: str) -> str:
        return self.emit("XNOR", (a, b))

    def const0(self) -> str:
        if self._const0 is None:
            self._const0 = self.emit("XOR", (self.anchor, self.anchor))
        return self._const0

    def and_tree(self, terms: list[str]) -> str:
        return terms[0] if len(terms) == 1 else self.emit("AND", terms)

    def or_tree(self, terms: list[str]) -> str:
        if not terms:
            return self.const0()
        return terms[0] if len(terms) == 1 else self.emit("OR", terms)

    def mux(self, sel: str, a: str, b: str) -> str:
        """sel ? a : b"""
        return self.or2(self.and2(sel, a), self.and2(self.inv(sel), b))

    def fold_xnor(self, nets: list[str]) -> str:
        cur = nets[0]
        for x in nets[1:]:
            cur = self.xnor2(cur, x)
        return cur

    def eq_const(self, nets: list[str], value: int) -> str:
        terms = [net if (value >> k) & 1 else self.inv(net) for k, net in enumerate(nets)]
        return self.and_tree(terms)

    def eq_nets(self, xs: list[str], ys: list[str]) -> str:
        return self.and_tree([self.xnor2(a, b) for a, b in zip(xs, ys)])

    def incr(self, nets: list[str]) -> list[str]:
        """nets + 1 modulo 2**len(nets), LSB first."""
        out = [self.inv(nets[0])]
        carry = nets[0]
        for k in range(1, len(nets)):
            out.append(self.xor2(nets[k], carry))
            if k < len(nets) - 1:
                carry = self.and2(nets[k], carry)
        return out


def encrypt(nl: Netlist, cfg: EncryptConfig) -> EncryptedDesign:
    """Encrypt a netlist.  Deterministic given ``cfg.master_seed``.

    The returned design has the same primary inputs and outputs as ``nl``;
    all controller state is added as extra flip-flops.  See the module
    docstring for the controller's behavior.
    """
    cfg.validate()
    n_in = len(nl.inputs)
    if n_in == 0:
        raise ValueError(f"netlist '{nl.name}' has no primary inputs")
    taps = cfg.resolved_taps()
    rng_fsm = random.Random(f"{cfg.master_seed}/fsm")
    rng_sites = random.Random(f"{cfg.master_seed}/sites")
    prefix = _fresh_prefix(nl)

    key_table, enc_out_table = _build_enc_fsm(n_in, cfg, rng_fsm)
    gates, sites = _xor_gates(nl, cfg.enc_out_width, cfg.coverage, rng_sites, prefix)

    n = cfg.lfsr_width
    c = cfg.key_len
    chains = 1 << cfg.sbj_bits
    p_bits = max(1, (c - 1).bit_length())

    f = _NetFactory(prefix, gates, anchor=nl.inputs[0])
    x = list(nl.inputs)
    lfsr_q = [f"{prefix}lfsr{j}" for j in range(n)]
    cnt_q = [f"{prefix}cnt{j}" for j in range(n)]
    tbj_q = [f"{prefix}tbj{j}" for j in range(n)]
    auth_q = f"{prefix}auth"
    s_q = [f"{prefix}s{j}" for j in range(cfg.sbj_bits)]
    p_q = [f"{prefix}p{j}" for j in range(p_bits)]
    sh_q = [f"{prefix}sh{k}" for k in range(len(nl.dffs))]

    not_auth = f.inv(auth_q)

    # free-running PRNG: shift up, fold-XNOR feedback into bit 0
    fb = f.fold_xnor([lfsr_q[t - 1] for t in taps])
    lfsr_next = [fb] + lfsr_q[:-1]

    # decode (chain, progress) and compare the inputs against the key table
    dec_s = [f.eq_const(s_q, v) for v in range(chains)]
    dec_p = [f.eq_const(p_q, u) for u in range(c)]
    pair = [[f.and2(dec_s[v], dec_p[u]) for u in range(c)] for v in range(chains)]
    match_terms = []
    for v in range(chains):
        for u in range(c):
            match_terms.append(f.and2(pair[v][u], f.eq_const(x, key_table[v][u])))
    match = f.or_tree(match_terms)
    last = dec_p[c - 1]
    m_na = f.and2(not_auth, match)
    enter = f.and2(m_na, last, out=f"{prefix}enter")
    adv = f.and2(m_na, f.inv(last))

    # functional-mode countdown: back-jump when cnt + 1 reaches the period
    cnt_p1 = f.incr(cnt_q)
    bj = f.and2(auth_q, f.eq_nets(cnt_p1, tbj_q), out=f"{prefix}backjump")

    # corruption word: table lookup while encrypted, all-zeros while functional
    used_bits = sorted({s.enc_bit for s in sites})
    for j in used_bits:
        terms = [
            pair[v][u]
            for v in range(chains)
            for u in range(c)
            if (enc_out_table[v][u] >> j) & 1
        ]
        f.and2(not_auth, f.or_tree(terms), out=f"{prefix}corrupt{j}")

    new_dffs: list[tuple[str, str]] = []
    # design flip-flops: restored from shadow at the authentication edge
    not_enter = f.inv(enter)
    for k, (q, d) in enumerate(nl.dffs):
        new_dffs.append((q, f.or2(f.and2(enter, sh_q[k]), f.and2(not_enter, d))))
    # shadow: follow the design while functional, hold while encrypted
    for k, (_q, d) in enumerate(nl.dffs):
        new_dffs.append((sh_q[k], f.or2(f.and2(auth_q, d), f.and2(not_auth, sh_q[k]))))
    for j in range(n):
        new_dffs.append((lfsr_q[j], lfsr_next[j]))
    # countdown: clear at the authentication edge, count while functional
    for j in range(n):
        new_dffs.append((cnt_q[j], f.and2(not_enter, f.mux(auth_q, cnt_p1[j], cnt_q[j]))))
    # back-jump period: load max(PRNG, 1) at the authentication edge
    if n == 1:
        prng_zero = f.inv(lfsr_next[0])
    else:
        prng_zero = f.emit("NOR", tuple(lfsr_next))
    load0 = f.or2(lfsr_next[0], prng_zero)
    for j in range(n):
        ld = load0 if j == 0 else lfsr_next[j]
        new_dffs.append((tbj_q[j], f.mux(enter, ld, tbj_q[j])))
    # mode flag
    new_dffs.append((auth_q, f.or2(enter, f.and2(auth_q, f.inv(bj)))))
    # chain selector: low bits of the PRNG at the back-jump edge
    for j in range(cfg.sbj_bits):
        new_dffs.append((s_q[j], f.mux(bj, lfsr_next[j], s_q[j])))
    # progress: advance on a partial match, clear otherwise
    p_p1 = f.incr(p_q)
    for j in range(p_bits):
        new_dffs.append((p_q[j], f.and2(adv, p_p1[j])))

    netlist = Netlist(
        name=f"{nl.name}_enc",
        inputs=nl.inputs,
        outputs=nl.outputs,
        gates=tuple(f.gates),
        dffs=tuple(new_dffs),
    )
    schedule = KeySchedule(circuit=nl.name, reset_seed=0, n_inputs=n_in, key_table=key_table, config=cfg)
    report = EncryptReport(
        prefix=prefix,
        sites=sites,
        requested_coverage=cfg.coverage,
        achieved_coverage=len(sites) / len(nl.gates),
        added_gates=len(netlist.gates) - len(nl.gates),
        added_dffs=len(netlist.dffs) - len(nl.dffs),
    )
    return EncryptedDesign(netlist=netlist, schedule=schedule, report=report)
