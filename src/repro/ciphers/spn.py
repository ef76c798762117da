"""Generic round-iterative SPN datapath generator.

One hardware template covers every cipher in the repository (and any other
S-box/bit-permutation SPN a user brings): a block-wide state register, a key
scheduler, one physical S-box layer reused every clock cycle, and the
bit-permutation as wiring.  The template also knows how to build the
*encoded* (λ-domain) variant of itself, which is the machinery the paper's
three-in-one countermeasure is made of:

- **no domain** (``lam=None``) — the plain core used in the unprotected
  design and in naïve duplication / triplication;
- **static domain** (``lam`` given, ``dynamic_domain=False``) — the paper's
  *prime* variant: a single λ encodes the entire computation.  The
  plaintext is encoded once on load, the merged ``(n+1)``-input S-boxes
  carry the domain through the non-linear layer, the linear layers are
  domain-transparent (``x̄ ⊕ k = (x ⊕ k)‾``, permutations move complements
  unchanged), and the output is decoded at the end;
- **dynamic domain** (``dynamic_domain=True``) — the *per-round* and
  *per-S-box* variants: λ may change every cycle, so the core keeps the
  previous cycle's λ in a register and re-encodes each S-box input from the
  domain its bits were produced in to the domain of the S-box consuming
  them (one XOR per state bit).

The returned :class:`SpnCore` records the S-box input/output nets per box —
fault campaigns use these to aim at "the 2nd MSB input line of S-box 13",
exactly how the paper describes its injections.

Every spec also carries a *packed* software reference
(:meth:`CipherSpec.encrypt_packed`): the simulator's ``(block, n_words)``
plaintext lanes in, ciphertext byte rows out.  :class:`SpnSpec` implements
it once for every S-box/bit-permutation cipher by bitslicing: the S-box
layer is its algebraic normal form evaluated over whole lane words, the
permutation one row gather, the round masks the spec's
:meth:`SpnSpec.round_masks`.  Fault campaigns take their expected
ciphertexts from it, so a fault-free netlist bug never agrees with itself.
"""

from __future__ import annotations

import abc
import functools
from dataclasses import dataclass, field

import numpy as np

from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.ciphers.sbox import SBox
from repro.utils.bits import ints_to_bits, words_to_bytes

__all__ = ["CipherSpec", "SpnSpec", "SpnCore", "build_spn_core"]

Word = list[int]


class CipherSpec(abc.ABC):
    """What a countermeasure wrapper needs from *any* cipher datapath.

    :class:`SpnSpec` covers S-box/bit-permutation ciphers via the shared
    round template; ciphers with richer linear layers (AES's MixColumns)
    implement :meth:`build_core` and :meth:`encrypt_packed` themselves —
    see :class:`repro.ciphers.netlist_aes.AesSpec`.
    """

    name: str
    block_bits: int
    key_bits: int
    rounds: int
    sbox: "SBox"

    @property
    def n_sboxes(self) -> int:
        if self.block_bits % self.sbox.n:
            raise ValueError("block width not a multiple of the S-box size")
        return self.block_bits // self.sbox.n

    @abc.abstractmethod
    def build_core(
        self,
        builder: CircuitBuilder,
        plaintext: "Word",
        key: "Word",
        *,
        sbox_circuit: Circuit,
        lam: "Word | None" = None,
        dynamic_domain: bool = False,
        tag: str = "core",
    ) -> "SpnCore":
        """Stamp one core of this cipher into ``builder``."""

    def reference(self, key: int):  # pragma: no cover - overridden where used
        """Spec-level oracle object with an ``encrypt`` method (tests)."""
        raise NotImplementedError

    def encrypt_packed(
        self, words: np.ndarray, key: int, batch: int
    ) -> np.ndarray:  # pragma: no cover - overridden where used
        """Encrypt ``batch`` packed plaintext lanes under ``key``.

        ``words`` is ``(block_bits, n_words)`` uint64 packed rows (the
        simulator's input layout); the result is the ciphertexts as
        ``(batch, ceil(block_bits / 8))`` byte rows, equal to
        ``reference(key).encrypt`` run by run.
        """
        raise NotImplementedError

    # -- last-round structure (shared by the SIFA/DFA/PFA solvers) --------
    #
    # Every cipher here ends in the same shape: C = P(S(x)) ⊕ mask, where
    # P is a bit/byte permutation and mask is the final round key material
    # (PRESENT's whitening key, GIFT's partial round key + constants,
    # AES's K10 after ShiftRows).  The attacks only need to know where one
    # S-box's outputs land and what the true mask bits there are.

    def gather_positions(self, target_sbox: int) -> list[int]:
        """Ciphertext bit positions carrying ``target_sbox``'s last-round
        outputs (LSB of the S-box output first)."""
        raise NotImplementedError

    def last_round_subkey(self, key: int, target_sbox: int) -> int:
        """True final-mask bits at :meth:`gather_positions` (ground truth
        for attack rank reporting)."""
        raise NotImplementedError


class SpnSpec(CipherSpec):
    """Everything the generic template needs to know about one cipher."""

    #: cipher name (used in circuit/tag names)
    name: str
    #: block width in bits
    block_bits: int
    #: key width in bits
    key_bits: int
    #: number of round iterations (= clock cycles per block)
    rounds: int
    #: the substitution box applied to every ``sbox.n``-bit slice
    sbox: SBox
    #: bit permutation: state bit ``i`` moves to ``perm[i]``
    perm: list[int]
    #: True: round mask XORed before the S-box layer (PRESENT);
    #: False: after the permutation (GIFT)
    add_key_first: bool
    #: True: ciphertext = final state ⊕ the next round mask (PRESENT's
    #: post-whitening); False: ciphertext = final state (GIFT)
    final_whitening: bool

    @abc.abstractmethod
    def build_scheduler(
        self, builder: CircuitBuilder, key_in: Word, first: int, tag: str
    ) -> Word:
        """Emit the key schedule; return this cycle's ``block_bits`` mask.

        ``first`` is 1 during cycle 0 only (for load muxes).  The scheduler
        owns whatever registers it needs (key state, round counter, LFSR);
        they must advance on every clock so that cycle ``r`` produces the
        mask for round ``r + 1``.
        """

    def gather_positions(self, target_sbox: int) -> list[int]:
        n = self.sbox.n
        return [self.perm[n * target_sbox + i] for i in range(n)]

    def last_round_subkey(self, key: int, target_sbox: int) -> int:
        mask = self.round_masks(key)[-1]  # XORed after the last permutation
        value = 0
        for i, pos in enumerate(self.gather_positions(target_sbox)):
            value |= ((mask >> pos) & 1) << i
        return value

    def round_masks(self, key: int) -> list[int]:
        """Every block-wide XOR mask of one encryption, in order.

        One per round, plus the whitening key last when
        ``final_whitening``; either way the last mask is the one XORed
        after the last permutation.  The default reads
        ``reference(key).round_keys`` (PRESENT's); GIFT overrides it with
        its partial round keys plus constants.
        """
        return list(self.reference(key).round_keys)

    def encrypt_packed(self, words: np.ndarray, key: int, batch: int) -> np.ndarray:
        n, n_sboxes = self.sbox.n, self.n_sboxes
        n_words = words.shape[1]
        # bit-major state: state[b, j] is input bit b of S-box j (row n*j + b)
        state = np.ascontiguousarray(
            np.asarray(words, dtype=np.uint64)
            .reshape(n_sboxes, n, n_words)
            .transpose(1, 0, 2)
        )
        # every round mask, bit-major, as all-zero/all-one lane words
        bits = ints_to_bits(self.round_masks(key), self.block_bits)
        bits = bits.reshape(-1, n_sboxes, n).transpose(0, 2, 1)
        masks = (bits.astype(np.uint64) * np.uint64(2**64 - 1))[..., None]

        ands, _ = _bitsliced_sbox(tuple(self.sbox.table), n)
        sbox_out = np.empty_like(state)
        products = np.empty((len(ands), n_sboxes, n_words), dtype=np.uint64)
        perm = _bit_major_perm(tuple(self.perm), n)
        rows = state.reshape(self.block_bits, n_words)
        for r in range(self.rounds):
            if self.add_key_first:
                state ^= masks[r]
            _sbox_layer(state, self.sbox, sbox_out, products)
            np.take(sbox_out.reshape(rows.shape), perm, axis=0, out=rows, mode="clip")
            if not self.add_key_first:
                state ^= masks[r]
        if self.final_whitening:
            state ^= masks[self.rounds]
        return words_to_bytes(state.transpose(1, 0, 2).reshape(rows.shape), batch)

    def build_core(
        self,
        builder: CircuitBuilder,
        plaintext: Word,
        key: Word,
        *,
        sbox_circuit: Circuit,
        lam: Word | None = None,
        dynamic_domain: bool = False,
        tag: str = "core",
    ) -> "SpnCore":
        return build_spn_core(
            builder,
            self,
            plaintext,
            key,
            sbox_circuit=sbox_circuit,
            lam=lam,
            dynamic_domain=dynamic_domain,
            tag=tag,
        )


@functools.lru_cache(maxsize=None)
def _bitsliced_sbox(table: tuple[int, ...], n: int):
    """The S-box as straight-line bitsliced code: ``(ands, outputs)``.

    Each output bit is the XOR of the monomials (input-bit masks) of its
    algebraic normal form, read off the truth table by the Möbius
    transform.  ``ands`` builds every monomial of degree two or more as
    ``(m, lower, top_bit)``, lower monomials first; ``outputs[i]`` is
    ``(monomials, invert)``, ``invert`` for a constant-1 term.
    """
    outputs = []
    needed: set[int] = set()
    for i in range(n):
        f = [(y >> i) & 1 for y in table]
        for b in range(n):
            for x in range(1 << n):
                if (x >> b) & 1:
                    f[x] ^= f[x ^ (1 << b)]
        monomials = tuple(m for m in range(1, 1 << n) if f[m])
        outputs.append((monomials, bool(f[0])))
        for m in monomials:
            while m & (m - 1):  # m and its lower prefixes, down to one bit
                needed.add(m)
                m ^= 1 << (m.bit_length() - 1)
    tops = {m: 1 << (m.bit_length() - 1) for m in sorted(needed)}
    ands = tuple((m, m ^ top, top) for m, top in tops.items())
    return ands, tuple(outputs)


@functools.lru_cache(maxsize=None)
def _bit_major_perm(perm: tuple[int, ...], n: int) -> np.ndarray:
    """The bit permutation as a row map over bit-major state rows.

    Bit-major row ``b * n_sboxes + j`` is bit ``b`` of S-box ``j`` (state
    row ``n * j + b``); entry ``f`` of the map is the bit-major row of the
    S-layer output that the permutation moves to bit-major row ``f``.
    """
    row_of = np.arange(len(perm)).reshape(-1, n).T.ravel()  # bit-major → state row
    source = np.argsort(perm)[row_of]  # state row perm moves there
    index = np.argsort(row_of)[source]
    index.setflags(write=False)
    return index


def _sbox_layer(
    x: np.ndarray, sbox: SBox, out: np.ndarray, products: np.ndarray
) -> None:
    """Bitsliced S-box layer over bit-major rows into ``out``.

    ``x`` and ``out`` are ``(n, n_sboxes, n_words)``: ``x[b]`` holds input
    bit ``b`` of every S-box, so each monomial is one contiguous
    ``(n_sboxes, n_words)`` slice and all boxes are evaluated together.
    ``products`` receives the monomials of degree two or more.
    """
    ands, outputs = _bitsliced_sbox(tuple(sbox.table), sbox.n)
    mono = {1 << b: x[b] for b in range(sbox.n)}
    for (m, lower, top), y in zip(ands, products):
        mono[m] = np.bitwise_and(mono[lower], mono[top], out=y)
    for y, (monomials, invert) in zip(out, outputs):
        np.copyto(y, mono[monomials[0]])
        for m in monomials[1:]:
            y ^= mono[m]
        if invert:
            np.invert(y, out=y)


@dataclass
class SpnCore:
    """Handle onto one instantiated core inside a larger circuit.

    All net lists are *combinational taps* of the single physical round:
    during cycle ``r`` they carry round ``r + 1``'s values.  After
    ``spec.rounds`` clock steps plus one combinational evaluation,
    ``ciphertext`` carries the (decoded) result.
    """

    tag: str
    spec: CipherSpec
    ciphertext: Word
    raw_output: Word
    state_in: Word
    round_mask: Word
    sbox_inputs: list[Word] = field(default_factory=list)
    sbox_outputs: list[Word] = field(default_factory=list)
    lam: Word | None = None


def build_spn_core(
    builder: CircuitBuilder,
    spec: SpnSpec,
    plaintext: Word,
    key: Word,
    *,
    sbox_circuit: Circuit,
    lam: Word | None = None,
    dynamic_domain: bool = False,
    tag: str = "core",
) -> SpnCore:
    """Stamp one round-iterative core into ``builder``.

    Parameters
    ----------
    sbox_circuit:
        A synthesised S-box with ports ``x`` → ``y``.  Without a domain this
        must be the plain ``n × n`` box; with ``lam`` it must be the merged
        ``(n+1) × n`` box whose extra MSB input is λ
        (:meth:`SBox.merged_truthtable`).
    lam:
        Per-S-box domain nets (length ``spec.n_sboxes``).  Callers
        implement the paper's variants purely by wiring: the *prime* and
        *per-round* variants pass the same net 16 times, *per-S-box* passes
        16 distinct nets.
    dynamic_domain:
        Set when λ can change between cycles (per-round / per-S-box
        variants); adds the λ history register and the re-encoding XOR layer.
    """
    if len(plaintext) != spec.block_bits:
        raise ValueError(f"plaintext must be {spec.block_bits} nets")
    if len(key) != spec.key_bits:
        raise ValueError(f"key must be {spec.key_bits} nets")
    n_sb = spec.n_sboxes
    sb_n = spec.sbox.n
    if lam is not None and len(lam) != n_sb:
        raise ValueError(f"lam must provide {n_sb} nets (one per S-box)")
    expected_sbox_inputs = sb_n + (1 if lam is not None else 0)
    got_inputs = len(sbox_circuit.inputs.get("x", []))
    if got_inputs != expected_sbox_inputs:
        raise ValueError(
            f"sbox_circuit has {got_inputs} inputs, need {expected_sbox_inputs} "
            f"({'merged' if lam is not None else 'plain'} box)"
        )

    # `first` is 1 only during cycle 0: a flop initialised to 1 fed with 0.
    first = builder.dff(builder.circuit.const(0), init=1, tag=f"{tag}/first")

    state_q, state_connect = builder.register(
        spec.block_bits, tag=f"{tag}/state"
    )

    # Static domain: encode the plaintext once on load (P ⊕ λ).
    loaded = plaintext
    if lam is not None and not dynamic_domain:
        loaded = [
            builder.xor(bit, lam[i // sb_n], tag=f"{tag}/encode")
            for i, bit in enumerate(plaintext)
        ]
    state_in = builder.mux_word(first, state_q, loaded, tag=f"{tag}/load")

    round_mask = spec.build_scheduler(builder, key, first, tag)

    s = list(state_in)
    if spec.add_key_first:
        s = builder.xor_word(s, round_mask, tag=f"{tag}/addkey")

    # Domain bookkeeping: domain_in[p] = encoding of state_in bit p.
    domain_in: Word | None = None
    if lam is not None:
        if dynamic_domain:
            lam_prev, lam_connect = builder.register(n_sb, tag=f"{tag}/lamprev")
            lam_connect(lam)
            perm_inv = [0] * spec.block_bits
            for i, p in enumerate(spec.perm):
                perm_inv[p] = i
            # state_in came through the permutation, so bit p was produced
            # by S-box perm_inv[p] // n in the previous cycle; λ_prev resets
            # to 0, matching the unencoded plaintext on cycle 0.
            domain_in = [lam_prev[perm_inv[p] // sb_n] for p in range(spec.block_bits)]
            # Re-encode every S-box input into its consumer's domain.
            recode_cache: dict[tuple[int, int], int] = {}
            recoded: Word = []
            for p, bit in enumerate(s):
                d_old = domain_in[p]
                d_new = lam[p // sb_n]
                key_pair = (min(d_old, d_new), max(d_old, d_new))
                if d_old == d_new:
                    recoded.append(bit)
                    continue
                delta = recode_cache.get(key_pair)
                if delta is None:
                    delta = builder.xor(d_old, d_new, tag=f"{tag}/recode")
                    recode_cache[key_pair] = delta
                recoded.append(builder.xor(bit, delta, tag=f"{tag}/recode"))
            s = recoded
        else:
            domain_in = [lam[p // sb_n] for p in range(spec.block_bits)]

    # The one physical S-box layer.
    sbox_inputs: list[Word] = []
    sbox_outputs: list[Word] = []
    out_bits: Word = []
    for j in range(n_sb):
        # The slice nets are one-to-one with S-box input lines (each driver
        # feeds exactly one box), so fault campaigns can target them
        # directly — "the 2nd MSB input line of S-box 13" is
        # ``sbox_inputs[13][2]``.
        ins = s[sb_n * j : sb_n * (j + 1)]
        bound = list(ins)
        if lam is not None:
            bound.append(lam[j])
        ports = builder.append_circuit(
            sbox_circuit, {"x": bound}, tag_prefix=f"{tag}/sbox{j}/"
        )
        outs = ports["y"]
        sbox_inputs.append(ins)
        sbox_outputs.append(outs)
        out_bits.extend(outs)

    permuted: Word = [0] * spec.block_bits
    for i, p in enumerate(spec.perm):
        permuted[p] = out_bits[i]

    s = permuted
    if not spec.add_key_first:
        s = builder.xor_word(s, round_mask, tag=f"{tag}/addkey")
    state_connect(s)

    raw = list(state_in)
    if spec.final_whitening:
        raw = builder.xor_word(raw, round_mask, tag=f"{tag}/whiten")
    ciphertext = raw
    if lam is not None:
        assert domain_in is not None
        ciphertext = [
            builder.xor(bit, dom, tag=f"{tag}/decode")
            for bit, dom in zip(raw, domain_in)
        ]

    return SpnCore(
        tag=tag,
        spec=spec,
        ciphertext=ciphertext,
        raw_output=raw,
        state_in=list(state_in),
        round_mask=list(round_mask),
        sbox_inputs=sbox_inputs,
        sbox_outputs=sbox_outputs,
        lam=list(lam) if lam is not None else None,
    )
