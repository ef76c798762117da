"""AES-128 as a round-iterative hardware datapath, countermeasure-ready.

AES is the stress test for the countermeasure's genericity claim: unlike
PRESENT/GIFT its linear layer is not a bit permutation, so the inverted
domain is only usable if MixColumns is *inversion-transparent*.  It is:
MixColumns is GF(2)-linear and its column matrix rows sum to
``2 ⊕ 3 ⊕ 1 ⊕ 1 = 1`` in GF(2⁸), hence ``M(1…1) = 1…1`` and

    M(x̄) = M(x ⊕ 1…1) = M(x) ⊕ M(1…1) = M(x)‾.

ShiftRows is a byte permutation and AddRoundKey is an XOR with a
plain-domain word, so the whole linear layer carries the encoding for free
— the S-boxes (as merged 9×8 boxes) are again the only thing the
countermeasure touches.  The same argument needs the whole state to share
*one* λ, so AES supports the ``PRIME`` and ``PER_ROUND`` variants; the
``PER_SBOX`` variant would need a domain-mixing circuit through MixColumns
and is rejected with a clear error.

Bit conventions: the 128-bit ports carry the FIPS state bytes in
``state[r + 4c]`` order, byte ``j`` at bits ``8j .. 8j+7`` (LSB first);
:func:`block_to_int` / :func:`int_to_block` convert to/from the byte
strings the reference implementation uses.
"""

from __future__ import annotations

import numpy as np

from repro.ciphers.aes import AES128, AES_SBOX
from repro.ciphers.aes_rows import encrypt_rows
from repro.ciphers.rounds import check_rounds
from repro.ciphers.spn import CipherSpec, SpnCore
from repro.netlist.builder import CircuitBuilder
from repro.netlist.circuit import Circuit
from repro.synth.sbox_synth import synthesize_sbox
from repro.utils.bits import words_to_bytes

__all__ = ["AesSpec", "AesReference", "block_to_int", "int_to_block", "build_aes_circuit"]

Word = list[int]

ROUNDS = 10


def block_to_int(block: bytes) -> int:
    """16 bytes (FIPS order) → the 128-bit port integer."""
    if len(block) != 16:
        raise ValueError("AES block must be 16 bytes")
    return int.from_bytes(block, "little")


def int_to_block(value: int) -> bytes:
    """Inverse of :func:`block_to_int`."""
    if value < 0 or value >> 128:
        raise ValueError("value does not fit in 128 bits")
    return value.to_bytes(16, "little")


class AesReference:
    """Integer-port adapter over :class:`repro.ciphers.aes.AES128`."""

    def __init__(self, key: int, *, rounds: int | None = None) -> None:
        self.cipher = AES128(int_to_block(key), rounds=rounds)
        self.rounds = self.cipher.rounds
        #: round keys as port integers (index 0 = whitening key)
        self.round_keys = [
            block_to_int(bytes(rk)) for rk in self.cipher.round_keys
        ]

    def encrypt(self, plaintext: int) -> int:
        return block_to_int(self.cipher.encrypt_block(int_to_block(plaintext)))

    def decrypt(self, ciphertext: int) -> int:
        return block_to_int(self.cipher.decrypt_block(int_to_block(ciphertext)))


def _byte(word: Word, j: int) -> Word:
    return word[8 * j : 8 * (j + 1)]


def _xtime(builder: CircuitBuilder, byte: Word, *, tag: str) -> Word:
    """GF(2⁸) multiplication by x: shift left, conditionally XOR 0x1B.

    Pure wiring plus three XOR gates (0x1B sets output bits 0,1,3,4; bit 0
    is the bare carry wire).
    """
    b7 = byte[7]
    return [
        b7,
        builder.xor(byte[0], b7, tag=tag),
        byte[1],
        builder.xor(byte[2], b7, tag=tag),
        builder.xor(byte[3], b7, tag=tag),
        byte[4],
        byte[5],
        byte[6],
    ]


def _xor_bytes(builder: CircuitBuilder, terms: list[Word], *, tag: str) -> Word:
    out = terms[0]
    for term in terms[1:]:
        out = builder.xor_word(out, term, tag=tag)
    return out


class AesSpec(CipherSpec):
    """AES-128 parameters + datapath generator for the countermeasures."""

    name = "aes128"
    block_bits = 128
    key_bits = 128
    rounds = ROUNDS
    sbox = AES_SBOX

    def __init__(self, *, rounds: int | None = None) -> None:
        if rounds is not None:
            # Reduced-round instance (CI smoke sweeps, quick certifies).
            self.rounds = check_rounds(rounds, ROUNDS)
        # the key schedule always uses the plain S-box (paper §III: "the
        # key schedule is not affected")
        self._key_sbox = synthesize_sbox(AES_SBOX.truthtable(), name="aes_key_sbox")

    def reference(self, key: int) -> AesReference:
        return AesReference(key, rounds=self.rounds)

    def encrypt_packed(self, words: np.ndarray, key: int, batch: int) -> np.ndarray:
        round_keys = np.array(self.reference(key).cipher.round_keys, dtype=np.uint8)
        return encrypt_rows(words_to_bytes(words, batch), round_keys)

    # -- last-round structure (C = ShiftRows(S(x)) ⊕ K10) ----------------

    @staticmethod
    def _shiftrows_dest(byte: int) -> int:
        """Where state byte ``r + 4c`` lands after ShiftRows."""
        r, c = byte % 4, byte // 4
        return r + 4 * ((c - r) % 4)

    def gather_positions(self, target_sbox: int) -> list[int]:
        dest = self._shiftrows_dest(target_sbox)
        return [8 * dest + i for i in range(8)]

    def last_round_subkey(self, key: int, target_sbox: int) -> int:
        dest = self._shiftrows_dest(target_sbox)
        return (self.reference(key).round_keys[-1] >> (8 * dest)) & 0xFF

    # ------------------------------------------------------------ datapath

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
    ) -> SpnCore:
        if len(plaintext) != 128 or len(key) != 128:
            raise ValueError("AES ports must be 128 bits")
        if lam is not None and len(set(lam)) != 1:
            raise ValueError(
                "AES supports one shared λ per cycle (PRIME/PER_ROUND): "
                "per-S-box domains would need a domain-mixing circuit "
                "through MixColumns"
            )
        expected = 9 if lam is not None else 8
        if len(sbox_circuit.inputs.get("x", [])) != expected:
            raise ValueError(
                f"sbox_circuit has {len(sbox_circuit.inputs.get('x', []))} "
                f"inputs, need {expected}"
            )
        lam_net = lam[0] if lam is not None else None

        first = builder.dff(builder.circuit.const(0), init=1, tag=f"{tag}/first")
        state_q, state_connect = builder.register(128, tag=f"{tag}/state")

        # --- key schedule (plain domain) --------------------------------
        key_q, key_connect = builder.register(128, tag=f"{tag}/keyreg")
        key_cur = builder.mux_word(first, key_q, key, tag=f"{tag}/keyload")
        key_next = self._expand_key(builder, key_cur, tag)
        key_connect(key_next)

        # --- load path ----------------------------------------------------
        loaded = builder.xor_word(plaintext, key_cur, tag=f"{tag}/whitenin")
        domain_in: Word
        if lam_net is None:
            domain_in = [builder.circuit.const(0)] * 128
        elif dynamic_domain:
            lam_prev, lam_connect = builder.register(1, tag=f"{tag}/lamprev")
            lam_connect([lam_net])
            domain_in = [lam_prev[0]] * 128
        else:
            loaded = builder.xor_bit_into_word(loaded, lam_net, tag=f"{tag}/encode")
            domain_in = [lam_net] * 128
        state_in = builder.mux_word(first, state_q, loaded, tag=f"{tag}/load")

        # --- re-encode (dynamic only) --------------------------------------
        s = list(state_in)
        if lam_net is not None and dynamic_domain:
            delta = builder.xor(domain_in[0], lam_net, tag=f"{tag}/recode")
            s = builder.xor_bit_into_word(s, delta, tag=f"{tag}/recode")

        # --- SubBytes -------------------------------------------------------
        sbox_inputs: list[Word] = []
        sbox_outputs: list[Word] = []
        sub: Word = []
        for j in range(16):
            ins = _byte(s, j)
            bound = list(ins)
            if lam_net is not None:
                bound.append(lam_net)
            ports = builder.append_circuit(
                sbox_circuit, {"x": bound}, tag_prefix=f"{tag}/sbox{j}/"
            )
            sbox_inputs.append(ins)
            sbox_outputs.append(ports["y"])
            sub.extend(ports["y"])

        # --- ShiftRows (byte wiring) ---------------------------------------
        sr: Word = [0] * 128
        for c in range(4):
            for r in range(4):
                src = _byte(sub, r + 4 * ((c + r) % 4))
                sr[8 * (r + 4 * c) : 8 * (r + 4 * c + 1)] = src

        # --- MixColumns ------------------------------------------------------
        mc: Word = []
        for c in range(4):
            a = [_byte(sr, 4 * c + r) for r in range(4)]
            xt = [_xtime(builder, byte, tag=f"{tag}/mc") for byte in a]
            mc.extend(_xor_bytes(builder, [xt[0], xt[1], a[1], a[2], a[3]], tag=f"{tag}/mc"))
            mc.extend(_xor_bytes(builder, [a[0], xt[1], xt[2], a[2], a[3]], tag=f"{tag}/mc"))
            mc.extend(_xor_bytes(builder, [a[0], a[1], xt[2], xt[3], a[3]], tag=f"{tag}/mc"))
            mc.extend(_xor_bytes(builder, [xt[0], a[0], a[1], a[2], xt[3]], tag=f"{tag}/mc"))

        # --- final-round select + AddRoundKey ------------------------------
        counter_q, counter_connect = builder.register(4, tag=f"{tag}/roundctr")
        counter_connect(builder.incrementer(counter_q, tag=f"{tag}/roundctr"))
        # is_last == (counter == rounds - 1), as a 4-bit equality comparator
        target = self.rounds - 1
        matched = [
            counter_q[i]
            if (target >> i) & 1
            else builder.not_(counter_q[i], tag=f"{tag}/roundctr")
            for i in range(4)
        ]
        is_last = builder.and_(
            builder.and_(matched[0], matched[3], tag=f"{tag}/roundctr"),
            builder.and_(matched[1], matched[2], tag=f"{tag}/roundctr"),
            tag=f"{tag}/roundctr",
        )
        selected = builder.mux_word(is_last, mc, sr, tag=f"{tag}/lastsel")
        state_connect(builder.xor_word(selected, key_next, tag=f"{tag}/addkey"))

        # --- output ----------------------------------------------------------
        raw = list(state_in)
        ciphertext = [
            builder.xor(bit, dom, tag=f"{tag}/decode")
            for bit, dom in zip(raw, domain_in)
        ] if lam_net is not None else raw

        return SpnCore(
            tag=tag,
            spec=self,
            ciphertext=ciphertext,
            raw_output=raw,
            state_in=list(state_in),
            round_mask=list(key_next),
            sbox_inputs=sbox_inputs,
            sbox_outputs=sbox_outputs,
            lam=list(lam) if lam is not None else None,
        )

    def _expand_key(self, builder: CircuitBuilder, cur: Word, tag: str) -> Word:
        """One combinational key-expansion step: cur = Kᵣ → Kᵣ₊₁."""
        rcon_q, rcon_connect = builder.register(8, init=0x01, tag=f"{tag}/rcon")
        rcon_connect(_xtime(builder, rcon_q, tag=f"{tag}/rcon"))

        w = [cur[32 * i : 32 * (i + 1)] for i in range(4)]
        # RotWord(w3): bytes (b1, b2, b3, b0) of the word
        rot = w[3][8:32] + w[3][0:8]
        temp: Word = []
        for j in range(4):
            ports = builder.append_circuit(
                self._key_sbox,
                {"x": rot[8 * j : 8 * (j + 1)]},
                tag_prefix=f"{tag}/keysbox{j}/",
            )
            temp.extend(ports["y"])
        temp[0:8] = builder.xor_word(temp[0:8], rcon_q, tag=f"{tag}/rconxor")

        out: Word = []
        prev = temp
        for i in range(4):
            prev = builder.xor_word(w[i], prev, tag=f"{tag}/keyxor")
            out.extend(prev)
        return out


def build_aes_circuit(*, name: str = "aes128") -> tuple[Circuit, SpnCore]:
    """A bare (unprotected) AES-128 encryption circuit.

    Ports: ``plaintext`` (128), ``key`` (128) → ``ciphertext`` (128);
    10 clock cycles per block.
    """
    spec = AesSpec()
    builder = CircuitBuilder(name)
    pt = builder.input("plaintext", 128)
    key = builder.input("key", 128)
    sbox_circuit = synthesize_sbox(AES_SBOX.truthtable(), name="aes_sbox")
    core = spec.build_core(builder, pt, key, sbox_circuit=sbox_circuit, tag="u")
    builder.output("ciphertext", core.ciphertext)
    builder.circuit.validate()
    return builder.circuit, core
