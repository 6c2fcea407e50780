"""Signing and sealing primitives plus the key registry.

The protocol needs an abstract signature scheme with deterministic
verification and a public-key sealing scheme; the concrete algorithms are
an implementation detail. Here: Ed25519 signatures and an ECIES-style
seal (ephemeral X25519, HKDF-SHA256, AES-GCM). All key material and
ephemeral randomness is derived from the run seed so whole sessions
replay byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey, Ed25519PublicKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from .topology import Topology

_SEAL_INFO = b"routecheck-seal-v1"


class VerifyKey:
    def __init__(self, raw: bytes):
        self._raw = raw
        self._key = Ed25519PublicKey.from_public_bytes(raw)

    @property
    def raw(self) -> bytes:
        return self._raw

    def verify(self, signature: bytes, message: bytes) -> bool:
        try:
            self._key.verify(signature, message)
            return True
        except InvalidSignature:
            return False


class SigningKey:
    def __init__(self, seed32: bytes):
        if len(seed32) != 32:
            raise ValueError("signing key seed must be 32 bytes")
        self._key = Ed25519PrivateKey.from_private_bytes(seed32)
        pub = self._key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )
        self.verify_key = VerifyKey(pub)

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message)


def _derive_aes_key(shared: bytes) -> bytes:
    return HKDF(algorithm=hashes.SHA256(), length=32, salt=None, info=_SEAL_INFO).derive(shared)


class SealKeyPair:
    """Recipient side of the sealing scheme."""

    def __init__(self, seed32: bytes):
        if len(seed32) != 32:
            raise ValueError("seal key seed must be 32 bytes")
        self._key = X25519PrivateKey.from_private_bytes(seed32)
        self.public_raw = self._key.public_key().public_bytes(
            serialization.Encoding.Raw, serialization.PublicFormat.Raw
        )

    def unseal(self, blob: bytes) -> bytes:
        """Inverse of seal(); raises ValueError on any malformed/forged input."""
        if len(blob) < 32 + 12 + 16:
            raise ValueError("sealed blob too short")
        eph_pub = blob[:32]
        nonce = blob[32:44]
        ct = blob[44:]
        shared = self._key.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        key = _derive_aes_key(shared)
        try:
            return AESGCM(key).decrypt(nonce, ct, eph_pub)
        except Exception as e:  # cryptography raises InvalidTag
            raise ValueError("unsealing failed") from e


def seal(recipient_public_raw: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """Encrypt to the recipient's public key: eph_pub | nonce | ciphertext."""
    eph = X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph.public_key().public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    shared = eph.exchange(X25519PublicKey.from_public_bytes(recipient_public_raw))
    key = _derive_aes_key(shared)
    nonce = rng.randbytes(12)
    ct = AESGCM(key).encrypt(nonce, plaintext, eph_pub)
    return eph_pub + nonce + ct


@dataclass
class KeyRegistry:
    """Controller key material and the verification keys of enrolled clients."""

    controller_signing: SigningKey
    controller_seal: SealKeyPair
    client_keys: dict[str, VerifyKey]

    @classmethod
    def provision(cls, topo: Topology, seed: int | str) -> tuple["KeyRegistry", dict[str, SigningKey]]:
        """Deterministic startup provisioning.

        Every client attached in the topology gets a signing key unless it
        is marked ``nokey``; returns the registry plus the private signing
        keys handed to the client agents.
        """
        rng = random.Random(f"{seed}:keys")
        controller_signing = SigningKey(rng.randbytes(32))
        controller_seal = SealKeyPair(rng.randbytes(32))
        client_keys: dict[str, VerifyKey] = {}
        client_signing: dict[str, SigningKey] = {}
        for client in sorted(topo.clients()):
            if client in topo.unkeyed:
                continue
            sk = SigningKey(rng.randbytes(32))
            client_signing[client] = sk
            client_keys[client] = sk.verify_key
        return cls(controller_signing, controller_seal, client_keys), client_signing
