"""The unified scheme surface: one protocol, one construction path.

Every scheme the registry hands out - the Table 1 certificateless
schemes, the hardened variant, and the IBS/BLS/ECDSA baselines - must
drive through the same four calls: ``generate_user_keys``, ``sign``,
``verify(message, signature, identity, public_key)``.
"""

import random

import pytest

from repro.pairing.bn import toy_curve
from repro.pairing.groups import PairingContext
from repro.schemes.base import SchemeProtocol
from repro.schemes.registry import all_scheme_names, create_scheme
from repro.schemes import registry as registry_mod

CURVE = toy_curve(32)


class NotAScheme:
    """Constructible but protocol-violating (for the TypeError path)."""

    def __init__(self, ctx):
        pass


class TestRegistry:
    @pytest.mark.parametrize("name", all_scheme_names())
    def test_create_scheme_conforms_and_round_trips(self, name):
        ctx = PairingContext(CURVE, random.Random(42))
        scheme = create_scheme(name, ctx)
        assert isinstance(scheme, SchemeProtocol)
        assert scheme.name
        keys = scheme.generate_user_keys("alice@test")
        message = b"unified surface"
        signature = scheme.sign(message, keys)
        extra = getattr(keys, "public_key_extra", None)
        assert scheme.verify(
            message,
            signature,
            "alice@test",
            keys.public_key,
            public_key_extra=extra,
        )
        assert not scheme.verify(
            b"tampered",
            signature,
            "alice@test",
            keys.public_key,
            public_key_extra=extra,
        )

    def test_unknown_name_raises_key_error(self):
        ctx = PairingContext(CURVE)
        with pytest.raises(KeyError, match="unknown scheme"):
            create_scheme("rsa", ctx)

    def test_non_conforming_class_raises_type_error(self, monkeypatch):
        monkeypatch.setitem(
            registry_mod._BASELINE_PATHS,
            "bogus",
            "tests.test_scheme_protocol:NotAScheme",
        )
        with pytest.raises(TypeError, match="SchemeProtocol"):
            create_scheme("bogus", PairingContext(CURVE))
